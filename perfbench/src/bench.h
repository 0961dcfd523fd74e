// Shared pieces of the perfbench program: the workload inputs' layout on
// disk, a span recorder the traced run uses around public library calls,
// and the per-run result (metrics, counters, failure accounting) each
// workload fills in.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/constraints/registry.h"
#include "src/core/engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- inputs

/// One dataset of a workload: its name, the rows generated, and for the
/// interactive workload the rows the session opens on (the rest are held
/// out and appended by Update batches).
struct DatasetSpec {
  std::string name;
  size_t rows = 0;
  size_t open_rows = 0;  ///< 0 means all rows
};

/// The datasets of a workload, in run order. Fails on an unknown name.
bclean::Result<std::vector<DatasetSpec>> WorkloadDatasets(
    const std::string& workload);

/// Input file paths of one dataset under the workload's input directory.
std::string DirtyPath(const std::string& dir, const std::string& dataset);
std::string CleanPath(const std::string& dir, const std::string& dataset);
std::string HeldOutPath(const std::string& dir, const std::string& dataset);
std::string FixesPath(const std::string& dir, const std::string& dataset);

/// Writes every input file of `workload` for `seed` into `dir`: per
/// dataset the dirty CSV, the ground-truth CSV and, for the interactive
/// workload, the held-out dirty rows and the error-correcting row fixes.
bclean::Status GenerateInputs(const std::string& workload, uint64_t seed,
                              const std::string& dir);

/// The dataset definition's UC registry (Table 3), taken from a tiny
/// instance of the generator: constraints depend on the schema only.
bclean::Result<bclean::UcRegistry> DatasetUcs(const std::string& dataset);

// ------------------------------------------------------------------ trace

/// In-memory span recorder. Spans nest on the single client thread; each
/// holds a name, start and end (seconds since the recorder was made), its
/// parent span and a job id. Disabled recorders record nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int job = 0;
  };

  /// RAII span: begins on construction, ends on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, int job);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Number of spans recorded so far (a mark for SelfTotals).
  size_t size() const { return spans_.size(); }

  /// Self time by span name over the spans recorded since `first`: each
  /// span's duration minus the part its child spans cover.
  std::map<std::string, double> SelfTotals(size_t first) const;

  /// Writes the spans as a JSON array to `path`.
  bclean::Status WriteJson(const std::string& path) const;

 private:
  int Begin(std::string name, int job);
  void End(int id);

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ----------------------------------------------------------------- result

/// Per-call samples of one run: `calls[key]` holds one value per rep, so
/// a metric can take each call's median across reps before summing.
class RepSamples {
 public:
  void Add(const std::string& key, double value) {
    calls_[key].push_back(value);
  }
  /// Sum over keys starting with `prefix` of the key's median over reps.
  double SumOfMedians(const std::string& prefix) const;
  /// Median of the values under exactly `key` (0 when absent).
  double MedianOf(const std::string& key) const;
  /// Number of values under exactly `key`.
  size_t CountOf(const std::string& key) const;
  /// Every value under keys starting with `prefix`, pooled.
  std::vector<double> Pooled(const std::string& prefix) const;

 private:
  std::map<std::string, std::vector<double>> calls_;
};

double Median(std::vector<double> values);

/// Nearest-rank percentile (q in (0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

/// What one measured process reports back to run.py.
struct RunResult {
  size_t reps = 0;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  /// Metric name -> (value, unit).
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Human-readable lines (bases of ratios, sample counts).
  std::vector<std::string> notes;
  /// (clean, dirty, cleaned) CSV triples the f1 step evaluates.
  std::vector<std::vector<std::string>> f1_jobs;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Counts one attempted operation; a non-OK status counts as failed.
  void Check(const bclean::Status& status, const std::string& what);
  /// Counts a failed output check (the operation was already attempted).
  void Fail(const std::string& what);
  void Note(std::string line) { notes.push_back(std::move(line)); }

  bclean::Status WriteJson(const std::string& path) const;
};

/// Deterministic per-rep counters: records `value` under `name` for the
/// current rep and, from the second rep on, fails the run when it differs
/// from the first rep's.
class CounterCheck {
 public:
  void Record(const std::string& name, double value, RunResult& result);
  /// The first rep's value (0 when never recorded).
  double First(const std::string& name) const;

 private:
  std::map<std::string, double> first_;
};

/// Per-layer bookkeeping of one run. Each rep's layer times are the self
/// times of the spans recorded during the rep (mapped to layer metrics by
/// span name) plus times added directly; the reported value is the median
/// over reps. Work counters are summed per rep and must repeat exactly
/// across reps. Report() sets every per-layer metric, 0 where the
/// workload does not reach the layer.
class LayerBook {
 public:
  explicit LayerBook(const Tracer& tracer) : tracer_(tracer) {}

  void BeginRep();
  /// Adds one clean pass's engine counters and seconds to the rep.
  void AddClean(const bclean::CleanStats& stats);
  /// Adds to a deterministic per-rep counter.
  void Count(const std::string& name, double value) {
    rep_counts_[name] += value;
  }
  /// Adds seconds to a per-rep layer time.
  void Time(const std::string& name, double seconds) {
    rep_times_[name] += seconds;
  }
  /// Adds one sample to a metric reported as the median of all samples.
  void Sample(const std::string& name, double value) {
    pooled_.Add(name, value);
  }
  void EndRep(RunResult& result);
  void Report(RunResult& result) const;

 private:
  const Tracer& tracer_;
  size_t mark_ = 0;
  std::map<std::string, double> rep_counts_;
  std::map<std::string, double> rep_times_;
  double rep_cache_hits_ = 0.0;
  RepSamples times_;   ///< per-rep layer times and ratios, one value per rep
  RepSamples pooled_;  ///< per-call samples
  CounterCheck counters_;
};

/// Service options with every pool at width 1: the shared pool and the
/// CleanAsync dispatcher.
bclean::ServiceOptions WidthOneService();

/// Knobs of one measured run.
struct RunOptions {
  std::string workload;
  std::string input_dir;
  std::string output_dir;
  double seconds = 10.0;
  bool trace = false;
};

bclean::Result<RunResult> RunPaperBatch(const RunOptions& options);
bclean::Result<RunResult> RunInteractive(const RunOptions& options);
bclean::Result<RunResult> RunOutOfCore(const RunOptions& options);

/// Streaming F1 (paper Section 7.1) of one (clean, dirty, cleaned) triple.
struct F1Counts {
  size_t errors = 0;
  size_t modified = 0;
  size_t correct_repairs = 0;
  size_t repaired_errors = 0;
  double F1() const;
};
bclean::Result<F1Counts> StreamF1(const std::string& clean,
                                  const std::string& dirty,
                                  const std::string& cleaned);

/// 64-bit FNV-1a over a file's bytes, read in blocks.
bclean::Result<uint64_t> DigestFile(const std::string& path);

/// Peak resident set of this process (getrusage), in MB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
