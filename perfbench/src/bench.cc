#include "perfbench/src/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "src/common/digest.h"
#include "src/common/rng.h"
#include "src/data/csv.h"
#include "src/datagen/benchmarks.h"
#include "src/errors/error_injection.h"
#include "src/shard/row_source.h"

namespace perfbench {

using bclean::Result;
using bclean::Status;
using bclean::Table;

namespace {

constexpr uint64_t kDatasetSeed = 42;
constexpr uint64_t kInjectionSeed = 7;

// SplitMix64 finalizer: decorrelates the per-dataset seeds derived from
// one workload seed.
uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Status WriteText(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) return Status::Internal("cannot write " + path);
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------- inputs

Result<std::vector<DatasetSpec>> WorkloadDatasets(const std::string& workload) {
  if (workload == "paper-batch") {
    // Table 2 sizes, Soccer at the bench suite's 10 000 rows.
    return std::vector<DatasetSpec>{{"hospital", 1000, 0},
                                    {"flights", 2376, 0},
                                    {"soccer", 10000, 0},
                                    {"beers", 2410, 0},
                                    {"inpatient", 4017, 0},
                                    {"facilities", 7992, 0}};
  }
  if (workload == "interactive") {
    return std::vector<DatasetSpec>{{"hospital", 1000, 900},
                                    {"flights", 2376, 2138}};
  }
  if (workload == "out-of-core") {
    return std::vector<DatasetSpec>{{"soccer", 50000, 0}};
  }
  return Status::InvalidArgument("unknown workload: " + workload);
}

std::string DirtyPath(const std::string& dir, const std::string& dataset) {
  return dir + "/" + dataset + ".dirty.csv";
}
std::string CleanPath(const std::string& dir, const std::string& dataset) {
  return dir + "/" + dataset + ".clean.csv";
}
std::string HeldOutPath(const std::string& dir, const std::string& dataset) {
  return dir + "/" + dataset + ".heldout.csv";
}
std::string FixesPath(const std::string& dir, const std::string& dataset) {
  return dir + "/" + dataset + ".fixes.csv";
}

Status GenerateInputs(const std::string& workload, uint64_t seed,
                      const std::string& dir) {
  Result<std::vector<DatasetSpec>> specs = WorkloadDatasets(workload);
  if (!specs.ok()) return specs.status();
  uint64_t salt = 0;
  for (const DatasetSpec& spec : specs.value()) {
    ++salt;
    // The clean tables are the generator's fixed reconstructions of the
    // paper's datasets and the injected errors are fixed too (the
    // datagen's default seed and the bench suite's injection seed); the
    // workload seed rotates the rows a session opens on, so a different
    // row leads and dictionary codes (first-occurrence order) differ.
    // Re-drawing the errors per seed moves the learned network, and with
    // it the cost of a clean, by up to 5x per dataset; a full shuffle
    // destroys the generator's row locality and moves timings by ~10%
    // between seeds. Either way seeds would measure different programs.
    Result<bclean::Dataset> dataset =
        bclean::MakeBenchmark(spec.name, spec.rows, kDatasetSeed);
    if (!dataset.ok()) return dataset.status();
    bclean::Rng inject_rng(kInjectionSeed);
    Result<bclean::InjectionResult> injected = bclean::InjectErrors(
        dataset.value().clean, dataset.value().default_injection, &inject_rng);
    if (!injected.ok()) return injected.status();
    const size_t opened = spec.open_rows == 0 ? spec.rows : spec.open_rows;
    const size_t shift = MixSeed(seed, salt) % opened;
    std::vector<size_t> order(spec.rows);
    for (size_t r = 0; r < order.size(); ++r) {
      order[r] = r < opened ? (r + shift) % opened : r;
    }
    const Table clean = dataset.value().clean.SelectRows(order);
    const Table dirty = injected.value().dirty.SelectRows(order);
    BCLEAN_RETURN_IF_ERROR(
        bclean::WriteCsvFile(clean, CleanPath(dir, spec.name)));
    if (spec.open_rows == 0) {
      BCLEAN_RETURN_IF_ERROR(
          bclean::WriteCsvFile(dirty, DirtyPath(dir, spec.name)));
      continue;
    }
    // Interactive: the session opens on the rotated first open_rows rows;
    // the rest are held out, in generator order, and appended later. Fixes
    // restore the ground truth of opened rows that carry an injected
    // error, as a user correcting cells would, in generator row order so
    // every seed corrects the same cells in the same order.
    std::vector<size_t> front(opened);
    std::vector<size_t> tail;
    for (size_t r = 0; r < opened; ++r) front[r] = r;
    for (size_t r = opened; r < spec.rows; ++r) tail.push_back(r);
    BCLEAN_RETURN_IF_ERROR(bclean::WriteCsvFile(dirty.SelectRows(front),
                                                DirtyPath(dir, spec.name)));
    BCLEAN_RETURN_IF_ERROR(bclean::WriteCsvFile(dirty.SelectRows(tail),
                                                HeldOutPath(dir, spec.name)));
    std::vector<size_t> position(opened);
    for (size_t r = 0; r < opened; ++r) position[order[r]] = r;
    std::vector<std::string> names = {"row"};
    for (const auto& attribute : clean.schema().attributes()) {
      names.push_back(attribute.name);
    }
    Table fixes(bclean::Schema::FromNames(names));
    for (size_t original = 0; original < opened; ++original) {
      const size_t r = position[original];
      std::vector<std::string> row = clean.Row(r);
      if (row == dirty.Row(r)) continue;
      row.insert(row.begin(), std::to_string(r));
      fixes.AddRowUnchecked(std::move(row));
    }
    BCLEAN_RETURN_IF_ERROR(
        bclean::WriteCsvFile(fixes, FixesPath(dir, spec.name)));
  }
  return Status::OK();
}

Result<bclean::UcRegistry> DatasetUcs(const std::string& dataset) {
  Result<bclean::Dataset> tiny = bclean::MakeBenchmark(dataset, 32, 1);
  if (!tiny.ok()) return tiny.status();
  return tiny.value().ucs;
}

// ------------------------------------------------------------------ trace

Tracer::Scope::Scope(Tracer& tracer, std::string name, int job)
    : tracer_(tracer), id_(tracer.Begin(std::move(name), job)) {}

Tracer::Scope::~Scope() { tracer_.End(id_); }

int Tracer::Begin(std::string name, int job) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.job = job;
  span.start = SecondsBetween(origin_, Clock::now());
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end = SecondsBetween(origin_, Clock::now());
  open_.pop_back();
}

std::map<std::string, double> Tracer::SelfTotals(size_t first) const {
  // Children of one span run sequentially on the client thread, so the
  // part of the parent they cover is the sum of their durations.
  std::vector<double> child_time(spans_.size(), 0.0);
  for (size_t i = first; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.parent >= 0) {
      child_time[static_cast<size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<std::string, double> totals;
  for (size_t i = first; i < spans_.size(); ++i) {
    totals[spans_[i].name] +=
        spans_[i].end - spans_[i].start - child_time[i];
  }
  return totals;
}

Status Tracer::WriteJson(const std::string& path) const {
  std::ostringstream out;
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": " << JsonString(s.name)
        << ", \"start\": " << JsonNumber(s.start)
        << ", \"end\": " << JsonNumber(s.end) << ", \"parent\": " << s.parent
        << ", \"job\": " << s.job << "}" << (i + 1 < spans_.size() ? "," : "")
        << "\n";
  }
  out << "]\n";
  return WriteText(path, out.str());
}

// ----------------------------------------------------------------- result

double RepSamples::SumOfMedians(const std::string& prefix) const {
  double total = 0.0;
  for (auto it = calls_.lower_bound(prefix);
       it != calls_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    total += Median(it->second);
  }
  return total;
}

double RepSamples::MedianOf(const std::string& key) const {
  auto it = calls_.find(key);
  return it == calls_.end() ? 0.0 : Median(it->second);
}

size_t RepSamples::CountOf(const std::string& key) const {
  auto it = calls_.find(key);
  return it == calls_.end() ? 0 : it->second.size();
}

std::vector<double> RepSamples::Pooled(const std::string& prefix) const {
  std::vector<double> out;
  for (auto it = calls_.lower_bound(prefix);
       it != calls_.end() && it->first.compare(0, prefix.size(), prefix) == 0;
       ++it) {
    out.insert(out.end(), it->second.begin(), it->second.end());
  }
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

void RunResult::Check(const Status& status, const std::string& what) {
  ++attempted;
  if (!status.ok()) Fail(what + ": " + status.ToString());
}

void RunResult::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

Status RunResult::WriteJson(const std::string& path) const {
  std::ostringstream out;
  out << "{\n  \"reps\": " << reps << ",\n  \"attempted\": " << attempted
      << ",\n  \"failed\": " << failed << ",\n  \"failures\": [";
  for (size_t i = 0; i < failures.size(); ++i) {
    out << (i ? ", " : "") << JsonString(failures[i]);
  }
  out << "],\n  \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    out << (first ? "\n" : ",\n") << "    " << JsonString(name)
        << ": {\"value\": " << JsonNumber(value.first)
        << ", \"unit\": " << JsonString(value.second) << "}";
    first = false;
  }
  out << "\n  },\n  \"notes\": [";
  for (size_t i = 0; i < notes.size(); ++i) {
    out << (i ? ",\n    " : "\n    ") << JsonString(notes[i]);
  }
  out << "\n  ],\n  \"f1_jobs\": [";
  for (size_t i = 0; i < f1_jobs.size(); ++i) {
    out << (i ? ",\n    [" : "\n    [");
    for (size_t j = 0; j < f1_jobs[i].size(); ++j) {
      out << (j ? ", " : "") << JsonString(f1_jobs[i][j]);
    }
    out << "]";
  }
  out << "\n  ]\n}\n";
  return WriteText(path, out.str());
}

void CounterCheck::Record(const std::string& name, double value,
                          RunResult& result) {
  auto [it, inserted] = first_.emplace(name, value);
  if (!inserted && it->second != value) {
    result.Fail("counter " + name + " changed across reps: " +
                JsonNumber(it->second) + " then " + JsonNumber(value));
  }
}

double CounterCheck::First(const std::string& name) const {
  auto it = first_.find(name);
  return it == first_.end() ? 0.0 : it->second;
}

// ------------------------------------------------------------- layer book

namespace {

// Span name -> the per-layer time metric its self time feeds.
const std::map<std::string, std::string>& SpanLayers() {
  static const auto* const kMap = new std::map<std::string, std::string>{
      {"ReadCsvFile", "data.csv_read_s"},
      {"WriteCsvFile", "data.csv_write_s"},
      {"DomainStats::Build", "data.dict_build_s"},
      {"UcMask::Build", "uc.mask_build_s"},
      {"CompensatoryModel::Build", "compensatory.build_s"},
      {"BuildSimilarityObservations", "fdx.sim_obs_s"},
      {"LearnStructureFromObservations", "fdx.learn_s"},
      {"BayesianNetwork::Fit", "bn.fit_s"},
      {"DigestTableContent", "service.digest_s"},
      {"Session::EditNetwork", "service.edit_s"},
      {"Session::Update", "service.update_s"},
      {"RowSource::Next", "shard.source_s"},
  };
  return *kMap;
}

// Layer time metrics (median over reps of the per-rep sum), in order.
const char* const kLayerTimes[] = {
    "data.csv_read_s",     "data.csv_write_s",     "data.dict_build_s",
    "uc.mask_build_s",     "compensatory.build_s", "fdx.sim_obs_s",
    "fdx.learn_s",         "bn.fit_s",             "engine.clean_s",
    "service.digest_s",    "service.open_other_s", "service.edit_s",
    "service.update_s",    "shard.source_s",
};

// Deterministic work counters (the first rep's value; checked equal).
const char* const kLayerCounts[] = {
    "data.dict_values",           "fdx.sim_calls",
    "fdx.edges",                  "engine.cells_scanned",
    "engine.cells_inferred",      "engine.cells_skipped_by_filter",
    "engine.candidates_evaluated", "engine.cells_changed",
    "service.parts_layers_reused", "shard.chunks",
    "shard.spill_bytes",          "shard.peak_resident_bytes",
};

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

std::string FormatCount(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", v);
  return buf;
}

}  // namespace

void LayerBook::BeginRep() {
  mark_ = tracer_.size();
  rep_counts_.clear();
  rep_times_.clear();
  rep_cache_hits_ = 0.0;
}

void LayerBook::AddClean(const bclean::CleanStats& stats) {
  Time("engine.clean_s", stats.seconds);
  Count("engine.cells_scanned", static_cast<double>(stats.cells_scanned));
  Count("engine.cells_inferred", static_cast<double>(stats.cells_inferred));
  Count("engine.cells_skipped_by_filter",
        static_cast<double>(stats.cells_skipped_by_filter));
  Count("engine.candidates_evaluated",
        static_cast<double>(stats.candidates_evaluated));
  Count("engine.cells_changed", static_cast<double>(stats.cells_changed));
  // Only hits + misses is stable across schedules; the split is reported
  // per rep, not checked.
  Count("engine.cache_lookups",
        static_cast<double>(stats.cache_hits + stats.cache_misses));
  rep_cache_hits_ += static_cast<double>(stats.cache_hits);
}

void LayerBook::EndRep(RunResult& result) {
  for (const auto& [span, seconds] : tracer_.SelfTotals(mark_)) {
    auto it = SpanLayers().find(span);
    if (it != SpanLayers().end()) rep_times_[it->second] += seconds;
  }
  for (const auto& [name, value] : rep_counts_) {
    counters_.Record(name, value, result);
  }
  for (const char* name : kLayerTimes) {
    times_.Add(name, rep_times_[name]);
  }
  const double candidates = rep_counts_["engine.candidates_evaluated"];
  times_.Add("engine.ns_per_candidate",
             Ratio(rep_times_["engine.clean_s"] * 1e9, candidates));
  times_.Add("engine.cache_hit_ratio",
             Ratio(rep_cache_hits_, rep_counts_["engine.cache_lookups"]));
  times_.Add("engine.cache_hits", rep_cache_hits_);
}

void LayerBook::Report(RunResult& result) const {
  for (const char* name : kLayerTimes) {
    result.Set(name, times_.MedianOf(name), "s");
  }
  for (const char* name : kLayerCounts) {
    result.Set(name, counters_.First(name), "count");
  }
  const double scanned = counters_.First("engine.cells_scanned");
  const double skipped = counters_.First("engine.cells_skipped_by_filter");
  const double inferred = counters_.First("engine.cells_inferred");
  const double changed = counters_.First("engine.cells_changed");
  const double lookups = counters_.First("engine.cache_lookups");
  const double hits = times_.MedianOf("engine.cache_hits");
  result.Set("engine.ns_per_candidate",
             times_.MedianOf("engine.ns_per_candidate"), "ns");
  result.Set("engine.filter_skip_ratio", Ratio(skipped, scanned), "ratio");
  result.Set("engine.repair_yield", Ratio(changed, inferred), "ratio");
  result.Set("engine.cache_hit_ratio",
             times_.MedianOf("engine.cache_hit_ratio"), "ratio");
  result.Note("engine.filter_skip_ratio = " + FormatCount(skipped) +
              " skipped / " + FormatCount(scanned) + " scanned cells");
  result.Note("engine.repair_yield = " + FormatCount(changed) +
              " changed / " + FormatCount(inferred) + " inferred cells");
  result.Note("engine.cache_hit_ratio = " + FormatCount(hits) + " hits / " +
              FormatCount(lookups) + " lookups (median rep)");
  result.Note("engine.ns_per_candidate = engine.clean_s / " +
              FormatCount(counters_.First("engine.candidates_evaluated")) +
              " candidates");
  const double updates = counters_.First("service.updates");
  const double incremental = counters_.First("service.incremental_updates");
  result.Set("service.incremental_share", Ratio(incremental, updates),
             "ratio");
  result.Note("service.incremental_share = " + FormatCount(incremental) +
              " incremental / " + FormatCount(updates) + " updates");
  const size_t waits = pooled_.CountOf("service.dispatch_wait_ms");
  result.Set("service.dispatch_wait_ms",
             pooled_.MedianOf("service.dispatch_wait_ms"), "ms");
  result.Note("service.dispatch_wait_ms: median of " + std::to_string(waits) +
              " CleanAsync jobs");
}

// --------------------------------------------------------------------- f1

double F1Counts::F1() const {
  if (modified == 0 || errors == 0) return 0.0;
  double precision = static_cast<double>(correct_repairs) / modified;
  double recall = static_cast<double>(repaired_errors) / errors;
  if (precision + recall == 0.0) return 0.0;
  return 2.0 * precision * recall / (precision + recall);
}

Result<F1Counts> StreamF1(const std::string& clean, const std::string& dirty,
                          const std::string& cleaned) {
  std::unique_ptr<bclean::RowSource> sources[3];
  const std::string* paths[3] = {&clean, &dirty, &cleaned};
  for (int i = 0; i < 3; ++i) {
    auto source = bclean::MakeCsvFileSource(*paths[i]);
    if (!source.ok()) return source.status();
    sources[i] = std::move(source).value();
  }
  const size_t cols = sources[0]->schema().size();
  if (sources[1]->schema().size() != cols ||
      sources[2]->schema().size() != cols) {
    return Status::InvalidArgument("f1: column counts differ");
  }
  F1Counts counts;
  std::vector<std::string> rows[3];
  for (;;) {
    bool more[3];
    for (int i = 0; i < 3; ++i) {
      Result<bool> next = sources[i]->Next(&rows[i]);
      if (!next.ok()) return next.status();
      more[i] = next.value();
    }
    if (more[0] != more[1] || more[0] != more[2]) {
      return Status::InvalidArgument("f1: row counts differ: " + cleaned);
    }
    if (!more[0]) break;
    for (size_t c = 0; c < cols; ++c) {
      const bool error = rows[1][c] != rows[0][c];
      const bool modified = rows[2][c] != rows[1][c];
      const bool right = rows[2][c] == rows[0][c];
      counts.errors += error;
      counts.modified += modified;
      counts.correct_repairs += modified && right;
      counts.repaired_errors += error && right;
    }
  }
  return counts;
}

// ------------------------------------------------------------------- misc

bclean::ServiceOptions WidthOneService() {
  bclean::ServiceOptions options;
  options.num_threads = 1;
  options.dispatcher_threads = 1;
  return options;
}

Result<uint64_t> DigestFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::vector<char> block(1 << 16);
  uint64_t h = bclean::DigestCombine(0, 0);
  while (in) {
    in.read(block.data(), static_cast<std::streamsize>(block.size()));
    const auto n = static_cast<size_t>(in.gcount());
    if (n == 0) break;
    h = bclean::DigestCombine(h, bclean::HashBytes(block.data(), n));
  }
  return h;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
