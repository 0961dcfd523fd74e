// perfbench: the measured program behind perfbench/run.py.
//
//   perfbench gen --workload W --seed N --in DIR
//       writes the workload's input CSVs for seed N into DIR;
//   perfbench run --workload W --in DIR --out DIR --seconds S --trace 0|1
//       runs the workload on those inputs for S seconds and writes
//       DIR/result.json (metrics, counters, failures, f1 jobs) and, when
//       traced, DIR/spans.json;
//   perfbench f1 CLEAN DIRTY CLEANED [CLEAN DIRTY CLEANED ...]
//       prints the streamed repair F1 of each triple and their mean as JSON.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>

#include "perfbench/src/bench.h"

namespace {

using perfbench::RunOptions;

std::map<std::string, std::string> Flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

int Fail(const bclean::Status& status) {
  std::fprintf(stderr, "perfbench: %s\n", status.ToString().c_str());
  return 1;
}

int Gen(const std::map<std::string, std::string>& flags) {
  const uint64_t seed = std::strtoull(flags.at("seed").c_str(), nullptr, 10);
  bclean::Status status =
      perfbench::GenerateInputs(flags.at("workload"), seed, flags.at("in"));
  return status.ok() ? 0 : Fail(status);
}

int Run(const std::map<std::string, std::string>& flags) {
  RunOptions run;
  run.workload = flags.at("workload");
  run.input_dir = flags.at("in");
  run.output_dir = flags.at("out");
  run.seconds = std::strtod(flags.at("seconds").c_str(), nullptr);
  run.trace = flags.at("trace") == "1";
  bclean::Result<perfbench::RunResult> result =
      run.workload == "paper-batch"   ? perfbench::RunPaperBatch(run)
      : run.workload == "interactive" ? perfbench::RunInteractive(run)
      : run.workload == "out-of-core"
          ? perfbench::RunOutOfCore(run)
          : bclean::Status::InvalidArgument("unknown workload " + run.workload);
  if (!result.ok()) return Fail(result.status());
  perfbench::RunResult out = std::move(result).value();
  out.Set("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  bclean::Status written = out.WriteJson(run.output_dir + "/result.json");
  return written.ok() ? 0 : Fail(written);
}

int F1(int argc, char** argv) {
  if (argc < 5 || (argc - 2) % 3 != 0) {
    return Fail(bclean::Status::InvalidArgument(
        "f1 takes CLEAN DIRTY CLEANED triples"));
  }
  double sum = 0.0;
  std::string jobs;
  for (int i = 2; i < argc; i += 3) {
    bclean::Result<perfbench::F1Counts> counts =
        perfbench::StreamF1(argv[i], argv[i + 1], argv[i + 2]);
    if (!counts.ok()) return Fail(counts.status());
    const perfbench::F1Counts& c = counts.value();
    sum += c.F1();
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"cleaned\": \"%s\", \"f1\": %.17g, \"errors\": %zu, "
                  "\"modified\": %zu, \"correct_repairs\": %zu, "
                  "\"repaired_errors\": %zu}",
                  jobs.empty() ? "" : ", ", argv[i + 2], c.F1(), c.errors,
                  c.modified, c.correct_repairs, c.repaired_errors);
    jobs += buf;
  }
  std::printf("{\"f1\": %.17g, \"jobs\": [%s]}\n", sum / ((argc - 2) / 3),
              jobs.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string command = argc > 1 ? argv[1] : "";
  if (command == "f1") return F1(argc, argv);
  const std::map<std::string, std::string> flags = Flags(argc, argv);
  try {
    if (command == "gen") return Gen(flags);
    if (command == "run") return Run(flags);
  } catch (const std::out_of_range&) {
    // A missing flag: fall through to the usage line.
  }
  std::fprintf(stderr,
               "usage: perfbench gen|run|f1 ... (see perfbench/README.md)\n");
  return 2;
}
