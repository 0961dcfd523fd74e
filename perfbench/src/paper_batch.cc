// paper-batch: the six paper datasets, each on a fresh Service: read the
// dirty CSV, Open under PIP (cold), Clean, write the CSV; then Open under
// Basic (stats, mask and compensatory layers reused, network relearned),
// Clean, write. The traced run follows every Open, outside the timed
// section, with the same build decomposed into the public calls Open runs
// and checks that it reproduces the session's model fingerprint.
#include <cstdio>
#include <memory>

#include "perfbench/src/bench.h"
#include "src/common/thread_pool.h"
#include "src/data/csv.h"
#include "src/fdx/structure_learning.h"
#include "src/service/fingerprint.h"
#include "src/service/service.h"

namespace perfbench {

using bclean::BCleanOptions;
using bclean::Result;
using bclean::Status;
using bclean::Table;

namespace {

constexpr size_t kMinSetups = 5;

struct Mode {
  const char* name;
  BCleanOptions options;
};

std::vector<Mode> Modes() {
  BCleanOptions pip = BCleanOptions::PartitionedInferencePruning();
  BCleanOptions basic = BCleanOptions::Basic();
  pip.num_threads = 1;
  basic.num_threads = 1;
  return {{"pip", pip}, {"basic", basic}};
}

// Rebuilds the model Service::Open built, one public call per step, under
// spans. `reuse` holds the previous build's parts when the Open reported
// that all three parts layers were served from its caches (calls 2-4 are
// skipped then, as in the service). Returns the engine's fingerprint and
// leaves the parts in `*parts`; `*sim_calls` gets the observation count.
Result<uint64_t> DecomposedBuild(const Table& dirty,
                                 const bclean::UcRegistry& ucs,
                                 const BCleanOptions& options,
                                 bclean::ModelParts* parts, bool reuse,
                                 bclean::ThreadPool& pool, Tracer& tracer,
                                 int job, double* sim_calls, double* dict) {
  {
    Tracer::Scope span(tracer, "DigestTableContent", job);
    (void)bclean::DigestTableContent(dirty);
  }
  const bclean::UcRegistry effective =
      options.use_user_constraints ? ucs : ucs.Empty();
  if (!reuse) {
    *parts = bclean::ModelParts{};
    parts->dirty = std::make_shared<const Table>(dirty);
    std::shared_ptr<bclean::DomainStats> stats;
    {
      Tracer::Scope span(tracer, "DomainStats::Build", job);
      stats = std::make_shared<bclean::DomainStats>(
          bclean::DomainStats::Build(*parts->dirty));
    }
    BCLEAN_RETURN_IF_ERROR(bclean::CompensatoryModel::CheckCapacity(*stats));
    parts->stats = stats;
    {
      Tracer::Scope span(tracer, "UcMask::Build", job);
      parts->mask = std::make_shared<const bclean::UcMask>(
          bclean::UcMask::Build(effective, *parts->stats));
    }
    {
      Tracer::Scope span(tracer, "CompensatoryModel::Build", job);
      parts->compensatory = std::make_shared<const bclean::CompensatoryModel>(
          bclean::CompensatoryModel::Build(*parts->stats, *parts->mask,
                                           options.compensatory, 1, &pool));
    }
  }
  for (size_t c = 0; c < parts->stats->num_cols(); ++c) {
    *dict += static_cast<double>(parts->stats->column(c).DomainSize());
  }
  bclean::StructureOptions structure = options.structure;
  structure.num_threads = 1;
  bclean::Matrix observations;
  {
    Tracer::Scope span(tracer, "BuildSimilarityObservations", job);
    observations =
        bclean::BuildSimilarityObservations(*parts->dirty, structure, &pool);
  }
  *sim_calls +=
      static_cast<double>(observations.rows() * observations.cols());
  std::vector<size_t> ordering;
  {
    Tracer::Scope span(tracer, "DomainSizeOrdering", job);
    bclean::DomainStats ordering_stats;
    {
      Tracer::Scope inner(tracer, "DomainStats::Build", job);
      ordering_stats = bclean::DomainStats::Build(*parts->dirty);
    }
    ordering = bclean::DomainSizeOrdering(ordering_stats);
  }
  Result<bclean::LearnedStructure> learned = Status::Internal("unset");
  {
    Tracer::Scope span(tracer, "LearnStructureFromObservations", job);
    learned = bclean::LearnStructureFromObservations(
        observations, std::move(ordering), structure);
  }
  if (!learned.ok()) return learned.status();
  bclean::BayesianNetwork network(parts->dirty->schema());
  {
    Tracer::Scope span(tracer, "BayesianNetwork::Fit", job);
    for (const auto& [parent, child] : learned.value().edges) {
      (void)network.AddEdge(parent, child);  // cycles skipped, as in Open
    }
    network.Fit(*parts->stats);
  }
  Result<std::unique_ptr<bclean::BCleanEngine>> engine =
      Status::Internal("unset");
  {
    Tracer::Scope span(tracer, "CreateFromFittedParts", job);
    engine = bclean::BCleanEngine::CreateFromFittedParts(
        *parts, effective, std::move(network), options);
  }
  if (!engine.ok()) return engine.status();
  return engine.value()->ModelFingerprint();
}

// The decomposed calls, as span names, whose self times sum to the part of
// Open the decomposition accounts for.
const char* const kDecomposed[] = {
    "DigestTableContent",       "DomainStats::Build",
    "UcMask::Build",            "CompensatoryModel::Build",
    "BuildSimilarityObservations", "DomainSizeOrdering",
    "LearnStructureFromObservations", "BayesianNetwork::Fit",
    "CreateFromFittedParts",
};

// The per-phase Open table (ms, median over reps) for every job: the
// ROADMAP's re-anchor table, regenerated from the traced run.
void AddPhaseTable(const std::vector<DatasetSpec>& specs,
                   const std::vector<Mode>& modes, const RepSamples& samples,
                   RunResult& result) {
  const std::pair<const char*, std::vector<const char*>> columns[] = {
      {"stats", {"DomainStats::Build"}},
      {"mask", {"UcMask::Build"}},
      {"compens.", {"CompensatoryModel::Build"}},
      {"sim. obs", {"BuildSimilarityObservations"}},
      {"glasso+LDL", {"LearnStructureFromObservations"}},
      {"CPT fit", {"BayesianNetwork::Fit"}},
      {"other", {"DigestTableContent", "DomainSizeOrdering",
                 "CreateFromFittedParts"}},
      {"Open", {"Service::Open"}},
  };
  std::string header = "phase table (ms) | job";
  for (const auto& column : columns) {
    header += std::string(" | ") + column.first;
  }
  result.Note(header);
  for (const DatasetSpec& spec : specs) {
    for (const Mode& mode : modes) {
      const std::string key = spec.name + "/" + mode.name;
      std::string line = "phase table (ms) | " + key;
      for (const auto& column : columns) {
        double ms = 0.0;
        for (const char* span : column.second) {
          ms += 1e3 * samples.MedianOf("phase/" + key + "/" + span);
        }
        char buf[32];
        std::snprintf(buf, sizeof(buf), " | %.1f", ms);
        line += buf;
      }
      result.Note(line);
    }
  }
}

}  // namespace

Result<RunResult> RunPaperBatch(const RunOptions& run) {
  Result<std::vector<DatasetSpec>> specs = WorkloadDatasets(run.workload);
  if (!specs.ok()) return specs.status();
  std::vector<bclean::UcRegistry> ucs;
  for (const DatasetSpec& spec : specs.value()) {
    Result<bclean::UcRegistry> registry = DatasetUcs(spec.name);
    if (!registry.ok()) return registry.status();
    ucs.push_back(registry.value());
  }
  const std::vector<Mode> modes = Modes();
  Tracer tracer(run.trace);
  LayerBook book(tracer);
  RunResult result;
  RepSamples samples;
  std::vector<double> setups;
  std::map<std::string, uint64_t> first_digest;
  std::map<std::string, uint64_t> first_fingerprint;
  bclean::ThreadPool decompose_pool(1);

  // Set-up: read the six dirty CSVs and construct the Services.
  std::vector<Table> tables;
  std::vector<std::unique_ptr<bclean::Service>> services;
  auto setup = [&]() -> Status {
    tables.clear();
    services.clear();
    const Clock::time_point t0 = Clock::now();
    for (const DatasetSpec& spec : specs.value()) {
      Result<Table> table = Status::Internal("unset");
      {
        Tracer::Scope span(tracer, "ReadCsvFile", -1);
        table = bclean::ReadCsvFile(DirtyPath(run.input_dir, spec.name));
      }
      result.Check(table.status(), "read " + spec.name);
      if (!table.ok()) return table.status();
      tables.push_back(std::move(table).value());
      services.push_back(
          std::make_unique<bclean::Service>(WidthOneService()));
    }
    setups.push_back(SecondsBetween(t0, Clock::now()));
    return Status::OK();
  };
  for (size_t i = 1; i < kMinSetups; ++i) BCLEAN_RETURN_IF_ERROR(setup());

  const Clock::time_point start = Clock::now();
  do {
    book.BeginRep();
    BCLEAN_RETURN_IF_ERROR(setup());
    int job = 0;
    for (size_t d = 0; d < specs.value().size(); ++d) {
      const std::string& dataset = specs.value()[d].name;
      bclean::Service& service = *services[d];
      bclean::ModelParts parts;
      for (const Mode& mode : modes) {
        const std::string key = dataset + "/" + mode.name;
        const size_t reused_before = service.stats().parts_layers_reused;
        Result<std::shared_ptr<bclean::Session>> session =
            Status::Internal("unset");
        const Clock::time_point t0 = Clock::now();
        {
          Tracer::Scope span(tracer, "Service::Open", job);
          session = service.Open(key, tables[d], ucs[d], mode.options);
        }
        const double open_s = SecondsBetween(t0, Clock::now());
        result.Check(session.status(), "open " + key);
        if (!session.ok()) continue;
        samples.Add("open/" + key, open_s);
        const size_t reused =
            service.stats().parts_layers_reused - reused_before;
        book.Count("service.parts_layers_reused", static_cast<double>(reused));
        book.Count("fdx.edges",
                   static_cast<double>(
                       session.value()->network().dag().Edges().size()));
        const uint64_t fingerprint = session.value()->model_fingerprint();
        auto [fp, fp_new] = first_fingerprint.emplace(key, fingerprint);
        if (!fp_new && fp->second != fingerprint) {
          result.Fail("model fingerprint changed across reps: " + key);
        }

        if (tracer.enabled()) {
          const size_t mark = tracer.size();
          double sim_calls = 0.0;
          double dict = 0.0;
          const bool reuse_parts = reused == 3 && parts.Complete();
          Result<uint64_t> rebuilt = DecomposedBuild(
              tables[d], ucs[d], mode.options, &parts, reuse_parts,
              decompose_pool, tracer, job, &sim_calls, &dict);
          result.Check(rebuilt.status(), "decomposed build " + key);
          if (rebuilt.ok() && rebuilt.value() != fingerprint) {
            result.Fail("decomposed build fingerprint differs from Open: " +
                        key);
          }
          book.Count("fdx.sim_calls", sim_calls);
          book.Count("data.dict_values", dict);
          double decomposed = 0.0;
          const std::map<std::string, double> self = tracer.SelfTotals(mark);
          for (const char* name : kDecomposed) {
            auto it = self.find(name);
            const double seconds = it == self.end() ? 0.0 : it->second;
            decomposed += seconds;
            samples.Add("phase/" + key + "/" + name, seconds);
          }
          samples.Add("phase/" + key + "/Service::Open", open_s);
          book.Time("service.open_other_s", open_s - decomposed);
        }

        const std::string out =
            run.output_dir + "/" + dataset + "." + mode.name + ".cleaned.csv";
        bclean::CleanResult cleaned;
        Status written;
        const Clock::time_point t1 = Clock::now();
        {
          Tracer::Scope span(tracer, "Session::Clean", job);
          cleaned = session.value()->Clean();
        }
        {
          Tracer::Scope span(tracer, "WriteCsvFile", job);
          written = bclean::WriteCsvFile(cleaned.table, out);
        }
        samples.Add("clean/" + key, SecondsBetween(t1, Clock::now()));
        result.Check(Status::OK(), "clean " + key);
        result.Check(written, "write " + key);
        book.AddClean(cleaned.stats);
        const uint64_t digest = bclean::DigestTableContent(cleaned.table);
        auto [it, inserted] = first_digest.emplace(key, digest);
        if (!inserted && it->second != digest) {
          result.Fail("cleaned bytes changed across reps: " + key);
        }
        if (result.reps == 0) {
          result.f1_jobs.push_back(
              {CleanPath(run.input_dir, dataset),
               DirtyPath(run.input_dir, dataset), out});
        }
        ++job;
      }
    }
    book.EndRep(result);
    ++result.reps;
  } while (SecondsBetween(start, Clock::now()) < run.seconds);

  result.Set("setup_s", Median(setups), "s");
  result.Set("open_s", samples.SumOfMedians("open/"), "s");
  result.Set("clean_s", samples.SumOfMedians("clean/"), "s");
  book.Report(result);
  result.Note("setup_s: median of " + std::to_string(setups.size()) +
              " set-ups; open_s and clean_s: sum over 12 jobs of each "
              "job's median over " +
              std::to_string(result.reps) + " reps");
  if (tracer.enabled()) {
    AddPhaseTable(specs.value(), modes, samples, result);
    BCLEAN_RETURN_IF_ERROR(tracer.WriteJson(run.output_dir + "/spans.json"));
  }
  return result;
}

}  // namespace perfbench
