// interactive: the paper's user loop (Sections 4 and 7.3.2) on Hospital
// and Flights under PI, one session per dataset opened on 90% of its rows,
// each rep on a fresh Service. For every FD-rule edge the learned network
// lacks: add it and re-clean (an edit: a new model, cold repair cache),
// remove it and re-clean, add it again and re-clean (undos: models seen
// before, warm repair cache). Then Update batches, each followed by a
// re-clean: appends of the held-out rows, 1% of the table at a time,
// alternating with overwrites that correct injected errors. Re-cleans go
// through CleanAsync, so the dispatcher is on the path.
#include <cstdio>
#include <algorithm>
#include <memory>

#include "perfbench/src/bench.h"
#include "src/data/csv.h"
#include "src/datagen/benchmarks.h"
#include "src/service/fingerprint.h"
#include "src/service/service.h"

namespace perfbench {

using bclean::Result;
using bclean::Status;
using bclean::Table;

namespace {

constexpr size_t kAppendBatches = 10;
constexpr size_t kMinSetups = 5;

// One step of the loop: a network edit or an Update batch.
struct Step {
  enum class Kind { kAddEdge, kRemoveEdge, kUpdate };
  Kind kind = Kind::kUpdate;
  std::string parent;
  std::string child;
  std::vector<bclean::RowEdit> edits;
};

struct SessionInputs {
  std::string dataset;
  bclean::UcRegistry ucs;
  std::vector<std::pair<std::string, std::string>> fd_edges;
  Table dirty;
  Table held_out;
  Table fixes;
};

// FD-rule edges (lhs attribute -> rhs) of the dataset definition.
Result<std::vector<std::pair<std::string, std::string>>> FdEdges(
    const std::string& dataset) {
  Result<bclean::Dataset> tiny = bclean::MakeBenchmark(dataset, 32, 1);
  if (!tiny.ok()) return tiny.status();
  std::vector<std::pair<std::string, std::string>> edges;
  for (const bclean::FdRule& rule : tiny.value().fd_rules) {
    for (const std::string& lhs : rule.lhs) edges.emplace_back(lhs, rule.rhs);
  }
  return edges;
}

// The Update batches: held-out rows appended 1% of the table at a time,
// alternating with batches of the same size that overwrite erroneous rows
// with their ground truth.
std::vector<Step> UpdateSteps(const SessionInputs& in, size_t total_rows) {
  const size_t batch = std::max<size_t>(1, total_rows / 100);
  const size_t append_batch =
      (in.held_out.num_rows() + kAppendBatches - 1) / kAppendBatches;
  std::vector<Step> steps;
  size_t next_append = 0;
  size_t next_fix = 0;
  while (next_append < in.held_out.num_rows()) {
    Step append;
    for (size_t i = 0; i < append_batch && next_append < in.held_out.num_rows();
         ++i, ++next_append) {
      append.edits.push_back({bclean::RowEdit::kAppend,
                              in.held_out.Row(next_append)});
    }
    steps.push_back(std::move(append));
    Step fix;
    for (size_t i = 0; i < batch && next_fix < in.fixes.num_rows();
         ++i, ++next_fix) {
      std::vector<std::string> row = in.fixes.Row(next_fix);
      const size_t target = std::stoul(row.front());
      row.erase(row.begin());
      fix.edits.push_back({target, std::move(row)});
    }
    if (!fix.edits.empty()) steps.push_back(std::move(fix));
  }
  return steps;
}

// The edit steps for `session`'s learned network: add / remove / add for
// each FD edge it lacks whose addition keeps the network acyclic (checked
// against the network with the earlier FD edges already added).
std::vector<Step> EditSteps(const SessionInputs& in,
                            const bclean::BayesianNetwork& learned) {
  bclean::BayesianNetwork network = learned;
  std::vector<Step> steps;
  for (const auto& [parent, child] : in.fd_edges) {
    Result<size_t> p = network.VariableByName(parent);
    Result<size_t> c = network.VariableByName(child);
    if (!p.ok() || !c.ok()) continue;
    if (network.dag().HasEdge(p.value(), c.value())) continue;
    if (network.dag().HasPath(c.value(), p.value())) continue;
    if (!network.AddEdge(p.value(), c.value()).ok()) continue;
    steps.push_back({Step::Kind::kAddEdge, parent, child, {}});
    steps.push_back({Step::Kind::kRemoveEdge, parent, child, {}});
    steps.push_back({Step::Kind::kAddEdge, parent, child, {}});
  }
  return steps;
}

std::string Ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

}  // namespace

Result<RunResult> RunInteractive(const RunOptions& run) {
  Result<std::vector<DatasetSpec>> specs = WorkloadDatasets(run.workload);
  if (!specs.ok()) return specs.status();
  std::vector<SessionInputs> inputs;
  for (const DatasetSpec& spec : specs.value()) {
    SessionInputs in;
    in.dataset = spec.name;
    Result<bclean::UcRegistry> ucs = DatasetUcs(spec.name);
    if (!ucs.ok()) return ucs.status();
    in.ucs = ucs.value();
    auto fd = FdEdges(spec.name);
    if (!fd.ok()) return fd.status();
    in.fd_edges = fd.value();
    inputs.push_back(std::move(in));
  }
  bclean::BCleanOptions options = bclean::BCleanOptions::PartitionedInference();
  options.num_threads = 1;

  Tracer tracer(run.trace);
  LayerBook book(tracer);
  RunResult result;
  RepSamples samples;  // "<kind>/<dataset>/<step>" -> latency per rep
  std::vector<double> setups;
  std::map<std::string, uint64_t> first_digest;
  std::vector<bclean::CleanResult> last_clean(inputs.size());
  std::vector<Table> last_dirty(inputs.size());

  // Set-up: read the inputs, Open and run the first Clean of both sessions
  // on a fresh Service.
  std::unique_ptr<bclean::Service> service;
  std::vector<std::shared_ptr<bclean::Session>> sessions;
  std::vector<uint64_t> first_digests;
  auto setup = [&]() -> Status {
    sessions.clear();
    service.reset();
    first_digests.clear();
    for (SessionInputs& in : inputs) {
      in.dirty = in.held_out = in.fixes = Table();
    }
    const Clock::time_point t0 = Clock::now();
    service = std::make_unique<bclean::Service>(WidthOneService());
    for (SessionInputs& in : inputs) {
      const std::pair<Table*, std::string> files[] = {
          {&in.dirty, DirtyPath(run.input_dir, in.dataset)},
          {&in.held_out, HeldOutPath(run.input_dir, in.dataset)},
          {&in.fixes, FixesPath(run.input_dir, in.dataset)}};
      for (const auto& [table, path] : files) {
        Result<Table> read = Status::Internal("unset");
        {
          Tracer::Scope span(tracer, "ReadCsvFile", -1);
          read = bclean::ReadCsvFile(path);
        }
        result.Check(read.status(), "read " + path);
        if (!read.ok()) return read.status();
        *table = std::move(read).value();
      }
      Result<std::shared_ptr<bclean::Session>> session =
          Status::Internal("unset");
      {
        Tracer::Scope span(tracer, "Service::Open", -1);
        session = service->Open(in.dataset, in.dirty, in.ucs, options);
      }
      result.Check(session.status(), "open " + in.dataset);
      if (!session.ok()) return session.status();
      bclean::CleanResult first;
      {
        Tracer::Scope span(tracer, "Session::Clean", -1);
        first = session.value()->Clean();
      }
      result.Check(Status::OK(), "clean " + in.dataset);
      first_digests.push_back(bclean::DigestTableContent(first.table));
      sessions.push_back(std::move(session).value());
    }
    setups.push_back(SecondsBetween(t0, Clock::now()));
    for (size_t s = 0; s < inputs.size(); ++s) {
      auto [it, inserted] =
          first_digest.emplace(inputs[s].dataset + "/first", first_digests[s]);
      if (!inserted && it->second != first_digests[s]) {
        result.Fail("first clean changed across set-ups: " + inputs[s].dataset);
      }
    }
    return Status::OK();
  };
  for (size_t i = 1; i < kMinSetups; ++i) BCLEAN_RETURN_IF_ERROR(setup());

  const Clock::time_point start = Clock::now();
  do {
    book.BeginRep();
    BCLEAN_RETURN_IF_ERROR(setup());
    for (const auto& session : sessions) {
      book.Count("fdx.edges",
                 static_cast<double>(session->network().dag().Edges().size()));
    }

    int job = 0;
    size_t updates = 0;
    for (size_t s = 0; s < sessions.size(); ++s) {
      const SessionInputs& in = inputs[s];
      bclean::Session& session = *sessions[s];
      std::vector<Step> steps = EditSteps(in, session.network());
      const size_t total_rows = in.dirty.num_rows() + in.held_out.num_rows();
      for (Step& step : UpdateSteps(in, total_rows)) {
        steps.push_back(std::move(step));
      }
      // Model fingerprint -> cleaned-table digest under it, this rep.
      std::map<uint64_t, uint64_t> seen;
      seen[session.model_fingerprint()] = first_digests[s];
      for (size_t i = 0; i < steps.size(); ++i, ++job) {
        const Step& step = steps[i];
        char index[16];
        std::snprintf(index, sizeof(index), "%03zu", i);
        const std::string call = in.dataset + "/" + index;
        Status changed;
        const Clock::time_point m0 = Clock::now();
        if (step.kind == Step::Kind::kUpdate) {
          Tracer::Scope span(tracer, "Session::Update", job);
          changed = session.Update(step.edits);
          ++updates;
        } else {
          Tracer::Scope span(tracer, "Session::EditNetwork", job);
          changed = step.kind == Step::Kind::kAddEdge
                        ? session.AddNetworkEdge(step.parent, step.child)
                        : session.RemoveNetworkEdge(step.parent, step.child);
        }
        const double model_s = SecondsBetween(m0, Clock::now());
        result.Check(changed, "step " + call);
        if (!changed.ok()) continue;

        Result<bclean::CleanResult> cleaned = Status::Internal("unset");
        const Clock::time_point c0 = Clock::now();
        {
          Tracer::Scope span(tracer, "Session::CleanAsync", job);
          auto future = session.CleanAsync();
          if (future.ok()) {
            cleaned = std::move(future).value().get();
          } else {
            cleaned = future.status();
          }
        }
        const double clean_s = SecondsBetween(c0, Clock::now());
        result.Check(cleaned.status(), "re-clean " + call);
        if (!cleaned.ok()) continue;
        book.AddClean(cleaned.value().stats);
        book.Sample("service.dispatch_wait_ms",
                    1e3 * (clean_s - cleaned.value().stats.seconds));

        const uint64_t fingerprint = session.model_fingerprint();
        const uint64_t digest =
            bclean::DigestTableContent(cleaned.value().table);
        const char* kind = "update";
        if (step.kind != Step::Kind::kUpdate) {
          auto [it, is_new] = seen.emplace(fingerprint, digest);
          kind = is_new ? "edit" : "undo";
          if (!is_new && it->second != digest) {
            result.Fail("undo re-clean differs from the first clean under "
                        "its fingerprint: " + call);
          }
        }
        auto [first, inserted] = first_digest.emplace(call, digest);
        if (!inserted && first->second != digest) {
          result.Fail("cleaned bytes changed across reps: " + call);
        }
        samples.Add(std::string(kind) + "/" + call, 1e3 * (model_s + clean_s));
        samples.Add("model/" + call, model_s);
        samples.Add("clean/" + call, clean_s);
        if (i + 1 == steps.size()) last_clean[s] = std::move(cleaned).value();
      }
      last_dirty[s] = session.dirty();
    }
    const bclean::ServiceStats stats = service->stats();
    book.Count("service.updates", static_cast<double>(updates));
    book.Count("service.incremental_updates",
               static_cast<double>(stats.incremental_updates));
    book.Count("service.parts_layers_reused",
               static_cast<double>(stats.parts_layers_reused));
    book.EndRep(result);
    ++result.reps;
  } while (SecondsBetween(start, Clock::now()) < run.seconds);

  // After the timed part: the final tables of the last rep, for f1.
  for (size_t s = 0; s < inputs.size(); ++s) {
    const std::string base = run.output_dir + "/" + inputs[s].dataset;
    BCLEAN_RETURN_IF_ERROR(
        bclean::WriteCsvFile(last_dirty[s], base + ".final.dirty.csv"));
    BCLEAN_RETURN_IF_ERROR(bclean::WriteCsvFile(
        last_clean[s].table, base + ".final.cleaned.csv"));
    result.f1_jobs.push_back({CleanPath(run.input_dir, inputs[s].dataset),
                              base + ".final.dirty.csv",
                              base + ".final.cleaned.csv"});
  }

  result.Set("setup_s", Median(setups), "s");
  result.Set("open_s", samples.SumOfMedians("model/"), "s");
  result.Set("clean_s", samples.SumOfMedians("clean/"), "s");
  for (const char* kind : {"edit", "undo", "update"}) {
    const std::vector<double> pooled = samples.Pooled(std::string(kind) + "/");
    const std::string name(kind);
    result.Set(name + "_p50_ms", Percentile(pooled, 0.5), "ms");
    result.Set(name + "_p90_ms", Percentile(pooled, 0.9), "ms");
    result.Set(name + "_samples", static_cast<double>(pooled.size()), "count");
    result.Note(name + ": p50 " + Ms(Percentile(pooled, 0.5)) + " ms, p90 " +
                Ms(Percentile(pooled, 0.9)) + " ms over " +
                std::to_string(pooled.size()) + " samples");
  }
  book.Report(result);
  result.Note("setup_s: median of " + std::to_string(setups.size()) +
              " set-ups; open_s: EditNetwork + Update calls, "
              "clean_s: re-cleans, each the sum over steps of the step's "
              "median over " +
              std::to_string(result.reps) + " reps");
  if (tracer.enabled()) {
    BCLEAN_RETURN_IF_ERROR(tracer.WriteJson(run.output_dir + "/spans.json"));
  }
  return result;
}

}  // namespace perfbench
