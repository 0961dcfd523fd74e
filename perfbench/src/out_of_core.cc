// out-of-core: Soccer at 50 000 rows streamed from its CSV file through
// OpenSharded under PIP, in 4096-row chunks with a resident budget of 0
// (one chunk resident at a time), then CleanToCsv at the default prefetch
// depth. The benchmark never materializes the table. Set-up streams the CSV
// once to check its row count, which also times the parse share of
// OpenSharded; the traced run checks the streamed output against an
// in-memory Session::Clean of the same rows.
#include <memory>

#include "perfbench/src/bench.h"
#include "src/data/csv.h"
#include "src/service/service.h"
#include "src/service/sharded_session.h"
#include "src/shard/row_source.h"

namespace perfbench {

using bclean::Result;
using bclean::Status;

namespace {

constexpr size_t kMinSetups = 5;

// Streams every record of `path` once; returns the record count.
Result<size_t> CountRows(const std::string& path) {
  auto source = bclean::MakeCsvFileSource(path);
  if (!source.ok()) return source.status();
  std::vector<std::string> row;
  size_t rows = 0;
  for (;;) {
    Result<bool> next = source.value()->Next(&row);
    if (!next.ok()) return next.status();
    if (!next.value()) return rows;
    ++rows;
  }
}

// Cleans the same rows in memory and compares the CSV bytes with the
// streamed output's.
Status CheckAgainstInMemory(const std::string& dirty_path,
                            const bclean::UcRegistry& ucs,
                            const bclean::BCleanOptions& options,
                            const std::string& streamed_path,
                            const std::string& scratch_path) {
  Result<bclean::Table> dirty = bclean::ReadCsvFile(dirty_path);
  if (!dirty.ok()) return dirty.status();
  bclean::Service service(WidthOneService());
  auto session = service.Open("in-memory", std::move(dirty).value(), ucs,
                              options);
  if (!session.ok()) return session.status();
  BCLEAN_RETURN_IF_ERROR(
      bclean::WriteCsvFile(session.value()->Clean().table, scratch_path));
  Result<uint64_t> expected = DigestFile(scratch_path);
  Result<uint64_t> actual = DigestFile(streamed_path);
  if (!expected.ok()) return expected.status();
  if (!actual.ok()) return actual.status();
  if (expected.value() != actual.value()) {
    return Status::Internal("CleanToCsv bytes differ from in-memory Clean");
  }
  return Status::OK();
}

}  // namespace

Result<RunResult> RunOutOfCore(const RunOptions& run) {
  Result<std::vector<DatasetSpec>> specs = WorkloadDatasets(run.workload);
  if (!specs.ok()) return specs.status();
  const std::string dataset = specs.value().front().name;
  Result<bclean::UcRegistry> ucs = DatasetUcs(dataset);
  if (!ucs.ok()) return ucs.status();
  const std::string dirty_path = DirtyPath(run.input_dir, dataset);
  const std::string out_path = run.output_dir + "/" + dataset + ".cleaned.csv";

  bclean::BCleanOptions options =
      bclean::BCleanOptions::PartitionedInferencePruning();
  options.num_threads = 1;
  bclean::ShardOptions shard;
  shard.chunk_rows = 4096;
  shard.resident_bytes_budget = 0;
  shard.spill_dir = run.output_dir;

  Tracer tracer(run.trace);
  LayerBook book(tracer);
  RunResult result;
  RepSamples samples;
  std::vector<double> setups;
  uint64_t first_digest = 0;
  uint64_t first_fingerprint = 0;

  // Set-up: construct the Service, check the input by streaming it once
  // (its row count), and open the CSV source OpenSharded will stream.
  std::unique_ptr<bclean::Service> service;
  std::unique_ptr<bclean::RowSource> source;
  auto setup = [&]() -> Status {
    source.reset();
    service.reset();
    const Clock::time_point t0 = Clock::now();
    service = std::make_unique<bclean::Service>(WidthOneService());
    Result<size_t> rows = Status::Internal("unset");
    {
      Tracer::Scope span(tracer, "RowSource::Next", -1);
      rows = CountRows(dirty_path);
    }
    result.Check(rows.status(), "read " + dirty_path);
    if (!rows.ok()) return rows.status();
    auto opened = bclean::MakeCsvFileSource(dirty_path);
    result.Check(opened.status(), "open source " + dirty_path);
    if (!opened.ok()) return opened.status();
    source = std::move(opened).value();
    setups.push_back(SecondsBetween(t0, Clock::now()));
    if (rows.value() != specs.value().front().rows) {
      result.Fail("input has " + std::to_string(rows.value()) + " rows");
    }
    return Status::OK();
  };
  for (size_t i = 1; i < kMinSetups; ++i) BCLEAN_RETURN_IF_ERROR(setup());

  const Clock::time_point start = Clock::now();
  do {
    book.BeginRep();
    BCLEAN_RETURN_IF_ERROR(setup());
    Result<std::shared_ptr<bclean::ShardedSession>> session =
        Status::Internal("unset");
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope span(tracer, "Service::OpenSharded", 0);
      session = service->OpenSharded(dataset, *source, ucs.value(), options,
                                     shard);
    }
    const double open_s = SecondsBetween(t0, Clock::now());
    result.Check(session.status(), "open sharded " + dataset);
    if (!session.ok()) return session.status();
    samples.Add("open/" + dataset, open_s);
    Status written;
    const Clock::time_point t1 = Clock::now();
    {
      Tracer::Scope span(tracer, "ShardedSession::CleanToCsv", 0);
      written = session.value()->CleanToCsv(out_path);
    }
    samples.Add("clean/" + dataset, SecondsBetween(t1, Clock::now()));
    result.Check(written, "clean to csv " + dataset);

    const bclean::ShardStore& store = session.value()->store();
    double spill = 0.0;
    for (size_t c = 0; c < store.num_chunks(); ++c) {
      spill += static_cast<double>(store.chunk(c).payload_bytes);
    }
    book.Count("shard.chunks", static_cast<double>(store.num_chunks()));
    book.Count("shard.spill_bytes", spill);
    book.Count("shard.peak_resident_bytes",
               static_cast<double>(store.peak_resident_bytes()));
    book.Count("fdx.edges",
               static_cast<double>(
                   session.value()->network().dag().Edges().size()));
    const uint64_t fingerprint = session.value()->model_fingerprint();
    Result<uint64_t> digest = DigestFile(out_path);
    result.Check(digest.status(), "digest " + out_path);
    if (result.reps == 0) {
      first_fingerprint = fingerprint;
      first_digest = digest.value_or(0);
      result.f1_jobs.push_back(
          {CleanPath(run.input_dir, dataset), dirty_path, out_path});
    } else {
      if (fingerprint != first_fingerprint) {
        result.Fail("model fingerprint changed across reps");
      }
      if (digest.value_or(0) != first_digest) {
        result.Fail("cleaned bytes changed across reps");
      }
    }
    if (tracer.enabled() && result.reps == 0) {
      result.Check(CheckAgainstInMemory(dirty_path, ucs.value(), options,
                                        out_path,
                                        run.output_dir + "/in_memory.csv"),
                   "in-memory check");
    }
    session = Status::Internal("released");  // drop the spill store
    book.EndRep(result);
    ++result.reps;
  } while (SecondsBetween(start, Clock::now()) < run.seconds);

  result.Set("setup_s", Median(setups), "s");
  result.Set("open_s", samples.SumOfMedians("open/"), "s");
  result.Set("clean_s", samples.SumOfMedians("clean/"), "s");
  book.Report(result);
  result.Note("setup_s: median of " + std::to_string(setups.size()) +
              " set-ups; open_s and clean_s: median over " +
              std::to_string(result.reps) + " reps");
  if (tracer.enabled()) {
    BCLEAN_RETURN_IF_ERROR(tracer.WriteJson(run.output_dir + "/spans.json"));
  }
  return result;
}

}  // namespace perfbench
