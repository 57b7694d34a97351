// One ingest round: fixed-size lineitem batches appended to a fresh live
// table, a standing Q1 subscription refreshed after every batch, and the
// checks on its last state. Shared by every workload; serve-ingest sends
// the batches through Client::Ingest, tpch-wakeblock-w1 appends in
// process.
#include <filesystem>

#include "bench.h"
#include "client/client.h"
#include "ingest/live_table.h"
#include "server/server.h"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

void RunRound(const IngestRoundSpec& spec, uint64_t round_id,
              IngestStats* stats, RunResult* ops, Tracer* tracer) {
  wake::LiveTableOptions live_options;
  live_options.seal_rows = kSealRows;
  live_options.spill_dir = spec.spill_dir;
  auto live = std::make_shared<wake::LiveTable>(kLiveTable, spec.schema,
                                                live_options);
  Catalog catalog;
  catalog.AddDynamic(live);
  wake::Db db(&catalog, spec.options);
  auto sub = db.Subscribe(LiveQ1Sql());
  std::unique_ptr<wake::Server> server;
  std::unique_ptr<wake::Client> client;
  if (spec.remote) {
    server = std::make_unique<wake::Server>(&db);
    server->Start();
    wake::ClientOptions client_options;
    client_options.port = server->port();
    client_options.client_name = "perfbench-ingest";
    client = std::make_unique<wake::Client>(client_options);
    client->Connect();
  }

  std::map<std::string, std::array<double, 3>> ledger;  // the writer's sums
  int64_t round = tracer->Begin("ingest.round", -1, round_id);
  Clock::time_point t0 = Clock::now();
  for (const IngestBatch& batch : *spec.batches) {
    std::string error, mismatch;
    try {
      int64_t span = tracer->Begin(
          spec.remote ? "client.ingest" : "ingest.append", round, round_id);
      if (spec.remote) {
        client->Ingest(kLiveTable, batch.rows);
      } else {
        live->Append(batch.rows);
      }
      tracer->End(span);
      for (const auto& [key, sums] : batch.q1_sums) {
        for (size_t k = 0; k < 3; ++k) ledger[key][k] += sums[k];
      }
      span = tracer->Begin("api.refresh", round, round_id);
      Clock::time_point r0 = Clock::now();
      if (!sub->Refresh().has_value()) mismatch = "refresh saw no new rows";
      stats->refresh_ms.push_back(Seconds(r0, Clock::now()) * 1e3);
      tracer->End(span);
    } catch (const std::exception& e) {
      error = e.what();
    }
    ops->Op("ingest: ", error, mismatch);
  }
  stats->seconds += Seconds(t0, Clock::now());
  stats->rows += spec.batches->size() * kBatchRows;
  tracer->End(round);

  // The last state must equal a from-scratch exact query over the same
  // live snapshot, and the sums the writer kept over what it appended.
  std::string error, mismatch;
  try {
    wake::RunOptions exact;
    exact.engine = wake::QueryEngine::kExact;
    DataFrame cold = db.Prepare(LiveQ1Sql()).Execute(exact);
    wake::SubscriptionState cur = sub->Current();
    std::string diff;
    if (cur.frame == nullptr || !Identical(*cur.frame, cold, &diff)) {
      mismatch = "subscription differs from a from-scratch query: " + diff;
    } else {
      mismatch = CheckLedger(*cur.frame, ledger);
    }
  } catch (const std::exception& e) {
    error = e.what();
  }
  ops->Op("subscription: ", error, mismatch);

  client.reset();
  if (server != nullptr) server->Stop();
  server.reset();
}

}  // namespace

void IngestRound(const IngestRoundSpec& spec, uint64_t round_id,
                 IngestStats* stats, RunResult* ops, Tracer* tracer) {
  std::error_code ignored;
  if (!spec.spill_dir.empty()) fs::remove_all(spec.spill_dir, ignored);
  // Everything holding the live table has ended before its files go.
  RunRound(spec, round_id, stats, ops, tracer);
  if (!spec.spill_dir.empty()) fs::remove_all(spec.spill_dir, ignored);
}

}  // namespace perfbench
