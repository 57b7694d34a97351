// Workload serve-ingest: three closed-loop remote clients run the
// dashboard mix (Q1, Q3, Q6, Q12, Q14, Q19; each query once under OLA and
// once exact) over loopback TCP while a fourth thread appends fixed-size
// lineitem batches to a live table through Client::Ingest and refreshes a
// standing Q1 subscription after every acknowledged batch. The live table
// spills sealed tablets through the wakeblock writer. Ingestion runs in
// rounds, each into a fresh live table behind its own server, so the data
// a run writes stays bounded however fast the writer goes. The catalog
// cannot take a new table while queries read it, so the writer shares
// the host's CPUs with the query clients but not their server or session.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench.h"
#include "client/client.h"
#include "server/server.h"
#include "tpch/queries_sql.h"

namespace perfbench {

namespace fs = std::filesystem;
using wake::QueryEngine;

namespace {

const int kMix[] = {1, 3, 6, 12, 14, 19};
constexpr size_t kMixSize = sizeof(kMix) / sizeof(kMix[0]);
constexpr size_t kQueryClients = 3;

/// Everything one set-up produces, declared so that destruction runs
/// clients -> server -> session -> tables.
struct ServeSetup {
  Dataset data;
  std::vector<DataFrame> truth;  // per mix query, in-process exact
  std::vector<std::string> truth_error;
  IngestRoundSpec ingest;
  std::vector<IngestBatch> batches;
  std::unique_ptr<wake::Db> db;
  std::unique_ptr<wake::Server> server;
  std::vector<std::unique_ptr<wake::Client>> clients;

  ~ServeSetup() {
    clients.clear();
    if (server != nullptr) server->Stop();
  }
};

std::unique_ptr<ServeSetup> SetUp(const Args& args) {
  auto s = std::make_unique<ServeSetup>();
  s->data = MakeDataset(args.seed, "");
  {
    wake::Db truth_db(s->data.memory.get(), wake::DbOptions{kWorkersMem});
    wake::RunOptions exact;
    exact.engine = QueryEngine::kExact;
    for (int q : kMix) {
      s->truth.push_back(
          truth_db.Prepare(wake::tpch::QuerySql(q)).Execute(exact));
      s->truth_error.push_back(
          CheckIndependent(q, *s->data.memory, s->truth.back()));
    }
  }
  s->batches = MakeIngestBatches(*s->data.memory, kRoundBatches, args.seed);
  s->ingest = IngestRoundSpec{&s->batches,
                              s->data.memory->Get("lineitem").schema(),
                              wake::DbOptions{kWorkersMem},
                              args.work_dir + "/live", /*remote=*/true};
  s->db = std::make_unique<wake::Db>(s->data.memory.get(),
                                     wake::DbOptions{kWorkersMem});
  s->server = std::make_unique<wake::Server>(s->db.get());
  s->server->Start();
  for (size_t c = 0; c < kQueryClients; ++c) {
    wake::ClientOptions options;
    options.port = s->server->port();
    options.client_name = "perfbench-" + std::to_string(c);
    s->clients.push_back(std::make_unique<wake::Client>(options));
    s->clients.back()->Connect();
  }
  return s;
}

std::atomic<uint64_t> next_qid{1};

void RemoteRun(const ServeSetup& s, wake::Client* client, size_t idx, bool ola,
               LoadSamples* out, Tracer* tracer) {
  const int q = kMix[idx];
  const uint64_t qid = next_qid.fetch_add(1);
  wake::RemoteRunOptions options;
  options.engine = ola ? QueryEngine::kOla : QueryEngine::kExact;
  std::vector<TimedState> states;
  std::string error;
  Clock::time_point t0 = Clock::now();
  try {
    wake::RemoteQuery rq = client->Submit(wake::tpch::QuerySql(q), options);
    while (auto state = rq.Next()) {
      states.push_back({Seconds(t0, Clock::now()), std::move(*state)});
    }
    rq.Result();  // rethrows a remote failure
  } catch (const std::exception& e) {
    error = e.what();
  }
  if (tracer->enabled() && !states.empty()) {
    double base = tracer->At(t0);
    int64_t root = tracer->Add(ola ? "client.query.ola" : "client.query.exact",
                               base, base + states.back().t, -1, qid);
    double prev = 0;
    for (const TimedState& ts : states) {
      tracer->Add("client.snapshot", base + prev, base + ts.t, root, qid);
      prev = ts.t;
    }
  }
  std::string label =
      "Q" + std::to_string(q) + (ola ? " remote ola: " : " remote exact: ");
  if (!error.empty() || states.empty()) {
    out->ops.Op(label, error, "no state");
    return;
  }
  const DataFrame& truth = s.truth[idx];
  if (ola) {
    // The OLA final must be byte-identical to the in-process answer.
    OlaScore score = ScoreOlaRun(states, truth, QueryKeyColumns(q));
    out->ops.Op(label, "", score.why + s.truth_error[idx]);
    out->first[idx].push_back(score.first_s);
    out->to_1pct[idx].push_back(score.to_1pct_s);
    out->final_s[idx].push_back(score.final_s);
  } else {
    std::string diff;
    const TimedState& last = states.back();
    if (!last.state.is_final || last.state.frame == nullptr) {
      diff = "no final state";
    } else if (Identical(*last.state.frame, truth, &diff)) {
      diff.clear();
    } else if (diff.empty()) {
      diff = "differs from the in-process answer";
    }
    out->ops.Op(label, "", diff + s.truth_error[idx]);
    out->exact[idx].push_back(last.t);
  }
  out->latencies_ms.push_back(states.back().t * 1e3);
  ++out->runs;
}

/// Runs the query clients and the writer for `seconds`; every thread
/// finishes the rotation or round it is in.
LoadSamples Measure(const ServeSetup& s, double seconds, Tracer* tracer,
                    double* cpu_s, double* wall_s) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<LoadSamples> per_thread(kQueryClients + 1,
                                     LoadSamples(kMixSize));
  std::vector<std::thread> threads;
  std::atomic<size_t> finished{0};
  double cpu0 = CpuSeconds();
  for (size_t c = 0; c < kQueryClients; ++c) {
    threads.emplace_back([&, c] {
      // Whole rotations: every query of the mix, OLA and exact.
      for (size_t rot = 0; rot == 0 || Clock::now() < deadline; ++rot) {
        for (size_t k = 0; k < kMixSize; ++k) {
          size_t idx = (c + k) % kMixSize;
          for (int e = 0; e < 2; ++e) {
            bool ola = (e == 0) == (rot % 2 == 0);
            RemoteRun(s, s.clients[c].get(), idx, ola, &per_thread[c], tracer);
          }
        }
      }
      finished.fetch_add(1);
    });
  }
  threads.emplace_back([&] {
    LoadSamples* out = &per_thread[kQueryClients];
    do {
      IngestStats round;
      IngestRound(s.ingest, next_qid.fetch_add(1), &round, &out->ops, tracer);
      out->AddRound(round);
    } while (Clock::now() < deadline);
    finished.fetch_add(1);
  });
  LoadSamples all(kMixSize);
  SampleHeap(finished, threads.size(), &all.heap_mb);
  for (auto& t : threads) t.join();
  *cpu_s = CpuSeconds() - cpu0;
  *wall_s = Seconds(start, Clock::now());
  for (const LoadSamples& t : per_thread) all.MergeFrom(t);
  return all;
}

}  // namespace

RunResult RunServeIngest(const Args& args) {
  RunResult result;
  std::vector<double> setup_s;
  std::unique_ptr<ServeSetup> s;
  for (int rep = 0; rep < kSetupRepsServe; ++rep) {
    s.reset();
    Clock::time_point t0 = Clock::now();
    s = SetUp(args);
    setup_s.push_back(Seconds(t0, Clock::now()));
  }
  Tracer tracer(false);
  double cpu = 0, wall = 0;
  // Warm-up: one rotation of every client and one ingest round.
  result.AddOps(Measure(*s, 0.0, &tracer, &cpu, &wall).ops);

  if (!args.trace) {
    const HostCpuTicks host0 = ReadHostCpu();
    LoadSamples m = Measure(*s, args.seconds, &tracer, &cpu, &wall);
    result.steal_pct = StealPct(host0, ReadHostCpu());
    result.AddOps(m.ops);
    const double passes = static_cast<double>(m.runs) / (2.0 * kMixSize);
    result.Add("first_estimate_s", GeoMeanOfMedians(m.first), "s");
    result.Add("to_1pct_s", GeoMeanOfMedians(m.to_1pct), "s");
    result.Add("final_s", GeoMeanOfMedians(m.final_s), "s");
    result.Add("exact_final_s", GeoMeanOfMedians(m.exact), "s");
    result.Add("cpu_s", cpu / passes, "s");
    result.Add("query_latency_p50_ms", Quantile(m.latencies_ms, 0.5), "ms");
    result.Add("query_latency_p90_ms", Quantile(m.latencies_ms, 0.9), "ms");
    result.Add("queries_per_s",
               static_cast<double>(m.runs) / wall, "1/s");
    result.Add("ingest_rows_per_s", Median(m.round_rows_per_s), "rows/s");
    result.Add("refresh_p50_ms", Median(m.refresh_ms), "ms");
    result.Add("heap_p50_mb", Median(m.heap_mb), "MiB");
    result.Add("setup_s", Median(setup_s), "s");
    std::fprintf(stderr,
                 "perfbench: serve-ingest %zu remote runs, %zu ingest rounds\n",
                 m.runs, m.round_rows_per_s.size());
    return result;
  }

  LoadSamples plain = Measure(*s, args.seconds / 2, &tracer, &cpu, &wall);
  result.AddOps(plain.ops);
  tracer.SetEnabled(true);
  LoadSamples traced = Measure(*s, args.seconds / 2, &tracer, &cpu, &wall);
  result.AddOps(traced.ops);
  LayerContext ctx{&s->data, s->db.get(), args.work_dir, &tracer};
  RunLayerProbes(ctx, &result);
  result.Add("trace.overhead_pct",
             100.0 * (Quantile(traced.latencies_ms, 0.5) /
                          Quantile(plain.latencies_ms, 0.5) -
                      1.0),
             "%");
  std::fprintf(stderr, "perfbench: %zu spans written to %s\n", tracer.size(),
               args.trace_file.c_str());
  tracer.WriteJson(args.trace_file);
  return result;
}

}  // namespace perfbench
