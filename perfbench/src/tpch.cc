// Workload tpch-wakeblock-w1: the 22 TPC-H SQL queries through
// Db::Prepare + QueryHandle over lazily opened wakeblock tables, run by
// concurrent streams, each with its own one-worker session. A stream's
// pass runs every query once under OLA and once under the exact engine,
// then two in-process ingest rounds (LiveTable::Append +
// Subscription::Refresh).
//
// One stream alone leaves most vCPUs idle, and on a virtual machine every
// wake-up of an idle vCPU waits on the hypervisor: one stream's
// first_estimate_s doubled at 10% host steal and spread by 0.36 over 10
// runs. Streams that keep the vCPUs busy follow steal in proportion.
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench.h"
#include "common/error.h"
#include "tpch/queries_sql.h"

namespace perfbench {

using wake::QueryEngine;

namespace {

constexpr size_t kStreams = 4;  // one per vCPU of the reference machine

struct QuerySlot {
  int q = 0;
  std::vector<wake::PreparedQuery> prepared;  // one per stream's session
  DataFrame truth;
  size_t key_cols = 0;
  std::string truth_error;  // non-empty: the truth failed a plain-loop check
};

/// Everything one set-up produces.
struct TpchSetup {
  Dataset data;
  wake::DbOptions options;
  std::vector<std::unique_ptr<wake::Db>> dbs;  // one session per stream
  std::vector<QuerySlot> queries;
  std::vector<IngestBatch> batches;
};

std::unique_ptr<TpchSetup> SetUp(const Args& args) {
  auto s = std::make_unique<TpchSetup>();
  Clock::time_point t0 = Clock::now();
  s->data = MakeDataset(args.seed, args.work_dir + "/wakeblock");
  double t_data = Seconds(t0, Clock::now());
  s->options.workers = 1;
  for (size_t k = 0; k < kStreams; ++k) {
    s->dbs.push_back(
        std::make_unique<wake::Db>(s->data.wakeblock.get(), s->options));
  }
  // The truth comes from the exact engine over the in-memory tables; Q1,
  // Q6 and Q14 are additionally checked against plain loops.
  wake::Db truth_db(s->data.memory.get(), wake::DbOptions{kWorkersMem});
  wake::RunOptions exact;
  exact.engine = QueryEngine::kExact;
  for (int q = 1; q <= 22; ++q) {
    const char* sql = wake::tpch::QuerySql(q);
    QuerySlot slot{q, {}, DataFrame(), QueryKeyColumns(q), ""};
    for (const auto& db : s->dbs) slot.prepared.push_back(db->Prepare(sql));
    slot.truth = truth_db.Prepare(sql).Execute(exact);
    slot.truth_error = CheckIndependent(q, *s->data.memory, slot.truth);
    s->queries.push_back(std::move(slot));
  }
  double t_truth = Seconds(t0, Clock::now());
  s->batches = MakeIngestBatches(*s->data.memory, kRoundBatches, args.seed);
  std::fprintf(stderr,
               "perfbench: set-up data %.2fs truth %.2fs batches %.2fs\n",
               t_data, t_truth - t_data, Seconds(t0, Clock::now()) - t_truth);
  return s;
}

/// One OLA run: states are timestamped in the callback and retained;
/// scoring happens after the run has finished. An error the query
/// reports goes to *error.
OlaScore RunOla(const QuerySlot& slot, size_t stream, std::string* error,
                Tracer* tracer, int64_t parent, uint64_t qid) {
  std::vector<TimedState> states;
  states.reserve(256);
  wake::RunOptions options;
  Clock::time_point t0;
  options.on_state = [&states, &t0](const wake::OlaState& s) {
    states.push_back({Seconds(t0, Clock::now()), s});
  };
  options.max_buffered_states = 1;  // the callback keeps every state
  t0 = Clock::now();
  try {
    wake::QueryHandle handle = slot.prepared[stream].Run(options);
    handle.Result();  // waits; throws the query's error
  } catch (const std::exception& e) {
    *error = e.what();
  }
  if (tracer->enabled()) {
    double base = tracer->At(t0);
    int64_t run = tracer->Add("api.run.ola", base,
                              base + (states.empty() ? 0 : states.back().t),
                              parent, qid);
    double prev = 0;
    for (const TimedState& ts : states) {
      tracer->Add("exec.state", base + prev, base + ts.t, run, qid);
      prev = ts.t;
    }
  }
  return ScoreOlaRun(states, slot.truth, slot.key_cols);
}

double RunExact(const QuerySlot& slot, size_t stream, std::string* error,
                std::string* mismatch, Tracer* tracer, int64_t parent,
                uint64_t qid) {
  wake::RunOptions options;
  options.engine = QueryEngine::kExact;
  int64_t span = tracer->Begin("api.run.exact", parent, qid);
  Clock::time_point t0 = Clock::now();
  DataFrame out;
  try {
    out = slot.prepared[stream].Execute(options);
  } catch (const std::exception& e) {
    *error = e.what();
  }
  double seconds = Seconds(t0, Clock::now());
  tracer->End(span);
  std::string diff;
  if (error->empty() && !Identical(out, slot.truth, &diff)) {
    *mismatch = "exact differs from the in-memory truth: " + diff;
  }
  return seconds;
}

std::atomic<uint64_t> next_qid{1};

/// One stream: whole passes until `deadline`. Stream k starts its passes
/// at a different query, so the streams do not run the same query at once.
void RunStream(const TpchSetup& s, size_t stream, Clock::time_point deadline,
               LoadSamples* out, Tracer* tracer) {
  const size_t n = s.queries.size();
  const IngestRoundSpec spec{&s.batches,
                             s.data.memory->Get("lineitem").schema(),
                             s.options, /*spill_dir=*/"", /*remote=*/false};
  for (size_t pass = 0; pass == 0 || Clock::now() < deadline; ++pass) {
    for (size_t j = 0; j < n; ++j) {
      const size_t i = (j + stream * n / kStreams) % n;
      const QuerySlot& slot = s.queries[i];
      const std::string label = "Q" + std::to_string(slot.q);
      // Alternate which engine goes first so neither always runs warm.
      for (int k = 0; k < 2; ++k) {
        const bool ola = (k == 0) == (pass % 2 == 0);
        const uint64_t qid = next_qid.fetch_add(1);
        int64_t span =
            tracer->Begin("query.q" + std::to_string(slot.q), -1, qid);
        std::string error;
        if (ola) {
          OlaScore score = RunOla(slot, stream, &error, tracer, span, qid);
          out->ops.Op(label + " ola: ", error, score.why + slot.truth_error);
          out->first[i].push_back(score.first_s);
          out->to_1pct[i].push_back(score.to_1pct_s);
          out->final_s[i].push_back(score.final_s);
          out->latencies_ms.push_back(score.final_s * 1e3);
        } else {
          std::string mismatch;
          double t =
              RunExact(slot, stream, &error, &mismatch, tracer, span, qid);
          out->ops.Op(label + " exact: ", error, mismatch + slot.truth_error);
          out->exact[i].push_back(t);
          out->latencies_ms.push_back(t * 1e3);
        }
        ++out->runs;
        tracer->End(span);
      }
    }
    // In process, with sealed tablets kept in memory: spilled rounds from
    // a wakeblock run sped up by a third over its first 15 s, which no
    // bound could hold. serve-ingest spills through the wakeblock writer.
    for (int r = 0; r < kRoundsPerPass; ++r) {
      IngestStats round;
      IngestRound(spec, next_qid.fetch_add(1), &round, &out->ops, tracer);
      out->AddRound(round);
    }
    ++out->passes;
  }
}

/// Runs every stream for `seconds`; each finishes the pass it is in.
LoadSamples Measure(const TpchSetup& s, double seconds, Tracer* tracer,
                    double* cpu_s, double* wall_s) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<LoadSamples> per_stream(kStreams,
                                     LoadSamples(s.queries.size()));
  std::vector<std::thread> threads;
  std::atomic<size_t> finished{0};
  const double cpu0 = CpuSeconds();
  for (size_t k = 0; k < kStreams; ++k) {
    threads.emplace_back([&, k] {
      RunStream(s, k, deadline, &per_stream[k], tracer);
      finished.fetch_add(1);
    });
  }
  LoadSamples all(s.queries.size());
  SampleHeap(finished, kStreams, &all.heap_mb);
  for (auto& t : threads) t.join();
  *cpu_s = CpuSeconds() - cpu0;
  *wall_s = Seconds(start, Clock::now());
  for (const LoadSamples& one : per_stream) all.MergeFrom(one);
  std::fprintf(stderr, "perfbench: %zu passes in %.2fs (cpu %.2fs)\n",
               all.passes, *wall_s, *cpu_s);
  return all;
}

}  // namespace

RunResult RunTpchWakeblock(const Args& args) {
  RunResult result;
  // Set up several times; setup_s is the median.
  std::vector<double> setup_s;
  std::unique_ptr<TpchSetup> s;
  for (int rep = 0; rep < kSetupRepsTpch; ++rep) {
    s.reset();
    Clock::time_point t0 = Clock::now();
    s = SetUp(args);
    setup_s.push_back(Seconds(t0, Clock::now()));
  }
  // Warm-up: one untimed OLA run of every query on every session.
  {
    Tracer off(false);
    std::string error;
    for (size_t k = 0; k < kStreams; ++k) {
      for (const QuerySlot& slot : s->queries) {
        RunOla(slot, k, &error, &off, -1, 0);
      }
    }
  }

  Tracer tracer(false);
  double cpu = 0, wall = 0;
  if (!args.trace) {
    const HostCpuTicks host0 = ReadHostCpu();
    LoadSamples m = Measure(*s, args.seconds, &tracer, &cpu, &wall);
    result.steal_pct = StealPct(host0, ReadHostCpu());
    result.AddOps(m.ops);
    result.Add("first_estimate_s", GeoMeanOfMedians(m.first), "s");
    result.Add("to_1pct_s", GeoMeanOfMedians(m.to_1pct), "s");
    result.Add("final_s", GeoMeanOfMedians(m.final_s), "s");
    result.Add("exact_final_s", GeoMeanOfMedians(m.exact), "s");
    result.Add("cpu_s", cpu / static_cast<double>(m.passes), "s");
    result.Add("query_latency_p50_ms", Quantile(m.latencies_ms, 0.5), "ms");
    result.Add("query_latency_p90_ms", Quantile(m.latencies_ms, 0.9), "ms");
    result.Add("queries_per_s", static_cast<double>(m.runs) / wall, "1/s");
    result.Add("ingest_rows_per_s", Median(m.round_rows_per_s), "rows/s");
    result.Add("refresh_p50_ms", Median(m.refresh_ms), "ms");
    result.Add("heap_p50_mb", Median(m.heap_mb), "MiB");
    result.Add("setup_s", Median(setup_s), "s");
    // Reference figure (README): the paper's headline ratio, per query
    // exact final / OLA first estimate, median over the 22 queries.
    std::vector<double> speedup;
    for (size_t i = 0; i < s->queries.size(); ++i) {
      speedup.push_back(Median(m.exact[i]) / Median(m.first[i]));
    }
    std::fprintf(stderr,
                 "perfbench: median first-estimate speedup over exact %.2fx\n",
                 Median(speedup));
    return result;
  }

  // Traced run: half the time untraced, half traced; the difference in
  // the geomean OLA final latency is the tracing overhead.
  LoadSamples plain = Measure(*s, args.seconds / 2, &tracer, &cpu, &wall);
  result.AddOps(plain.ops);
  tracer.SetEnabled(true);
  LoadSamples traced = Measure(*s, args.seconds / 2, &tracer, &cpu, &wall);
  result.AddOps(traced.ops);
  LayerContext ctx{&s->data, s->dbs[0].get(), args.work_dir, &tracer};
  RunLayerProbes(ctx, &result);
  result.Add("trace.overhead_pct",
             100.0 * (GeoMeanOfMedians(traced.final_s) /
                          GeoMeanOfMedians(plain.final_s) -
                      1.0),
             "%");
  std::fprintf(stderr, "perfbench: %zu spans written to %s\n", tracer.size(),
               args.trace_file.c_str());
  tracer.WriteJson(args.trace_file);
  return result;
}

}  // namespace perfbench
