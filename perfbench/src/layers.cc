// Per-layer probes of the traced run. Each probe times calls into one
// module's public functions from outside; no library source is touched.
// Every probe runs on the workload's own data (and, where a session is
// involved, its own Db), so the figures line up with its end-to-end run.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "baseline/exact_engine.h"
#include "bench.h"
#include "client/client.h"
#include "common/wire.h"
#include "common/worker_pool.h"
#include "core/agg_state.h"
#include "core/engine.h"
#include "core/join_kernel.h"
#include "frame/expr.h"
#include "ingest/live_table.h"
#include "plan/optimizer.h"
#include "plan/props.h"
#include "server/protocol.h"
#include "server/server.h"
#include "sql/parser.h"
#include "storage/wakeblock.h"
#include "tpch/queries_sql.h"

namespace perfbench {

namespace fs = std::filesystem;
using wake::AggSpec;
using wake::Expr;
using wake::ExprPtr;
using wake::PartitionedTable;
using wake::WorkerPool;

namespace {

const int kMix[] = {1, 3, 6, 12, 14, 19};
constexpr int kTimingReps = 3;  // each kernel timing is the median of these

/// Median wall time of `reps` calls of `fn`, in seconds.
template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    Clock::time_point t0 = Clock::now();
    fn();
    t.push_back(Seconds(t0, Clock::now()));
  }
  return Median(t);
}

/// Times `fn` inside a span named `name` of the probe's tracer.
template <typename Fn>
double Probe(Tracer* tracer, const std::string& name, int reps, Fn&& fn) {
  int64_t span = tracer->Begin(name, -1, 0);
  double s = MedianSeconds(reps, fn);
  tracer->End(span);
  return s;
}

uint64_t DirBytes(const fs::path& dir) {
  uint64_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

std::vector<DataFrame> Narrow(const PartitionedTable& table,
                              const std::vector<std::string>& columns) {
  std::vector<DataFrame> parts;
  PartitionedTable narrowed = table.SelectColumns(columns);
  for (const auto& p : narrowed.partitions()) parts.push_back(*p);
  return parts;
}

/// Samples the process's thread count every 0.5 ms while it lives.
class ThreadSampler {
 public:
  ThreadSampler()
      : thread_([this] {
          while (running_.load()) {
            int n = ThreadCount();
            if (n > peak_.load()) peak_.store(n);
            std::this_thread::sleep_for(std::chrono::microseconds(500));
          }
        }) {}
  ~ThreadSampler() {
    running_.store(false);
    thread_.join();
  }
  int peak() const { return peak_.load(); }

 private:
  std::atomic<bool> running_{true};
  std::atomic<int> peak_{0};
  std::thread thread_;  // last: starts once the fields it reads exist
};

/// Operator kind of an engine trace span ("read(lineitem)", "agg:finish").
std::string KindOf(const std::string& label) {
  std::string base = label.substr(0, label.find_first_of("(:"));
  if (base == "read" || base == "scan") return "Read";
  if (base == "filter") return "Filter";
  if (base == "map" || base == "derive") return "Map";
  if (base.find("join") != std::string::npos) return "Join";
  if (base.find("agg") != std::string::npos) return "Aggregate";
  if (base == "sort") return "Sort";
  return "";
}

const char* const kKinds[] = {"Read", "Filter", "Map", "Join", "Aggregate",
                              "Sort"};

// -- sql / plan ---------------------------------------------------------------

void ProbePlanning(const LayerContext& ctx, RunResult* out) {
  std::vector<double> parse_us, optimize_us;
  const Catalog& catalog = ctx.db->catalog();
  for (int q : kMix) {
    const std::string sql = wake::tpch::QuerySql(q);
    wake::Plan plan;
    parse_us.push_back(1e6 * Probe(ctx.tracer, "sql.parse", 51,
                                   [&] { plan = wake::sql::Parse(sql); }));
    optimize_us.push_back(1e6 * Probe(ctx.tracer, "plan.optimize", 21, [&] {
                            wake::Optimize(plan, catalog);
                          }));
  }
  out->Add("sql.parse_us", Mean(parse_us), "us");
  out->Add("plan.optimize_us", Mean(optimize_us), "us");
}

// -- storage ------------------------------------------------------------------

void ProbeStorage(const LayerContext& ctx, const fs::path& dir,
                  RunResult* out) {
  const PartitionedTable& lineitem = ctx.data->memory->Get("lineitem");
  double write_s = Probe(ctx.tracer, "storage.write", kTimingReps, [&] {
    fs::remove_all(dir);
    fs::create_directories(dir);
    wake::wakeblock::Write(lineitem, dir.string());
  });
  out->Add("storage.write_mb_s", DirBytes(dir) / 1e6 / write_s, "MB/s");
  auto blocks = wake::wakeblock::BlockTable::Open(dir.string(), "lineitem");
  double decode_s = Probe(ctx.tracer, "storage.decode", kTimingReps, [&] {
    for (size_t b = 0; b < blocks->num_blocks(); ++b) {
      if (blocks->ReadBlock(b, {}) == nullptr) std::abort();
    }
  });
  out->Add("storage.decode_mrows_s", lineitem.total_rows() / 1e6 / decode_s,
           "Mrows/s");
}

/// One OLA sweep of the 22 queries with lineitem opened lazily from
/// wakeblock (other tables in memory): block counters of that sweep.
void ProbeBlockSkipping(const LayerContext& ctx, const fs::path& dir,
                        RunResult* out) {
  Catalog hybrid = *ctx.data->memory;
  auto lazy = std::make_shared<PartitionedTable>(
      PartitionedTable::OpenWakeblock(dir.string(), "lineitem"));
  hybrid.Add(lazy);
  wake::Db db(&hybrid, wake::DbOptions{kWorkersMem});
  lazy->block_source()->ResetStats();
  int64_t span = ctx.tracer->Begin("storage.sweep", -1, 0);
  for (int q = 1; q <= 22; ++q) db.Prepare(wake::tpch::QuerySql(q)).Execute();
  ctx.tracer->End(span);
  wake::wakeblock::ScanStats stats = lazy->block_source()->stats();
  out->Add("storage.blocks_read", static_cast<double>(stats.blocks_read),
           "count");
  out->Add("storage.blocks_skipped", static_cast<double>(stats.blocks_skipped),
           "count");
}

// -- frame --------------------------------------------------------------------

void ProbeFrame(const LayerContext& ctx, RunResult* out) {
  const PartitionedTable& lineitem = ctx.data->memory->Get("lineitem");
  const size_t rows = lineitem.total_rows();
  // Q6's predicate, evaluated and applied partition by partition.
  ExprPtr ship = Expr::Col("l_shipdate");
  ExprPtr disc = Expr::Col("l_discount");
  ExprPtr pred = Expr::And(
      Expr::And(wake::Ge(ship, Expr::Date(1994, 1, 1)),
                wake::Lt(ship, Expr::Date(1995, 1, 1))),
      Expr::And(Expr::And(wake::Ge(disc, Expr::Float(0.049)),
                          wake::Le(disc, Expr::Float(0.071))),
                wake::Lt(Expr::Col("l_quantity"), Expr::Int(24))));
  size_t kept = 0;
  double filter_s = Probe(ctx.tracer, "frame.filter", kTimingReps, [&] {
    kept = 0;
    for (const auto& part : lineitem.partitions()) {
      kept += part->FilterBy(pred->Eval(*part)).num_rows();
    }
  });
  if (kept == 0) std::abort();
  out->Add("frame.filter_mrows_s", rows / 1e6 / filter_s, "Mrows/s");
  const wake::Schema& schema = lineitem.schema();
  std::vector<size_t> keys = {schema.FieldIndex("l_orderkey"),
                              schema.FieldIndex("l_linenumber")};
  std::vector<uint64_t> hashes;
  double hash_s = Probe(ctx.tracer, "frame.hash", kTimingReps, [&] {
    for (const auto& part : lineitem.partitions()) {
      part->HashRowsBatch(keys, &hashes);
    }
  });
  out->Add("frame.hash_mrows_s", rows / 1e6 / hash_s, "Mrows/s");
}

// -- core kernels -------------------------------------------------------------

void ProbeKernels(const LayerContext& ctx, RunResult* out) {
  const Catalog& mem = *ctx.data->memory;
  WorkerPool pool4(kWorkersMem);
  // orders ⋈ lineitem on the order key, build side = orders.
  DataFrame orders = mem.Get("orders").Materialize(
      {"o_orderkey", "o_orderdate", "o_shippriority"});
  DataFrame probe = mem.Get("lineitem").Materialize(
      {"l_orderkey", "l_extendedprice", "l_discount"});
  double build_s = Probe(ctx.tracer, "core.join_build", kTimingReps, [&] {
    wake::JoinHashTable table(orders.schema(), {"o_orderkey"});
    table.Insert(orders);
  });
  out->Add("core.join_build_mrows_s", orders.num_rows() / 1e6 / build_s,
           "Mrows/s");
  wake::JoinHashTable table(orders.schema(), {"o_orderkey"});
  table.Insert(orders);
  wake::Schema join_out = wake::JoinOutputSchema(
      probe.schema(), orders.schema(), {"o_orderkey"}, wake::JoinType::kInner);
  for (WorkerPool* pool : {static_cast<WorkerPool*>(nullptr), &pool4}) {
    double s = Probe(ctx.tracer, "core.join_probe", kTimingReps, [&] {
      DataFrame joined =
          table.Probe(probe, {"l_orderkey"}, wake::JoinType::kInner, join_out,
                      nullptr, nullptr, pool);
      if (joined.num_rows() == 0) std::abort();
    });
    out->Add(pool == nullptr ? "core.join_probe_mrows_s_w1"
                             : "core.join_probe_mrows_s_w4",
             probe.num_rows() / 1e6 / s, "Mrows/s");
  }

  // Q1- and Q3-shaped grouped aggregation over lineitem partitions.
  struct Shape {
    std::vector<std::string> group_by;
    std::vector<AggSpec> aggs;
    std::vector<DataFrame> parts;
  };
  const PartitionedTable& lineitem = mem.Get("lineitem");
  std::vector<Shape> shapes = {
      {{"l_returnflag", "l_linestatus"},
       {wake::Sum("l_quantity", "sum_qty"),
        wake::Sum("l_extendedprice", "sum_base_price"),
        wake::Avg("l_discount", "avg_disc"), wake::Count("count_order")},
       Narrow(lineitem, {"l_returnflag", "l_linestatus", "l_quantity",
                         "l_extendedprice", "l_discount"})},
      {{"l_orderkey"},
       {wake::Sum("l_extendedprice", "revenue")},
       Narrow(lineitem, {"l_orderkey", "l_extendedprice"})}};
  auto make_state = [](const Shape& shape) {
    const wake::Schema& in = shape.parts[0].schema();
    return std::make_unique<wake::GroupedAggState>(
        shape.group_by, shape.aggs, in,
        wake::AggOutputSchema(in, shape.group_by, shape.aggs));
  };
  for (WorkerPool* pool : {static_cast<WorkerPool*>(nullptr), &pool4}) {
    double s = Probe(ctx.tracer, "core.group_by", kTimingReps, [&] {
      for (const Shape& shape : shapes) {
        auto state = make_state(shape);
        if (pool != nullptr) state->EnableSharding(pool);
        for (const DataFrame& part : shape.parts) state->Consume(part);
      }
    });
    out->Add(pool == nullptr ? "core.group_by_mrows_s_w1"
                             : "core.group_by_mrows_s_w4",
             2.0 * lineitem.total_rows() / 1e6 / s, "Mrows/s");
  }
  // Finalize of a half-consumed (t = 0.5) Q1- and Q3-shaped snapshot.
  double finalize_us = 0;
  for (const Shape& shape : shapes) {
    auto state = make_state(shape);
    for (size_t p = 0; p < shape.parts.size() / 2; ++p) {
      state->Consume(shape.parts[p]);
    }
    wake::AggScaling scaling;
    scaling.enabled = true;
    scaling.t = 0.5;
    finalize_us += 1e6 * Probe(ctx.tracer, "core.finalize", 21, [&] {
                     if (state->Finalize(scaling).frame.num_rows() == 0) {
                       std::abort();
                     }
                   });
  }
  out->Add("core.finalize_us", finalize_us, "us");
}

// -- sweeps of the workload's own session -------------------------------------

/// Exact answers of the 22 queries through ExactEngine on the workload's
/// catalog; records the engine's peak intermediate bytes.
std::vector<DataFrame> ExactSweep(const LayerContext& ctx, RunResult* out) {
  std::vector<DataFrame> truth;
  size_t peak = 0;
  int64_t span = ctx.tracer->Begin("baseline.exact_sweep", -1, 0);
  for (int q = 1; q <= 22; ++q) {
    wake::PreparedQuery pq = ctx.db->Prepare(wake::tpch::QuerySql(q));
    wake::ExactEngine exact(&ctx.db->catalog());
    truth.push_back(exact.Execute(pq.plan().node()));
    peak = std::max(peak, exact.peak_bytes());
  }
  ctx.tracer->End(span);
  out->Add("baseline.exact_peak_mb", peak / 1048576.0, "MiB");
  return truth;
}

/// One OLA sweep with confidence intervals: the state stream's shape,
/// first-estimate error, CI coverage and the process thread peak.
void StateSweep(const LayerContext& ctx, const std::vector<DataFrame>& truth,
                RunResult* out) {
  std::vector<double> states, first_progress, first_mape;
  size_t bursts = 0, covered = 0, cells = 0;
  int threads_peak = 0;
  for (int q = 1; q <= 22; ++q) {
    wake::PreparedQuery pq = ctx.db->Prepare(wake::tpch::QuerySql(q));
    std::vector<TimedState> stream;
    Clock::time_point t0;
    wake::RunOptions options;
    options.with_ci = true;
    options.max_buffered_states = 1;
    options.on_state = [&](const wake::OlaState& s) {
      stream.push_back({Seconds(t0, Clock::now()), s});
    };
    int64_t span = ctx.tracer->Begin("exec.sweep.q" + std::to_string(q), -1, 0);
    {
      ThreadSampler sampler;
      t0 = Clock::now();
      {
        wake::QueryHandle h = pq.Run(options);
        h.Wait();
      }
      threads_peak = std::max(threads_peak, sampler.peak());
    }
    ctx.tracer->End(span);
    const DataFrame& want = truth[static_cast<size_t>(q - 1)];
    const size_t key_cols = QueryKeyColumns(q);
    OlaScore score = ScoreOlaRun(stream, want, key_cols);
    out->Op("Q" + std::to_string(q) + " ci sweep: ", "", score.why);
    states.push_back(static_cast<double>(score.states));
    first_progress.push_back(score.first_progress);
    first_mape.push_back(score.first_mape_pct);
    bursts += score.bursts;
    for (const TimedState& ts : stream) {
      if (ts.state.is_final || ts.state.variances == nullptr ||
          ts.state.frame == nullptr) {
        continue;
      }
      CountCiCoverage(want, *ts.state.frame, key_cols, *ts.state.variances,
                      &covered, &cells);
    }
  }
  out->Add("exec.states_per_query", Mean(states), "count");
  out->Add("exec.first_state_progress", Median(first_progress), "fraction");
  out->Add("exec.burst_states", static_cast<double>(bursts), "count");
  out->Add("core.first_estimate_mape_pct", Median(first_mape), "%");
  out->Add("core.ci_coverage",
           cells == 0 ? 0.0 : static_cast<double>(covered) / cells, "fraction");
  out->Add("exec.threads_peak", threads_peak, "count");
}

/// The engine's own node spans (WakeOptions::trace) over the same
/// optimized plans, summed by operator kind.
void BusySweep(const LayerContext& ctx, RunResult* out) {
  std::map<std::string, double> busy_ms;
  for (const char* kind : kKinds) busy_ms[kind] = 0;
  wake::WakeOptions options;
  options.trace = true;
  options.pool = ctx.db->pool();
  options.workers = 1;
  wake::WakeEngine engine(&ctx.db->catalog(), options);
  for (int q = 1; q <= 22; ++q) {
    wake::PreparedQuery pq = ctx.db->Prepare(wake::tpch::QuerySql(q));
    double base = ctx.tracer->Now();
    int64_t root =
        ctx.tracer->Begin("exec.engine.q" + std::to_string(q), -1, 0);
    engine.Execute(pq.plan().node(), nullptr);
    ctx.tracer->End(root);
    for (const wake::TraceSpan& span : engine.last_trace()) {
      std::string kind = KindOf(span.node);
      if (kind.empty()) {
        std::fprintf(stderr, "perfbench: span of unknown kind %s\n",
                     span.node.c_str());
      } else {
        busy_ms[kind] += (span.end_seconds - span.start_seconds) * 1e3;
      }
      ctx.tracer->Add("exec.node." + span.node, base + span.start_seconds,
                      base + span.end_seconds, root, 0);
    }
  }
  for (const char* kind : kKinds) {
    out->Add(std::string("exec.busy_ms.") + kind, busy_ms[kind], "ms");
  }
}

// -- wire / client / server ---------------------------------------------------

void ProbeWire(const LayerContext& ctx, const std::vector<DataFrame>& truth,
               RunResult* out) {
  size_t bytes = 0;
  double s = Probe(ctx.tracer, "common.wire_encode", kTimingReps, [&] {
    bytes = 0;
    for (int i = 0; i < 2000; ++i) {
      for (int q : kMix) {
        wake::wire::WireWriter w;
        wake::protocol::EncodeDataFrame(truth[static_cast<size_t>(q - 1)], &w);
        bytes += w.buffer().size();
      }
    }
  });
  out->Add("common.wire_encode_mb_s", bytes / 1e6 / s, "MB/s");
}

void ProbeRemote(const LayerContext& ctx, RunResult* out) {
  wake::Server server(ctx.db);
  server.Start();
  wake::ClientOptions client_options;
  client_options.port = server.port();
  wake::Client client(client_options);
  client.Connect();
  const uint64_t sent0 = server.stats().snapshots_sent;
  std::vector<double> overhead_ms;
  size_t remote_runs = 0;
  for (int q : kMix) {
    const std::string sql = wake::tpch::QuerySql(q);
    wake::PreparedQuery pq = ctx.db->Prepare(sql);
    std::vector<double> local, remote;
    for (int rep = 0; rep < kTimingReps; ++rep) {
      local.push_back(
          Probe(ctx.tracer, "api.local_query", 1, [&] { pq.Execute(); }));
      remote.push_back(Probe(ctx.tracer, "client.remote_query", 1,
                             [&] { client.Submit(sql).Final(); }));
      ++remote_runs;
    }
    overhead_ms.push_back((Median(remote) - Median(local)) * 1e3);
  }
  const uint64_t sent = server.stats().snapshots_sent - sent0;
  client.Close();
  server.Stop();
  out->Add("client.remote_overhead_ms", Mean(overhead_ms), "ms");
  out->Add("server.snapshots_sent", static_cast<double>(sent) / remote_runs,
           "count");
}

// -- ingest / api -------------------------------------------------------------

void ProbeIngest(const LayerContext& ctx, const fs::path& dir, RunResult* out) {
  const PartitionedTable& lineitem = ctx.data->memory->Get("lineitem");
  std::vector<IngestBatch> batches =
      MakeIngestBatches(*ctx.data->memory, 32, ctx.data->config.seed);
  wake::LiveTableOptions live_options;
  live_options.seal_rows = size_t{1} << 40;  // seal only when asked to
  live_options.spill_dir = (dir / "live").string();
  auto live = std::make_shared<wake::LiveTable>(kLiveTable, lineitem.schema(),
                                                live_options);
  Catalog catalog;
  catalog.AddDynamic(live);
  wake::Db db(&catalog, ctx.db->options());
  auto sub = db.Subscribe(LiveQ1Sql());
  std::vector<double> append_us, refresh_ms, seal_ms;
  for (size_t i = 0; i < batches.size(); ++i) {
    append_us.push_back(1e6 * Probe(ctx.tracer, "ingest.append", 1,
                                    [&] { live->Append(batches[i].rows); }));
    refresh_ms.push_back(1e3 * Probe(ctx.tracer, "api.refresh", 1,
                                     [&] { sub->Refresh(); }));
    if (i % 4 == 3) {
      seal_ms.push_back(1e3 * Probe(ctx.tracer, "ingest.seal", 1,
                                    [&] { live->SealHot(); }));
    }
  }
  wake::Server server(&db);
  server.Start();
  wake::ClientOptions client_options;
  client_options.port = server.port();
  wake::Client client(client_options);
  client.Connect();
  std::vector<double> remote_us;
  for (size_t i = 0; i < 16; ++i) {
    remote_us.push_back(1e6 * Probe(ctx.tracer, "client.ingest", 1, [&] {
                          client.Ingest(kLiveTable, batches[i].rows);
                        }));
  }
  client.Close();
  server.Stop();
  out->Add("ingest.append_us", Median(append_us), "us");
  out->Add("ingest.seal_ms", Median(seal_ms), "ms");
  out->Add("ingest.remote_append_us", Median(remote_us), "us");
  out->Add("api.refresh_ms", Median(refresh_ms), "ms");
}

}  // namespace

void RunLayerProbes(const LayerContext& ctx, RunResult* out) {
  const fs::path dir = fs::path(ctx.work_dir) / "layers";
  fs::create_directories(dir);
  auto step = [](const char* name) {
    std::fprintf(stderr, "perfbench: layer probe %s\n", name);
  };
  step("planning");
  ProbePlanning(ctx, out);
  step("storage");
  ProbeStorage(ctx, dir / "wakeblock", out);
  ProbeBlockSkipping(ctx, dir / "wakeblock", out);
  step("frame");
  ProbeFrame(ctx, out);
  step("kernels");
  ProbeKernels(ctx, out);
  step("sweeps");
  std::vector<DataFrame> truth = ExactSweep(ctx, out);
  StateSweep(ctx, truth, out);
  BusySweep(ctx, out);
  step("wire");
  ProbeWire(ctx, truth, out);
  ProbeRemote(ctx, out);
  step("ingest");
  ProbeIngest(ctx, dir, out);
  fs::remove_all(dir);
}

}  // namespace perfbench
