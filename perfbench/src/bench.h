// perfbench: shared declarations of the end-to-end benchmark.
//
// The benchmark drives the library only through its public entry points
// (Db/PreparedQuery/QueryHandle, Client/Server, LiveTable/Subscription)
// and times calls into module functions from these files; no library
// source is touched. See perfbench/README.md for the workloads, metrics
// and the layer -> end-to-end map.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/db.h"
#include "frame/data_frame.h"
#include "storage/partitioned_table.h"
#include "tpch/dbgen.h"

namespace perfbench {

using wake::Catalog;
using wake::DataFrame;
using wake::DataFramePtr;

// -- Make-up of the inputs (README "Inputs") ---------------------------------
constexpr double kScaleFactor = 0.1;
constexpr size_t kPartitions = 12;
constexpr size_t kWorkersMem = 4;     // serve-ingest, the truth, probes
constexpr size_t kBatchRows = 4096;   // one ingest batch
constexpr size_t kSealRows = 16384;   // live-table tablet size
constexpr size_t kRoundBatches = 48;  // ingest batches per round
constexpr int kRoundsPerPass = 2;     // ingest rounds per tpch pass
// Set-ups per run; setup_s is their median. serve-ingest's set-up takes
// about 2 s, and the median of 3 spread by 0.27 across 10 runs; the
// wakeblock set-up takes about 4.5 s, where 3 spread by 0.13 and 5 would
// cost 10 s more per run.
constexpr int kSetupRepsTpch = 3;
constexpr int kSetupRepsServe = 5;
constexpr const char* kLiveTable = "lineitem_live";

/// Command line of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;    // scratch files of this run (deleted at exit)
  std::string trace_file;  // where the traced run writes its spans
};

// -- Clock --------------------------------------------------------------------
using Clock = std::chrono::steady_clock;
inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// -- Result -------------------------------------------------------------------
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run prints as its last line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // first few reasons, to stderr
  double steal_pct = -1;  // host steal over the measured phase (-1: unknown)

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Counts one operation. A non-empty `error` is an error the program
  /// reported: the operation failed. Otherwise a non-empty `mismatch` is a
  /// check its output did not pass: the run is not correct.
  void Op(const std::string& label, const std::string& error,
          const std::string& mismatch);
  /// Adds the operations (and correctness) of `other`.
  void AddOps(const RunResult& other);
  std::string ToJson() const;
};

// -- Spans (traced run) -------------------------------------------------------
/// One timed interval at a layer boundary. Spans of one query share
/// `query_id`; `parent` is the index of the enclosing span (-1 = root).
struct Span {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int64_t parent = -1;
  uint64_t query_id = 0;
};

/// In-memory span log, written out when the run ends. Disabled tracers
/// record nothing and cost one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  bool enabled() const { return enabled_; }
  double Now() const { return Seconds(epoch_, Clock::now()); }
  double At(Clock::time_point t) const { return Seconds(epoch_, t); }
  /// Opens a span and returns its id (-1 when disabled).
  int64_t Begin(const std::string& name, int64_t parent, uint64_t query_id);
  void End(int64_t id);
  /// Records a finished span with explicit times (seconds since epoch).
  int64_t Add(const std::string& name, double start_s, double end_s,
              int64_t parent, uint64_t query_id);
  void SetEnabled(bool on) { enabled_ = on; }
  size_t size() const;
  void WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// -- Statistics ---------------------------------------------------------------
double Median(std::vector<double> v);
/// Quantile with linear interpolation between order statistics.
double Quantile(std::vector<double> v, double q);
double GeoMean(const std::vector<double>& v);
/// The TPC-H-style aggregate: each query's median across repetitions,
/// then the geometric mean over the queries.
double GeoMeanOfMedians(const std::vector<std::vector<double>>& per_query);
double Mean(const std::vector<double>& v);

// -- Process probes -----------------------------------------------------------
double CpuSeconds();     // user + sys of this process
/// Bytes the process holds from malloc now, in MiB: in use in every
/// arena plus mmapped chunks (glibc mallinfo2). Unlike the resident set,
/// it leaves out freed memory the allocator keeps.
double HeapMb();
/// Appends HeapMb() to *mb every 50 ms until `finished` reaches
/// `threads`; run on the thread that waits for the load threads.
void SampleHeap(const std::atomic<size_t>& finished, size_t threads,
                std::vector<double>* mb);
int ThreadCount();       // Threads: in /proc/self/status
/// Steal and total time of the host's CPUs so far (aggregate line of
/// /proc/stat, in clock ticks); zeros where it cannot be read.
struct HostCpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
HostCpuTicks ReadHostCpu();
/// Steal between two readings, in percent of all CPU time (-1: unknown).
double StealPct(const HostCpuTicks& from, const HostCpuTicks& to);

// -- Result scoring -----------------------------------------------------------
/// Group-key columns at the front of TPC-H query `q`'s result.
size_t QueryKeyColumns(int q);
/// Mean absolute percentage error of `got` against `truth` over cells of
/// rows matched on the first `key_cols` columns, plus the recall of truth
/// rows (both computed after the run, never in a state callback).
struct StateScore {
  double mape_pct = 0;
  double recall = 0;
};
StateScore ScoreState(const DataFrame& truth, const DataFrame& got,
                      size_t key_cols);
/// Cells of `got` whose 95% confidence interval (the engine's Chebyshev
/// interval over a with_ci state's variances) covers the truth value:
/// adds to *covered / *cells.
void CountCiCoverage(const DataFrame& truth, const DataFrame& got,
                     size_t key_cols, const wake::VarianceMap& vars,
                     size_t* covered, size_t* cells);
/// Byte-identity (ApproxEquals with tolerance 0).
bool Identical(const DataFrame& a, const DataFrame& b, std::string* diff);

/// One state as the benchmark saw it: arrival time since Run() and the
/// state itself (frames are retained and scored after the run).
struct TimedState {
  double t = 0;
  wake::OlaState state;
};

/// Scores one OLA run's retained state stream.
struct OlaScore {
  std::string why;       // the first check that failed ("" = all passed)
  double first_s = 0;    // first non-empty state
  double to_1pct_s = 0;  // first state within 1% MAPE with full recall
  double final_s = 0;
  double first_progress = 0;
  double first_mape_pct = 0;
  size_t states = 0;
  size_t bursts = 0;  // states within 0.1 ms of the previous one
};
OlaScore ScoreOlaRun(const std::vector<TimedState>& states,
                     const DataFrame& truth, size_t key_cols);

// -- Inputs -------------------------------------------------------------------
/// The generated TPC-H data and everything computed from it in set-up.
struct Dataset {
  wake::tpch::DbgenConfig config;
  std::shared_ptr<Catalog> memory;     // in-memory tables
  std::shared_ptr<Catalog> wakeblock;  // lazily opened (when written)
};
/// Generates the catalog; with `wakeblock_dir` non-empty also writes every
/// table there and opens it lazily.
Dataset MakeDataset(uint64_t seed, const std::string& wakeblock_dir);

/// Independent answers of Q1, Q6 and Q14 computed with plain loops over
/// the generated columns; returns "" when `exact` matches, else why not.
std::string CheckIndependent(int q, const Catalog& catalog,
                             const DataFrame& exact);

/// Q1 over the live table (the standing subscription's query).
std::string LiveQ1Sql();

/// Fixed-size lineitem batches for ingestion, cut from the generated
/// table, and the Q1-group sums each contributes (the writer's ledger).
struct IngestBatch {
  DataFrame rows;
  // (returnflag|linestatus) -> {count, sum_qty, sum_base_price}
  std::map<std::string, std::array<double, 3>> q1_sums;
};
std::vector<IngestBatch> MakeIngestBatches(const Catalog& catalog,
                                           size_t count, uint64_t seed);
/// Checks a Q1-shaped subscription frame against the writer's ledger.
std::string CheckLedger(
    const DataFrame& frame,
    const std::map<std::string, std::array<double, 3>>& ledger);

/// One ingest round (see ingest.cc).
struct IngestRoundSpec {
  const std::vector<IngestBatch>* batches = nullptr;
  wake::Schema schema;      // lineitem's
  wake::DbOptions options;  // the round's session
  std::string spill_dir;    // "" = sealed tablets stay in memory
  bool remote = false;      // through Server + Client::Ingest
};
struct IngestStats {
  std::vector<double> refresh_ms;
  size_t rows = 0;
  double seconds = 0;  // inside the append/refresh loops
};
void IngestRound(const IngestRoundSpec& spec, uint64_t round_id,
                 IngestStats* stats, RunResult* ops, Tracer* tracer);

/// What one load thread (a query stream or client, or the writer) saw;
/// merged after the run.
struct LoadSamples {
  explicit LoadSamples(size_t queries)
      : first(queries), to_1pct(queries), final_s(queries), exact(queries) {}
  // Per query, one value per run.
  std::vector<std::vector<double>> first, to_1pct, final_s, exact;
  std::vector<double> latencies_ms;  // every query run, submit to final
  size_t runs = 0;                   // query runs
  size_t passes = 0;                 // whole passes of a tpch stream
  std::vector<double> round_rows_per_s, refresh_ms;  // ingest rounds
  std::vector<double> heap_mb;  // sampled over the measured phase
  RunResult ops;

  void AddRound(const IngestStats& round);
  void MergeFrom(const LoadSamples& other);
};

// -- Workloads ----------------------------------------------------------------
RunResult RunTpchWakeblock(const Args& args);
RunResult RunServeIngest(const Args& args);

/// Everything the per-layer probes need from a workload's set-up.
struct LayerContext {
  const Dataset* data = nullptr;
  wake::Db* db = nullptr;  // the workload's query session
  std::string work_dir;
  Tracer* tracer = nullptr;
};
/// Times calls into each module's public functions and appends every
/// per-layer metric to *out.
void RunLayerProbes(const LayerContext& ctx, RunResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
