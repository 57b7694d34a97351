// Result printing, spans, statistics, process probes and state scoring.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "core/ci.h"

namespace perfbench {

// -- RunResult ----------------------------------------------------------------

void RunResult::Op(const std::string& label, const std::string& error,
                   const std::string& mismatch) {
  ++attempted;
  if (!error.empty()) {
    ++failed;
    if (problems.size() < 8) problems.push_back("failed: " + label + error);
  } else if (!mismatch.empty()) {
    correct = false;
    if (problems.size() < 8) problems.push_back("wrong: " + label + mismatch);
  }
}

void RunResult::AddOps(const RunResult& other) {
  attempted += other.attempted;
  failed += other.failed;
  correct = correct && other.correct;
  for (const std::string& p : other.problems) {
    if (problems.size() < 8) problems.push_back(p);
  }
}

namespace {

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
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string RunResult::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ", ";
    out << JsonString(metrics[i].name) << ": {\"value\": "
        << JsonNumber(metrics[i].value)
        << ", \"unit\": " << JsonString(metrics[i].unit) << "}";
  }
  out << "}}";
  return out.str();
}

// -- Tracer -------------------------------------------------------------------

int64_t Tracer::Begin(const std::string& name, int64_t parent,
                      uint64_t query_id) {
  if (!enabled_) return -1;
  double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, now, -1.0, parent, query_id});
  return static_cast<int64_t>(spans_.size() - 1);
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_s = now;
}

int64_t Tracer::Add(const std::string& name, double start_s, double end_s,
                    int64_t parent, uint64_t query_id) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_s, end_s, parent, query_id});
  return static_cast<int64_t>(spans_.size() - 1);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": " << JsonString(s.name)
        << ", \"start_s\": " << JsonNumber(s.start_s)
        << ", \"end_s\": " << JsonNumber(s.end_s)
        << ", \"parent\": " << s.parent << ", \"query_id\": " << s.query_id
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

// -- LoadSamples --------------------------------------------------------------

namespace {

void Append(std::vector<double>* to, const std::vector<double>& from) {
  to->insert(to->end(), from.begin(), from.end());
}

}  // namespace

void LoadSamples::AddRound(const IngestStats& round) {
  round_rows_per_s.push_back(static_cast<double>(round.rows) / round.seconds);
  Append(&refresh_ms, round.refresh_ms);
}

void LoadSamples::MergeFrom(const LoadSamples& o) {
  for (size_t i = 0; i < first.size(); ++i) {
    Append(&first[i], o.first[i]);
    Append(&to_1pct[i], o.to_1pct[i]);
    Append(&final_s[i], o.final_s[i]);
    Append(&exact[i], o.exact[i]);
  }
  Append(&latencies_ms, o.latencies_ms);
  runs += o.runs;
  passes += o.passes;
  Append(&round_rows_per_s, o.round_rows_per_s);
  Append(&refresh_ms, o.refresh_ms);
  Append(&heap_mb, o.heap_mb);
  ops.AddOps(o.ops);
}

// -- Statistics ---------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-12));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double GeoMeanOfMedians(const std::vector<std::vector<double>>& per_query) {
  std::vector<double> medians;
  for (const auto& v : per_query) medians.push_back(Median(v));
  return GeoMean(medians);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// -- Process probes -----------------------------------------------------------

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double HeapMb() {
  const struct mallinfo2 m = mallinfo2();
  return static_cast<double>(m.uordblks + m.hblkhd) / (1024.0 * 1024.0);
}

void SampleHeap(const std::atomic<size_t>& finished, size_t threads,
                std::vector<double>* mb) {
  // mallinfo2 walks every arena's free lists under its lock, so sampling
  // more often would slow the allocations it measures.
  while (finished.load() < threads) {
    mb->push_back(HeapMb());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

int ThreadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

HostCpuTicks ReadHostCpu() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice";
  // guest time is already counted in user and nice.
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t v[8] = {};
  HostCpuTicks t;
  if (!(in >> cpu) || cpu != "cpu") return t;
  for (uint64_t& x : v) {
    if (!(in >> x)) return HostCpuTicks{};
    t.total += x;
  }
  t.steal = v[7];
  return t;
}

double StealPct(const HostCpuTicks& from, const HostCpuTicks& to) {
  if (to.total <= from.total) return -1;
  return 100.0 * static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

// -- Scoring ------------------------------------------------------------------

size_t QueryKeyColumns(int q) {
  // Columns before the aggregates in each query's result; a result with
  // no aggregate column is keyed on every column.
  switch (q) {
    case 1: return 2;
    case 2: return 8;
    case 3: return 3;
    case 4: return 1;
    case 5: return 1;
    case 7: return 3;
    case 8: return 1;
    case 9: return 2;
    case 10: return 7;
    case 11: return 1;
    case 12: return 1;
    case 13: return 1;
    case 15: return 4;
    case 16: return 3;
    case 18: return 5;
    case 20: return 2;
    case 21: return 1;
    case 22: return 1;
    default: return 0;  // single-row global aggregates
  }
}

namespace {

std::string RowKey(const DataFrame& df, size_t row, size_t key_cols) {
  std::string key;
  for (size_t c = 0; c < key_cols && c < df.num_columns(); ++c) {
    const wake::Column& col = df.column(c);
    key += col.IsNull(row) ? "\x01" : col.GetValue(row).ToString();
    key += '\x1f';
  }
  return key;
}

std::unordered_map<std::string, size_t> IndexRows(const DataFrame& df,
                                                  size_t key_cols) {
  std::unordered_map<std::string, size_t> index;
  index.reserve(df.num_rows());
  for (size_t r = 0; r < df.num_rows(); ++r) {
    index.emplace(RowKey(df, r, key_cols), r);
  }
  return index;
}

}  // namespace

StateScore ScoreState(const DataFrame& truth, const DataFrame& got,
                      size_t key_cols) {
  StateScore score;
  if (truth.num_rows() == 0) {
    score.recall = 1.0;
    return score;
  }
  auto truth_rows = IndexRows(truth, key_cols);
  std::vector<uint8_t> found(truth.num_rows(), 0);
  double total = 0;
  size_t cells = 0;
  for (size_t r = 0; r < got.num_rows(); ++r) {
    auto it = truth_rows.find(RowKey(got, r, key_cols));
    if (it == truth_rows.end()) continue;
    found[it->second] = 1;
    for (size_t c = key_cols; c < truth.num_columns(); ++c) {
      const wake::Column& want_col = truth.column(c);
      const wake::Column& got_col = got.column(c);
      if (want_col.IsNull(it->second) || got_col.IsNull(r)) continue;
      if (want_col.type() == wake::ValueType::kString) {
        total += want_col.StringAt(it->second) == got_col.StringAt(r) ? 0 : 1;
        ++cells;
        continue;
      }
      double want = want_col.DoubleAt(it->second);
      if (want == 0.0) continue;
      total += std::fabs(got_col.DoubleAt(r) - want) / std::fabs(want);
      ++cells;
    }
  }
  size_t hit = 0;
  for (uint8_t f : found) hit += f;
  score.recall = static_cast<double>(hit) / static_cast<double>(found.size());
  score.mape_pct = cells == 0 ? (hit > 0 ? 0.0 : 100.0)
                              : 100.0 * total / static_cast<double>(cells);
  return score;
}

void CountCiCoverage(const DataFrame& truth, const DataFrame& got,
                     size_t key_cols, const wake::VarianceMap& vars,
                     size_t* covered, size_t* cells) {
  auto truth_rows = IndexRows(truth, key_cols);
  for (const auto& [name, var] : vars) {
    size_t gc = got.schema().FindField(name);
    size_t tc = truth.schema().FindField(name);
    if (gc == wake::Schema::npos || tc == wake::Schema::npos) continue;
    if (truth.column(tc).type() == wake::ValueType::kString) continue;
    for (size_t r = 0; r < got.num_rows() && r < var.size(); ++r) {
      auto it = truth_rows.find(RowKey(got, r, key_cols));
      if (it == truth_rows.end()) continue;
      if (got.column(gc).IsNull(r) || truth.column(tc).IsNull(it->second)) {
        continue;
      }
      // The engine's own 95% interval (Chebyshev, paper §6).
      double want = truth.column(tc).DoubleAt(it->second);
      double range = wake::RelativeCiRange(got.column(gc).DoubleAt(r), want,
                                           std::max(var[r], 0.0), 0.95);
      *covered += range <= 1.0 ? 1 : 0;
      ++*cells;
    }
  }
}

bool Identical(const DataFrame& a, const DataFrame& b, std::string* diff) {
  return a.ApproxEquals(b, 0.0, diff);
}

OlaScore ScoreOlaRun(const std::vector<TimedState>& states,
                     const DataFrame& truth, size_t key_cols) {
  OlaScore s;
  s.states = states.size();
  auto fail = [&](const std::string& why) {
    if (s.why.empty()) s.why = why;
  };
  if (states.empty()) {
    fail("no state delivered");
    return s;
  }
  const TimedState& last = states.back();
  if (!last.state.is_final) fail("last state is not final");
  if (last.state.progress != 1.0) fail("final progress is not 1");
  std::string diff;
  if (last.state.frame == nullptr ||
      !Identical(*last.state.frame, truth, &diff)) {
    fail("final differs from the exact answer: " + diff);
  }
  s.final_s = last.t;
  bool have_first = false, have_1pct = false;
  for (size_t i = 0; i < states.size(); ++i) {
    const TimedState& ts = states[i];
    if (i > 0) {
      if (ts.state.progress < states[i - 1].state.progress) {
        fail("progress decreased");
      }
      if (ts.t - states[i - 1].t < 1e-4) ++s.bursts;
    }
    if (ts.state.frame == nullptr || ts.state.frame->num_rows() == 0) continue;
    if (!have_first) {
      have_first = true;
      s.first_s = ts.t;
      s.first_progress = ts.state.progress;
      s.first_mape_pct = ScoreState(truth, *ts.state.frame, key_cols).mape_pct;
    }
    if (!have_1pct) {
      StateScore sc = ts.state.is_final
                          ? StateScore{0.0, 1.0}
                          : ScoreState(truth, *ts.state.frame, key_cols);
      if (sc.mape_pct < 1.0 && sc.recall >= 1.0) {
        have_1pct = true;
        s.to_1pct_s = ts.t;
      }
    }
  }
  if (!have_first) {  // an empty exact answer: the final is the estimate
    s.first_s = s.final_s;
    s.first_progress = 1.0;
  }
  if (!have_1pct) s.to_1pct_s = s.final_s;
  return s;
}

}  // namespace perfbench
