// Inputs: the seeded TPC-H catalog, its wakeblock copy, ingest batches,
// and the independent reference answers the checks compare against.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <unordered_map>

#include "bench.h"
#include "common/error.h"
#include "common/wire.h"
#include "frame/value.h"
#include "server/protocol.h"
#include "storage/wakeblock.h"
#include "tpch/queries_sql.h"

namespace perfbench {

namespace fs = std::filesystem;
using wake::Column;
using wake::PartitionedTable;

namespace {

wake::tpch::DbgenConfig ConfigForSeed(uint64_t seed) {
  wake::tpch::DbgenConfig config;
  config.scale_factor = kScaleFactor;
  config.partitions = kPartitions;
  // Distinct, well-mixed dbgen seeds per benchmark seed.
  config.seed = 0x9E3779B97F4A7C15ULL * (seed + 1) ^ 20230307ULL;
  return config;
}

}  // namespace

Dataset MakeDataset(uint64_t seed, const std::string& wakeblock_dir) {
  Dataset data;
  data.config = ConfigForSeed(seed);
  data.memory =
      std::make_shared<Catalog>(wake::tpch::Generate(data.config));
  if (!wakeblock_dir.empty()) {
    fs::remove_all(wakeblock_dir);
    fs::create_directories(wakeblock_dir);
    for (const std::string& name : data.memory->TableNames()) {
      wake::wakeblock::Write(data.memory->Get(name), wakeblock_dir);
    }
    // Flush the files now, as part of set-up: left dirty, the kernel
    // writes them back some 30 s later, in the middle of the measured run.
    for (const auto& e : fs::recursive_directory_iterator(wakeblock_dir)) {
      if (!e.is_regular_file()) continue;
      int fd = ::open(e.path().c_str(), O_RDONLY);
      if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
      }
    }
    data.wakeblock = std::make_shared<Catalog>(
        wake::wakeblock::OpenCatalog(wakeblock_dir));
  }
  return data;
}

std::string LiveQ1Sql() {
  std::string sql = wake::tpch::QuerySql(1);
  const std::string from = "FROM lineitem ";
  size_t at = sql.find(from);
  wake::CheckArg(at != std::string::npos, "Q1 text has no lineitem scan");
  return sql.replace(at, from.size(), std::string("FROM ") + kLiveTable + " ");
}

// -- Independent reference answers --------------------------------------------

namespace {

bool Close(double got, double want, double rel = 1e-9) {
  double scale = std::max({std::fabs(got), std::fabs(want), 1.0});
  return std::fabs(got - want) <= rel * scale;
}

std::string Fmt(const char* what, double got, double want) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: got %.17g want %.17g", what, got, want);
  return buf;
}

const int64_t kQ1Cutoff = wake::DateToDays(1998, 12, 1) - 90;

// Q1's per-group sums, in column order of the query's aggregates.
struct Q1Group {
  double qty = 0, base = 0, disc_price = 0, charge = 0, disc = 0, count = 0;
};

std::map<std::string, Q1Group> LoopQ1(const PartitionedTable& lineitem) {
  std::map<std::string, Q1Group> groups;
  for (const auto& part : lineitem.partitions()) {
    const Column& flag = part->ColumnByName("l_returnflag");
    const Column& status = part->ColumnByName("l_linestatus");
    const Column& ship = part->ColumnByName("l_shipdate");
    const Column& qty = part->ColumnByName("l_quantity");
    const Column& price = part->ColumnByName("l_extendedprice");
    const Column& disc = part->ColumnByName("l_discount");
    const Column& tax = part->ColumnByName("l_tax");
    for (size_t r = 0; r < part->num_rows(); ++r) {
      if (ship.IntAt(r) > kQ1Cutoff) continue;
      Q1Group& g = groups[flag.StringAt(r) + "|" + status.StringAt(r)];
      double p = price.DoubleAt(r), d = disc.DoubleAt(r);
      g.qty += qty.DoubleAt(r);
      g.base += p;
      g.disc_price += p * (1 - d);
      g.charge += p * (1 - d) * (1 + tax.DoubleAt(r));
      g.disc += d;
      g.count += 1;
    }
  }
  return groups;
}

std::string CheckQ1(const Catalog& catalog, const DataFrame& exact) {
  auto groups = LoopQ1(catalog.Get("lineitem"));
  if (exact.num_rows() != groups.size()) return "Q1: group count differs";
  for (size_t r = 0; r < exact.num_rows(); ++r) {
    std::string key = exact.ColumnByName("l_returnflag").StringAt(r) + "|" +
                      exact.ColumnByName("l_linestatus").StringAt(r);
    auto it = groups.find(key);
    if (it == groups.end()) return "Q1: unexpected group " + key;
    const Q1Group& g = it->second;
    auto col = [&](const char* name) {
      return exact.ColumnByName(name).DoubleAt(r);
    };
    // Summation order differs from the engine's, hence the tolerance.
    const std::pair<const char*, double> want[] = {
        {"sum_qty", g.qty},          {"sum_base_price", g.base},
        {"sum_disc_price", g.disc_price}, {"sum_charge", g.charge},
        {"avg_qty", g.qty / g.count}, {"avg_price", g.base / g.count},
        {"avg_disc", g.disc / g.count}, {"count_order", g.count}};
    for (const auto& [name, value] : want) {
      if (!Close(col(name), value)) return Fmt(name, col(name), value);
    }
  }
  return "";
}

std::string CheckQ6(const Catalog& catalog, const DataFrame& exact) {
  const int64_t lo = wake::DateToDays(1994, 1, 1);
  const int64_t hi = wake::DateToDays(1995, 1, 1);
  double revenue = 0;
  for (const auto& part : catalog.Get("lineitem").partitions()) {
    const Column& ship = part->ColumnByName("l_shipdate");
    const Column& qty = part->ColumnByName("l_quantity");
    const Column& price = part->ColumnByName("l_extendedprice");
    const Column& disc = part->ColumnByName("l_discount");
    for (size_t r = 0; r < part->num_rows(); ++r) {
      int64_t d = ship.IntAt(r);
      double dc = disc.DoubleAt(r);
      if (d >= lo && d < hi && dc >= 0.049 && dc <= 0.071 &&
          qty.DoubleAt(r) < 24) {
        revenue += price.DoubleAt(r) * dc;
      }
    }
  }
  if (exact.num_rows() != 1) return "Q6: expected one row";
  double got = exact.ColumnByName("revenue").DoubleAt(0);
  return Close(got, revenue) ? "" : Fmt("Q6 revenue", got, revenue);
}

std::string CheckQ14(const Catalog& catalog, const DataFrame& exact) {
  std::unordered_map<int64_t, bool> promo;
  for (const auto& part : catalog.Get("part").partitions()) {
    const Column& key = part->ColumnByName("p_partkey");
    const Column& type = part->ColumnByName("p_type");
    for (size_t r = 0; r < part->num_rows(); ++r) {
      promo[key.IntAt(r)] = type.StringAt(r).rfind("PROMO", 0) == 0;
    }
  }
  const int64_t lo = wake::DateToDays(1995, 9, 1);
  const int64_t hi = wake::DateToDays(1995, 10, 1);
  double promo_sum = 0, total = 0;
  for (const auto& part : catalog.Get("lineitem").partitions()) {
    const Column& ship = part->ColumnByName("l_shipdate");
    const Column& key = part->ColumnByName("l_partkey");
    const Column& price = part->ColumnByName("l_extendedprice");
    const Column& disc = part->ColumnByName("l_discount");
    for (size_t r = 0; r < part->num_rows(); ++r) {
      int64_t d = ship.IntAt(r);
      if (d < lo || d >= hi) continue;
      auto it = promo.find(key.IntAt(r));
      if (it == promo.end()) continue;  // inner join: unmatched rows drop
      double v = price.DoubleAt(r) * (1 - disc.DoubleAt(r));
      total += v;
      if (it->second) promo_sum += v;
    }
  }
  if (exact.num_rows() != 1) return "Q14: expected one row";
  double want = 100.0 * promo_sum / total;
  double got = exact.ColumnByName("promo_revenue").DoubleAt(0);
  return Close(got, want) ? "" : Fmt("Q14 promo_revenue", got, want);
}

}  // namespace

std::string CheckIndependent(int q, const Catalog& catalog,
                             const DataFrame& exact) {
  switch (q) {
    case 1: return CheckQ1(catalog, exact);
    case 6: return CheckQ6(catalog, exact);
    case 14: return CheckQ14(catalog, exact);
    default: return "";
  }
}

// -- Ingest batches -----------------------------------------------------------

std::vector<IngestBatch> MakeIngestBatches(const Catalog& catalog,
                                           size_t count, uint64_t seed) {
  const PartitionedTable& lineitem = catalog.Get("lineitem");
  DataFrame all = lineitem.Materialize();
  const size_t n = all.num_rows();
  wake::CheckArg(n >= kBatchRows, "lineitem smaller than one batch");
  std::vector<IngestBatch> batches;
  batches.reserve(count);
  size_t begin = (seed * 7919 * kBatchRows) % (n - kBatchRows + 1);
  for (size_t i = 0; i < count; ++i) {
    if (begin + kBatchRows > n) begin = 0;
    // Each batch owns its rows, as rows arriving from outside would: a
    // round trip through the wire codec gives its string columns their
    // own dictionaries instead of a slice of the whole table's.
    wake::wire::WireWriter writer;
    wake::protocol::EncodeDataFrame(all.Slice(begin, begin + kBatchRows),
                                    &writer);
    wake::wire::WireReader reader(writer.buffer());
    IngestBatch batch;
    batch.rows = wake::protocol::DecodeDataFrame(&reader);
    begin += kBatchRows;
    const DataFrame& rows = batch.rows;
    const Column& flag = rows.ColumnByName("l_returnflag");
    const Column& status = rows.ColumnByName("l_linestatus");
    const Column& ship = rows.ColumnByName("l_shipdate");
    const Column& qty = rows.ColumnByName("l_quantity");
    const Column& price = rows.ColumnByName("l_extendedprice");
    for (size_t r = 0; r < rows.num_rows(); ++r) {
      if (ship.IntAt(r) > kQ1Cutoff) continue;
      auto& sums = batch.q1_sums[flag.StringAt(r) + "|" + status.StringAt(r)];
      sums[0] += 1;
      sums[1] += qty.DoubleAt(r);
      sums[2] += price.DoubleAt(r);
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

std::string CheckLedger(
    const DataFrame& frame,
    const std::map<std::string, std::array<double, 3>>& ledger) {
  if (frame.num_rows() != ledger.size()) return "ledger: group count differs";
  for (size_t r = 0; r < frame.num_rows(); ++r) {
    std::string key = frame.ColumnByName("l_returnflag").StringAt(r) + "|" +
                      frame.ColumnByName("l_linestatus").StringAt(r);
    auto it = ledger.find(key);
    if (it == ledger.end()) return "ledger: unexpected group " + key;
    const char* names[] = {"count_order", "sum_qty", "sum_base_price"};
    for (size_t k = 0; k < 3; ++k) {
      double got = frame.ColumnByName(names[k]).DoubleAt(r);
      if (!Close(got, it->second[k])) {
        return Fmt((std::string("ledger ") + names[k]).c_str(), got,
                   it->second[k]);
      }
    }
  }
  return "";
}

}  // namespace perfbench
