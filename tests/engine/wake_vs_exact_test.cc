// Integration: the Wake OLA engine must converge to exactly the answer the
// blocking exact engine produces, for every TPC-H query (the paper's
// convergence guarantee, §4.5: the edf at t = 1 is the exact answer).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"

#include "baseline/exact_engine.h"
#include "core/engine.h"
#include "engine/tpch_fixture.h"
#include "plan/optimizer.h"
#include "server/protocol.h"
#include "sql/parser.h"
#include "tpch/queries.h"
#include "tpch/queries_sql.h"

namespace wake {
namespace {

class TpchQueryEquality : public ::testing::TestWithParam<int> {};

TEST_P(TpchQueryEquality, FinalResultMatchesExactEngine) {
  const Catalog& cat = testing::SharedTpch();
  Plan plan = tpch::Query(GetParam());
  ExactEngine exact(&cat);
  DataFrame expected = exact.Execute(plan.node());

  WakeEngine engine(&cat);
  size_t states = 0;
  DataFrame got;
  engine.Execute(plan.node(), [&](const OlaState& s) {
    ++states;
    if (s.is_final) got = *s.frame;
  });
  EXPECT_GT(states, 1u) << "no intermediate states produced";
  std::string diff;
  EXPECT_TRUE(got.ApproxEquals(expected, 1e-6, &diff)) << diff;
}

INSTANTIATE_TEST_SUITE_P(AllQueries, TpchQueryEquality,
                         ::testing::Range(1, 23),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Q" + std::to_string(info.param);
                         });

// The queries whose join build sides are fed by aggregates (Q15: its max
// subquery). The demand pass marks the shuffle aggregates among them
// final-only; every state the caller receives must still be
// byte-identical at 1 and 4 workers, and the final must equal the exact
// engine's answer. Q2's min-cost aggregate groups by partsupp's
// clustering key, so it is a local aggregate streaming append partials
// and nothing in Q2 is marked. Q2 also has merge joins, whose partials
// follow input arrival order (src/exec/README.md), so its sequences are
// compared with hash joins only.
class FinalOnlyBuildSides : public ::testing::TestWithParam<int> {};

struct DeliveredStates {
  std::vector<std::pair<double, std::string>> states;  // progress, bytes
  DataFramePtr final_frame;
  size_t final_only_nodes = 0;
};

DeliveredStates RunAndRecord(const Plan& plan, size_t workers,
                             bool force_hash_join) {
  WakeOptions options;
  options.workers = workers;
  options.force_hash_join = force_hash_join;
  WakeEngine engine(&testing::SharedTpch(), options);
  std::unique_ptr<EngineRun> run = engine.Start(plan.node());
  DeliveredStates out;
  for (const auto& [label, final_only] : run->final_only_marks()) {
    out.final_only_nodes += final_only ? 1 : 0;
  }
  run->Collect([&](const OlaState& s) {
    wire::WireWriter w;
    protocol::EncodeDataFrame(*s.frame, &w);
    out.states.emplace_back(s.progress, w.Take());
    if (s.is_final) out.final_frame = s.frame;
  });
  return out;
}

TEST_P(FinalOnlyBuildSides, StatesWorkerInvariantAndFinalExact) {
  const Catalog& cat = testing::SharedTpch();
  const int q = GetParam();
  const std::vector<std::pair<std::string, Plan>> plans = {
      {"hand-built", tpch::Query(q)},
      {"sql", Optimize(sql::Parse(tpch::QuerySql(q)), cat)}};
  for (const auto& [source, plan] : plans) {
    SCOPED_TRACE(source);
    DeliveredStates w1 = RunAndRecord(plan, 1, q == 2);
    DeliveredStates w4 = RunAndRecord(plan, 4, q == 2);
    EXPECT_EQ(w1.final_only_nodes > 0, q != 2);
    EXPECT_EQ(w1.final_only_nodes, w4.final_only_nodes);
    ASSERT_EQ(w1.states.size(), w4.states.size());
    for (size_t i = 0; i < w1.states.size(); ++i) {
      EXPECT_EQ(w1.states[i].first, w4.states[i].first) << "state " << i;
      EXPECT_TRUE(w1.states[i].second == w4.states[i].second)
          << "state " << i << " differs between 1 and 4 workers";
    }
    ASSERT_NE(w1.final_frame, nullptr);
    std::string diff;
    EXPECT_TRUE(w1.final_frame->ApproxEquals(
        ExactEngine(&cat).Execute(plan.node()), 0.0, &diff))
        << diff;
  }
}

INSTANTIATE_TEST_SUITE_P(BuildSideAggregates, FinalOnlyBuildSides,
                         ::testing::Values(2, 11, 13, 15, 17, 20, 22),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Q" + std::to_string(info.param);
                         });

class ModifiedQueryEquality : public ::testing::TestWithParam<int> {};

TEST_P(ModifiedQueryEquality, FinalResultMatchesExactEngine) {
  const Catalog& cat = testing::SharedTpch();
  Plan plan = tpch::ModifiedQuery(GetParam());
  ExactEngine exact(&cat);
  WakeEngine engine(&cat);
  std::string diff;
  EXPECT_TRUE(engine.ExecuteFinal(plan.node())
                  .ApproxEquals(exact.Execute(plan.node()), 1e-6, &diff))
      << diff;
}

INSTANTIATE_TEST_SUITE_P(Modified, ModifiedQueryEquality,
                         ::testing::Values(1, 3, 6, 7, 10),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "MQ" + std::to_string(info.param);
                         });

TEST(TpchQueryEqualityExtra, CiModeDoesNotChangeFinalResults) {
  const Catalog& cat = testing::SharedTpch();
  WakeOptions options;
  options.with_ci = true;
  WakeEngine engine(&cat, options);
  ExactEngine exact(&cat);
  for (int q : {1, 6, 14, 18}) {
    Plan plan = tpch::Query(q);
    std::string diff;
    EXPECT_TRUE(engine.ExecuteFinal(plan.node())
                    .ApproxEquals(exact.Execute(plan.node()), 1e-6, &diff))
        << "Q" << q << ": " << diff;
  }
}

TEST(TpchQueryEqualityExtra, RepartitioningDoesNotChangeFinalResults) {
  // Final answers must be independent of the partition layout (§8.7 varies
  // partition sizes; correctness must hold for all of them).
  tpch::DbgenConfig cfg;
  cfg.scale_factor = 0.005;
  cfg.partitions = 3;
  Catalog base = tpch::Generate(cfg);
  Catalog repartitioned;
  for (const auto& name : base.TableNames()) {
    repartitioned.Add(std::make_shared<PartitionedTable>(
        base.Get(name).Repartition(name == "lineitem" ? 11 : 5)));
  }
  for (int q : {1, 3, 6, 13, 18}) {
    Plan plan = tpch::Query(q);
    WakeEngine a(&base), b(&repartitioned);
    std::string diff;
    EXPECT_TRUE(a.ExecuteFinal(plan.node())
                    .ApproxEquals(b.ExecuteFinal(plan.node()), 1e-6, &diff))
        << "Q" << q << ": " << diff;
  }
}

TEST(TpchQueryEqualityExtra, QueryNumberValidation) {
  EXPECT_THROW(tpch::Query(0), Error);
  EXPECT_THROW(tpch::Query(23), Error);
  EXPECT_THROW(tpch::ModifiedQuery(2), Error);
  EXPECT_EQ(tpch::AllQueries().size(), 22u);
}

}  // namespace
}  // namespace wake
