// The edf closure (§3) over Plan + Db: every operation on a plan yields a
// plan, a deep analysis session matches the exact engine, and a live handle
// streams converging states to the final result.
#include "api/db.h"

#include <gtest/gtest.h>

#include <optional>

#include "baseline/exact_engine.h"
#include "common/error.h"
#include "engine/tpch_fixture.h"

namespace wake {
namespace {

TEST(EdfTest, ReadValidatesTableName) {
  Db db(&testing::SharedTpch());
  EXPECT_NO_THROW(db.Prepare(Plan::Scan("lineitem")));
  try {
    db.Prepare(Plan::Scan("bogus"));
    FAIL() << "expected plan error";
  } catch (const Error& e) {
    EXPECT_EQ(e.category(), ErrorCategory::kPlan);
  }
}

TEST(EdfTest, ClosureUnderOperations) {
  // A chain of operations builds one plan tree; a top-k sort caps the final.
  Plan chain = Plan::Scan("lineitem")
                   .Filter(Gt(Expr::Col("l_quantity"), Expr::Float(10.0)))
                   .Aggregate({"l_orderkey"}, {Sum("l_quantity", "qty")})
                   .Filter(Gt(Expr::Col("qty"), Expr::Float(50.0)))
                   .Sort({{"qty", true}}, 5);
  EXPECT_EQ(chain.node()->op, PlanOp::kSortLimit);
  Db db(&testing::SharedTpch());
  DataFrame final_frame = db.Prepare(chain).Execute();
  EXPECT_GT(final_frame.num_rows(), 0u);
  EXPECT_LE(final_frame.num_rows(), 5u);
}

TEST(EdfTest, PaperSessionQ18Style) {
  // The §1 analysis session: deep OLA over a local aggregate, a filter,
  // two joins, a shuffle aggregate, and a sort.
  const Catalog& cat = testing::SharedTpch();
  Plan order_qty = Plan::Scan("lineitem").Aggregate(
      {"l_orderkey"}, {Sum("l_quantity", "order_qty")});
  Plan large_orders =
      order_qty.Filter(Gt(Expr::Col("order_qty"), Expr::Float(150.0)));
  Plan joined =
      large_orders
          .Join(Plan::Scan("orders").Project({"o_orderkey", "o_custkey"}),
                JoinType::kInner, {"l_orderkey"}, {"o_orderkey"})
          .Join(Plan::Scan("customer").Project({"c_custkey", "c_name"}),
                JoinType::kInner, {"o_custkey"}, {"c_custkey"});
  Plan top = joined.Aggregate({"c_name"}, {Sum("order_qty", "qty")})
                 .Sort({{"qty", true}}, 10);
  Db db(&cat);
  std::string diff;
  EXPECT_TRUE(db.Prepare(top).Execute().ApproxEquals(
      ExactEngine(&cat).Execute(top.node()), 1e-6, &diff))
      << diff;
}

TEST(EdfTest, RunReturnsLiveHandleThatConverges) {
  Db db(&testing::SharedTpch());
  QueryHandle live =
      db.Prepare(Plan::Scan("lineitem")
                     .Aggregate({"l_returnflag"}, {Sum("l_quantity", "qty")}))
          .Run();
  size_t states = 0;
  std::optional<OlaState> last;
  while (auto s = live.Next()) {
    ++states;
    EXPECT_LE(s->frame->num_rows(), 3u);  // never more than the final groups
    last = std::move(s);
  }
  EXPECT_GE(states, 2u);
  ASSERT_TRUE(last.has_value());
  EXPECT_TRUE(last->is_final);
  EXPECT_DOUBLE_EQ(last->progress, 1.0);
  EXPECT_EQ(live.Final().num_rows(), 3u);  // R, A, N
}

}  // namespace
}  // namespace wake
