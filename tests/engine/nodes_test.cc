// Operator-node behaviour tests through small single-node (or few-node)
// engine runs on synthetic tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "baseline/exact_engine.h"
#include "core/engine.h"
#include "server/protocol.h"

namespace wake {
namespace {

// Clustered fact table: key 0..n-1 (clustering), dim in 0..3. By default
// val == key; with `decorrelate` set, values are position-independent so
// partitions are exchangeable (the OLA premise for estimate-quality tests).
Catalog SyntheticCatalog(size_t n, size_t partitions,
                         bool decorrelate = false) {
  Schema schema({{"key", ValueType::kInt64},
                 {"dim", ValueType::kInt64},
                 {"val", ValueType::kFloat64}});
  schema.set_primary_key({"key"});
  schema.set_clustering_key({"key"});
  DataFrame df(schema);
  for (size_t i = 0; i < n; ++i) {
    df.mutable_column(0)->AppendInt(static_cast<int64_t>(i));
    df.mutable_column(1)->AppendInt(static_cast<int64_t>(i % 4));
    df.mutable_column(2)->AppendDouble(
        static_cast<double>(decorrelate ? (i * 37) % 101 : i));
  }
  Schema dim_schema({{"d_id", ValueType::kInt64},
                     {"d_name", ValueType::kString}});
  dim_schema.set_primary_key({"d_id"});
  dim_schema.set_clustering_key({"d_id"});
  DataFrame dim(dim_schema);
  for (int i = 0; i < 4; ++i) {
    dim.mutable_column(0)->AppendInt(i);
    dim.mutable_column(1)->AppendString("dim" + std::to_string(i));
  }
  Catalog cat;
  cat.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame("fact", df, partitions)));
  cat.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame("dim", dim, 1)));
  return cat;
}

TEST(ReaderNodeTest, EmitsOneStatePerPartitionWithMonotoneProgress) {
  Catalog cat = SyntheticCatalog(100, 5);
  WakeEngine engine(&cat);
  std::vector<double> progresses;
  size_t rows = 0;
  engine.Execute(Plan::Scan("fact").node(), [&](const OlaState& s) {
    if (s.is_final) {
      rows = s.frame->num_rows();
      return;
    }
    progresses.push_back(s.progress);
  });
  ASSERT_EQ(progresses.size(), 5u);
  for (size_t i = 1; i < progresses.size(); ++i) {
    EXPECT_GT(progresses[i], progresses[i - 1]);
  }
  EXPECT_DOUBLE_EQ(progresses.back(), 1.0);
  EXPECT_EQ(rows, 100u);
}

TEST(MapFilterNodeTest, StreamsPerPartial) {
  Catalog cat = SyntheticCatalog(100, 4);
  WakeEngine engine(&cat);
  Plan plan = Plan::Scan("fact")
                  .Filter(Lt(Expr::Col("val"), Expr::Float(50.0)))
                  .Map({{"v2", Expr::Col("val") * Expr::Int(2)}});
  size_t states = 0;
  DataFrame final_frame;
  engine.Execute(plan.node(), [&](const OlaState& s) {
    ++states;
    if (s.is_final) final_frame = *s.frame;
  });
  EXPECT_GE(states, 4u);
  EXPECT_EQ(final_frame.num_rows(), 50u);
  EXPECT_DOUBLE_EQ(final_frame.column(0).DoubleAt(49), 98.0);
}

TEST(LocalAggNodeTest, AppendsCompleteGroupsOnly) {
  // Clustering-key groups: earlier states must be prefixes of the final
  // result, with values already exact (constant attributes, Case 1).
  Catalog cat = SyntheticCatalog(120, 6);
  WakeEngine engine(&cat);
  Plan plan = Plan::Scan("fact").Aggregate({"key"}, {Sum("val", "s")});
  DataFrame final_frame;
  std::vector<DataFrame> states;
  engine.Execute(plan.node(), [&](const OlaState& s) {
    if (s.is_final) {
      final_frame = *s.frame;
    } else {
      states.push_back(*s.frame);
    }
  });
  ASSERT_EQ(final_frame.num_rows(), 120u);
  for (const DataFrame& state : states) {
    ASSERT_LE(state.num_rows(), final_frame.num_rows());
    std::string diff;
    EXPECT_TRUE(state.ApproxEquals(
        final_frame.Slice(0, state.num_rows()), 1e-12, &diff))
        << diff;
  }
}

TEST(ShuffleAggNodeTest, EstimatesConvergeToExact) {
  Catalog cat = SyntheticCatalog(1000, 10, /*decorrelate=*/true);
  WakeEngine engine(&cat);
  ExactEngine exact(&cat);
  Plan plan = Plan::Scan("fact").Aggregate({"dim"}, {Sum("val", "s"),
                                                     Count("n")});
  DataFrame expected = exact.Execute(plan.node());
  std::vector<DataFrame> states;
  DataFrame final_frame;
  engine.Execute(plan.node(), [&](const OlaState& s) {
    if (s.is_final) {
      final_frame = *s.frame;
    } else {
      states.push_back(*s.frame);
    }
  });
  std::string diff;
  EXPECT_TRUE(final_frame.SortBy({{"dim", false}})
                  .ApproxEquals(expected.SortBy({{"dim", false}}), 1e-9,
                                &diff))
      << diff;
  // Uniform data: even the first estimate should be within 25% of truth.
  ASSERT_FALSE(states.empty());
  double truth = 0, first = 0;
  for (size_t g = 0; g < expected.num_rows(); ++g) {
    truth += expected.ColumnByName("s").DoubleAt(g);
  }
  for (size_t g = 0; g < states.front().num_rows(); ++g) {
    first += states.front().ColumnByName("s").DoubleAt(g);
  }
  EXPECT_NEAR(first, truth, 0.25 * truth);
}

TEST(HashJoinNodeTest, ProbeStreamsBuildBlocks) {
  Catalog cat = SyntheticCatalog(200, 8);
  WakeEngine engine(&cat);
  ExactEngine exact(&cat);
  Plan plan = Plan::Scan("fact").Join(Plan::Scan("dim"), JoinType::kInner,
                                      {"dim"}, {"d_id"});
  DataFrame expected = exact.Execute(plan.node());
  size_t states = 0;
  DataFrame final_frame;
  engine.Execute(plan.node(), [&](const OlaState& s) {
    ++states;
    if (s.is_final) final_frame = *s.frame;
  });
  EXPECT_GE(states, 8u);  // one per probe partial
  std::string diff;
  EXPECT_TRUE(final_frame.ApproxEquals(expected, 1e-12, &diff)) << diff;
}

TEST(MergeJoinNodeTest, UsedForClusteredKeysAndCorrect) {
  // Self-join on the clustering key exercises MergeJoinNode.
  Catalog cat = SyntheticCatalog(150, 5);
  WakeEngine engine(&cat);
  ExactEngine exact(&cat);
  Plan right = Plan::Scan("fact").Map({{"rkey", Expr::Col("key")},
                                       {"rval", Expr::Col("val")}});
  // rkey keeps clustering? map renames, so clustering is dropped; instead
  // join fact with fact on key (clustering on both sides).
  Plan left = Plan::Scan("fact");
  Plan self = left.Join(Plan::Scan("fact").Project({"key", "dim"})
                            .Map({{"key2", Expr::Col("key")},
                                  {"dim2", Expr::Col("dim")}}),
                        JoinType::kInner, {"key"}, {"key2"});
  (void)right;
  DataFrame got = engine.ExecuteFinal(self.node());
  DataFrame expected = exact.Execute(self.node());
  std::string diff;
  EXPECT_TRUE(got.SortBy({{"key", false}})
                  .ApproxEquals(expected.SortBy({{"key", false}}), 1e-12,
                                &diff))
      << diff;
  EXPECT_EQ(got.num_rows(), 150u);
}

TEST(SortLimitNodeTest, EveryStateIsSortedAndLimited) {
  Catalog cat = SyntheticCatalog(90, 6);
  WakeEngine engine(&cat);
  Plan plan = Plan::Scan("fact").Sort({{"val", true}}, 10);
  size_t checked = 0;
  engine.Execute(plan.node(), [&](const OlaState& s) {
    const DataFrame& f = *s.frame;
    EXPECT_LE(f.num_rows(), 10u);
    for (size_t i = 1; i < f.num_rows(); ++i) {
      EXPECT_GE(f.ColumnByName("val").DoubleAt(i - 1),
                f.ColumnByName("val").DoubleAt(i));
    }
    ++checked;
  });
  EXPECT_GE(checked, 6u);
}

TEST(EngineTest, TraceCollectsSpansWhenEnabled) {
  Catalog cat = SyntheticCatalog(100, 4);
  WakeOptions options;
  options.trace = true;
  WakeEngine engine(&cat, options);
  engine.ExecuteFinal(
      Plan::Scan("fact").Aggregate({"dim"}, {Count("n")}).node());
  const auto& spans = engine.last_trace();
  ASSERT_FALSE(spans.empty());
  bool saw_reader = false, saw_agg = false;
  for (const auto& s : spans) {
    saw_reader |= s.node.find("read") != std::string::npos;
    saw_agg |= s.node.find("agg") != std::string::npos;
    EXPECT_GE(s.end_seconds, s.start_seconds);
  }
  EXPECT_TRUE(saw_reader);
  EXPECT_TRUE(saw_agg);
}

TEST(EngineTest, BufferedBytesReported) {
  Catalog cat = SyntheticCatalog(500, 4);
  WakeEngine engine(&cat);
  engine.ExecuteFinal(Plan::Scan("fact")
                          .Join(Plan::Scan("dim"), JoinType::kInner, {"dim"},
                                {"d_id"})
                          .Sort({{"val", true}}, 100)
                          .node());
  EXPECT_GT(engine.buffered_bytes(), 0u);
}

TEST(EngineTest, EmptyScanStillFinalizes) {
  Schema schema({{"x", ValueType::kInt64}});
  schema.set_clustering_key({"x"});
  Catalog cat;
  cat.Add(std::make_shared<PartitionedTable>(
      PartitionedTable::FromDataFrame("empty", DataFrame(schema), 1)));
  WakeEngine engine(&cat);
  bool finalized = false;
  engine.Execute(Plan::Scan("empty").Aggregate({}, {Count("n")}).node(),
                 [&](const OlaState& s) { finalized |= s.is_final; });
  EXPECT_TRUE(finalized);
}

// ---------------------------------------------------------------------------
// Final-only nodes and the engine's demand pass
// ---------------------------------------------------------------------------

std::string WireBytes(const DataFrame& df) {
  wire::WireWriter w;
  protocol::EncodeDataFrame(df, &w);
  return w.Take();
}

/// Feeds a fixed list of messages, then its EOF.
class FeedNode : public ExecNode {
 public:
  explicit FeedNode(std::vector<Message> msgs)
      : ExecNode("feed"), msgs_(std::move(msgs)) {}

 protected:
  void Process(size_t, const Message&) override {}
  void RunSource() override {
    for (const Message& msg : msgs_) Emit(msg);
  }

 private:
  std::vector<Message> msgs_;
};

/// Runs `node` alone: feeds `inputs` into its one port, then that port's
/// EOF (drain-stopping the node first when asked), and returns every
/// message the node sent.
std::vector<Message> RunAlone(ExecNode* node,
                              const std::vector<Message>& inputs,
                              bool drain_stop = false) {
  FeedNode feed(inputs);
  node->AddInput(&feed);
  auto out = std::make_shared<Inbox>();
  node->Subscribe(out, 0);
  if (drain_stop) node->RequestDrainStop();
  node->Start(nullptr);
  feed.Start(nullptr);
  std::vector<Message> sent;
  bool eof = false;
  while (!eof) {
    auto batch = out->ReceiveAll();
    if (batch.empty()) break;
    for (auto& entry : batch) {
      eof |= entry.eof;
      if (!entry.eof) sent.push_back(std::move(entry.msg));
    }
  }
  feed.Join();
  node->Join();
  return sent;
}

/// The first `count` of `parts` append partials of the fact table.
std::vector<Message> FactPartials(const Catalog& cat, size_t parts,
                                  size_t count) {
  DataFrame fact = cat.GetPtr("fact")->Materialize();
  std::vector<Message> out;
  for (size_t i = 0; i < count; ++i) {
    Message msg;
    msg.frame = std::make_shared<DataFrame>(
        fact.Slice(i * fact.num_rows() / parts,
                   (i + 1) * fact.num_rows() / parts));
    msg.progress = static_cast<double>(i + 1) / static_cast<double>(parts);
    out.push_back(std::move(msg));
  }
  return out;
}

/// Runs a marked and an unmarked copy of the node `make` builds over the
/// same input; the marked one must send exactly the unmarked one's last
/// message, and nothing else.
void ExpectOnlyLastState(const std::function<std::unique_ptr<ExecNode>()>& make,
                         const std::vector<Message>& inputs,
                         bool drain_stop, double want_progress) {
  std::unique_ptr<ExecNode> every = make();
  std::vector<Message> all = RunAlone(every.get(), inputs, drain_stop);
  ASSERT_GE(all.size(), 2u);
  std::unique_ptr<ExecNode> last = make();
  last->SetFinalOnly(true);
  std::vector<Message> one = RunAlone(last.get(), inputs, drain_stop);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0].progress, want_progress);
  EXPECT_DOUBLE_EQ(one[0].progress, all.back().progress);
  EXPECT_EQ(one[0].refresh, all.back().refresh);
  EXPECT_EQ(WireBytes(*one[0].frame), WireBytes(*all.back().frame));
  ASSERT_EQ(one[0].variances != nullptr, all.back().variances != nullptr);
  if (one[0].variances != nullptr) {
    EXPECT_EQ(*one[0].variances, *all.back().variances);
  }
}

TEST(FinalOnlyNodeTest, ShuffleAggSendsOnlyItsExactState) {
  Catalog cat = SyntheticCatalog(1000, 10, /*decorrelate=*/true);
  Plan plan = Plan::Scan("fact").Aggregate(
      {"dim"}, {Sum("val", "s"), Avg("val", "a"), Count("n")});
  PlanProps props = InferProps(plan.node(), cat);
  const Schema& in_schema = cat.GetPtr("fact")->schema();
  for (bool with_ci : {false, true}) {
    SCOPED_TRACE(with_ci ? "with CI" : "without CI");
    NodeOptions options;
    options.with_ci = with_ci;
    ExpectOnlyLastState(
        [&] {
          return std::make_unique<ShuffleAggNode>(*plan.node(), in_schema,
                                                  props.schema, options);
        },
        FactPartials(cat, 10, 10), /*drain_stop=*/false, 1.0);
  }
}

TEST(FinalOnlyNodeTest, DrainedShuffleAggSendsItsLastEstimate) {
  Catalog cat = SyntheticCatalog(1000, 10, /*decorrelate=*/true);
  Plan plan = Plan::Scan("fact").Aggregate({"dim"}, {Sum("val", "s")});
  PlanProps props = InferProps(plan.node(), cat);
  NodeOptions options;
  options.with_ci = true;
  ExpectOnlyLastState(
      [&] {
        return std::make_unique<ShuffleAggNode>(
            *plan.node(), cat.GetPtr("fact")->schema(), props.schema,
            options);
      },
      FactPartials(cat, 10, 4), /*drain_stop=*/true, 0.4);
}

TEST(FinalOnlyNodeTest, MarkedSortLimitStillSendsEveryState) {
  // Only ShuffleAggNode acts on the mark; a marked SortLimit under a join
  // build side carries it down to its input and re-sorts per state.
  Catalog cat = SyntheticCatalog(600, 6, /*decorrelate=*/true);
  Plan plan = Plan::Scan("fact").Sort({{"val", true}, {"key", false}}, 25);
  const Schema& schema = cat.GetPtr("fact")->schema();
  std::vector<Message> inputs = FactPartials(cat, 6, 6);
  SortLimitNode every(*plan.node(), schema, NodeOptions{});
  std::vector<Message> all = RunAlone(&every, inputs);
  SortLimitNode marked(*plan.node(), schema, NodeOptions{});
  marked.SetFinalOnly(true);
  std::vector<Message> sent = RunAlone(&marked, inputs);
  ASSERT_EQ(sent.size(), inputs.size());
  ASSERT_EQ(sent.size(), all.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    EXPECT_DOUBLE_EQ(sent[i].progress, all[i].progress) << "state " << i;
    EXPECT_EQ(WireBytes(*sent[i].frame), WireBytes(*all[i].frame))
        << "state " << i;
  }
}

/// Label -> final-only mark of every node of `plan`'s compiled graph
/// (the graph runs to completion before returning).
std::vector<std::pair<std::string, bool>> Marks(const Catalog& cat,
                                                const Plan& plan) {
  WakeEngine engine(&cat);
  std::unique_ptr<EngineRun> run = engine.Start(plan.node());
  std::vector<std::pair<std::string, bool>> marks = run->final_only_marks();
  run->Collect(nullptr);
  return marks;
}

std::vector<std::string> MarkedLabels(const Catalog& cat, const Plan& plan) {
  std::vector<std::string> marked;
  for (const auto& [label, final_only] : Marks(cat, plan)) {
    if (final_only) marked.push_back(label);
  }
  return marked;
}

Plan DimSums() {
  return Plan::Scan("fact").Aggregate({"dim"}, {Sum("val", "s")});
}

TEST(DemandPassTest, AggIntoJoinBuildIsMarked) {
  Catalog cat = SyntheticCatalog(200, 4);
  Plan plan = Plan::Scan("fact").Join(DimSums().WithLabel("sums"),
                                      JoinType::kInner, {"dim"}, {"dim"});
  EXPECT_EQ(MarkedLabels(cat, plan), std::vector<std::string>{"sums"});
}

TEST(DemandPassTest, PassThroughChainIntoJoinBuildIsMarked) {
  Catalog cat = SyntheticCatalog(200, 4);
  Plan build = DimSums()
                   .WithLabel("sums")
                   .Filter(Gt(Expr::Col("s"), Expr::Float(0.0)))
                   .Map({{"d2", Expr::Col("dim")}, {"s2", Expr::Col("s")}})
                   .WithLabel("rename");
  Plan plan =
      Plan::Scan("fact").Join(build, JoinType::kInner, {"dim"}, {"d2"});
  EXPECT_EQ(MarkedLabels(cat, plan),
            (std::vector<std::string>{"sums", "filter", "rename"}));
}

TEST(DemandPassTest, AggSharedWithTheRootIsNotMarked) {
  Catalog cat = SyntheticCatalog(200, 4);
  Plan sums = DimSums().WithLabel("sums");
  Plan build = sums.Map({{"d2", Expr::Col("dim")}, {"s2", Expr::Col("s")}})
                   .WithLabel("rename");
  // `sums` feeds the root join's probe side and, through `rename`, its
  // build side: one node, two consumers, only one of them final-only.
  Plan plan = sums.Join(build, JoinType::kInner, {"dim"}, {"d2"});
  std::vector<std::pair<std::string, bool>> marks = Marks(cat, plan);
  EXPECT_EQ(std::count_if(marks.begin(), marks.end(),
                          [](const auto& m) { return m.first == "sums"; }),
            1);
  EXPECT_EQ(MarkedLabels(cat, plan), std::vector<std::string>{"rename"});
}

TEST(DemandPassTest, AggregateChainsAreNotMarked) {
  Catalog cat = SyntheticCatalog(200, 4);
  Plan total = DimSums().WithLabel("sums").Aggregate({}, {Sum("s", "t")});
  EXPECT_TRUE(MarkedLabels(cat, total).empty());
  // Under a join build the outer aggregate is marked, but its input is
  // not: the growth fit of an aggregate reads every input state.
  Plan plan = Plan::Scan("fact").CrossJoin(total.WithLabel("total"));
  EXPECT_EQ(MarkedLabels(cat, plan), std::vector<std::string>{"total"});
}

}  // namespace
}  // namespace wake
