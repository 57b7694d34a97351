// Direct tests of the execution substrate: node lifecycle, the inbox
// (port tags, EOF entries, broadcast edges), thread count, and trace
// recording.
#include "exec/exec_node.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>

#include "common/error.h"

namespace wake {
namespace {

DataFramePtr TinyFrame(int64_t value) {
  Schema schema({{"x", ValueType::kInt64}});
  auto df = std::make_shared<DataFrame>(schema);
  df->mutable_column(0)->AppendInt(value);
  return df;
}

/// Source emitting `count` messages then ending its stream.
class CountingSource : public ExecNode {
 public:
  explicit CountingSource(int count) : ExecNode("source"), count_(count) {}

 protected:
  void Process(size_t, const Message&) override {}
  void RunSource() override {
    for (int i = 0; i < count_; ++i) {
      Message msg;
      msg.frame = TinyFrame(i);
      msg.progress = static_cast<double>(i + 1) / count_;
      Emit(std::move(msg));
    }
  }

 private:
  int count_;
};

/// Records per-port message counts and order; forwards everything.
class RecordingNode : public ExecNode {
 public:
  explicit RecordingNode(size_t ports)
      : ExecNode("recorder"),
        per_port_(ports),
        closed_(ports),
        last_progress_(ports, 0.0) {}

  std::vector<std::atomic<int>> per_port_;
  std::vector<std::atomic<int>> closed_;
  std::atomic<bool> finished{false};
  std::atomic<bool> out_of_order{false};
  std::atomic<bool> after_eof{false};

 protected:
  void Process(size_t port, const Message& msg) override {
    ++per_port_[port];
    if (msg.progress <= last_progress_[port]) out_of_order = true;
    if (input_closed(port)) after_eof = true;
    last_progress_[port] = msg.progress;
    Message copy = msg;
    Emit(std::move(copy));
  }
  void OnInputClosed(size_t port) override { ++closed_[port]; }
  void Finish() override { finished = true; }

 private:
  std::vector<double> last_progress_;  // node-thread only
};

/// Throws on the first message.
class FailingNode : public ExecNode {
 public:
  FailingNode() : ExecNode("failing") {}

 protected:
  void Process(size_t, const Message&) override {
    throw Error("injected", ErrorCategory::kExecution);
  }
};

/// What a consumer read from one inbox.
struct Drained {
  std::vector<Message> messages;
  size_t eofs = 0;
  bool cancelled = false;
};

/// Reads `inbox` (a single port 0) until its EOF entry or a cancel.
Drained Drain(Inbox& inbox) {
  Drained out;
  while (out.eofs == 0) {
    auto entry = inbox.Receive();
    if (!entry) {
      out.cancelled = true;
      break;
    }
    EXPECT_EQ(entry->port, 0u);
    if (entry->eof) {
      ++out.eofs;
    } else {
      out.messages.push_back(std::move(entry->msg));
    }
  }
  return out;
}

TEST(ExecNodeTest, SourceEmitsThenOneEof) {
  CountingSource source(5);
  auto out = std::make_shared<Inbox>();
  source.Subscribe(out, 0);
  source.Start(nullptr);
  Drained got = Drain(*out);
  source.Join();
  EXPECT_EQ(got.messages.size(), 5u);
  EXPECT_EQ(got.eofs, 1u);
  EXPECT_EQ(out->size(), 0u);  // nothing follows the EOF entry
}

TEST(ExecNodeTest, InboxDeliversFromAllPortsAndSignalsEofOnce) {
  CountingSource a(7), b(3);
  RecordingNode recorder(2);
  recorder.AddInput(&a);
  recorder.AddInput(&b);
  auto out = std::make_shared<Inbox>();
  recorder.Subscribe(out, 0);
  a.Start(nullptr);
  b.Start(nullptr);
  recorder.Start(nullptr);
  Drained got = Drain(*out);
  a.Join();
  b.Join();
  recorder.Join();
  EXPECT_EQ(recorder.per_port_[0].load(), 7);
  EXPECT_EQ(recorder.per_port_[1].load(), 3);
  EXPECT_EQ(recorder.closed_[0].load(), 1);
  EXPECT_EQ(recorder.closed_[1].load(), 1);
  EXPECT_FALSE(recorder.out_of_order.load());  // per-port send order
  EXPECT_FALSE(recorder.after_eof.load());     // EOF ends its port
  EXPECT_TRUE(recorder.finished.load());
  EXPECT_EQ(got.messages.size(), 10u);
  EXPECT_EQ(got.eofs, 1u);
}

TEST(ExecNodeTest, OneThreadPerNode) {
  auto threads = [] {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
    }
    return -1;
  };
  if (threads() < 0) GTEST_SKIP() << "no Threads: line in /proc/self/status";
  CountingSource a(4), b(4), c(4);
  RecordingNode recorder(3);
  recorder.AddInput(&a);
  recorder.AddInput(&b);
  recorder.AddInput(&c);
  auto out = std::make_shared<Inbox>();
  recorder.Subscribe(out, 0);
  int before = threads();
  recorder.Start(nullptr);
  // Give the node thread time to spawn anything it would spawn per input.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(threads(), before + 1);
  a.Start(nullptr);
  b.Start(nullptr);
  c.Start(nullptr);
  Drained got = Drain(*out);
  a.Join();
  b.Join();
  c.Join();
  recorder.Join();
  EXPECT_EQ(got.messages.size(), 12u);
}

TEST(ExecNodeTest, ChainsPropagateEofThroughStages) {
  CountingSource source(4);
  RecordingNode mid(1), tail(1);
  mid.AddInput(&source);
  tail.AddInput(&mid);
  auto out = std::make_shared<Inbox>();
  tail.Subscribe(out, 0);
  source.Start(nullptr);
  mid.Start(nullptr);
  tail.Start(nullptr);
  Drained got = Drain(*out);
  source.Join();
  mid.Join();
  tail.Join();
  EXPECT_EQ(got.messages.size(), 4u);
  EXPECT_EQ(got.eofs, 1u);
  EXPECT_TRUE(tail.finished.load());
}

TEST(ExecNodeTest, TraceRecordsSpansForProcessedMessages) {
  TraceLog trace;
  CountingSource source(3);
  RecordingNode recorder(1);
  recorder.AddInput(&source);
  auto out = std::make_shared<Inbox>();
  recorder.Subscribe(out, 0);
  source.Start(&trace);
  recorder.Start(&trace);
  Drain(*out);
  source.Join();
  recorder.Join();
  auto spans = trace.Spans();
  int source_spans = 0, recorder_spans = 0;
  for (const auto& s : spans) {
    source_spans += s.node == "source";
    recorder_spans += s.node == "recorder";
    EXPECT_LE(s.start_seconds, s.end_seconds);
  }
  EXPECT_EQ(source_spans, 1);        // one span for the whole source run
  EXPECT_GE(recorder_spans, 3);      // one per message (+ eof)
}

TEST(ExecNodeTest, SubscribersAllReceiveTheBroadcast) {
  CountingSource source(6);
  auto a = std::make_shared<Inbox>();
  auto b = std::make_shared<Inbox>();
  source.Subscribe(a, 0);
  source.Subscribe(b, 0);
  source.Start(nullptr);
  Drained got_a = Drain(*a);
  Drained got_b = Drain(*b);
  source.Join();
  EXPECT_EQ(got_a.messages.size(), 6u);  // every subscriber sees every message
  EXPECT_EQ(got_b.messages.size(), 6u);
  EXPECT_EQ(got_a.eofs, 1u);  // and its own EOF
  EXPECT_EQ(got_b.eofs, 1u);
}

TEST(ExecNodeTest, OneProducerOnTwoPortsSendsEachItsEof) {
  // A shared subplan feeding both inputs of one consumer: two edges into
  // the same inbox, one push and one EOF entry per edge.
  CountingSource source(5);
  RecordingNode recorder(2);
  recorder.AddInput(&source);
  recorder.AddInput(&source);
  auto out = std::make_shared<Inbox>();
  recorder.Subscribe(out, 0);
  source.Start(nullptr);
  recorder.Start(nullptr);
  Drained got = Drain(*out);
  source.Join();
  recorder.Join();
  EXPECT_EQ(recorder.per_port_[0].load(), 5);
  EXPECT_EQ(recorder.per_port_[1].load(), 5);
  EXPECT_EQ(recorder.closed_[0].load(), 1);
  EXPECT_EQ(recorder.closed_[1].load(), 1);
  EXPECT_FALSE(recorder.out_of_order.load());
  EXPECT_EQ(got.messages.size(), 10u);
}

TEST(ExecNodeTest, ProgressMetadataSurvivesForwarding) {
  CountingSource source(4);
  RecordingNode recorder(1);
  recorder.AddInput(&source);
  auto out = std::make_shared<Inbox>();
  recorder.Subscribe(out, 0);
  source.Start(nullptr);
  recorder.Start(nullptr);
  Drained got = Drain(*out);
  source.Join();
  recorder.Join();
  double last = 0;
  for (const Message& msg : got.messages) {
    EXPECT_GT(msg.progress, last);
    last = msg.progress;
  }
  EXPECT_DOUBLE_EQ(last, 1.0);
}

TEST(ExecNodeTest, FailingNodeReportsAndCancelsItsConsumers) {
  // A throwing operator reports to the error handler, and its consumer's
  // inbox is cancelled instead of receiving an EOF.
  CountingSource source(3);
  FailingNode failing;
  failing.AddInput(&source);
  auto out = std::make_shared<Inbox>();
  failing.Subscribe(out, 0);
  std::atomic<int> errors{0};
  failing.SetErrorHandler([&](std::exception_ptr) { ++errors; });
  source.Start(nullptr);
  failing.Start(nullptr);
  Drained got = Drain(*out);
  source.Join();
  failing.Join();
  EXPECT_EQ(errors.load(), 1);
  EXPECT_TRUE(got.cancelled);
  EXPECT_EQ(got.eofs, 0u);
}

TEST(ExecNodeTest, StoppedNodeSendsNoEofAndSkipsFinish) {
  CountingSource never_started(1);
  RecordingNode recorder(1);
  recorder.AddInput(&never_started);
  auto out = std::make_shared<Inbox>();
  recorder.Subscribe(out, 0);
  recorder.Start(nullptr);
  recorder.RequestStop();
  Drained got = Drain(*out);
  recorder.Join();
  EXPECT_TRUE(got.cancelled);
  EXPECT_FALSE(recorder.finished.load());
}

}  // namespace
}  // namespace wake
