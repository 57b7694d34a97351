// Execution node base class: one operator, one thread, one inbox.
//
// Per §7.2 of the paper, every node runs on its own thread, reads messages
// from its inputs, updates its intrinsic state, and writes extrinsic-state
// messages to its consumers. A node's inputs all arrive in one inbox:
// an edge is an (inbox, port) pair, a producer pushes each message
// straight into every consumer's inbox tagged with that consumer's port,
// and ends each edge with one EOF entry. Inboxes are unbounded: Wake
// trades memory for pipeline liveness, the cost the paper acknowledges in
// Table 1.
#ifndef WAKE_EXEC_EXEC_NODE_H_
#define WAKE_EXEC_EXEC_NODE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/channel.h"
#include "common/resource.h"
#include "exec/message.h"
#include "exec/trace.h"

namespace wake {

/// One inbox entry: a message on input `port`, or that port's EOF.
struct InboxEntry {
  size_t port = 0;
  bool eof = false;
  Message msg;
};

using Inbox = Channel<InboxEntry>;
using InboxPtr = std::shared_ptr<Inbox>;

/// Base class for all operators in a running query graph.
class ExecNode {
 public:
  explicit ExecNode(std::string label);
  virtual ~ExecNode();

  ExecNode(const ExecNode&) = delete;
  ExecNode& operator=(const ExecNode&) = delete;

  /// Adds the next input port of this node, fed by `producer`. Must be
  /// called before Start() on either node.
  void AddInput(ExecNode* producer) {
    producer->Subscribe(inbox_, ports_closed_.size());
    ports_closed_.push_back(0);
  }

  /// Adds an output edge: every emitted message, and finally one EOF
  /// entry, goes to `inbox` tagged with `port`. A node with several edges
  /// broadcasts to all of them — the paper's shared-subplan optimization
  /// (§7.3: reusing build tables / aggregates that appear multiple times
  /// in a query). Must be called before Start().
  void Subscribe(InboxPtr inbox, size_t port) {
    outputs_.push_back({std::move(inbox), port});
  }

  const std::string& label() const { return label_; }

  /// Attaches the per-query resource tracker (may be null). The node
  /// charges emitted partials (per output edge) and its own operator
  /// state (BufferedBytes, re-measured per drained batch), and
  /// credits messages as it consumes them — so the tracker sees
  /// queued-but-undrained partials plus live operator state. Must be
  /// called before Start().
  void SetResourceTracker(ResourceTracker* tracker) { tracker_ = tracker; }

  /// Installs the graph-owner's node-failure hook. A node thread that
  /// exits via exception stops itself, reports here instead of
  /// terminating the process, and cancels its consumers' inboxes; the
  /// owner stops the rest of the graph and surfaces the error. May be
  /// invoked concurrently from several threads. Must be called before
  /// Start().
  void SetErrorHandler(std::function<void(std::exception_ptr)> handler) {
    error_handler_ = std::move(handler);
  }

  /// Spawns the node thread. `trace` may be null.
  void Start(TraceLog* trace);

  /// Joins the node thread (must be called before destruction if started).
  void Join();

  /// Requests cooperative shutdown: sets the stop flag and cancels this
  /// node's inbox, so the run loop unwinds promptly without draining
  /// pending work. The run loop re-checks the flag between messages, so
  /// in-flight Process calls finish their current partial and then exit;
  /// Finish() is skipped on a stopped node (no final snapshot is
  /// computed), and its consumers' inboxes are cancelled instead of
  /// receiving EOF. Thread-safe and idempotent; cancelling a whole graph
  /// means calling this on every node.
  void RequestStop();

  /// Requests a *drain* stop — the graceful half of budget enforcement.
  /// Unlike RequestStop() nothing is cancelled: only source loops react
  /// (they stop feeding the graph and end their streams), EOF
  /// propagates, and every downstream node finishes normally over the
  /// truncated input — so the engine's last snapshot is a genuine
  /// best-estimate over the data processed so far, CI included.
  /// Thread-safe and idempotent.
  void RequestDrainStop() {
    drain_stop_.store(true, std::memory_order_relaxed);
  }

  /// Marks this node *final-only* (WakeEngine's demand pass, run before
  /// Start): every consumer reads only its last refresh state. The node
  /// still processes every input; ShuffleAggNode then skips finalizing
  /// the snapshots nobody reads. Other operators forward as usual, and
  /// the mark only tells the pass that their inputs may be marked too.
  void SetFinalOnly(bool final_only) { final_only_ = final_only; }
  bool final_only() const { return final_only_; }

  /// Approximate bytes currently buffered in node state (hash tables,
  /// pending frames, aggregation state); used for the peak-memory
  /// comparison of §8.2.
  virtual size_t BufferedBytes() const { return 0; }

 protected:
  /// Handles one message from input `port`.
  virtual void Process(size_t port, const Message& msg) = 0;

  /// Called once when input `port` reaches EOF.
  virtual void OnInputClosed(size_t /*port*/) {}

  /// Called after every input reached EOF, before the EOF entries go out.
  virtual void Finish() {}

  /// Source nodes (no inputs) override this instead of Process.
  virtual void RunSource() {}

  /// Pushes `msg` into every consumer's inbox at once (frames are shared
  /// immutable pointers, so broadcast is a cheap pointer copy).
  void Emit(Message msg);

  size_t num_inputs() const { return ports_closed_.size(); }
  bool input_closed(size_t port) const { return ports_closed_[port]; }

  /// True once RequestStop() was called. Long-running operator bodies
  /// (source partition loops, EOF replay loops) poll this between units
  /// of work so cancellation latency stays bounded by one partial.
  bool stopped() const { return stop_.load(std::memory_order_relaxed); }

  /// True once RequestDrainStop() was called. Source loops poll it to
  /// stop feeding the graph; estimate-producing Finish() paths use it to
  /// keep their scaling at the observed progress instead of claiming a
  /// complete input.
  bool drain_stopped() const {
    return drain_stop_.load(std::memory_order_relaxed);
  }

  /// The per-query tracker (null when the run is unbudgeted).
  ResourceTracker* tracker() const { return tracker_; }

 private:
  struct Edge {
    InboxPtr inbox;
    size_t port;
  };

  void Run(TraceLog* trace);
  /// Runs the source loop or the inbox loop (plus Finish); returns true
  /// when the node ran to completion, false when it was stopped or its
  /// inbox was cancelled.
  bool RunBody(TraceLog* trace);

  /// Re-measures operator state and settles the delta with the tracker.
  void SyncStateAccounting();

  std::string label_;
  InboxPtr inbox_;
  std::vector<Edge> outputs_;
  std::thread thread_;
  std::vector<uint8_t> ports_closed_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> drain_stop_{false};
  ResourceTracker* tracker_ = nullptr;
  std::function<void(std::exception_ptr)> error_handler_;
  size_t accounted_state_bytes_ = 0;  // node-thread only
  bool final_only_ = false;
};

}  // namespace wake

#endif  // WAKE_EXEC_EXEC_NODE_H_
