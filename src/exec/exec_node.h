// Execution node base class: one operator, one thread, message channels.
//
// Per §7.2 of the paper, every node runs on its own thread, reads messages
// from its input channels, updates its intrinsic state, and writes
// extrinsic-state messages to its output channel. Nodes with several
// inputs receive through an internal multiplexer (forwarder threads tag
// messages with their port) so a slow input never blocks a ready one.
// Channels are unbounded: Wake trades memory for pipeline liveness, the
// cost the paper acknowledges in Table 1.
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

using MessageChannel = Channel<Message>;
using MessageChannelPtr = std::shared_ptr<MessageChannel>;

/// Base class for all operators in a running query graph.
class ExecNode {
 public:
  explicit ExecNode(std::string label);
  virtual ~ExecNode();

  ExecNode(const ExecNode&) = delete;
  ExecNode& operator=(const ExecNode&) = delete;

  void AddInput(MessageChannelPtr channel);

  /// Primary output channel (for single-consumer wiring and tests).
  const MessageChannelPtr& output() const { return outputs_[0]; }

  /// Claims an output subscription. The first claim returns the primary
  /// channel; later claims add broadcast channels, so one node can feed
  /// several consumers — this implements the paper's shared-subplan
  /// optimization (§7.3: reusing build tables / aggregates that appear
  /// multiple times in a query). Must be called before Start().
  MessageChannelPtr ClaimOutput();

  const std::string& label() const { return label_; }

  /// Attaches the per-query resource tracker (may be null). The node
  /// charges emitted partials (per destination channel) and its own
  /// operator state (BufferedBytes, re-measured per drained batch), and
  /// credits messages as it consumes them — so the tracker sees
  /// queued-but-undrained partials plus live operator state. Must be
  /// called before Start().
  void SetResourceTracker(ResourceTracker* tracker) { tracker_ = tracker; }

  /// Installs the graph-owner's node-failure hook. A node thread (or one
  /// of its input forwarders) that exits via exception cancels its own
  /// channels and reports here instead of terminating the process; the
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
  /// node's input, internal, and output channels so every thread blocked
  /// on them (forwarders, the run loop, downstream consumers) unwinds
  /// promptly without draining pending work. The run loop re-checks the
  /// flag between messages, so in-flight Process calls finish their
  /// current partial and then exit; Finish() is skipped on a stopped
  /// node (no final snapshot is computed). Thread-safe and idempotent;
  /// cancelling a whole graph means calling this on every node. Must only
  /// be called after the graph is fully wired (all AddInput/ClaimOutput
  /// done), i.e. on a started query.
  void RequestStop();

  /// Requests a *drain* stop — the graceful half of budget enforcement.
  /// Unlike RequestStop() nothing is cancelled: only source loops react
  /// (they stop feeding the graph and close their outputs), EOF
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

  /// Called after every input reached EOF, before the output closes.
  virtual void Finish() {}

  /// Source nodes (no inputs) override this instead of Process.
  virtual void RunSource() {}

  /// Sends to every claimed output (frames are shared immutable pointers,
  /// so broadcast is a cheap pointer copy). While the run loop is
  /// processing a drained input batch, emits are buffered and flushed as
  /// one SendAll per output at the end of the batch — one lock and one
  /// consumer wakeup per burst instead of one per message. Source nodes
  /// (RunSource) emit immediately so readers keep streaming partials.
  void Emit(Message msg) {
    if (tracker_ != nullptr && msg.frame != nullptr) {
      // One charge per destination queue; the consumer credits on drain.
      tracker_->Charge(msg.frame->ByteSize() * outputs_.size());
    }
    if (emit_buffering_) {
      emit_buffer_.push_back(std::move(msg));
      // Cap the buffer so a long drained batch (e.g. a join replaying
      // its pending probes at build EOF) still streams to downstream
      // nodes: the lock is amortized kEmitFlushBatch ways either way.
      if (emit_buffer_.size() >= kEmitFlushBatch) FlushEmits();
      return;
    }
    for (size_t i = 1; i < outputs_.size(); ++i) outputs_[i]->Send(msg);
    outputs_[0]->Send(std::move(msg));
  }

  size_t num_inputs() const { return inputs_.size(); }
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
  struct Tagged {
    size_t port = 0;
    bool eof = false;
    Message msg;
  };

  void Run(TraceLog* trace);
  void RunBody(TraceLog* trace);

  void CloseOutputs();

  /// Re-measures operator state and settles the delta with the tracker.
  void SyncStateAccounting();

  /// Max messages buffered before Emit flushes mid-batch.
  static constexpr size_t kEmitFlushBatch = 64;

  /// Sends the buffered emits, one SendAll per output, in emit order.
  void FlushEmits();

  std::string label_;
  std::vector<MessageChannelPtr> inputs_;
  std::vector<MessageChannelPtr> outputs_;  // [0] = primary
  bool primary_claimed_ = false;
  // Input multiplexer queue; a member (created eagerly) so RequestStop can
  // cancel it from another thread while the run loop blocks on it.
  std::shared_ptr<Channel<Tagged>> merged_;
  std::vector<std::thread> forwarders_;
  std::thread thread_;
  std::vector<uint8_t> ports_closed_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> drain_stop_{false};
  ResourceTracker* tracker_ = nullptr;
  std::function<void(std::exception_ptr)> error_handler_;
  size_t accounted_state_bytes_ = 0;  // node-thread only
  bool emit_buffering_ = false;
  std::vector<Message> emit_buffer_;
  bool final_only_ = false;
};

}  // namespace wake

#endif  // WAKE_EXEC_EXEC_NODE_H_
