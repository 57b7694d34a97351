#include "exec/exec_node.h"

namespace wake {

ExecNode::ExecNode(std::string label)
    : label_(std::move(label)), inbox_(std::make_shared<Inbox>()) {}

ExecNode::~ExecNode() { Join(); }

void ExecNode::Start(TraceLog* trace) {
  thread_ = std::thread([this, trace] { Run(trace); });
}

void ExecNode::Join() {
  if (thread_.joinable()) thread_.join();
}

void ExecNode::RequestStop() {
  stop_.store(true, std::memory_order_relaxed);
  inbox_->Cancel();
}

void ExecNode::Emit(Message msg) {
  if (outputs_.empty()) return;
  if (tracker_ != nullptr && msg.frame != nullptr) {
    // One charge per destination edge; the consumer credits on drain.
    tracker_->Charge(msg.frame->ByteSize() * outputs_.size());
  }
  for (size_t i = 0; i + 1 < outputs_.size(); ++i) {
    outputs_[i].inbox->Send(InboxEntry{outputs_[i].port, false, msg});
  }
  outputs_.back().inbox->Send(
      InboxEntry{outputs_.back().port, false, std::move(msg)});
}

void ExecNode::Run(TraceLog* trace) {
  bool complete = false;
  try {
    complete = RunBody(trace);
    if (complete) {
      for (const Edge& out : outputs_) {
        out.inbox->Send(InboxEntry{out.port, true, Message{}});
      }
    }
  } catch (...) {
    // A failing operator must not take the process down (node threads have
    // no caller to unwind into) and must not let downstream nodes Finish()
    // over silently truncated input as if it were complete. Latch the stop
    // flag and hand the error to the graph owner, who stops the rest of
    // the graph and rethrows it to the driver; the consumers' inboxes are
    // cancelled below.
    complete = false;
    stop_.store(true, std::memory_order_relaxed);
    inbox_->Cancel();
    if (error_handler_) error_handler_(std::current_exception());
  }
  // An incomplete stream gets no EOF: its consumers unwind instead.
  if (!complete) {
    for (const Edge& out : outputs_) out.inbox->Cancel();
  }
}

void ExecNode::SyncStateAccounting() {
  if (tracker_ != nullptr) {
    tracker_->Sync(BufferedBytes(), &accounted_state_bytes_);
    tracker_->CheckBreach();
  }
}

bool ExecNode::RunBody(TraceLog* trace) {
  if (ports_closed_.empty()) {
    double t0 = trace ? trace->epoch().ElapsedSeconds() : 0.0;
    RunSource();
    if (trace) {
      trace->Record(label_, t0, trace->epoch().ElapsedSeconds());
    }
    return !stopped();
  }

  size_t open_ports = ports_closed_.size();
  while (open_ports > 0 && !stopped()) {
    // Drain whatever has accumulated: one lock per burst of entries.
    auto batch = inbox_->ReceiveAll();
    if (batch.empty()) return false;  // cancelled (the inbox never closes)
    for (auto& entry : batch) {
      if (stopped()) break;  // drop the rest of the drained batch
      double t0 = trace ? trace->epoch().ElapsedSeconds() : 0.0;
      if (entry.eof) {
        ports_closed_[entry.port] = 1;
        --open_ports;
        OnInputClosed(entry.port);
      } else {
        if (tracker_ != nullptr && entry.msg.frame != nullptr) {
          // The partial left its queue; anything Process retains
          // reappears in the BufferedBytes sync below.
          tracker_->Credit(entry.msg.frame->ByteSize());
        }
        Process(entry.port, entry.msg);
      }
      if (trace) {
        trace->Record(label_, t0, trace->epoch().ElapsedSeconds());
      }
    }
    SyncStateAccounting();
  }
  // A stopped node produces no final state: its consumers are cancelled,
  // and computing a last snapshot would delay shutdown.
  if (stopped()) return false;
  double t0 = trace ? trace->epoch().ElapsedSeconds() : 0.0;
  Finish();
  SyncStateAccounting();
  if (trace) {
    trace->Record(label_ + ":finish", t0, trace->epoch().ElapsedSeconds());
  }
  return true;
}

}  // namespace wake
