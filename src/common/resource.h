// Per-query resource governance: budgets, usage tracking, admission.
//
// A long-running OLA query is useful before it finishes — which is
// exactly why it must never take the process down with it. This header
// provides the two pieces the engines share:
//
//  - ResourceTracker: one per running query. Operators charge/credit an
//    atomic byte counter wherever partials materialize (node inboxes,
//    join build tables, aggregation accumulators, reader batches), the
//    readers charge a rows-scanned counter, and poll points check a
//    wall-clock deadline. The first limit crossed latches a BreachReason
//    and fires a one-shot callback — the same cooperative-stop edge the
//    cancel path uses, so every engine observes a breach at the poll
//    points that already check for cancellation. A tracker may reserve
//    against a parent (the wake::Db session-wide limit), so one runaway
//    query breaches itself instead of starving its neighbours.
//
//  - AdmissionController: FIFO gate in front of a session's run loop.
//    At most `max_active` queries run at once; excess runs queue (up to
//    `max_queued`, then kQueueFull), wait at most an admission timeout
//    (kAdmissionTimeout), and dequeue immediately when cancelled.
//
// Accounting is deliberately approximate (ByteSize of materialized
// frames plus operator-state estimates, not allocator bookkeeping): the
// goal is bounding runaway queries by orders of magnitude, not byte-exact
// accounting.
#ifndef WAKE_COMMON_RESOURCE_H_
#define WAKE_COMMON_RESOURCE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <string>

namespace wake {

/// Limits one query may consume. Zero means unlimited.
struct QueryBudget {
  size_t memory_limit_bytes = 0;  // materialized partials + operator state
  int64_t timeout_ms = 0;         // wall clock, measured from Run()
  size_t max_rows_scanned = 0;    // base-table rows read across all scans
};

/// Which limit a query crossed first.
enum class BreachReason : uint8_t {
  kNone,
  kMemory,         // QueryBudget::memory_limit_bytes
  kDeadline,       // QueryBudget::timeout_ms
  kRowsScanned,    // QueryBudget::max_rows_scanned
  kSessionMemory,  // DbOptions::total_memory_limit (shared across queries)
};

const char* BreachReasonName(BreachReason reason);

/// Thread-safe per-query resource meter with latched breach state.
///
/// Charge/Credit/ChargeRows may be called concurrently from any engine
/// thread. CheckBreach() is the poll point (deadline + latched state) and
/// is called wherever the engines already poll their cancel tokens. The
/// breach callback fires exactly once, on whichever thread crossed the
/// limit first; it must be non-blocking (the engines pass their
/// cooperative-stop entry point).
///
/// Release() ends accounting: it credits the parent for everything still
/// outstanding (queued-but-undrained partials discarded by a cancelled
/// inbox never see their credit, so the query's terminal path settles
/// the balance) and detaches, after which all mutators are no-ops. Call
/// it once, after every thread of the run has been joined.
class ResourceTracker {
 public:
  ResourceTracker() = default;
  ~ResourceTracker() { Release(); }

  ResourceTracker(const ResourceTracker&) = delete;
  ResourceTracker& operator=(const ResourceTracker&) = delete;

  /// Arms the limits (deadline measured from now) and attaches the
  /// optional session-wide parent. Not thread-safe; call before the run
  /// starts. `parent` must outlive this tracker.
  void Arm(const QueryBudget& budget, ResourceTracker* parent = nullptr);

  /// Session-wide construction: only a memory limit, no deadline. A
  /// session meter never latches a breach of its own — it is a live
  /// gauge, and the query whose charge tips it over is the one that
  /// breaches (kSessionMemory). Once that query releases its balance,
  /// later queries run against the recovered headroom.
  void ArmSessionLimit(size_t total_memory_bytes);

  /// Instantaneous reading: is current usage above the memory limit?
  /// Unlike breached(), this moves back below the line when memory is
  /// credited — it is what charging children consult on a session meter.
  bool over_limit() const {
    return memory_limit_ != 0 &&
           used_.load(std::memory_order_relaxed) >
               static_cast<int64_t>(memory_limit_);
  }

  /// One-shot breach notification; set before the run starts.
  void set_on_breach(std::function<void()> cb) { on_breach_ = std::move(cb); }

  /// Adds `bytes` of materialized state; breaches on the query or session
  /// limit. Safe from any thread.
  void Charge(size_t bytes);

  /// Returns previously charged bytes (clamped at zero, so a credit that
  /// races Release can never underflow the session meter).
  void Credit(size_t bytes);

  /// Adjusts toward `now_bytes` for state whose size is re-measured in
  /// place (operator internal state); `accounted` holds the last measure.
  void Sync(size_t now_bytes, size_t* accounted);

  /// Adds scanned base-table rows; breaches on max_rows_scanned.
  void ChargeRows(size_t rows);

  /// Poll point: checks the deadline, returns the latched breach state.
  bool CheckBreach();

  bool breached() const {
    return reason_.load(std::memory_order_acquire) !=
           static_cast<uint8_t>(BreachReason::kNone);
  }
  BreachReason reason() const {
    return static_cast<BreachReason>(reason_.load(std::memory_order_acquire));
  }

  size_t used_bytes() const {
    int64_t v = used_.load(std::memory_order_relaxed);
    return v > 0 ? static_cast<size_t>(v) : 0;
  }
  size_t rows_scanned() const { return rows_.load(std::memory_order_relaxed); }

  /// Human-readable account of the breach ("memory limit exceeded: ...").
  std::string BreachMessage() const;

  /// Settles the parent balance and detaches; idempotent. After Release
  /// every mutator is a no-op (late credits from a consumer still
  /// draining the state stream are harmless).
  void Release();

 private:
  void Trigger(BreachReason reason);

  std::atomic<int64_t> used_{0};
  std::atomic<size_t> rows_{0};
  std::atomic<bool> released_{false};
  size_t memory_limit_ = 0;
  bool session_meter_ = false;
  size_t max_rows_ = 0;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  std::atomic<ResourceTracker*> parent_{nullptr};
  std::atomic<uint8_t> reason_{static_cast<uint8_t>(BreachReason::kNone)};
  std::atomic<bool> notified_{false};
  std::function<void()> on_breach_;
};

/// FIFO admission gate for a session's concurrent runs.
///
/// Submit() (caller thread, at Run()) either admits immediately, queues
/// the ticket, or throws wake::Error(kQueueFull). Await() (driver thread)
/// blocks until the ticket is admitted, its admission timeout expires, or
/// Cancel() dequeues it. Release() frees the slot of an admitted ticket
/// and admits the next queued one.
class AdmissionController {
 public:
  /// `max_active` > 0. `max_queued` == 0 means no waiting: excess runs
  /// are rejected immediately with kQueueFull.
  AdmissionController(size_t max_active, size_t max_queued);

  enum class Outcome { kAdmitted, kTimedOut, kCancelled };

  class Ticket {
   public:
    Ticket() = default;

   private:
    friend class AdmissionController;
    enum class State { kQueued, kAdmitted, kCancelled, kTimedOut };
    State state_ = State::kQueued;
    bool released_ = false;
  };
  using TicketPtr = std::shared_ptr<Ticket>;

  /// Throws wake::Error(kQueueFull) when the wait queue is at capacity.
  TicketPtr Submit();

  /// Blocks until admitted / timed out / cancelled. `timeout_ms` == 0
  /// waits indefinitely.
  Outcome Await(const TicketPtr& ticket, int64_t timeout_ms);

  /// Dequeues a still-queued ticket immediately (cancel-while-queued).
  /// A ticket already admitted is unaffected — its run cancels normally
  /// and releases its slot when it finishes.
  void Cancel(const TicketPtr& ticket);

  /// Frees the slot held by an admitted ticket; idempotent.
  void Release(const TicketPtr& ticket);

  size_t active() const;
  size_t queued() const;

 private:
  void AdmitNextLocked();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t max_active_;
  size_t max_queued_;
  size_t active_ = 0;
  std::deque<TicketPtr> queue_;
};

}  // namespace wake

#endif  // WAKE_COMMON_RESOURCE_H_
