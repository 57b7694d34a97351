// Live tables: the streaming-ingestion side of Wake.
//
// A LiveTable is a mutable, append-only table built from two stores:
//
//  - the *hot tablet*: an in-memory list of immutable row chunks, one per
//    Append() call. Cheap to write (no encoding), scanned row-by-row.
//  - *cold tablets*: immutable sealed tablets. When the hot tablet
//    crosses a row/byte threshold it is frozen and — when a spill
//    directory is configured — flushed through the wakeblock writer, so
//    cold tablets get block synopses and block-skipping scans for free.
//
// Rows have a stable *global order*: the order they were appended. A
// sealed tablet covers a contiguous row range, and tablets never reorder,
// so `[start_row, end_row)` of a snapshot names an exact row set. That is
// the foundation of the epoch/consistency contract:
//
//   Snapshot() returns one immutable composite PartitionedTable over the
//   cold tablets plus a frozen copy of the hot chunk list, all taken
//   under one lock. A query planned against that snapshot sees exactly
//   the rows of one epoch — appends racing the query land in later
//   epochs and are invisible to it. Two queries over the same epoch see
//   byte-identical data.
//
// Durability of a flush is crash-safe by construction: the tablet is
// written into a hidden staging directory and published with one
// std::filesystem::rename — a crash mid-write leaves only staging
// debris, never a half-visible tablet. Recovery (construction with a
// spill_dir that already has tablets) re-opens every published tablet
// through the fully-validating wakeblock reader; a tablet that fails
// validation (torn write, bit rot — every byte is CRC-guarded) is moved
// to `<spill_dir>/quarantine/` and never served.
//
// Retention: `retain_tablets` bounds the cold tablet list. Evicting a
// tablet removes it from *future* snapshots; existing snapshots keep it
// alive (shared ownership), and its on-disk directory is deleted only
// when the last snapshot referencing it is destroyed.
//
// Thread safety: every public method is safe to call concurrently.
#ifndef WAKE_INGEST_LIVE_TABLE_H_
#define WAKE_INGEST_LIVE_TABLE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "storage/partitioned_table.h"

namespace wake {

struct LiveTableOptions {
  /// Seal the hot tablet once it holds this many rows...
  size_t seal_rows = 64 * 1024;
  /// ...or this many bytes (either threshold seals; 0 disables one).
  size_t seal_bytes = 16u << 20;
  /// Directory sealed tablets are flushed to in wakeblock format. Empty =
  /// cold tablets stay in memory (still immutable, no block skipping).
  std::string spill_dir;
  /// Keep at most this many cold tablets; older ones are evicted oldest-
  /// first at seal time. 0 = keep everything. Snapshots taken before an
  /// eviction keep the evicted tablet readable until they are released.
  size_t retain_tablets = 0;
};

/// One segment of a live-table snapshot, with its global row range.
struct LiveTabletRef {
  TablePtr table;
  uint64_t start_row = 0;  // global index of the tablet's first row
  uint64_t rows = 0;
  bool hot = false;  // true for the (at most one, last) hot segment
};

/// A consistent view of a LiveTable at one epoch.
struct LiveSnapshot {
  /// Epoch counter: bumped by every mutation (append, seal, evict). Two
  /// snapshots with the same epoch are views of identical data.
  uint64_t epoch = 0;
  /// Global row range covered: [start_row, end_row). start_row > 0 after
  /// evictions (the evicted prefix is gone from this view).
  uint64_t start_row = 0;
  uint64_t end_row = 0;
  /// Composite table over `tablets` — what queries scan.
  TablePtr table;
  /// The same segments individually, in global row order (cold tablets
  /// oldest-first, then the hot segment if non-empty). Standing queries
  /// use these to assemble the delta since their last refresh.
  std::vector<LiveTabletRef> tablets;
};

/// Counters for observability and tests.
struct LiveTableStats {
  uint64_t epoch = 0;
  uint64_t rows_appended = 0;   // lifetime, including evicted rows
  uint64_t rows_evicted = 0;
  size_t hot_rows = 0;
  size_t hot_chunks = 0;
  size_t cold_tablets = 0;
  size_t tablets_flushed = 0;    // sealed tablets successfully spilled
  size_t flush_failures = 0;     // seals that fell back to in-memory cold
  size_t tablets_recovered = 0;  // valid tablets re-opened at startup
  size_t tablets_quarantined = 0;
};

class LiveTable : public DynamicTable {
 public:
  /// Creates the live table, recovering any tablets already published
  /// under `options.spill_dir` (invalid ones are quarantined, see file
  /// comment). Throws kInvalidArgument for an unsafe name or a recovered
  /// tablet whose schema does not match `schema`.
  LiveTable(std::string name, Schema schema, LiveTableOptions options = {});

  // DynamicTable:
  const std::string& name() const override { return name_; }
  const Schema& schema() const override { return schema_; }
  TablePtr Snapshot() const override;

  /// Appends `rows` (schema must match) as one immutable hot chunk.
  /// Seals the hot tablet if it crosses a threshold. Returns the epoch
  /// that first contains the rows.
  uint64_t Append(const DataFrame& rows);

  /// Forces a seal of the current hot tablet (no-op when empty).
  /// Returns the current epoch.
  uint64_t SealHot();

  /// Like Snapshot(), with the epoch and per-tablet row ranges.
  LiveSnapshot SnapshotInfo() const;

  LiveTableStats stats() const;

 private:
  /// A cold tablet plus the bookkeeping to delete its directory when the
  /// last snapshot lease drops after eviction.
  struct TabletHolder {
    PartitionedTable table;
    std::string dir;  // published tablet directory ("" = in-memory)
    bool evicted = false;
    ~TabletHolder();
  };
  struct ColdTablet {
    std::shared_ptr<TabletHolder> holder;
    uint64_t start_row = 0;
    uint64_t rows = 0;
    uint64_t seq = 0;
  };

  void SealHotLocked();
  void ApplyRetentionLocked();
  void RecoverSpillDir();
  /// Builds the snapshot segment list; requires mu_ held.
  std::vector<LiveTabletRef> SegmentsLocked() const;

  const std::string name_;
  const Schema schema_;
  const LiveTableOptions options_;

  mutable std::mutex mu_;
  std::vector<ColdTablet> cold_;
  std::vector<DataFramePtr> hot_chunks_;
  size_t hot_rows_ = 0;
  size_t hot_bytes_ = 0;
  // Dicts already charged to hot_bytes_; the hot chunks keep them alive.
  std::unordered_set<const StringDict*> hot_dicts_;
  uint64_t epoch_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t rows_appended_ = 0;
  uint64_t rows_evicted_ = 0;
  size_t tablets_flushed_ = 0;
  size_t flush_failures_ = 0;
  size_t tablets_recovered_ = 0;
  size_t tablets_quarantined_ = 0;
};

}  // namespace wake

#endif  // WAKE_INGEST_LIVE_TABLE_H_
