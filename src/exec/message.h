// Messages flowing between execution nodes (§7.2 of the paper).
//
// A message carries a shared pointer to an immutable data frame (one
// partial of one edf state) plus the progress metadata nodes need to
// maintain their intrinsic states. Two stream disciplines exist, matching
// the evolve modes of plan/props.h:
//  - append  (refresh == false): frames accumulate; earlier rows are final.
//  - refresh (refresh == true):  each frame is a complete snapshot that
//    replaces everything previously received on this edge.
// End-of-stream is a separate EOF entry per edge (exec/exec_node.h), the
// EOF of §7.2.
#ifndef WAKE_EXEC_MESSAGE_H_
#define WAKE_EXEC_MESSAGE_H_

#include <memory>

#include "core/agg_state.h"
#include "frame/data_frame.h"

namespace wake {

/// One unit of inter-node data flow.
struct Message {
  DataFramePtr frame;
  /// Progress t of this edf: fraction of the transitive base-table input
  /// consumed so far (§4.1). Monotone per edge; 1.0 on the last message.
  double progress = 0.0;
  /// True if this frame replaces all previously received content.
  bool refresh = false;
  /// Optional per-column variances of mutable attributes (§6).
  std::shared_ptr<const VarianceMap> variances;
};

}  // namespace wake

#endif  // WAKE_EXEC_MESSAGE_H_
