//===- gc/NativeCollector.h - Meta-level C++ collector ----------*- C++ -*-===//
///
/// \file
/// A stop-and-copy collector implemented natively in C++ over the same
/// region memory the λGC machine uses. It serves two purposes:
///
///  * an *oracle* for the certified collectors: both must produce
///    isomorphic to-spaces from the same from-space;
///  * the performance baseline of experiment E8 (certified-but-interpreted
///    λGC collector vs native code).
///
/// Unlike the certified collectors it is not written in λGC and is
/// therefore part of the trusted computing base — exactly the situation
/// the paper is trying to eliminate (§2.1). It is kept no larger than those
/// two roles need: one sequential copy, in two orders that share a single
/// rewrite of the heap's word and value shapes.
///
//===----------------------------------------------------------------------===//

#ifndef SCAV_GC_NATIVECOLLECTOR_H
#define SCAV_GC_NATIVECOLLECTOR_H

#include "gc/Machine.h"

namespace scav::gc {

struct NativeGcStats {
  uint64_t ObjectsCopied = 0;
  uint64_t ForwardingHits = 0; ///< Shared objects found already copied.
};

/// Copy order. The paper's certified collectors are depth-first (their
/// stack is the continuation region, §6.1); §10 names Cheney-style
/// breadth-first copying as the desired extension — provided here at the
/// native level, with the classic reserved-slot forwarding trick standing
/// in for Cheney's scan pointer. Both orders share one word and value
/// rewrite; they differ only in when a reached cell is copied.
enum class CopyOrder { DepthFirst, BreadthFirst };

/// Copies everything reachable from \p Root out of region \p From into a
/// fresh region of \p M, then reclaims \p From. With \p PreserveSharing, a
/// forwarding table keeps DAGs intact (the Fig 9 behaviour); without it,
/// sharing is lost (the Fig 4 behaviour). BreadthFirst always preserves
/// sharing: its reserved slot is the forwarding pointer. Returns the
/// relocated root and the new region.
///
/// Ψ is refreshed for the new region when the machine tracks types.
std::pair<const Value *, Region>
nativeCollect(Machine &M, const Value *Root, Region From,
              bool PreserveSharing, NativeGcStats &Stats,
              CopyOrder Order = CopyOrder::DepthFirst);

} // namespace scav::gc

#endif // SCAV_GC_NATIVECOLLECTOR_H
