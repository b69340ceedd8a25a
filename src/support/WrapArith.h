//===- support/WrapArith.h - Wrap-around integer primitives -----*- C++ -*-===//
///
/// \file
/// The integer primitives `+ - * <=` shared by every evaluator in the
/// pipeline: the λ source interpreter, the CPS and λCLOS interpreters, the
/// λGC machine and the bytecode VM. Arithmetic wraps modulo 2^64 (two's
/// complement), computed in uint64_t and converted back, so an overflowing
/// program is defined behaviour and every stage agrees on its result.
///
//===----------------------------------------------------------------------===//

#ifndef SCAV_SUPPORT_WRAPARITH_H
#define SCAV_SUPPORT_WRAPARITH_H

#include <cstdint>

namespace scav::support {

/// Evaluates primitive \p Op on \p A and \p B. \p PrimOpT is any layer's
/// primitive enum with the enumerators Add, Sub, Mul and Le (lambda::PrimOp,
/// gc::PrimOp); Le yields 1 or 0.
template <typename PrimOpT>
int64_t evalIntPrim(PrimOpT Op, int64_t A, int64_t B) {
  uint64_t UA = static_cast<uint64_t>(A), UB = static_cast<uint64_t>(B);
  switch (Op) {
  case PrimOpT::Add:
    return static_cast<int64_t>(UA + UB);
  case PrimOpT::Sub:
    return static_cast<int64_t>(UA - UB);
  case PrimOpT::Mul:
    return static_cast<int64_t>(UA * UB);
  case PrimOpT::Le:
    return A <= B ? 1 : 0;
  }
  return 0;
}

} // namespace scav::support

#endif // SCAV_SUPPORT_WRAPARITH_H
