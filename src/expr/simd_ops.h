// Shared scalar definitions of every lane-kernel operation.
//
// These inline helpers are the single source of truth for the per-element
// semantics of the SIMD lane kernels (expr/simd.h): the portable scalar
// kernel table is a loop over them, and the AVX2/NEON kernels use them for
// their unaligned tail lanes — so a vector body and its tail can never
// disagree. Real payloads travel as raw 64-bit words (double bit patterns)
// to keep the row views strict-aliasing clean; std::bit_cast converts at
// the edges.
//
// Bit-identity notes (pinned by the dispatch-parity fuzz):
//  - fminOp/fmaxOp are std::fmin/std::fmax — glibc at runtime returns the
//    FIRST operand when the arguments compare equal (fmin(+0.0, -0.0) ==
//    +0.0; do not trust the constant-folded result, which differs), the
//    non-NaN operand when exactly one side is NaN, and the SECOND operand
//    when both are NaN. The vector kernels replicate exactly that
//    selection; tests/test_simd_batch.cpp pins the ±0 and NaN lanes.
//  - divGuard/modGuard implement the engine-wide guarded x/0 == 0.
//  - Integer add/sub/neg wrap in uint64 space (two's complement), which
//    is the defined-behavior spelling of what the interpreter computes.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

#include "expr/expr.h"

namespace stcg::expr::simd_detail {

inline double bd(std::uint64_t u) { return std::bit_cast<double>(u); }
inline std::uint64_t db(double d) { return std::bit_cast<std::uint64_t>(d); }

// ---- real lane ops (payload = double bit pattern) -----------------------

inline std::uint64_t rAddOp(std::uint64_t a, std::uint64_t b) {
  return db(bd(a) + bd(b));
}
inline std::uint64_t rSubOp(std::uint64_t a, std::uint64_t b) {
  return db(bd(a) - bd(b));
}
inline std::uint64_t rMulOp(std::uint64_t a, std::uint64_t b) {
  return db(bd(a) * bd(b));
}
inline std::uint64_t rDivGOp(std::uint64_t a, std::uint64_t b) {
  const double x = bd(a), y = bd(b);
  return db(y == 0.0 ? 0.0 : x / y);
}
inline std::uint64_t rFminOp(std::uint64_t a, std::uint64_t b) {
  return db(std::fmin(bd(a), bd(b)));
}
inline std::uint64_t rFmaxOp(std::uint64_t a, std::uint64_t b) {
  return db(std::fmax(bd(a), bd(b)));
}
inline std::uint64_t rNegOp(std::uint64_t a) { return db(-bd(a)); }
inline std::uint64_t rAbsOp(std::uint64_t a) { return db(std::fabs(bd(a))); }

/// Comparison index shared by the rCmp/dCmp kernel tables.
enum CmpIx { kIxLt = 0, kIxLe, kIxGt, kIxGe, kIxEq, kIxNe, kCmpIxCount };

inline int cmpIndex(Op op) {
  switch (op) {
    case Op::kLt: return kIxLt;
    case Op::kLe: return kIxLe;
    case Op::kGt: return kIxGt;
    case Op::kGe: return kIxGe;
    case Op::kEq: return kIxEq;
    default: return kIxNe;  // kNe
  }
}

template <int Ix>
inline std::uint64_t rCmpOp(std::uint64_t a, std::uint64_t b) {
  const double x = bd(a), y = bd(b);
  if constexpr (Ix == kIxLt) return x < y ? 1 : 0;
  if constexpr (Ix == kIxLe) return x <= y ? 1 : 0;
  if constexpr (Ix == kIxGt) return x > y ? 1 : 0;
  if constexpr (Ix == kIxGe) return x >= y ? 1 : 0;
  if constexpr (Ix == kIxEq) return x == y ? 1 : 0;
  return x != y ? 1 : 0;
}

// ---- int64 lane ops (payload = two's complement) ------------------------

inline std::uint64_t iAddOp(std::uint64_t a, std::uint64_t b) { return a + b; }
inline std::uint64_t iSubOp(std::uint64_t a, std::uint64_t b) { return a - b; }
inline std::uint64_t iNegOp(std::uint64_t a) { return std::uint64_t{0} - a; }
inline std::uint64_t iAbsOp(std::uint64_t a) {
  return static_cast<std::int64_t>(a) < 0 ? std::uint64_t{0} - a : a;
}
inline std::uint64_t iMinOp(std::uint64_t a, std::uint64_t b) {
  // std::min: returns a when equal.
  return static_cast<std::int64_t>(b) < static_cast<std::int64_t>(a) ? b : a;
}
inline std::uint64_t iMaxOp(std::uint64_t a, std::uint64_t b) {
  // std::max: returns a when equal.
  return static_cast<std::int64_t>(b) > static_cast<std::int64_t>(a) ? b : a;
}

// ---- bool lane ops (payload = 0/1) --------------------------------------

inline std::uint64_t bAndOp(std::uint64_t a, std::uint64_t b) { return a & b; }
inline std::uint64_t bOrOp(std::uint64_t a, std::uint64_t b) { return a | b; }
inline std::uint64_t bXorOp(std::uint64_t a, std::uint64_t b) { return a ^ b; }
inline std::uint64_t bNotOp(std::uint64_t a) { return a ^ 1; }

// ---- distance-overlay ops (double rows, solver::DistanceProgram) --------

inline constexpr double kDistEps = 1e-6;  // the branch distance's atom epsilon

inline double dSumOp(double a, double b) { return a + b; }
inline double dMinOp(double a, double b) { return b < a ? b : a; }  // std::min

/// The six Korel/Tracey distance forms over x (= l - r or r - l depending
/// on the comparison), exactly as solver's overlayStep computes them.
/// The negated forms are spelled `kDistEps - x` (identical to `-x + eps`
/// for every non-NaN x, and the spelling compilers produce for either):
/// subtraction propagates a NaN x with its sign bit untouched, where an
/// explicit negate-then-add would flip it — the vector kernels subtract
/// the same way, keeping NaN distances bit-identical across levels.
template <int Form>
inline double dFormOp(double x) {
  if constexpr (Form == 0) return std::fabs(x);               // Eq want / Ne !want
  if constexpr (Form == 1) return std::fabs(x) == 0.0 ? 1.0 : 0.0;
  if constexpr (Form == 2) return x < 0.0 ? 0.0 : x + kDistEps;       // Lt/Gt want
  if constexpr (Form == 3) return x >= 0.0 ? 0.0 : kDistEps - x;      // Lt/Gt !want
  if constexpr (Form == 4) return x <= 0.0 ? 0.0 : x;                 // Le/Ge want
  return x > 0.0 ? 0.0 : kDistEps - x;                                // Le/Ge !want
}

inline double dTruthOp(std::uint64_t t, std::uint64_t want) {
  return t == want ? 0.0 : 1.0;
}

}  // namespace stcg::expr::simd_detail
