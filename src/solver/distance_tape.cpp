#include "solver/distance_tape.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "expr/eval.h"
#include "expr/simd_ops.h"
#include "expr/tape_verify.h"
#include "solver/solver.h"

namespace stcg::solver {

using expr::Expr;
using expr::ExprPtr;
using expr::Op;
using expr::Type;

namespace {

constexpr double kEps = 1e-6;  // the recursive branch distance's epsilon

/// Recursive overlay compiler; one instance per buildDistanceProgram call.
class ProgramBuilder {
 public:
  explicit ProgramBuilder(expr::TapeBuilder& b) : b_(b) {}

  [[nodiscard]] DistanceProgram take(const ExprPtr& goal) {
    (void)b_.addRoot(goal);
    prog_.root = build(goal.get(), true);
    return std::move(prog_);
  }

 private:
  std::int32_t newSlot(double init) {
    prog_.init.push_back(init);
    return static_cast<std::int32_t>(prog_.init.size() - 1);
  }

  std::int32_t build(const Expr* e, bool want) {
    using Instr = DistanceProgram::Instr;
    // Memoizing on (node, want) is sound because the distance of a node
    // is a pure function of the point — distanceRec just recomputes
    // shared subterms; the values are identical. Look up / store by
    // value: the recursive calls below insert into memo_, which may
    // rehash.
    if (const auto it = memo_.find(e); it != memo_.end()) {
      const std::int32_t cached = it->second[want ? 1 : 0];
      if (cached >= 0) return cached;
    }
    const auto emit = [&](Instr in) {
      in.dst = newSlot(0.0);
      prog_.code.push_back(in);
      return in.dst;
    };
    const auto minOfSums = [&](std::int32_t a1, std::int32_t b1,
                               std::int32_t a2, std::int32_t b2) {
      Instr s1;
      s1.kind = Instr::Kind::kSum;
      s1.a = a1;
      s1.b = b1;
      const std::int32_t lhs = emit(s1);
      Instr s2;
      s2.kind = Instr::Kind::kSum;
      s2.a = a2;
      s2.b = b2;
      const std::int32_t rhs = emit(s2);
      Instr m;
      m.kind = Instr::Kind::kMin;
      m.a = lhs;
      m.b = rhs;
      return emit(m);
    };

    std::int32_t slot = -1;
    switch (e->op) {
      case Op::kConst:
        slot = newSlot(e->constVal.toBool() == want ? 0.0 : 1.0);
        break;
      case Op::kNot:
        slot = build(e->args[0].get(), !want);
        break;
      case Op::kAnd:
      case Op::kOr: {
        const std::int32_t a = build(e->args[0].get(), want);
        const std::int32_t bb = build(e->args[1].get(), want);
        // kAnd want / kOr !want -> sum; the dual -> min.
        Instr in;
        in.kind = ((e->op == Op::kAnd) == want) ? Instr::Kind::kSum
                                                : Instr::Kind::kMin;
        in.a = a;
        in.b = bb;
        slot = emit(in);
        break;
      }
      case Op::kXor: {
        const std::int32_t aT = build(e->args[0].get(), true);
        const std::int32_t aF = build(e->args[0].get(), false);
        const std::int32_t bT = build(e->args[1].get(), true);
        const std::int32_t bF = build(e->args[1].get(), false);
        // want: min(aT + bF, aF + bT); else: min(aT + bT, aF + bF).
        slot = want ? minOfSums(aT, bF, aF, bT) : minOfSums(aT, bT, aF, bF);
        break;
      }
      case Op::kIte: {
        if (e->type != Type::kBool) break;  // non-bool ite: concrete atom
        const std::int32_t cT = build(e->args[0].get(), true);
        const std::int32_t cF = build(e->args[0].get(), false);
        const std::int32_t t = build(e->args[1].get(), want);
        const std::int32_t f = build(e->args[2].get(), want);
        slot = minOfSums(cT, t, cF, f);
        break;
      }
      default:
        break;
    }
    if (slot < 0) {
      // Atom: a comparison gets the Korel/Tracey distance off its operand
      // values; anything else scores its concrete truth 0/1.
      switch (e->op) {
        case Op::kEq:
        case Op::kNe:
        case Op::kLt:
        case Op::kLe:
        case Op::kGt:
        case Op::kGe: {
          Instr in;
          in.kind = Instr::Kind::kCmp;
          in.cmpOp = e->op;
          in.want = want;
          in.va = b_.slotOf(e->args[0].get()).slot;
          in.vb = b_.slotOf(e->args[1].get()).slot;
          slot = emit(in);
          break;
        }
        default: {
          Instr in;
          in.kind = Instr::Kind::kTruth;
          in.want = want;
          in.va = b_.slotOf(e).slot;
          slot = emit(in);
          break;
        }
      }
    }
    memo_.try_emplace(e, std::array<std::int32_t, 2>{-1, -1})
        .first->second[want ? 1 : 0] = slot;
    return slot;
  }

  expr::TapeBuilder& b_;
  DistanceProgram prog_;
  // Build-time distance memo: node -> slot per want polarity (-1 = none).
  std::unordered_map<const Expr*, std::array<std::int32_t, 2>> memo_;
};

/// One overlay instruction over one lane's view. `dist` is a callable
/// slot -> value view (contiguous for the scalar tape, lane-strided for
/// the batch); `toRealOf` / `toBoolOf` abstract the executor value reads.
/// The double expressions are atomDistance's, operand for operand.
template <typename DistView, typename RealOf, typename BoolOf>
double overlayStep(const DistanceProgram::Instr& in, const DistView& dist,
                   const RealOf& toRealOf, const BoolOf& toBoolOf) {
  using Instr = DistanceProgram::Instr;
  switch (in.kind) {
    case Instr::Kind::kSum:
      return dist(in.a) + dist(in.b);
    case Instr::Kind::kMin:
      return std::min(dist(in.a), dist(in.b));
    case Instr::Kind::kCmp: {
      const double l = toRealOf(in.va);
      const double r = toRealOf(in.vb);
      switch (in.cmpOp) {
        case Op::kEq: {
          const double d = std::fabs(l - r);
          return in.want ? d : (d == 0.0 ? 1.0 : 0.0);
        }
        case Op::kNe: {
          const double d = std::fabs(l - r);
          return in.want ? (d == 0.0 ? 1.0 : 0.0) : d;
        }
        case Op::kLt: {
          const double d = l - r;
          return in.want ? (d < 0.0 ? 0.0 : d + kEps)
                         : (d >= 0.0 ? 0.0 : kEps - d);
        }
        case Op::kLe: {
          const double d = l - r;
          return in.want ? (d <= 0.0 ? 0.0 : d)
                         : (d > 0.0 ? 0.0 : kEps - d);
        }
        case Op::kGt: {
          const double d = r - l;
          return in.want ? (d < 0.0 ? 0.0 : d + kEps)
                         : (d >= 0.0 ? 0.0 : kEps - d);
        }
        default: {  // kGe
          const double d = r - l;
          return in.want ? (d <= 0.0 ? 0.0 : d)
                         : (d > 0.0 ? 0.0 : kEps - d);
        }
      }
    }
    case Instr::Kind::kTruth:
      return toBoolOf(in.va) == in.want ? 0.0 : 1.0;
  }
  return 0.0;
}

}  // namespace

DistanceProgram buildDistanceProgram(const ExprPtr& goal,
                                     expr::TapeBuilder& b) {
  if (goal->type != Type::kBool || goal->isArray()) {
    throw expr::EvalError(
        "DistanceTape: goal must be a scalar boolean expression");
  }
  return ProgramBuilder(b).take(goal);
}

DistanceTapeBuild buildDistanceTape(const ExprPtr& goal) {
  expr::TapeBuilder b;
  DistanceTapeBuild out;
  out.prog = buildDistanceProgram(goal, b);
  out.rawTape = b.finish();
  expr::maybeRequireVerifiedTape(*out.rawTape, "buildDistanceTape(raw)");
  // The overlay's va/vb slots are out-of-tape reads: extraLive keeps them
  // out of the slot allocator's free lists.
  std::vector<expr::SlotRef> extra;
  for (const DistanceProgram::Instr& in : out.prog.code) {
    if (in.va >= 0) extra.push_back({in.va, false});
    if (in.vb >= 0) extra.push_back({in.vb, false});
  }
  expr::OptimizedTape opt = expr::optimizeTape(out.rawTape, extra);
  expr::maybeRequireVerifiedTape(*opt.tape, "buildDistanceTape(optimized)");
  for (DistanceProgram::Instr& in : out.prog.code) {
    if (in.va >= 0) in.va = opt.remap({in.va, false}).slot;
    if (in.vb >= 0) in.vb = opt.remap({in.vb, false}).slot;
  }
  out.tape = std::move(opt.tape);
  out.stats = opt.stats;
  return out;
}

DistanceTape::DistanceTape(const ExprPtr& goal,
                           const std::vector<expr::VarInfo>& vars)
    : DistanceTape(vars, buildDistanceTape(goal)) {}

DistanceTape::DistanceTape(const std::vector<expr::VarInfo>& vars,
                           DistanceTapeBuild built)
    : vars_(vars),
      exec_(std::move(built.tape)),
      prog_(std::move(built.prog)),
      dist_(prog_.init) {}

double DistanceTape::rebind(const std::vector<double>& point) {
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    exec_.setVar(vars_[i].id, scalarForVar(vars_[i], point[i]));
  }
  exec_.run();
  const auto distAt = [&](std::int32_t s) {
    return dist_[static_cast<std::size_t>(s)];
  };
  const auto toRealOf = [&](std::int32_t va) {
    return exec_.scalar({va, false}).toReal();
  };
  const auto toBoolOf = [&](std::int32_t va) {
    return exec_.scalar({va, false}).toBool();
  };
  for (const DistanceProgram::Instr& in : prog_.code) {
    dist_[static_cast<std::size_t>(in.dst)] =
        overlayStep(in, distAt, toRealOf, toBoolOf);
  }
  return dist_[static_cast<std::size_t>(prog_.root)];
}

BatchDistanceTape::BatchDistanceTape(const ExprPtr& goal,
                                     const std::vector<expr::VarInfo>& vars,
                                     int lanes)
    : vars_(vars) {
  DistanceTapeBuild built = buildDistanceTape(goal);
  prog_ = std::move(built.prog);
  exec_.emplace(std::move(built.tape), lanes);
  binder_.emplace(*exec_, vars_);
  kern_ = &expr::laneKernelsFor(exec_->simdLevel());
  const auto B = static_cast<std::size_t>(exec_->lanes());
  dist_.resize(prog_.slotCount() * B);
  for (std::size_t s = 0; s < prog_.slotCount(); ++s) {
    for (std::size_t l = 0; l < B; ++l) dist_[s * B + l] = prog_.init[s];
  }
  va_.resize(B);
  vb_.resize(B);
  truth_.resize(B);
  active_.assign(B, 1);

  // Monotone lower-bound slots for runBounded: the root, plus transitively
  // the operands of every kSum feeding it. Distances are nonnegative (or
  // NaN, which fails every `< bound` test), so root >= each such slot and
  // a slot failing `value < bound` proves the lane's root will too. A
  // single reverse sweep suffices — slots are written in instruction
  // order, so a sum's operands are defined strictly earlier.
  lowerSlot_.assign(prog_.slotCount(), 0);
  if (prog_.root >= 0) {
    lowerSlot_[static_cast<std::size_t>(prog_.root)] = 1;
  }
  for (auto it = prog_.code.rbegin(); it != prog_.code.rend(); ++it) {
    if (it->kind == DistanceProgram::Instr::Kind::kSum &&
        lowerSlot_[static_cast<std::size_t>(it->dst)] != 0) {
      lowerSlot_[static_cast<std::size_t>(it->a)] = 1;
      lowerSlot_[static_cast<std::size_t>(it->b)] = 1;
    }
  }
}

void BatchDistanceTape::setPoint(int lane, const std::vector<double>& point) {
  binder_->bind(*exec_, lane, point.data());
}

void BatchDistanceTape::overlayInstr(const DistanceProgram::Instr& in) {
  using Instr = DistanceProgram::Instr;
  const int B = exec_->lanes();
  double* d = dist_.data();
  const auto row = [&](std::int32_t s) {
    return d + static_cast<std::size_t>(s) * static_cast<std::size_t>(B);
  };
  double* dst = row(in.dst);
  switch (in.kind) {
    case Instr::Kind::kSum:
      kern_->dSum(dst, row(in.a), row(in.b), B);
      break;
    case Instr::Kind::kMin:
      kern_->dMin(dst, row(in.a), row(in.b), B);
      break;
    case Instr::Kind::kCmp:
      // The dCmp kernel table bakes overlayStep's (op, want) dispatch into
      // the function pointer: same six distance forms, same operand order,
      // same kEps, per lane.
      exec_->readReals({in.va, false}, va_.data());
      exec_->readReals({in.vb, false}, vb_.data());
      kern_->dCmp[expr::simd_detail::cmpIndex(in.cmpOp)][in.want ? 1 : 0](
          dst, va_.data(), vb_.data(), B);
      break;
    case Instr::Kind::kTruth:
      exec_->readBools({in.va, false}, truth_.data());
      kern_->dTruth(dst, truth_.data(), in.want ? 1 : 0, B);
      break;
  }
}

void BatchDistanceTape::run() {
  exec_->run();
  for (const DistanceProgram::Instr& in : prog_.code) overlayInstr(in);
  const auto B = static_cast<std::uint64_t>(exec_->lanes());
  stats_.laneInstrsRetired += prog_.code.size() * B;
  ++stats_.fullRuns;
}

void BatchDistanceTape::runBounded(double bound) {
  exec_->run();
  const int B = exec_->lanes();
  active_.assign(active_.size(), 1);
  int nActive = B;
  const auto& code = prog_.code;
  std::size_t i = 0;
  for (; i < code.size() && nActive > 0; ++i) {
    const DistanceProgram::Instr& in = code[i];
    overlayInstr(in);
    stats_.laneInstrsRetired += static_cast<std::uint64_t>(nActive);
    stats_.laneInstrsSkipped += static_cast<std::uint64_t>(B - nActive);
    if (lowerSlot_[static_cast<std::size_t>(in.dst)] != 0) {
      const double* dst = &dist_[static_cast<std::size_t>(in.dst) *
                                 static_cast<std::size_t>(B)];
      for (int l = 0; l < B; ++l) {
        // `!(x < bound)` also catches NaN, whose root is NaN too.
        if (active_[static_cast<std::size_t>(l)] != 0 && !(dst[l] < bound)) {
          active_[static_cast<std::size_t>(l)] = 0;
          --nActive;
        }
      }
    }
  }
  stats_.laneInstrsSkipped +=
      static_cast<std::uint64_t>(code.size() - i) *
      static_cast<std::uint64_t>(B);
  ++stats_.boundedRuns;
  double* root = &dist_[static_cast<std::size_t>(prog_.root) *
                        static_cast<std::size_t>(B)];
  for (int l = 0; l < B; ++l) {
    if (active_[static_cast<std::size_t>(l)] == 0) {
      root[l] = std::numeric_limits<double>::infinity();
    }
  }
}

}  // namespace stcg::solver
