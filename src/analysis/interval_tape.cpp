#include "analysis/interval_tape.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "expr/tape_verify.h"
#include "interval/transfer.h"

namespace stcg::analysis {

using expr::Op;
using expr::TapeInstr;
using interval::Interval;

namespace {

bool sameBits(double x, double y) {
  std::uint64_t bx = 0, by = 0;
  std::memcpy(&bx, &x, sizeof(bx));
  std::memcpy(&by, &y, sizeof(by));
  return bx == by;
}

}  // namespace

expr::TapePassOptions intervalSafePassOptions() {
  expr::TapePassOptions opts;
  opts.intervalSafe = true;
  opts.foldGuard = [](const TapeInstr& in, const expr::Scalar* a,
                      const expr::Scalar* b, const expr::Scalar* c,
                      const expr::Scalar& folded) {
    if (in.arrayResult || in.op == Op::kSelect || in.op == Op::kStore) {
      return false;
    }
    const auto pt = [](const expr::Scalar* s) {
      return s != nullptr ? interval::constI(*s) : Interval::empty();
    };
    // The fold replaces the instruction's slot with a constant slot; the
    // executor's constructor images that as point(folded.toReal()). The
    // fold is exact iff the transfer on the operands' point images lands
    // on exactly those bits.
    const Interval got =
        interval::transferScalar(in.op, in.type, pt(a), pt(b), pt(c));
    const Interval want = interval::constI(folded);
    return !got.isEmpty() && sameBits(got.lo(), want.lo()) &&
           sameBits(got.hi(), want.hi());
  };
  return opts;
}

IntervalTapeBuild buildIntervalTape(const std::vector<expr::ExprPtr>& roots) {
  expr::TapeBuilder b;
  IntervalTapeBuild out;
  out.rootSlots.reserve(roots.size());
  for (const auto& r : roots) out.rootSlots.push_back(b.addRoot(r));
  out.rawTape = b.finish();
  expr::maybeRequireVerifiedTape(*out.rawTape, "buildIntervalTape(raw)");
  expr::OptimizedTape opt =
      expr::optimizeTape(out.rawTape, {}, intervalSafePassOptions());
  expr::maybeRequireVerifiedTape(*opt.tape, "buildIntervalTape(optimized)");
  out.tape = std::move(opt.tape);
  out.stats = opt.stats;
  for (expr::SlotRef& r : out.rootSlots) r = opt.remap(r);
  return out;
}

IntervalTapeExecutor::IntervalTapeExecutor(
    std::shared_ptr<const expr::Tape> tape, int lanes)
    : tape_(std::move(tape)), lanes_(std::max(1, lanes)) {
  const auto B = static_cast<std::size_t>(lanes_);
  scalars_.resize(tape_->scalarSlotCount() * B);
  arrays_.resize(tape_->arraySlotCount() * B);
  // Constant slots never change: image them into every lane once.
  const auto& sInit = tape_->scalarInit();
  for (const std::int32_t slot : tape_->constScalarSlots()) {
    const Interval iv =
        interval::constI(sInit[static_cast<std::size_t>(slot)]);
    for (int l = 0; l < lanes_; ++l) scalars_[idx(slot, l)] = iv;
  }
  const auto& aInit = tape_->arrayInit();
  for (const std::int32_t slot : tape_->constArraySlots()) {
    interval::constArrayI(aInit[static_cast<std::size_t>(slot)],
                          arrays_[idx(slot, 0)]);
    for (int l = 1; l < lanes_; ++l) {
      arrays_[idx(slot, l)] = arrays_[idx(slot, 0)];
    }
  }
}

void IntervalTapeExecutor::bind(const IntervalEnv& env, int lane) {
  for (const auto& b : tape_->varBindings()) {
    scalars_[idx(b.slot, lane)] =
        env.has(b.var) ? env.get(b.var)
                       : interval::declaredDomain(b.type, b.lo, b.hi);
  }
  for (const auto& b : tape_->arrayBindings()) {
    auto& dst = arrays_[idx(b.slot, lane)];
    if (env.hasArray(b.var)) {
      dst = env.getArray(b.var);
    } else {
      interval::unboundArray(b.size, dst);
    }
  }
}

void IntervalTapeExecutor::run() {
  // Operand slots an instruction does not use read as empty (the
  // transfer ignores them).
  const auto s = [&](std::int32_t slot, int l) {
    return slot >= 0 ? scalars_[idx(slot, l)] : Interval::empty();
  };
  for (const TapeInstr& in : tape_->code()) {
    for (int l = 0; l < lanes_; ++l) {
      if (in.op == Op::kStore) {
        auto& dst = arrays_[idx(in.dst, l)];
        dst = arrays_[idx(in.a, l)];
        interval::storeI(dst, s(in.b, l), s(in.c, l));
      } else if (in.arrayResult) {  // the only other array op: kIte
        interval::iteArrayI(s(in.a, l), arrays_[idx(in.b, l)],
                            arrays_[idx(in.c, l)], arrays_[idx(in.dst, l)]);
      } else if (in.op == Op::kSelect) {
        scalars_[idx(in.dst, l)] =
            interval::selectI(arrays_[idx(in.a, l)], s(in.b, l));
      } else {
        scalars_[idx(in.dst, l)] = interval::transferScalar(
            in.op, in.type, s(in.a, l), s(in.b, l), s(in.c, l));
      }
    }
  }
}

std::vector<std::vector<Interval>> intervalVerdictsBatch(
    const std::vector<expr::ExprPtr>& roots,
    std::span<const IntervalEnv> envs) {
  std::vector<std::vector<Interval>> out(envs.size());
  if (envs.empty()) return out;
  const IntervalTapeBuild built = buildIntervalTape(roots);
  IntervalTapeExecutor ex(built.tape, static_cast<int>(envs.size()));
  for (std::size_t e = 0; e < envs.size(); ++e) {
    ex.bind(envs[e], static_cast<int>(e));
  }
  ex.run();
  for (std::size_t e = 0; e < envs.size(); ++e) {
    out[e].reserve(built.rootSlots.size());
    for (const auto& slot : built.rootSlots) {
      out[e].push_back(ex.scalar(slot, static_cast<int>(e)));
    }
  }
  return out;
}

std::vector<Interval> intervalVerdicts(
    const std::vector<expr::ExprPtr>& roots, const IntervalEnv& env) {
  return std::move(intervalVerdictsBatch(roots, {&env, 1}).front());
}

}  // namespace stcg::analysis
