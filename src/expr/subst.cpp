#include "expr/subst.h"

#include <cassert>
#include <unordered_map>

#include "expr/builder.h"
#include "expr/node_index.h"

namespace stcg::expr {

namespace {

class Substituter {
 public:
  explicit Substituter(const Env* binding,
                       const std::unordered_map<VarId, ExprPtr>* mapping)
      : binding_(binding), mapping_(mapping) {}

  ExprPtr rewrite(const ExprPtr& e) {
    if (const int i = memo_.find(e.get()); i != NodeIndex::kAbsent) {
      return results_[static_cast<std::size_t>(i)];
    }
    ExprPtr result = rewriteNoMemo(e);
    // The children were numbered during the recursion, so e's index is
    // results_.size().
    memo_.insert(e.get());
    results_.push_back(result);
    return result;
  }

 private:
  ExprPtr rewriteNoMemo(const ExprPtr& e) {
    switch (e->op) {
      case Op::kConst:
      case Op::kConstArray:
        return e;
      case Op::kVar:
        if (binding_ != nullptr && binding_->has(e->var)) {
          return cScalar(binding_->get(e->var).castTo(e->type));
        }
        if (mapping_ != nullptr) {
          if (auto it = mapping_->find(e->var); it != mapping_->end()) {
            assert(!it->second->isArray());
            return castE(it->second, e->type);
          }
        }
        return e;
      case Op::kVarArray:
        if (binding_ != nullptr && binding_->hasArray(e->var)) {
          return cArray(e->type, binding_->getArray(e->var));
        }
        if (mapping_ != nullptr) {
          if (auto it = mapping_->find(e->var); it != mapping_->end()) {
            assert(it->second->isArray() &&
                   it->second->arraySize == e->arraySize);
            return it->second;
          }
        }
        return e;
      default:
        break;
    }
    std::vector<ExprPtr> args;
    args.reserve(e->args.size());
    bool changed = false;
    for (const auto& a : e->args) {
      args.push_back(rewrite(a));
      changed = changed || args.back().get() != a.get();
    }
    if (!changed) return e;
    return rebuild(*e, std::move(args));
  }

  static ExprPtr rebuild(const Expr& e, std::vector<ExprPtr> args) {
    switch (e.op) {
      case Op::kNot: return notE(args[0]);
      case Op::kNeg: return negE(args[0]);
      case Op::kAbs: return absE(args[0]);
      case Op::kCast: return castE(args[0], e.type);
      case Op::kAdd: return castE(addE(args[0], args[1]), e.type);
      case Op::kSub: return castE(subE(args[0], args[1]), e.type);
      case Op::kMul: return castE(mulE(args[0], args[1]), e.type);
      case Op::kDiv: return castE(divE(args[0], args[1]), e.type);
      case Op::kMod: return modE(args[0], args[1]);
      case Op::kMin: return castE(minE(args[0], args[1]), e.type);
      case Op::kMax: return castE(maxE(args[0], args[1]), e.type);
      case Op::kLt: return ltE(args[0], args[1]);
      case Op::kLe: return leE(args[0], args[1]);
      case Op::kGt: return gtE(args[0], args[1]);
      case Op::kGe: return geE(args[0], args[1]);
      case Op::kEq: return eqE(args[0], args[1]);
      case Op::kNe: return neE(args[0], args[1]);
      case Op::kAnd: return andE(args[0], args[1]);
      case Op::kOr: return orE(args[0], args[1]);
      case Op::kXor: return xorE(args[0], args[1]);
      case Op::kIte: {
        // iteE promotes scalar branch types; preserve the original type.
        auto out = iteE(args[0], args[1], args[2]);
        if (!out->isArray() && out->type != e.type) out = castE(out, e.type);
        return out;
      }
      case Op::kSelect: return selectE(args[0], args[1]);
      case Op::kStore: return storeE(args[0], args[1], args[2]);
      default:
        assert(false && "leaf reached in rebuild");
        return args.empty() ? nullptr : args[0];
    }
  }

  const Env* binding_;
  const std::unordered_map<VarId, ExprPtr>* mapping_;
  NodeIndex memo_;                // input node -> index into results_
  std::vector<ExprPtr> results_;  // rewritten node, by memo_ index
};

}  // namespace

ExprPtr substitute(const ExprPtr& e, const Env& binding) {
  Substituter s(&binding, nullptr);
  return s.rewrite(e);
}

ExprPtr substituteExprs(const ExprPtr& e,
                        const std::unordered_map<VarId, ExprPtr>& mapping) {
  Substituter s(nullptr, &mapping);
  return s.rewrite(e);
}

}  // namespace stcg::expr
