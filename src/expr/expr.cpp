#include "expr/expr.h"

#include <algorithm>
#include <unordered_set>

#include "expr/node_index.h"
#include "util/strings.h"

namespace stcg::expr {

const char* opName(Op op) {
  switch (op) {
    case Op::kConst: return "const";
    case Op::kConstArray: return "constarray";
    case Op::kVar: return "var";
    case Op::kVarArray: return "vararray";
    case Op::kNot: return "!";
    case Op::kNeg: return "-";
    case Op::kAbs: return "abs";
    case Op::kCast: return "cast";
    case Op::kAdd: return "+";
    case Op::kSub: return "-";
    case Op::kMul: return "*";
    case Op::kDiv: return "/";
    case Op::kMod: return "%";
    case Op::kMin: return "min";
    case Op::kMax: return "max";
    case Op::kLt: return "<";
    case Op::kLe: return "<=";
    case Op::kGt: return ">";
    case Op::kGe: return ">=";
    case Op::kEq: return "==";
    case Op::kNe: return "!=";
    case Op::kAnd: return "&&";
    case Op::kOr: return "||";
    case Op::kXor: return "^";
    case Op::kIte: return "ite";
    case Op::kSelect: return "select";
    case Op::kStore: return "store";
  }
  return "?";
}

namespace {

void renderInto(const Expr& e, std::string& out) {
  switch (e.op) {
    case Op::kConst:
      out += e.constVal.toString();
      return;
    case Op::kConstArray: {
      out += '[';
      for (int i = 0; i < e.arraySize; ++i) {
        if (i > 0) out += ", ";
        out += e.constArray[static_cast<std::size_t>(i)].toString();
      }
      out += ']';
      return;
    }
    case Op::kVar:
    case Op::kVarArray:
      out += e.varName.empty() ? ("v" + std::to_string(e.var)) : e.varName;
      return;
    case Op::kNot:
    case Op::kNeg:
      out += opName(e.op);
      out += '(';
      renderInto(*e.args[0], out);
      out += ')';
      return;
    case Op::kAbs:
    case Op::kMin:
    case Op::kMax:
    case Op::kIte:
    case Op::kSelect:
    case Op::kStore: {
      out += opName(e.op);
      out += '(';
      for (std::size_t i = 0; i < e.args.size(); ++i) {
        if (i > 0) out += ", ";
        renderInto(*e.args[i], out);
      }
      out += ')';
      return;
    }
    case Op::kCast:
      out += "cast<";
      out += typeName(e.type);
      out += ">(";
      renderInto(*e.args[0], out);
      out += ')';
      return;
    default: {
      out += '(';
      renderInto(*e.args[0], out);
      out += ' ';
      out += opName(e.op);
      out += ' ';
      renderInto(*e.args[1], out);
      out += ')';
      return;
    }
  }
}

}  // namespace

std::string Expr::toString() const {
  std::string out;
  renderInto(*this, out);
  return out;
}

namespace {

void dagSizeRec(const Expr* e, std::unordered_set<const Expr*>& seen) {
  if (!seen.insert(e).second) return;
  for (const auto& a : e->args) dagSizeRec(a.get(), seen);
}

}  // namespace

std::vector<VarId> collectVars(const ExprPtr& e) {
  // A flat visited index and an explicit stack: no allocation per node.
  NodeIndex seen;
  seen.insert(e.get());
  std::vector<const Expr*> stack{e.get()};
  std::vector<VarId> out;
  while (!stack.empty()) {
    const Expr* x = stack.back();
    stack.pop_back();
    if (x->op == Op::kVar || x->op == Op::kVarArray) out.push_back(x->var);
    for (const auto& a : x->args) {
      if (seen.insert(a.get()).second) stack.push_back(a.get());
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::size_t dagSize(const ExprPtr& e) {
  std::unordered_set<const Expr*> seen;
  dagSizeRec(e.get(), seen);
  return seen.size();
}

}  // namespace stcg::expr
