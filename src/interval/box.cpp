#include "interval/box.h"

#include <algorithm>
#include <cassert>

#include "interval/transfer.h"
#include "util/strings.h"

namespace stcg::interval {

namespace {
const std::vector<expr::VarInfo> kNoVars;
}  // namespace

const std::vector<expr::VarInfo>& Box::vars() const {
  return layout_ ? layout_->vars : kNoVars;
}

Box::Box(const std::vector<expr::VarInfo>& vars) {
  auto layout = std::make_shared<Layout>();
  layout->vars = vars;
  domains_.reserve(vars.size());
  expr::VarId maxId = -1;
  for (const auto& v : vars) maxId = std::max(maxId, v.id);
  layout->idToDim.assign(static_cast<std::size_t>(maxId + 1), -1);
  for (std::size_t i = 0; i < vars.size(); ++i) {
    Interval dom = declaredDomain(vars[i].type, vars[i].lo, vars[i].hi);
    if (vars[i].type == expr::Type::kBool) {
      dom = dom.intersect(Interval(0.0, 1.0));
    }
    domains_.push_back(dom);
    layout->idToDim[static_cast<std::size_t>(vars[i].id)] =
        static_cast<int>(i);
  }
  layout_ = std::move(layout);
}

int Box::dimOf(expr::VarId id) const {
  if (!layout_) return -1;
  const std::vector<int>& map = layout_->idToDim;
  if (id < 0 || static_cast<std::size_t>(id) >= map.size()) return -1;
  return map[static_cast<std::size_t>(id)];
}

Interval Box::domain(expr::VarId id) const {
  const int d = dimOf(id);
  if (d < 0) return Interval::whole();
  return domains_[static_cast<std::size_t>(d)];
}

bool Box::isDiscrete(std::size_t dim) const {
  return layout_->vars[dim].type != expr::Type::kReal;
}

bool Box::narrow(expr::VarId id, const Interval& iv) {
  const int d = dimOf(id);
  if (d < 0) return true;  // untracked variable: nothing to narrow
  const auto dim = static_cast<std::size_t>(d);
  Interval next = domains_[dim].intersect(iv);
  if (isDiscrete(dim)) next = next.integralHull();
  domains_[dim] = next;
  return !next.isEmpty();
}

void Box::setDomain(expr::VarId id, const Interval& iv) {
  const int d = dimOf(id);
  if (d < 0) return;
  const auto dim = static_cast<std::size_t>(d);
  Interval next = iv;
  if (isDiscrete(dim)) next = next.integralHull();
  domains_[dim] = next;
}

bool Box::isEmpty() const {
  return std::any_of(domains_.begin(), domains_.end(),
                     [](const Interval& d) { return d.isEmpty(); });
}

int Box::splitDimension() const {
  int best = -1;
  double bestScore = 0.0;
  for (std::size_t i = 0; i < domains_.size(); ++i) {
    const Interval& d = domains_[i];
    if (d.isEmpty()) return -1;
    double score;
    if (isDiscrete(i)) {
      const double count = d.integerCount();
      if (count <= 1.0) continue;
      score = count;
    } else {
      if (d.width() <= 1e-9) continue;
      score = d.width();
    }
    if (score > bestScore) {
      bestScore = score;
      best = static_cast<int>(i);
    }
  }
  return best;
}

double Box::totalWidth() const {
  double total = 0.0;
  for (const auto& d : domains_) total += d.width();
  return total;
}

std::string Box::toString() const {
  std::vector<std::string> parts;
  parts.reserve(dims());
  for (std::size_t i = 0; i < dims(); ++i) {
    parts.push_back(vars()[i].name + "=" + domains_[i].toString());
  }
  return "{" + join(parts, ", ") + "}";
}

}  // namespace stcg::interval
