#include "interval/box.h"

#include <algorithm>
#include <cassert>

#include "interval/transfer.h"
#include "util/strings.h"

namespace stcg::interval {

Box::Box(const std::vector<expr::VarInfo>& vars) : vars_(vars) {
  domains_.reserve(vars_.size());
  expr::VarId maxId = -1;
  for (const auto& v : vars_) maxId = std::max(maxId, v.id);
  idToDim_.assign(static_cast<std::size_t>(maxId + 1), -1);
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    Interval dom =
        declaredDomain(vars_[i].type, vars_[i].lo, vars_[i].hi);
    if (vars_[i].type == expr::Type::kBool) {
      dom = dom.intersect(Interval(0.0, 1.0));
    }
    domains_.push_back(dom);
    idToDim_[static_cast<std::size_t>(vars_[i].id)] = static_cast<int>(i);
  }
}

int Box::dimOf(expr::VarId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= idToDim_.size()) return -1;
  return idToDim_[static_cast<std::size_t>(id)];
}

Interval Box::domain(expr::VarId id) const {
  const int d = dimOf(id);
  if (d < 0) return Interval::whole();
  return domains_[static_cast<std::size_t>(d)];
}

bool Box::isDiscrete(std::size_t dim) const {
  return vars_[dim].type != expr::Type::kReal;
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
  parts.reserve(vars_.size());
  for (std::size_t i = 0; i < vars_.size(); ++i) {
    parts.push_back(vars_[i].name + "=" + domains_[i].toString());
  }
  return "{" + join(parts, ", ") + "}";
}

}  // namespace stcg::interval
