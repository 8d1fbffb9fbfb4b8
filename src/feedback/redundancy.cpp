#include "feedback/redundancy.hpp"

#include <algorithm>
#include <numeric>

#include "util/ensure.hpp"

namespace mcss::feedback {

RedundancyPlan plan_redundancy(const ChannelSet& channels,
                               const RedundancyGoal& goal) {
  MCSS_ENSURE(goal.k >= 1, "threshold must be positive");
  MCSS_ENSURE(goal.target_delivery > 0.0 && goal.target_delivery < 1.0,
              "target delivery must be in (0, 1)");

  std::vector<int> candidates;
  for (int i = 0; i < channels.size(); ++i) {
    if (goal.offered_pps <= 0.0 || channels[i].rate >= goal.offered_pps) {
      candidates.push_back(i);
    }
  }
  std::sort(candidates.begin(), candidates.end(), [&](int a, int b) {
    const Channel& ca = channels[a];
    const Channel& cb = channels[b];
    if (ca.loss != cb.loss) return ca.loss < cb.loss;
    if (ca.risk != cb.risk) return ca.risk < cb.risk;
    return a < b;
  });

  RedundancyPlan plan;
  plan.k = goal.k;
  if (static_cast<int>(candidates.size()) < goal.k) {
    return plan;  // not even k eligible channels: infeasible, empty plan
  }

  const double max_loss = 1.0 - goal.target_delivery;
  for (int m = goal.k; m <= static_cast<int>(candidates.size()); ++m) {
    Mask mask = 0;
    for (int j = 0; j < m; ++j) {
      mask |= Mask{1} << candidates[static_cast<std::size_t>(j)];
    }
    const double loss = subset_loss(channels, goal.k, mask);
    plan.channels.assign(candidates.begin(), candidates.begin() + m);
    plan.predicted_loss = loss;
    plan.predicted_risk = subset_risk(channels, goal.k, mask);
    if (loss <= max_loss) {
      plan.feasible = true;
      break;
    }
    // Otherwise keep widening; the final iteration leaves the best
    // available (all-candidates) plan in place even when infeasible.
  }
  std::sort(plan.channels.begin(), plan.channels.end());
  return plan;
}

}  // namespace mcss::feedback
