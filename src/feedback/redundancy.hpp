// Proactive redundancy: choose m > k up front instead of (or alongside)
// reacting with retransmissions.
//
// Retransmission buys reliability with latency (at least one RTT plus a
// report interval per repair) and with privacy (every retransmission
// can widen the packet's channel exposure). Proactive redundancy buys
// the same reliability with bandwidth: send n >= k shares so that the
// closed-form subset-loss model l(k, M) already meets the delivery
// target, and most packets never need a repair. plan_redundancy() makes
// that trade explicit: it picks the SMALLEST channel subset M (lowest-
// loss channels first, among channels fast enough for the offered
// rate) whose l(k, M) clears the target, and reports the predicted
// loss and risk z(k, M) so callers see what the extra shares cost in
// privacy. A proto::FixedScheduler over (plan.k, plan.channels) sends
// the plan.
#pragma once

#include <vector>

#include "core/channel.hpp"
#include "core/subset_metrics.hpp"

namespace mcss::feedback {

struct RedundancyGoal {
  int k = 2;
  /// Required per-packet delivery probability: 1 - l(k, M) >= this.
  double target_delivery = 0.999;
  /// Channels slower than this (in packets/s == shares/s, since each
  /// chosen channel carries one share per packet) are excluded — a
  /// share plan that saturates a member channel delivers late or never,
  /// which no loss model predicts. 0 disables the filter.
  double offered_pps = 0.0;
};

struct RedundancyPlan {
  int k = 2;
  /// Chosen channel indices, |channels| = m >= k (empty if infeasible).
  std::vector<int> channels;
  double predicted_loss = 1.0;  ///< l(k, M) of the chosen subset
  double predicted_risk = 0.0;  ///< z(k, M): the privacy price paid
  /// Whether the target is met. An infeasible goal still yields the
  /// best available subset (every eligible channel) for callers that
  /// prefer degraded service over none.
  bool feasible = false;
};

/// Solve the goal against the model. Deterministic: candidate channels
/// are ordered by (loss ascending, risk ascending, index ascending) and
/// the plan is the shortest feasible prefix — adding a channel can only
/// lower l(k, M), so the greedy prefix is the minimal-m choice for this
/// ordering.
[[nodiscard]] RedundancyPlan plan_redundancy(const ChannelSet& channels,
                                             const RedundancyGoal& goal);

}  // namespace mcss::feedback
