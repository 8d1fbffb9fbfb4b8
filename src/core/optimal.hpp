// Closed-form optima when kappa and mu are free (paper Section IV-B/IV-C),
// plus the Theorem 5 constructive limited schedule (Section IV-E).
#pragma once

#include "core/channel.hpp"
#include "core/schedule.hpp"

namespace mcss {

/// Z_C = prod z_i: best achievable risk, reached at kappa = mu = n
/// (schedule p(n, C) = 1 — the adversary must observe every channel).
[[nodiscard]] double optimal_risk(const ChannelSet& c);

/// L_C = prod l_i: best achievable loss, reached at kappa = 1, mu = n
/// (schedule p(1, C) = 1 — a symbol survives if any share does).
[[nodiscard]] double optimal_loss(const ChannelSet& c);

/// D_C: the paper's optimal delay, reached at kappa = 1, mu = n. The
/// average of the channel delays in ascending order, each weighted by the
/// probability that a share arrives on that channel but on none faster,
/// conditioned on the symbol surviving at all.
///
/// Note a subtlety the paper glosses over: D(p) is delay CONDITIONED on
/// delivery, so the schedule p(1, {fastest channel}) = 1 has conditional
/// delay min_i d_i <= D_C — at the cost of that channel's full loss.
/// D_C is the best delay among schedules that also minimize loss
/// (mu = n); the unconditional lower bound on D(p) is min_i d_i.
[[nodiscard]] double optimal_delay(const ChannelSet& c);

/// The schedules achieving the above optima.
[[nodiscard]] ShareSchedule max_privacy_schedule(const ChannelSet& c);
[[nodiscard]] ShareSchedule min_loss_schedule(const ChannelSet& c);

/// The throughput-maximizing schedule at kappa = mu = 1 (Section IV-C):
/// p(1, {i}) = r_i / sum r — MPTCP-like proportional striping. Achieves
/// R_C = sum r_i.
[[nodiscard]] ShareSchedule max_rate_schedule(const ChannelSet& c);

/// Theorem 5 constructive schedule: for any 1 <= kappa <= mu <= n, a
/// schedule drawn only from the limited set M' (every entry has
/// k >= floor(kappa) and |M| >= floor(mu)) whose averages are exactly
/// kappa and mu. Subsets of size m are the m fastest channels. Throws
/// PreconditionError for parameters outside the valid region.
[[nodiscard]] ShareSchedule limited_schedule_for(const ChannelSet& c,
                                                 double kappa, double mu);

}  // namespace mcss
