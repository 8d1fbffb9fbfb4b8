#include "core/optimal.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/ensure.hpp"

namespace mcss {

double optimal_risk(const ChannelSet& c) {
  double prod = 1.0;
  for (const Channel& ch : c) prod *= ch.risk;
  return prod;
}

double optimal_loss(const ChannelSet& c) {
  double prod = 1.0;
  for (const Channel& ch : c) prod *= ch.loss;
  return prod;
}

double optimal_delay(const ChannelSet& c) {
  // Sort channel indices by delay ascending; delta_(a) is the a-th
  // smallest delay, lambda_(a) the loss of that same channel.
  std::vector<int> order(static_cast<std::size_t>(c.size()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return c[a].delay < c[b].delay; });

  double weighted = 0.0;
  double all_lost = 1.0;
  double faster_all_lost = 1.0;  // prod of losses of strictly faster channels
  for (const int i : order) {
    weighted += (1.0 - c[i].loss) * c[i].delay * faster_all_lost;
    faster_all_lost *= c[i].loss;
  }
  all_lost = faster_all_lost;
  MCSS_INVARIANT(all_lost < 1.0, "channel set cannot deliver anything");
  return weighted / (1.0 - all_lost);
}

ShareSchedule max_privacy_schedule(const ChannelSet& c) {
  return ShareSchedule(c, {{c.size(), c.all(), 1.0}});
}

ShareSchedule min_loss_schedule(const ChannelSet& c) {
  return ShareSchedule(c, {{1, c.all(), 1.0}});
}

ShareSchedule max_rate_schedule(const ChannelSet& c) {
  const double total = c.total_rate();
  std::vector<ScheduleEntry> entries;
  entries.reserve(static_cast<std::size_t>(c.size()));
  for (int i = 0; i < c.size(); ++i) {
    entries.push_back({1, Mask{1} << i, c[i].rate / total});
  }
  return ShareSchedule(c, std::move(entries));
}

namespace {

/// Mask of the m fastest channels (ties broken by lower index).
Mask fastest_mask(const ChannelSet& c, int m) {
  std::vector<int> order(static_cast<std::size_t>(c.size()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return c[a].rate > c[b].rate; });
  Mask mask = 0;
  for (int j = 0; j < m; ++j) {
    mask |= Mask{1} << order[static_cast<std::size_t>(j)];
  }
  return mask;
}

}  // namespace

ShareSchedule limited_schedule_for(const ChannelSet& c, double kappa, double mu) {
  const auto n = static_cast<double>(c.size());
  MCSS_ENSURE(kappa >= 1.0 && kappa <= mu && mu <= n,
              "parameters must satisfy 1 <= kappa <= mu <= n");

  const auto kf = static_cast<int>(std::floor(kappa + 1e-12));
  const auto mf = static_cast<int>(std::floor(mu + 1e-12));
  const int kc = std::min(kf + 1, c.size());
  const int mc = std::min(mf + 1, c.size());
  const double frac_k = kappa - kf;
  const double frac_m = mu - mf;

  // Mix three corner points of the (k, m) cell so both marginals match.
  // When frac_m >= frac_k the chain (kf,mf) -> (kf,mc) -> (kc,mc) keeps
  // k <= m throughout; otherwise (kf,mf) -> (kc,mf) -> (kc,mc) does,
  // because frac_k > frac_m with kappa <= mu forces kf < mf, so kc <= mf.
  std::vector<ScheduleEntry> entries;
  const Mask m_lo = fastest_mask(c, mf);
  const Mask m_hi = fastest_mask(c, mc);
  if (frac_m >= frac_k) {
    entries.push_back({kf, m_lo, 1.0 - frac_m});
    entries.push_back({kf, m_hi, frac_m - frac_k});
    entries.push_back({kc, m_hi, frac_k});
  } else {
    MCSS_INVARIANT(kc <= mf, "Theorem 5 corner chain violated");
    entries.push_back({kf, m_lo, 1.0 - frac_k});
    entries.push_back({kc, m_lo, frac_k - frac_m});
    entries.push_back({kc, m_hi, frac_m});
  }
  return ShareSchedule(c, std::move(entries));
}

}  // namespace mcss
