// Privacy accounting: folds realized per-packet channel-exposure
// unions into runtime z(k, exposure) series.
//
// The paper's central quantity is the subset risk z(k, M): the
// probability that an eavesdropper observing the channels in M
// captures at least k shares — the Poisson binomial upper tail over
// the per-channel compromise probabilities z_i. The scheduler plans an
// exposure set per packet; retransmissions widen the realized union
// (PR 5 tracks it), so realized z can only be >= planned z. This
// module prices that gap as a live signal:
//
//   mcss_privacy_z_realized       histogram of realized z(k, exposure)
//   mcss_privacy_z_widening       histogram of realized - planned z
//   mcss_privacy_z_deficit        gauge: mean realized z - target z
//   mcss_privacy_z_deficit_max    gauge: worst single-packet gap
//   mcss_privacy_degradations_total  packets whose realized z exceeded
//                                    the plan (privacy degraded)
//
// "Planned" defaults to each packet's own initial exposure mask (what
// the scheduler chose before any retransmission); an absolute LP/
// planner target can be set instead via set_planned_z(), in which case
// the deficit gauges compare against that target.
//
// Layering: obs sits below feedback, so this module defines its own
// ExposureRecord; endpoints copy the fields from
// feedback::ClosedPacket at drain_closed() sites.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"

namespace mcss::obs::runtime {

/// Field-for-field mirror of feedback::ClosedPacket (minus packet_id).
struct ExposureRecord {
  int k = 0;
  std::uint32_t initial_mask = 0;
  std::uint32_t exposure_mask = 0;
  int retransmits = 0;
  bool acked = false;
};

struct PrivacyConfig {
  /// Per-channel compromise probabilities z_i, indexed by channel bit.
  std::vector<double> channel_risks;
  /// Absolute planner/LP target z(k, M); NaN / unset means "use each
  /// packet's initial mask as its plan".
  double planned_z = -1.0;  ///< < 0 == unset
  /// Slack before a realized > planned gap counts as a degradation.
  double tolerance = 1e-12;
};

struct PrivacyTotals {
  std::uint64_t packets_accounted = 0;
  std::uint64_t packets_widened = 0;   ///< exposure grew past the plan
  std::uint64_t degradations = 0;      ///< realized z > plan + tolerance
  double realized_z_sum = 0.0;
  double planned_z_sum = 0.0;
  double max_realized_z = 0.0;
  double max_deficit = 0.0;  ///< worst single-packet realized - planned
};

class PrivacyAccountant {
 public:
  explicit PrivacyAccountant(PrivacyConfig config);

  /// Replace the absolute target (e.g. after an LP re-solve). Pass a
  /// negative value to fall back to per-packet initial-mask plans.
  void set_planned_z(double planned_z) noexcept {
    config_.planned_z = planned_z;
  }

  /// Fold closed-packet records: observes histograms/counters in the
  /// global Registry (when metrics are enabled), and always updates the
  /// running totals. Deficit gauges are refreshed by publish_gauges(),
  /// not here — call it at sample cadence.
  void on_closed(std::span<const ExposureRecord> records);

  /// Store the deficit/mean gauges into the global Registry. Cheap but
  /// not free; meant for the sampler's publish hook, not per fold.
  void publish_gauges();

  /// z(k, mask) for a channel mask: the Poisson-binomial tail over the
  /// masked channels' channel_risks.
  [[nodiscard]] double z_of(int k, std::uint32_t mask) const;

  [[nodiscard]] const PrivacyTotals& totals() const noexcept {
    return totals_;
  }
  /// Mean realized z minus the target (absolute target when set, else
  /// mean per-packet planned z); 0 before any packet closes.
  [[nodiscard]] double deficit() const noexcept;
  [[nodiscard]] double mean_realized_z() const noexcept;

 private:
  void resolve_ids();

  PrivacyConfig config_;
  PrivacyTotals totals_;
  // Scratch for z_of: risks of the channels set in a mask.
  mutable std::vector<double> scratch_;
  /// z(k, mask) memo: channel risks are fixed at construction, and a
  /// churning endpoint closes packets under a handful of distinct
  /// (k, mask) pairs, so the O(m^2) tail DP runs once per pair instead
  /// of twice per closed packet. Key = k in the high 32 bits. The
  /// last_* members are a one-entry memo in front of the map.
  mutable std::unordered_map<std::uint64_t, double> z_cache_;
  mutable std::uint64_t last_key_ = 0;
  mutable double last_z_ = 0.0;
  mutable bool last_key_valid_ = false;
  /// Series ids cached per instance (see on_closed). Inert after a
  /// Registry::reset() unless a fresh accountant is built.
  bool ids_resolved_ = false;
  HistogramId realized_id_{};
  HistogramId widening_id_{};
  CounterId accounted_id_{};
  CounterId degraded_id_{};
  CounterId widened_id_{};
  GaugeId deficit_id_{};
  GaugeId deficit_max_id_{};
  GaugeId realized_mean_id_{};
};

}  // namespace mcss::obs::runtime
