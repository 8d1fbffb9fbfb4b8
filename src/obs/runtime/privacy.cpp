#include "obs/runtime/privacy.hpp"

#include <algorithm>
#include <utility>

#include "util/poisson_binomial.hpp"

namespace mcss::obs::runtime {

namespace {

// z values live in [0, 1]; linear low-end resolution matters because
// well-planned exposures sit near zero and degradations push upward.
std::vector<double> z_bounds() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.02, 0.05,
          0.1,  0.2,  0.3,  0.5,  0.7,  0.9};
}

// Widening = realized - planned z, >= 0 by construction (exposure
// unions only grow); sub-1e-6 widenings are noise.
std::vector<double> widening_bounds() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.5};
}

}  // namespace

PrivacyAccountant::PrivacyAccountant(PrivacyConfig config)
    : config_(std::move(config)) {}

double PrivacyAccountant::z_of(int k, std::uint32_t mask) const {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k)) << 32) | mask;
  // Single-entry memo in front of the map: records in a fold batch come
  // from one flow and overwhelmingly share (k, mask).
  if (key == last_key_ && last_key_valid_) return last_z_;
  const auto hit = [&](double z) {
    last_key_ = key;
    last_z_ = z;
    last_key_valid_ = true;
    return z;
  };
  const auto it = z_cache_.find(key);
  if (it != z_cache_.end()) return hit(it->second);
  scratch_.clear();
  for (std::size_t i = 0; i < config_.channel_risks.size(); ++i) {
    if ((mask >> i) & 1u) scratch_.push_back(config_.channel_risks[i]);
  }
  const double z = poisson_binomial_tail_geq(scratch_, k);
  z_cache_.emplace(key, z);
  return hit(z);
}

double PrivacyAccountant::mean_realized_z() const noexcept {
  if (totals_.packets_accounted == 0) return 0.0;
  return totals_.realized_z_sum /
         static_cast<double>(totals_.packets_accounted);
}

double PrivacyAccountant::deficit() const noexcept {
  if (totals_.packets_accounted == 0) return 0.0;
  const double target =
      config_.planned_z >= 0.0
          ? config_.planned_z
          : totals_.planned_z_sum /
                static_cast<double>(totals_.packets_accounted);
  return mean_realized_z() - target;
}

void PrivacyAccountant::resolve_ids() {
  Registry& registry = Registry::global();
  realized_id_ = registry.histogram("mcss_privacy_z_realized", z_bounds());
  widening_id_ =
      registry.histogram("mcss_privacy_z_widening", widening_bounds());
  accounted_id_ = registry.counter("mcss_privacy_packets_accounted_total");
  degraded_id_ = registry.counter("mcss_privacy_degradations_total");
  widened_id_ = registry.counter("mcss_privacy_packets_widened_total");
  deficit_id_ = registry.gauge("mcss_privacy_z_deficit");
  deficit_max_id_ = registry.gauge("mcss_privacy_z_deficit_max");
  realized_mean_id_ = registry.gauge("mcss_privacy_z_realized_mean");
  ids_resolved_ = true;
}

void PrivacyAccountant::on_closed(std::span<const ExposureRecord> records) {
  if (records.empty()) return;
  const bool publish = metrics_enabled();
  Registry& registry = Registry::global();
  // Ids cached per instance: a churning endpoint folds a closed batch
  // per ack/close, so a name lookup here is per-packet cost. A fresh
  // accountant (one per telemetry plane, per run) re-resolves; only an
  // instance held across a Registry::reset() goes inert.
  if (publish && !ids_resolved_) resolve_ids();

  for (const ExposureRecord& record : records) {
    const double realized = z_of(record.k, record.exposure_mask);
    const double planned_pkt = z_of(record.k, record.initial_mask);
    const double target =
        config_.planned_z >= 0.0 ? config_.planned_z : planned_pkt;

    ++totals_.packets_accounted;
    totals_.realized_z_sum += realized;
    totals_.planned_z_sum += planned_pkt;
    totals_.max_realized_z = std::max(totals_.max_realized_z, realized);
    const double gap = realized - target;
    totals_.max_deficit = std::max(totals_.max_deficit, gap);
    const bool widened = record.exposure_mask != record.initial_mask;
    if (widened) ++totals_.packets_widened;
    const bool degraded = gap > config_.tolerance;
    if (degraded) ++totals_.degradations;

    if (publish) {
      registry.observe(realized_id_, realized);
      registry.observe(widening_id_, std::max(0.0, realized - planned_pkt));
      registry.add(accounted_id_);
      if (widened) registry.add(widened_id_);
      if (degraded) registry.add(degraded_id_);
    }
  }
  // Deficit gauges are NOT refreshed here: endpoints fold a batch per
  // ack report, and three gauge stores per batch is measurable at high
  // packet rates. The owner republishes at sample cadence instead
  // (publish_gauges from the sampler's publish hook).
}

void PrivacyAccountant::publish_gauges() {
  if (!metrics_enabled()) return;
  if (!ids_resolved_) resolve_ids();
  Registry& registry = Registry::global();
  registry.set(deficit_id_, deficit());
  registry.set(deficit_max_id_, totals_.max_deficit);
  registry.set(realized_mean_id_, mean_realized_z());
}

}  // namespace mcss::obs::runtime
