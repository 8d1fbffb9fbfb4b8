// Helpers shared by the live workloads: the explicit SessionConfig, the
// sss/crypto cost probes, and registry reads for the per-layer metrics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "net/sim_channel.hpp"
#include "obs/metrics.hpp"
#include "session/session_endpoint.hpp"

namespace mcssbench {

/// What differs between the live workloads; everything else in the
/// SessionConfig is pinned by live_config().
struct LiveShape {
  std::vector<mcss::net::ChannelConfig> channels;
  bool auth = false;
  std::size_t max_flows = 16;
  std::size_t per_flow_memory_bytes = 64u << 10;
  std::size_t max_queue_packets = 16;
  std::size_t max_dispatch_per_pump = 256;
  std::size_t pool_slots = 4096;
  std::int64_t report_interval_ns = 20'000'000;
  /// Completed packet ids each receiver remembers to drop duplicates.
  std::size_t completed_history = 8192;
  bool telemetry = false;
  std::uint64_t seed = 1;
};

/// A SessionConfig with every field a workload depends on set
/// explicitly (the library defaults at the time of writing), so a change
/// of default cannot move the benchmark silently.
[[nodiscard]] mcss::session::SessionConfig live_config(const LiveShape& shape);

/// A clean loopback channel: no loss or delay, a rate far above what one
/// core can push.
[[nodiscard]] mcss::net::ChannelConfig clean_channel();

/// One entry of a workload's (payload size, k, m) mix.
struct ProbeMix {
  std::size_t payload = 0;
  int k = 1;
  int m = 1;
  double weight = 1.0;
};

struct ProbeCost {
  double split_us = 0.0;        ///< sss::split_into per packet
  double reconstruct_us = 0.0;  ///< sss::reconstruct per packet
  double tag_us = 0.0;          ///< crypto::siphash24, m seals + m checks
};

/// Times the public sss and crypto calls on the workload's own payload
/// sizes and (k, m) mix, weighted; tag cost only when `tagged`.
[[nodiscard]] ProbeCost probe_sss(std::span<const ProbeMix> mix, bool tagged,
                                  std::uint64_t seed);

/// Registry contents between two instants: histogram buckets and
/// counters as deltas.
class RegistryWindow {
 public:
  void start() { before_ = mcss::obs::Registry::global().snapshot(); }
  void stop() { after_ = mcss::obs::Registry::global().snapshot(); }

  [[nodiscard]] double hist_percentile(std::string_view name, double q) const;
  [[nodiscard]] double hist_mean(std::string_view name) const;
  [[nodiscard]] double hist_count(std::string_view name) const;
  [[nodiscard]] std::uint64_t counter(std::string_view name) const;

 private:
  struct Hist {
    std::vector<double> bounds;
    std::vector<double> buckets;
    double count = 0.0;
    double sum = 0.0;
  };
  [[nodiscard]] Hist hist(std::string_view name) const;

  mcss::obs::MetricsSnapshot before_;
  mcss::obs::MetricsSnapshot after_;
};

/// Endpoint-level per-layer values every live workload reports from its
/// traced pass: transport, loop health, pool, session counters and the
/// registry histograms. `delivered` normalises the per-packet ratios;
/// `stats0` and `waits0` are the endpoint's counters at phase start.
void live_layers(const mcss::session::SessionEndpoint& ep,
                 const RegistryWindow& window,
                 const mcss::session::SessionStats& stats0,
                 std::uint64_t waits0, double delivered, Values& out);

/// Delivery bookkeeping for one flow whose accepted sends are numbered
/// 1, 2, ... — the endpoint assigns packet ids in dispatch order and
/// dispatches each flow's queue FIFO, so accepted send n is packet id n.
/// Every delivery is checked against the seeded payload that was sent;
/// latency runs from the stamp given at send time (the send call for a
/// closed loop, the due time for an open one).
class FlowLedger {
 public:
  FlowLedger(const Payloads& payloads, Result& result)
      : payloads_(payloads), result_(result) {}

  /// Record accepted send number sent()+1.
  void sent(std::size_t len, std::int64_t stamp_ns);
  void delivered(std::uint32_t cid, std::uint64_t id,
                 const std::vector<std::uint8_t>& payload);
  [[nodiscard]] std::uint64_t sent_count() const { return len_.size(); }
  [[nodiscard]] std::uint64_t delivered_count() const { return delivered_; }
  [[nodiscard]] std::uint64_t in_flight() const {
    return sent_count() - delivered_;
  }
  /// Latencies (ms) of deliveries whose send number is >= `from_id`,
  /// collected into `sink` while set.
  void collect_latency(std::vector<double>* sink, std::uint64_t from_id) {
    sink_ = sink;
    from_id_ = from_id;
  }

 private:
  const Payloads& payloads_;
  Result& result_;
  std::vector<std::uint32_t> len_;
  std::vector<std::int64_t> stamp_;
  std::vector<bool> got_;
  std::uint64_t delivered_ = 0;
  std::vector<double>* sink_ = nullptr;
  std::uint64_t from_id_ = 0;
};

/// Run `ep` until `done()` or `cap_s` of wall time (at most what is left
/// of the run budget) passes; true when done. Every drain in the
/// benchmark goes through here, so no phase can spin forever.
template <typename Done>
bool drain(mcss::session::SessionEndpoint& ep, double cap_s, Done&& done) {
  const double cap = std::min(cap_s, budget_left_s());
  const std::int64_t end = mono_ns() + static_cast<std::int64_t>(cap * 1e9);
  while (!done()) {
    if (mono_ns() >= end) return false;
    ep.run_for(1'000'000);
  }
  return true;
}

/// Per-layer values derived from the process usage of the traced pass
/// and the span recorder (self-time shares, run_for CPU share).
void usage_layers(const Usage& used, Values& out);

}  // namespace mcssbench
