// Sender-side reliability engine: outstanding-packet tracking, RTO
// estimation, privacy-aware retransmission scheduling, and exposure
// accounting.
//
// The manager is transport-agnostic. It never touches a socket or a
// simulator; callers feed it events (packet sent, report arrived) with
// explicit timestamps, poll next_deadline(), and call advance(now) to
// fire due retransmission timers. The actual re-split-and-send happens
// through the RetransmitFn callback, which the sim glue (ReliableLink)
// and the live endpoint each wire to their own send path.
//
// RTO follows RFC 6298: SRTT/RTTVAR from ack-derived samples (Karn's
// rule excludes retransmitted packets, whose acks are ambiguous), RTO =
// SRTT + max(granularity, 4 * RTTVAR), clamped to [min, max]. Repeat
// timeouts of one packet escalate with decorrelated-jitter backoff
// (util/backoff.hpp) so a loss burst does not resynchronize every
// outstanding packet's retry clock.
//
// Exposure accounting (the privacy half of ISSUE 5): every packet
// tracks the UNION of channels any of its shares ever traversed, across
// the original transmission and every retransmission. An eavesdropper
// who holds a channel holds every share that crossed it — re-splitting
// refreshes the polynomial but each generation's shares are shares of
// the SAME secret, so the adversary may combine shares within any one
// generation it observed in full. Effective privacy for a packet is
// therefore z(k, exposure set), computed against the realized exposure,
// not the scheduler's plan. Closed packets (acked or abandoned) are
// drained by the caller for exactly that computation.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "feedback/report.hpp"
#include "util/backoff.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mcss::obs {
class Registry;
}

namespace mcss::feedback {

struct RetransmitConfig {
  /// Retransmissions per packet before the manager gives up (0 disables
  /// ARQ: packets are tracked for exposure/ack accounting only and are
  /// abandoned at their first timeout).
  int max_retransmits = 4;
  /// Outstanding packets tracked; beyond this the oldest is closed
  /// unacked to admit the new one (the payload buffer is the cost).
  std::size_t max_outstanding = 4096;
  std::int64_t initial_rto_ns = 200'000'000;  ///< before any RTT sample
  std::int64_t min_rto_ns = 50'000'000;
  std::int64_t max_rto_ns = 2'000'000'000;
  /// RTO = SRTT + max(granularity, 4 * RTTVAR) per RFC 6298.
  std::int64_t rto_granularity_ns = 1'000'000;
  /// Escalation between repeat timeouts of one packet. base_ns == 0
  /// means "start from the current RTO" (filled in at use).
  BackoffConfig backoff{.base_ns = 0, .cap_ns = 2'000'000'000,
                        .multiplier = 2.0};
};

struct RetransmitStats {
  std::uint64_t packets_tracked = 0;
  std::uint64_t packets_acked = 0;
  std::uint64_t packets_abandoned = 0;  ///< retransmit budget exhausted
  std::uint64_t packets_displaced = 0;  ///< evicted by max_outstanding
  std::uint64_t retransmits = 0;
  std::uint64_t reports_received = 0;
  std::uint64_t reports_replayed = 0;  ///< stale/duplicate seq, dropped
  std::uint64_t reports_malformed = 0;
  std::uint64_t reports_auth_failed = 0;
  std::uint64_t rtt_samples = 0;
  /// Delay samples rejected as physically impossible: delivery stamped
  /// before the packet's send or after the report carrying it was
  /// built. Excluded from `delay` so the estimate stays honest.
  std::uint64_t delay_samples_clamped = 0;
  /// Sum over closed packets of |initial channel set| and |realized
  /// exposure set|; their ratio is the average exposure widening that
  /// retransmissions caused.
  std::uint64_t initial_channel_sum = 0;
  std::uint64_t exposure_channel_sum = 0;
  /// Link-mode analogues (see set_link_map): sums of |initial link set|
  /// and |realized link exposure set| over closed packets. Zero unless a
  /// link map is installed.
  std::uint64_t initial_link_sum = 0;
  std::uint64_t exposure_link_sum = 0;
  /// One-way delay of acked deliveries (from report delay samples),
  /// via one_way_delay_seconds with serialization 0 (end to end).
  OnlineStats delay;
};

/// Add these totals into the registry under mcss_retransmit_* names
/// (counters for events, gauges for the RTT estimator state).
void publish(obs::Registry& registry, const RetransmitStats& stats);

/// A packet the manager is done with: acked, abandoned, or displaced.
/// The exposure mask is the realized union; initial_mask is what the
/// scheduler originally chose (so callers can price the widening).
struct ClosedPacket {
  std::uint64_t packet_id = 0;
  int k = 0;
  std::uint32_t initial_mask = 0;
  std::uint32_t exposure_mask = 0;
  int retransmits = 0;
  bool acked = false;
  /// Link-id unions (util/link_risk.hpp LinkMask semantics), populated
  /// when a channel->links map is installed via set_link_map. On a
  /// routed topology the adversary taps links, so privacy accounting
  /// prices THESE sets, not the channel masks: two channels sharing a
  /// link contribute that link once.
  std::uint64_t initial_link_mask = 0;
  std::uint64_t link_exposure_mask = 0;
};

class RetransmitManager {
 public:
  /// Retransmission callback: re-split `payload` (threshold k) under a
  /// fresh generation and send. Channel choice belongs to the caller;
  /// it must call note_exposure() with the channels it used.
  using RetransmitFn = std::function<void(
      std::uint64_t packet_id, std::uint8_t generation,
      const std::vector<std::uint8_t>& payload, int k)>;

  RetransmitManager(RetransmitConfig config, Rng rng);

  RetransmitManager(const RetransmitManager&) = delete;
  RetransmitManager& operator=(const RetransmitManager&) = delete;

  void set_retransmit(RetransmitFn fn) { retransmit_ = std::move(fn); }

  /// Install the channel -> link-set map of a routed topology:
  /// channel_link_masks[i] is the LinkMask of the links channel i's path
  /// traverses (util/link_risk.hpp). From then on every tracked packet
  /// also accumulates link-mask unions, exposed via ClosedPacket and
  /// link_exposure(). Channels beyond the map's size contribute no
  /// links. Only legal while nothing is outstanding (mixed-mode records
  /// would under-count early packets' links).
  void set_link_map(std::vector<std::uint64_t> channel_link_masks);

  [[nodiscard]] const std::vector<std::uint64_t>& link_map() const noexcept {
    return channel_link_masks_;
  }

  /// Track a freshly dispatched packet (wire to Sender's dispatch hook).
  void on_packet_sent(std::uint64_t packet_id, int k,
                      std::span<const std::uint8_t> payload,
                      std::span<const int> channels, std::int64_t now_ns);

  /// Record that shares of `packet_id` were (re)sent on `channels`,
  /// widening its realized exposure set.
  void note_exposure(std::uint64_t packet_id, std::span<const int> channels);

  /// Feed a raw feedback datagram (possibly several coalesced reports;
  /// malformed and replayed reports are counted and skipped).
  void on_report_datagram(std::span<const std::uint8_t> bytes,
                          std::int64_t now_ns,
                          const crypto::SipHashKey* key = nullptr);

  /// Feed one already-decoded report.
  void on_report(const ReceiverReport& report, std::int64_t now_ns);

  /// Earliest pending retransmission deadline, if any packet is
  /// outstanding. Drive advance() no later than this. (Non-const: it
  /// prunes lazily invalidated heap entries as a side effect.)
  [[nodiscard]] std::optional<std::int64_t> next_deadline();

  /// Fire every deadline <= now: retransmit packets with budget left
  /// (via the RetransmitFn), abandon the rest.
  void advance(std::int64_t now_ns);

  [[nodiscard]] std::size_t outstanding() const noexcept {
    return outstanding_.size();
  }
  [[nodiscard]] const RetransmitStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::int64_t current_rto_ns() const noexcept { return rto_ns_; }
  [[nodiscard]] double srtt_s() const noexcept {
    return static_cast<double>(srtt_ns_) / 1e9;
  }

  /// Realized exposure of a still-outstanding packet.
  [[nodiscard]] std::optional<std::uint32_t> exposure_mask(
      std::uint64_t packet_id) const;

  /// Realized LINK exposure of a still-outstanding packet (meaningful
  /// once set_link_map was called; zero-mask otherwise).
  [[nodiscard]] std::optional<std::uint64_t> link_exposure(
      std::uint64_t packet_id) const;

  /// Widest realized exposure union (channel count) across the
  /// still-outstanding packets — the flow-drill-down "how wide has
  /// this flow's privacy spread" signal. O(outstanding), no
  /// allocation.
  [[nodiscard]] int widest_exposure() const noexcept;

  /// Drain the closed-packet records accumulated since the last drain.
  [[nodiscard]] std::vector<ClosedPacket> drain_closed();

  /// Snapshot still-open packets as ClosedPacket records (acked=false)
  /// WITHOUT closing them — end-of-run exposure accounting must cover
  /// packets the cutoff caught mid-flight.
  [[nodiscard]] std::vector<ClosedPacket> snapshot_open() const;

 private:
  struct Outstanding {
    std::vector<std::uint8_t> payload;
    int k = 0;
    std::uint8_t generation = 0;  ///< of the most recent (re)send
    int retransmits = 0;
    bool retransmitted = false;  ///< Karn: RTT samples only when false
    std::int64_t first_sent_ns = 0;
    std::int64_t deadline_ns = 0;
    std::int64_t backoff_prev_ns = 0;
    std::uint32_t initial_mask = 0;
    std::uint32_t exposure_mask = 0;
    std::uint64_t initial_link_mask = 0;
    std::uint64_t link_exposure_mask = 0;
  };

  /// Union of the link sets of the given channels under the installed
  /// map (zero without one).
  [[nodiscard]] std::uint64_t links_of(std::span<const int> channels) const;

  void on_rtt_sample(std::int64_t rtt_ns);
  void close(std::uint64_t packet_id, const Outstanding& packet, bool acked,
             std::uint64_t* counter);
  void push_deadline(std::uint64_t packet_id, std::int64_t deadline_ns);

  RetransmitConfig config_;
  Rng rng_;
  RetransmitFn retransmit_;

  std::map<std::uint64_t, Outstanding> outstanding_;
  /// Min-heap of (deadline, id); entries are lazily invalidated by
  /// checking against the packet's current deadline_ns.
  using HeapEntry = std::pair<std::int64_t, std::uint64_t>;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                      std::greater<HeapEntry>>
      deadlines_;

  std::uint64_t last_report_seq_ = 0;
  std::int64_t srtt_ns_ = 0;
  std::int64_t rttvar_ns_ = 0;
  std::int64_t rto_ns_ = 0;

  std::vector<std::uint64_t> channel_link_masks_;  ///< empty = channel mode
  std::vector<ClosedPacket> closed_;
  RetransmitStats stats_;
};

}  // namespace mcss::feedback
