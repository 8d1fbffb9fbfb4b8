// ReMICSS sending side.
//
// Accepts source packets (the "sequence of source symbols"), consults its
// ShareScheduler for a (k, M) decision per packet, splits the packet into
// m = |M| Shamir shares, and transmits exactly one share per channel of M.
// Best-effort end to end: a share the channel cannot take is simply lost
// (the threshold scheme absorbs up to m - k losses; Section V).
//
// Pacing. The sender is event-driven: it pumps its queue whenever a packet
// arrives or a channel becomes writable, and — when an endpoint CPU model
// is attached — no faster than the host can split packets, which is what
// caps throughput in the high-bandwidth experiments (Figures 6-7).
#pragma once

#include <concepts>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "crypto/siphash.hpp"
#include "net/channel_port.hpp"
#include "net/cpu_model.hpp"
#include "net/simulator.hpp"
#include "protocol/scheduler.hpp"
#include "util/rng.hpp"

namespace mcss::obs {
class Registry;
}

namespace mcss::proto {

struct SenderConfig {
  /// Source packets buffered while waiting for writable channels; send()
  /// returns false (backpressure) beyond this.
  std::size_t max_queue_packets = 256;
  /// When set, every share frame carries a SipHash-2-4 tag under this key
  /// (authenticated mode; pair with the same key on the receiver).
  std::optional<crypto::SipHashKey> auth_key;
};

struct SenderStats {
  std::uint64_t packets_offered = 0;
  std::uint64_t packets_rejected = 0;  ///< backpressure at the send queue
  std::uint64_t packets_sent = 0;      ///< split + shares handed to channels
  std::uint64_t shares_sent = 0;
  std::uint64_t shares_dropped_at_channel = 0;  ///< try_send refused
  std::uint64_t packets_retransmitted = 0;  ///< ARQ re-splits (session)
  std::uint64_t shares_retransmitted = 0;   ///< shares those re-splits sent
  double sum_k = 0.0;  ///< achieved kappa = sum_k / packets_sent
  double sum_m = 0.0;  ///< achieved mu    = sum_m / packets_sent

  [[nodiscard]] double achieved_kappa() const noexcept {
    return packets_sent ? sum_k / static_cast<double>(packets_sent) : 0.0;
  }
  [[nodiscard]] double achieved_mu() const noexcept {
    return packets_sent ? sum_m / static_cast<double>(packets_sent) : 0.0;
  }
};

/// Add these totals into the registry under mcss_sender_* names
/// (counters for the event counts, gauges for achieved kappa/mu).
void publish(obs::Registry& registry, const SenderStats& stats);

class Sender {
 public:
  /// The sender owns the TX side of the given channels: it installs their
  /// writability callbacks. `cpu` may be null (infinite processing).
  Sender(net::Simulator& sim, std::vector<net::ChannelPort*> channels,
         std::unique_ptr<ShareScheduler> scheduler, Rng rng,
         net::CpuModel* cpu = nullptr, SenderConfig config = {});

  /// Convenience: accept a vector of any concrete port type (the sim
  /// call sites hold std::vector<net::SimChannel*>, the routed ones
  /// std::vector<topo::RoutedChannel*>).
  template <std::derived_from<net::ChannelPort> Ch>
  Sender(net::Simulator& sim, const std::vector<Ch*>& channels,
         std::unique_ptr<ShareScheduler> scheduler, Rng rng,
         net::CpuModel* cpu = nullptr, SenderConfig config = {})
      : Sender(sim,
               std::vector<net::ChannelPort*>(channels.begin(), channels.end()),
               std::move(scheduler), rng, cpu, config) {}

  Sender(const Sender&) = delete;
  Sender& operator=(const Sender&) = delete;

  /// Offer one source packet. Returns false when the send queue is full.
  bool send(std::vector<std::uint8_t> payload);

  [[nodiscard]] const SenderStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t queued_packets() const noexcept { return queue_.size(); }

  /// Publish this sender's stats plus its scheduler's (if any) into the
  /// registry. End-of-run hook; counters aggregate across calls.
  void publish_metrics(obs::Registry& registry) const;

 private:
  void pump();
  void dispatch(std::vector<std::uint8_t> payload, const ShareDecision& decision);
  /// Packet `id`'s m generation-0 share frames, one owned buffer each,
  /// written by proto::write_shares.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> write_frames(
      std::uint64_t id, int k, std::span<const std::uint8_t> payload,
      std::size_t m);

  net::Simulator& sim_;
  std::vector<net::ChannelPort*> channels_;
  std::unique_ptr<ShareScheduler> scheduler_;
  Rng rng_;
  net::CpuModel* cpu_;
  SenderConfig config_;

  std::deque<std::vector<std::uint8_t>> queue_;
  std::vector<std::uint8_t> split_scratch_;
  std::uint64_t next_packet_id_ = 1;
  bool pump_scheduled_ = false;
  SenderStats stats_;
};

}  // namespace mcss::proto
