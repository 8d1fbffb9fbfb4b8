// Simulator driver for one flow's feedback::Arq: turns a (Sender,
// Receiver, channels) triple into a reliable session.
//
// The protocol logic (reports, RTO timers, retransmit order, report
// ingest) lives in the Arq, the same one the live session endpoint
// drives. The link keeps only the simulator wiring:
//
//   receiver side   the receiver is attached to every forward channel;
//                   deliveries go to the Arq, and a periodic sim event
//                   (or an early one the Arq asks for) sends its report
//                   onto the feedback channel
//   sender side     the Sender's dispatch hook hands packets to the
//                   Arq; arriving reports go to it; its resend hook
//                   re-splits through Sender::resend()
//
// Retransmission channel choice is privacy-aware (see arq.hpp):
// channels already in the packet's realized exposure set first, then
// unexposed channels by ascending `risks`. The link attaches the
// receiver to the forward channels itself.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/siphash.hpp"
#include "feedback/arq.hpp"
#include "net/channel_port.hpp"
#include "net/simulator.hpp"
#include "protocol/receiver.hpp"
#include "protocol/sender.hpp"

namespace mcss::feedback {

struct ReliableLinkConfig {
  RetransmitConfig retransmit;
  /// SACK window and delay-ring sizing.
  std::size_t sack_window_words = 16;
  std::size_t max_delay_samples = 64;
  net::SimTime report_interval = net::from_millis(20);
  /// Stop emitting reports after this time (0 = run forever — note a
  /// forever-recurring event keeps Simulator::run() from terminating;
  /// pair 0 with run_until()).
  net::SimTime stop_after = 0;
  /// Shares beyond k on each retransmission (margin per repair).
  int retransmit_extra = 1;
  /// When set, reports are SipHash-tagged and unauthenticated or
  /// tampered reports are rejected (counted in the manager's stats).
  std::optional<crypto::SipHashKey> report_auth_key;
  /// Per-forward-channel risk z_i, ordering unexposed channels on
  /// retransmit (lowest first). Missing entries default to 0 (= prefer
  /// by index).
  std::vector<double> risks;
};

struct ReliableLinkStats {
  std::uint64_t reports_sent = 0;
  std::uint64_t reports_dropped_at_channel = 0;
};

class ReliableLink {
 public:
  /// `forward` are the share channels (sender -> receiver, the same
  /// vector the Sender owns); `feedback` carries reports the other way.
  /// All referents must outlive the link.
  ReliableLink(net::Simulator& sim, proto::Sender& sender,
               proto::Receiver& receiver,
               std::vector<net::ChannelPort*> forward,
               net::ChannelPort& feedback, ReliableLinkConfig config, Rng rng);

  /// Convenience: accept a vector of any concrete port type.
  template <std::derived_from<net::ChannelPort> Ch>
  ReliableLink(net::Simulator& sim, proto::Sender& sender,
               proto::Receiver& receiver, const std::vector<Ch*>& forward,
               net::ChannelPort& feedback, ReliableLinkConfig config, Rng rng)
      : ReliableLink(
            sim, sender, receiver,
            std::vector<net::ChannelPort*>(forward.begin(), forward.end()),
            feedback, std::move(config), rng) {}

  ReliableLink(const ReliableLink&) = delete;
  ReliableLink& operator=(const ReliableLink&) = delete;

  /// Downstream delivery callback (the link wraps the Receiver's own).
  void set_deliver(proto::Receiver::DeliverFn fn) {
    deliver_ = std::move(fn);
  }

  [[nodiscard]] RetransmitManager& manager() noexcept {
    return arq_.manager();
  }
  [[nodiscard]] const RetransmitManager& manager() const noexcept {
    return arq_.manager();
  }
  [[nodiscard]] const ReliableLinkStats& stats() const noexcept {
    return stats_;
  }

 private:
  /// The periodic report; re-arms itself until stop_after.
  void tick_report();
  /// Send the Arq's next report onto the feedback channel.
  void send_report();

  net::Simulator& sim_;
  ReliableLinkConfig config_;
  const proto::Receiver& receiver_;
  net::ChannelPort& feedback_;
  proto::Receiver::DeliverFn deliver_;
  ArqDriver driver_;
  Arq arq_;
  ReliableLinkStats stats_;
};

}  // namespace mcss::feedback
