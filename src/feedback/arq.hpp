// One flow's ARQ: what session::SessionEndpoint, the one ARQ driver,
// runs per flow on sockets and on virtual time alike.
//
// An Arq holds a flow's ReportBuilder and RetransmitManager and does
// what the driver needs of them:
//   - the RTO timers: the manager gives each outstanding packet its own
//     timer on the driver's net::Simulator (the endpoint's wall-driven
//     or virtual timeline), and the packet's close or the manager's
//     destruction takes it back, and it calls its Arq back to resend and
//     to run the driver's after-timeout hook;
//   - the retransmit channel order: channels the packet already exposed
//     first (re-using them cannot widen what an eavesdropper saw), then
//     ascending risk, index as the tiebreak;
//   - report build + encode, and the early report a delivery makes due;
//   - ingest of reports the driver's demux decoded for this flow.
// It has no sockets and reads no clock. The hooks live in an ArqDriver
// all of one driver's Arqs share, so a flow pays a pointer for them.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "crypto/siphash.hpp"
#include "feedback/report.hpp"
#include "feedback/report_builder.hpp"
#include "feedback/retransmit.hpp"
#include "net/simulator.hpp"
#include "util/rng.hpp"

namespace mcss::feedback {

/// What one driver's Arqs share: its timer queue, forward channels,
/// report key and hooks. The driver owns it; it must outlive them.
struct ArqDriver {
  net::Simulator& timeline;
  /// Forward (share) channels, 1..32.
  int num_channels = 1;
  /// Shares beyond k on each retransmission.
  int retransmit_extra = 1;
  /// Per-channel risk z_i ordering unexposed channels on retransmit;
  /// missing entries count as 0 (index order).
  std::span<const double> risks;
  /// Tags outgoing reports and authenticates incoming ones; null =
  /// unauthenticated reports.
  const crypto::SipHashKey* report_key = nullptr;
  /// Re-split packet `id` of flow `cid` under threshold k with FRESH
  /// randomness, tag it `generation`, and send share j on channels[j].
  std::function<void(std::uint32_t cid, std::uint64_t id,
                     std::uint8_t generation,
                     std::span<const std::uint8_t> payload, int k,
                     std::span<const int> channels)>
      resend;
  /// After one of flow `cid`'s RTO timers fired, which may have closed
  /// its packet; may be empty.
  std::function<void(std::uint32_t cid)> after_timeout;
};

class Arq {
 public:
  /// `cid` scopes the flow's reports (0 = the single-flow encoding).
  Arq(const ArqDriver& driver, std::uint32_t cid, RetransmitConfig retransmit,
      ReportBuilderConfig report, Rng rng);

  Arq(const Arq&) = delete;
  Arq& operator=(const Arq&) = delete;

  // ------------------------------------------------------ sender side

  /// Track a freshly dispatched packet and arm its RTO timer.
  void on_sent(std::uint64_t id, int k, std::span<const std::uint8_t> payload,
               std::span<const int> channels, std::int64_t now);

  /// Ingest one report already demultiplexed to this flow.
  void on_report(const ReceiverReport& report, std::int64_t now);

  // ---------------------------------------------------- receiver side

  /// Record a delivery. True when a report is due now, ahead of the
  /// driver's periodic one: the deliveries since the last report reach
  /// half the SACK window, which would otherwise slide past ids no
  /// report acked.
  [[nodiscard]] bool on_delivered(std::uint64_t id, std::int64_t now);

  /// Build and encode the next report (tagged under the driver's key)
  /// from the flow receiver's `delivered` window.
  [[nodiscard]] std::vector<std::uint8_t> report(
      std::int64_t now, const util::IdWindow& delivered);

  [[nodiscard]] RetransmitManager& manager() noexcept { return manager_; }
  [[nodiscard]] const RetransmitManager& manager() const noexcept {
    return manager_;
  }
  [[nodiscard]] const ReportBuilder& builder() const noexcept {
    return builder_;
  }

 private:
  friend class RetransmitManager;

  /// The manager's retransmit: order the channels, have the driver
  /// resend on the first k + retransmit_extra, widen exposure.
  void resend(std::uint64_t id, std::uint8_t generation,
              const std::vector<std::uint8_t>& payload, int k);
  /// Run by the manager after each RTO fired.
  void after_timeout();

  const ArqDriver& driver_;
  std::uint32_t cid_;
  ReportBuilder builder_;
  RetransmitManager manager_;
};

}  // namespace mcss::feedback
