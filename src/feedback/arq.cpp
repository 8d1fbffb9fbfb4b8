#include "feedback/arq.hpp"

#include <algorithm>
#include <utility>

#include "protocol/scheduler.hpp"
#include "util/ensure.hpp"

namespace mcss::feedback {

Arq::Arq(const ArqDriver& driver, std::uint32_t cid,
         RetransmitConfig retransmit, ReportBuilderConfig report, Rng rng)
    : driver_(driver),
      cid_(cid),
      builder_(report),
      manager_(driver.timeline, retransmit, rng, this) {
  MCSS_ENSURE(driver_.num_channels >= 1 &&
                  driver_.num_channels <=
                      static_cast<int>(proto::ChannelList::kCapacity),
              "ARQ needs 1..32 forward channels");
  MCSS_ENSURE(driver_.retransmit_extra >= 0, "extra shares must be >= 0");
  MCSS_ENSURE(static_cast<bool>(driver_.resend), "ARQ needs a resend hook");
}

void Arq::on_sent(std::uint64_t id, int k,
                  std::span<const std::uint8_t> payload,
                  std::span<const int> channels, std::int64_t now) {
  manager_.on_packet_sent(id, k, payload, channels, now);
}

void Arq::on_report(const ReceiverReport& report, std::int64_t now) {
  manager_.on_report(report, now);
}

bool Arq::on_delivered(std::uint64_t id, std::int64_t now) {
  builder_.on_delivered(id, now);
  return builder_.report_due();
}

std::vector<std::uint8_t> Arq::report(std::int64_t now,
                                      const util::IdWindow& delivered) {
  ReceiverReport report = builder_.build(now, delivered);
  report.connection_id = cid_;
  return encode_report(report, driver_.report_key);
}

void Arq::resend(std::uint64_t id, std::uint8_t generation,
                 const std::vector<std::uint8_t>& payload, int k) {
  const int n = driver_.num_channels;
  const std::uint32_t exposure = manager_.exposure_mask(id).value_or(0);
  const auto risk = [&](int i) {
    return static_cast<std::size_t>(i) < driver_.risks.size()
               ? driver_.risks[static_cast<std::size_t>(i)]
               : 0.0;
  };
  proto::ChannelList order;
  for (int i = 0; i < n; ++i) order.push_back(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const bool ea = (exposure >> a) & 1u;
    const bool eb = (exposure >> b) & 1u;
    if (ea != eb) return ea;
    if (risk(a) != risk(b)) return risk(a) < risk(b);
    return a < b;
  });
  order.truncate(
      static_cast<std::size_t>(std::min(n, k + driver_.retransmit_extra)));

  driver_.resend(cid_, id, generation, payload, k, std::as_const(order));
  manager_.note_exposure(id, std::as_const(order));
}

void Arq::after_timeout() {
  if (driver_.after_timeout) driver_.after_timeout(cid_);
}

}  // namespace mcss::feedback
