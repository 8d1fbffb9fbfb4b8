// A report target for the report-datagram tests: the session
// endpoint's demux is the one report-datagram decoder, so the tests
// feed datagrams to a virtual-time endpoint whose flow has packets out.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include <gtest/gtest.h>

#include "crypto/siphash.hpp"
#include "feedback/retransmit.hpp"
#include "session/session_endpoint.hpp"

namespace mcss::test {

/// A virtual-time endpoint whose one flow (connection id 1) has packets
/// 1..count outstanding: dispatched at time 0, which never advances, so
/// their shares stay on the channel and only injected reports ack them.
/// `key` set = reports must carry its tag.
inline std::unique_ptr<session::SessionEndpoint> report_target(
    const crypto::SipHashKey* key, feedback::RetransmitConfig retransmit = {},
    int count = 0) {
  session::SessionConfig config;
  config.virtual_time = true;
  config.channels.push_back({net::ChannelConfig{.rate_bps = 10e6}, "ch0"});
  config.kappa = 1.0;
  config.mu = 1.0;
  config.reliability.enabled = true;
  config.reliability.retransmit = retransmit;
  if (key != nullptr) config.reliability.report_auth_key = *key;
  auto ep = std::make_unique<session::SessionEndpoint>(std::move(config));
  const std::uint32_t cid = ep->open_flow().value();
  for (int i = 0; i < count; ++i) {
    EXPECT_TRUE(ep->send(cid, {1}));
    ep->run_for(0);
  }
  EXPECT_EQ(ep->now_ns(), 0);
  return ep;
}

}  // namespace mcss::test
