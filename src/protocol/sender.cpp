#include "protocol/sender.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/scope_timer.hpp"
#include "obs/trace.hpp"
#include "protocol/wire.hpp"
#include "util/ensure.hpp"

namespace mcss::proto {

namespace {

/// Wall-clock cost of one Shamir split; invalid (observe is a no-op)
/// while metrics are disabled, so the hot path pays one branch.
obs::HistogramId split_hist() {
  if (!obs::metrics_enabled()) return {};
  return obs::Registry::global().histogram("mcss_sender_split_seconds",
                                           obs::exp_bounds(1e-8, 4.0, 16));
}

}  // namespace

void publish(obs::Registry& registry, const SenderStats& stats) {
  const auto add = [&](std::string_view name, std::uint64_t value) {
    registry.add(registry.counter(name), value);
  };
  add("mcss_sender_packets_offered", stats.packets_offered);
  add("mcss_sender_packets_rejected", stats.packets_rejected);
  add("mcss_sender_packets_sent", stats.packets_sent);
  add("mcss_sender_shares_sent", stats.shares_sent);
  add("mcss_sender_shares_dropped_at_channel",
      stats.shares_dropped_at_channel);
  add("mcss_sender_packets_retransmitted", stats.packets_retransmitted);
  add("mcss_sender_shares_retransmitted", stats.shares_retransmitted);
  registry.set(registry.gauge("mcss_sender_achieved_kappa"),
               stats.achieved_kappa());
  registry.set(registry.gauge("mcss_sender_achieved_mu"),
               stats.achieved_mu());
}

void Sender::publish_metrics(obs::Registry& registry) const {
  publish(registry, stats_);
  scheduler_->publish_metrics(registry);
}

Sender::Sender(net::Simulator& sim, std::vector<net::ChannelPort*> channels,
               std::unique_ptr<ShareScheduler> scheduler, Rng rng,
               net::CpuModel* cpu, SenderConfig config)
    : sim_(sim),
      channels_(std::move(channels)),
      scheduler_(std::move(scheduler)),
      rng_(rng),
      cpu_(cpu),
      config_(config) {
  MCSS_ENSURE(!channels_.empty(), "sender needs at least one channel");
  MCSS_ENSURE(channels_.size() <= 32, "at most 32 channels");
  MCSS_ENSURE(scheduler_ != nullptr, "sender needs a scheduler");
  for (net::ChannelPort* ch : channels_) {
    MCSS_ENSURE(ch != nullptr, "null channel");
    ch->set_writable_callback([this] { pump(); });
  }
}

bool Sender::send(std::vector<std::uint8_t> payload) {
  ++stats_.packets_offered;
  MCSS_ENSURE(payload.size() <= kMaxPayload, "packet exceeds maximum payload");
  if (queue_.size() >= config_.max_queue_packets) {
    ++stats_.packets_rejected;
    return false;
  }
  queue_.push_back(std::move(payload));
  pump();
  return true;
}

void Sender::pump() {
  while (!queue_.empty()) {
    // CPU pacing: never run ahead of the host's splitting capacity.
    if (cpu_ != nullptr && !cpu_->config().unlimited &&
        cpu_->busy_until() > sim_.now()) {
      if (!pump_scheduled_) {
        pump_scheduled_ = true;
        sim_.schedule_at(cpu_->busy_until(), [this] {
          pump_scheduled_ = false;
          pump();
        });
      }
      return;
    }

    std::vector<ChannelView> view(channels_.size());
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      view[i] = {channels_[i]->ready(), channels_[i]->backlog_time()};
    }
    const auto decision = scheduler_->next(view);
    if (!decision) {
      if (obs::trace_enabled()) {
        obs::Tracer::global().instant("schedule_defer", "sender", sim_.now(),
                                      0, "queued", queue_.size());
      }
      return;  // wait for a writability event
    }

    std::vector<std::uint8_t> payload = std::move(queue_.front());
    queue_.pop_front();
    dispatch(std::move(payload), *decision);
  }
}

void Sender::dispatch(std::vector<std::uint8_t> payload,
                      const ShareDecision& decision) {
  const int m = static_cast<int>(decision.channels.size());
  const int k = decision.k;
  MCSS_INVARIANT(k >= 1 && k <= m, "scheduler produced invalid (k, m)");

  const std::uint64_t id = next_packet_id_++;
  ++stats_.packets_sent;
  stats_.sum_k += k;
  stats_.sum_m += m;

  const net::SimTime now = sim_.now();
  if (obs::trace_enabled()) {
    // Packet lifecycle span; the receiver ends it at delivery. The
    // schedule decision rides along as args.
    obs::Tracer::global().async_begin("packet", "packet", id, now, "k",
                                      static_cast<std::uint64_t>(k), "m",
                                      static_cast<std::uint64_t>(m));
  }

  // Charge the host for the split before the shares can leave.
  net::SimTime ready_at = now;
  if (cpu_ != nullptr) {
    ready_at = cpu_->submit(cpu_->split_ops(k, m));
  }

  auto frames = write_frames(id, k, payload, decision.channels.size());
  if (obs::trace_enabled()) {
    // Sim-time cost of the split: the CPU-model charge (zero without a
    // CPU model, where splitting is instantaneous in sim time).
    obs::Tracer::global().complete("split", "sender", now,
                                   std::max<net::SimTime>(0, ready_at - now),
                                   id, "k", static_cast<std::uint64_t>(k),
                                   "m", static_cast<std::uint64_t>(m));
  }
  for (int j = 0; j < m; ++j) {
    auto& bytes = frames[static_cast<std::size_t>(j)];
    const auto ch_index =
        static_cast<std::size_t>(decision.channels[static_cast<std::size_t>(j)]);
    net::ChannelPort* ch = channels_[ch_index];
    ++stats_.shares_sent;
    const std::uint64_t span =
        obs::share_span_id(id, static_cast<std::uint8_t>(j + 1));
    if (obs::trace_enabled()) {
      // Share lifecycle span: enqueue here, ended at the receiver (or
      // never, for shares the network loses).
      obs::Tracer::global().async_begin("share", "share", span, now,
                                        "channel", ch_index);
    }
    if (ready_at <= sim_.now()) {
      if (!ch->try_send(std::move(bytes))) {
        ++stats_.shares_dropped_at_channel;
        if (obs::trace_enabled()) {
          obs::Tracer::global().async_end("share", "share", span, sim_.now());
        }
      }
    } else {
      sim_.schedule_at(ready_at,
                       [this, ch, span, b = std::move(bytes)]() mutable {
        if (!ch->try_send(std::move(b))) {
          ++stats_.shares_dropped_at_channel;
          if (obs::trace_enabled()) {
            obs::Tracer::global().async_end("share", "share", span,
                                            sim_.now());
          }
        }
      });
    }
  }
}

std::vector<std::vector<std::uint8_t>> Sender::write_frames(
    std::uint64_t id, int k, std::span<const std::uint8_t> payload,
    std::size_t m) {
  const crypto::SipHashKey* key =
      config_.auth_key ? &*config_.auth_key : nullptr;
  MCSS_ENSURE(m <= kMaxSharesPerPacket, "at most one share per channel");
  std::vector<std::vector<std::uint8_t>> frames(
      m, std::vector<std::uint8_t>(
             encoded_size(payload.size(), /*generation=*/0, key != nullptr)));
  std::array<std::span<std::uint8_t>, kMaxSharesPerPacket> spans;
  for (std::size_t j = 0; j < m; ++j) spans[j] = frames[j];
  obs::ScopeTimer split_timer(split_hist());
  write_shares({.packet_id = id, .k = static_cast<std::uint8_t>(k)},
               payload, std::span(spans).first(m), key, split_scratch_, rng_);
  return frames;
}

}  // namespace mcss::proto
