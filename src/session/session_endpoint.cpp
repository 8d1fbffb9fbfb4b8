#include "session/session_endpoint.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "feedback/report.hpp"
#include "obs/metrics.hpp"
#include "protocol/wire.hpp"
#include "sss/shamir.hpp"
#include "transport/wall_clock.hpp"
#include "util/ensure.hpp"

namespace mcss::session {

namespace {

/// Admission prices a flow against the CANONICAL wire overhead of its
/// declared payload: header + connection id + tag, times the share
/// multiplicity mu (each source packet fans out to ~mu shares of payload
/// size). Generations are excluded — retransmissions are the exception,
/// not the booked rate.
constexpr std::size_t kPricedOverhead =
    proto::kHeaderSize + proto::kConnectionIdSize + proto::kTagSize;

/// A send stamp whose packet was delivered (stamps are never negative).
constexpr std::int64_t kDelivered = -1;

/// open_flow() costs kept for setup_latency_seconds(), and their seed.
constexpr std::size_t kSetupLatencySamples = 4096;
constexpr std::uint64_t kSetupLatencySeed = 1;

}  // namespace

std::uint16_t port_base_from_env(std::uint16_t fallback) {
  const char* env = std::getenv("MCSS_LIVE_PORT_BASE");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long v = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0' || v > 65535) return fallback;
  return static_cast<std::uint16_t>(v);
}

SessionEndpoint::SessionEndpoint(SessionConfig config)
    : config_(std::move(config)),
      epoch_ns_(transport::monotonic_ns()),
      rng_(config_.seed),
      setup_latency_(PercentileTracker::reservoir(kSetupLatencySamples,
                                                  kSetupLatencySeed)) {
  MCSS_ENSURE(!config_.channels.empty(), "session endpoint needs channels");
  MCSS_ENSURE(config_.channels.size() <= 32, "at most 32 channels");
  MCSS_ENSURE(config_.send_batch >= 1 && config_.recv_batch >= 1,
              "batch depths must be at least 1");
  MCSS_ENSURE(config_.limits.max_flows >= 1, "max_flows must be at least 1");
  MCSS_ENSURE(config_.limits.admission_headroom > 0.0,
              "admission headroom must be positive");
  if (config_.port_base != 0) {
    // Channel i binds port_base + i, plus one feedback lane when
    // reliability is on. uint16_t arithmetic would otherwise wrap
    // silently and bind a channel at a low port (or 0 = ephemeral).
    const std::size_t last_lane = config_.channels.size() -
                                  (config_.reliability.enabled ? 0 : 1);
    MCSS_ENSURE(static_cast<std::size_t>(config_.port_base) + last_lane <=
                    65535,
                "port_base + channels (and feedback lane) exceeds 65535: "
                "the port range would wrap");
  }

  // One arena for everything: TX encode slots, frames parked at the
  // impairment serializer, and per-flow reassembly partials. The
  // auto-size leaves slack for partials, because flows borrow slots for
  // as long as a partial is open.
  {
    const std::size_t slot_bytes =
        config_.pool_slot_bytes != 0
            ? config_.pool_slot_bytes
            : std::max<std::size_t>(2048, 2 * config_.max_datagram_bytes);
    const std::size_t lanes = config_.channels.size() +
                              (config_.reliability.enabled ? 1 : 0);
    const std::size_t slots =
        config_.pool_slots != 0
            ? config_.pool_slots
            : lanes * (config_.recv_batch + 4 * config_.send_batch) + 256;
    pool_ = std::make_unique<util::FramePool>(slot_bytes, slots);
  }

  budget_bytes_per_s_ = 0.0;
  for (const auto& spec : config_.channels) {
    budget_bytes_per_s_ += spec.config.rate_bps / 8.0;
  }
  budget_bytes_per_s_ *= config_.limits.admission_headroom;

  // Every flow's receiver is keyed alike (a caller-set receiver key wins
  // over the wire key), so one key authenticates whole receive batches
  // before the demux.
  rx_key_ = config_.receiver.auth_key ? config_.receiver.auth_key
                                      : config_.auth_key;
  rx_views_.reserve(config_.recv_batch * transport::UdpChannel::kFramesPerSlot);
  rx_status_.reserve(rx_views_.capacity());
  channels_.reserve(config_.channels.size());
  write_interest_.assign(config_.channels.size(), false);
  for (std::size_t i = 0; i < config_.channels.size(); ++i) {
    const auto& spec = config_.channels[i];
    const std::uint16_t port =
        config_.port_base != 0
            ? static_cast<std::uint16_t>(config_.port_base + i)
            : 0;
    auto ch = std::make_unique<transport::UdpChannel>(
        spec.config, rng_.fork(), timeline_, *pool_, port, spec.name,
        config_.max_datagram_bytes, config_.send_batch, config_.recv_batch);
    ch->set_on_batch(
        [this, i](std::span<const std::span<const std::uint8_t>> frames) {
          on_share_batch(i, frames);
        });
    poller_.add(ch->rx_fd(), /*want_read=*/true, /*want_write=*/false);
    poller_.add(ch->tx_fd(), /*want_read=*/false, /*want_write=*/false);
    fd_to_channel_[ch->rx_fd()] = i;
    fd_to_channel_[ch->tx_fd()] = i;
    channels_.push_back(std::move(ch));
  }

  if (config_.reliability.enabled) {
    const std::size_t n = channels_.size();
    const std::uint16_t fb_port =
        config_.port_base != 0
            ? static_cast<std::uint16_t>(config_.port_base + n)
            : 0;
    feedback_ch_ = std::make_unique<transport::UdpChannel>(
        config_.reliability.feedback_channel, rng_.fork(), timeline_, *pool_,
        fb_port, "feedback", config_.max_datagram_bytes, config_.send_batch,
        config_.recv_batch);
    feedback_ch_->set_on_batch(
        [this](std::span<const std::span<const std::uint8_t>> datagrams) {
          for (const auto datagram : datagrams) {
            on_feedback_datagram(datagram, now_ns());
          }
        });
    poller_.add(feedback_ch_->rx_fd(), /*want_read=*/true,
                /*want_write=*/false);
    poller_.add(feedback_ch_->tx_fd(), /*want_read=*/false,
                /*want_write=*/false);
    fd_to_channel_[feedback_ch_->rx_fd()] = n;
    fd_to_channel_[feedback_ch_->tx_fd()] = n;

    MCSS_ENSURE(config_.reliability.report_interval_ns > 0,
                "report interval must be positive");
    timeline_.schedule_at(now_ns() + config_.reliability.report_interval_ns,
                          [this] { emit_reports(); });
  }

  if (config_.telemetry.enabled) init_telemetry();
}

void SessionEndpoint::init_telemetry() {
  obs::runtime::RuntimeTelemetryConfig tcfg = config_.telemetry;
  if (tcfg.privacy.channel_risks.empty()) {
    // Uniform adversary prior: z_i = 0.1 per channel. Relative signals
    // (widening, degradations) are meaningful under any positive prior;
    // scenarios with real per-channel compromise probabilities override.
    tcfg.privacy.channel_risks.assign(channels_.size(), 0.1);
  }
  telemetry_ = std::make_unique<obs::runtime::RuntimeTelemetry>(tcfg);
  telemetry_->server().set_fd_hooks(
      [this](int fd, bool r, bool w) { poller_.add(fd, r, w); },
      [this](int fd, bool r, bool w) { poller_.modify(fd, r, w); },
      [this](int fd) { poller_.remove(fd); });
  telemetry_->sampler().set_flow_probes(
      [this](std::vector<std::uint32_t>& out) {
        out.clear();
        out.reserve(flows_.size());
        for (const auto& [cid, flow] : flows_) {
          (void)flow;
          out.push_back(cid);
        }
      },
      [this](std::uint32_t cid, obs::runtime::FlowSample& out) {
        return probe_flow(cid, out);
      });
  telemetry_->sampler().set_publish(
      [this](obs::Registry& registry) { publish_runtime_metrics(registry); });
  arm_sampler_timer();
}

void SessionEndpoint::arm_sampler_timer() {
  // The timer never does sampler work itself — run_for polls the
  // sampler every iteration. It exists to bound the poller sleep so an
  // idle endpoint still wakes to take (and finish) samples on time.
  const std::int64_t now = now_ns();
  const std::int64_t due = telemetry_->sampler().sampling()
                               ? now + 1'000'000
                               : telemetry_->sampler().next_due_ns(now);
  timeline_.schedule_at(std::max(due, now + 1),
                        [this] { arm_sampler_timer(); });
}

SessionEndpoint::~SessionEndpoint() = default;

std::int64_t SessionEndpoint::now_ns() const {
  return transport::monotonic_ns() - epoch_ns_;
}

double SessionEndpoint::price_flow(const FlowParams& params) const noexcept {
  const double mu = params.mu.value_or(config_.mu);
  const double frame_bytes =
      static_cast<double>(params.payload_bytes + kPricedOverhead);
  return params.rate_pps * mu * frame_bytes;
}

std::optional<std::uint32_t> SessionEndpoint::open_flow(
    const FlowParams& params) {
  const std::int64_t t0 = transport::monotonic_ns();
  if (flows_.size() >= config_.limits.max_flows) {
    ++stats_.flows_rejected_capacity;
    return std::nullopt;
  }
  const double price = price_flow(params);
  if (admitted_bytes_per_s_ + price > budget_bytes_per_s_) {
    ++stats_.flows_rejected_rate;
    return std::nullopt;
  }

  std::uint32_t cid = next_cid_;
  while (cid == 0 || flows_.count(cid) != 0) ++cid;  // 0 is the no-flow id
  next_cid_ = cid + 1;

  proto::ReceiverConfig rc = config_.receiver;
  rc.memory_limit_bytes = config_.limits.per_flow_memory_bytes;
  rc.arena = pool_.get();
  rc.auth_key = rx_key_;

  Flow& flow =
      flows_
          .try_emplace(cid, cid, params, price, timeline_, std::move(rc),
                       params.kappa.value_or(config_.kappa),
                       params.mu.value_or(config_.mu),
                       static_cast<int>(channels_.size()),
                       config_.limits.max_queue_packets, now_ns())
          .first->second;
  flow.receiver.set_deliver(
      [this, cid](std::uint64_t id, std::vector<std::uint8_t> payload) {
        on_delivered(cid, id, std::move(payload));
      });
  if (config_.reliability.enabled) {
    flow.builder.emplace(feedback::ReportBuilderConfig{
        .num_channels = channels_.size(),
        .sack_window_words = config_.reliability.sack_window_words,
        .max_delay_samples = config_.reliability.max_delay_samples});
    flow.manager.emplace(config_.reliability.retransmit, rng_.fork());
    flow.manager->set_retransmit(
        [this, cid](std::uint64_t id, std::uint8_t generation,
                    const std::vector<std::uint8_t>& payload, int k) {
          resend(cid, id, generation, payload, k);
        });
  }

  admitted_bytes_per_s_ += price;
  ++stats_.flows_opened;
  const std::int64_t setup_ns = transport::monotonic_ns() - t0;
  setup_latency_.add(static_cast<double>(setup_ns) / 1e9);
  if (obs::metrics_enabled()) {
    obs::Registry& registry = obs::Registry::global();
    static const obs::HistogramId open_id = registry.histogram(
        "mcss_session_open_flow_us", obs::exp_bounds(1.0, 2.0, 16));
    registry.observe(open_id, static_cast<double>(setup_ns) / 1e3);
  }
  return cid;
}

bool SessionEndpoint::close_flow(std::uint32_t cid) {
  const auto it = flows_.find(cid);
  if (it == flows_.end()) return false;
  Flow& flow = it->second;
  // Cancel-by-handle keeps the shared timeline from firing into freed
  // per-flow state; the Receiver's destructor cancels its eviction
  // timers the same way.
  timeline_.cancel(flow.rto_timer);
  fold_closed(flow);
  unlink_ready(flow);
  unlink_report(flow);
  admitted_bytes_per_s_ =
      std::max(0.0, admitted_bytes_per_s_ - flow.admitted_bytes_per_s);
  ++stats_.flows_closed;
  flows_.erase(it);
  return true;
}

bool SessionEndpoint::send(std::uint32_t cid,
                           std::vector<std::uint8_t> payload) {
  const auto it = flows_.find(cid);
  if (it == flows_.end()) return false;
  Flow& flow = it->second;
  ++flow.sender_stats.packets_offered;
  MCSS_ENSURE(payload.size() <= proto::kMaxPayload,
              "packet exceeds maximum payload");
  if (flow.queue.full()) {
    ++flow.sender_stats.packets_rejected;
    ++stats_.queue_rejects;
    return false;
  }
  flow.queue.push_back(std::move(payload));
  push_ready(flow);
  return true;
}

void SessionEndpoint::push_ready(Flow& flow) {
  if (flow.in_ready) return;
  flow.in_ready = true;
  flow.ready_prev = ready_tail_;
  flow.ready_next = nullptr;
  if (ready_tail_ != nullptr) {
    ready_tail_->ready_next = &flow;
  } else {
    ready_head_ = &flow;
  }
  ready_tail_ = &flow;
}

void SessionEndpoint::unlink_ready(Flow& flow) {
  if (!flow.in_ready) return;
  if (flow.ready_prev != nullptr) {
    flow.ready_prev->ready_next = flow.ready_next;
  } else {
    ready_head_ = flow.ready_next;
  }
  if (flow.ready_next != nullptr) {
    flow.ready_next->ready_prev = flow.ready_prev;
  } else {
    ready_tail_ = flow.ready_prev;
  }
  flow.ready_prev = flow.ready_next = nullptr;
  flow.in_ready = false;
}

void SessionEndpoint::push_report(Flow& flow) {
  if (flow.in_report) return;
  flow.in_report = true;
  flow.report_prev = report_tail_;
  flow.report_next = nullptr;
  if (report_tail_ != nullptr) {
    report_tail_->report_next = &flow;
  } else {
    report_head_ = &flow;
  }
  report_tail_ = &flow;
}

void SessionEndpoint::unlink_report(Flow& flow) {
  if (!flow.in_report) return;
  if (flow.report_prev != nullptr) {
    flow.report_prev->report_next = flow.report_next;
  } else {
    report_head_ = flow.report_next;
  }
  if (flow.report_next != nullptr) {
    flow.report_next->report_prev = flow.report_prev;
  } else {
    report_tail_ = flow.report_prev;
  }
  flow.report_prev = flow.report_next = nullptr;
  flow.in_report = false;
}

void SessionEndpoint::pump(std::int64_t now) {
  std::size_t budget = config_.limits.max_dispatch_per_pump;
  while (ready_head_ != nullptr && budget > 0) {
    // Pool backpressure: a dispatch fans out to at most one share per
    // channel; without headroom, leave packets queued (flows stay on
    // the ready list) and let departures free slots.
    if (pool_->available() < channels_.size()) {
      ++stats_.pool_defers;
      return;
    }
    view_scratch_.resize(channels_.size());
    for (std::size_t i = 0; i < channels_.size(); ++i) {
      view_scratch_[i] = {channels_[i]->ready(now),
                          channels_[i]->backlog_ns(now)};
    }
    Flow& flow = *ready_head_;
    const auto decision = flow.scheduler.next(view_scratch_);
    if (!decision) {
      // DynamicScheduler defers only when no channel is writable — a
      // condition shared by every flow, so stop the round entirely.
      ++stats_.schedule_defers;
      return;
    }
    std::vector<std::uint8_t> payload = std::move(flow.queue.front());
    flow.queue.pop_front();
    // Round-robin fairness: one packet per turn, then to the tail.
    unlink_ready(flow);
    if (!flow.queue.empty()) push_ready(flow);
    dispatch(flow, std::move(payload), *decision, now);
    --budget;
  }
}

void SessionEndpoint::dispatch(Flow& flow, std::vector<std::uint8_t> payload,
                               const proto::ShareDecision& decision,
                               std::int64_t now) {
  const int m = static_cast<int>(decision.channels.size());
  const int k = decision.k;
  MCSS_INVARIANT(k >= 1 && k <= m, "scheduler produced invalid (k, m)");

  const std::uint64_t id = flow.next_packet_id++;
  ++flow.sender_stats.packets_sent;
  flow.sender_stats.sum_k += k;
  flow.sender_stats.sum_m += m;
  ++stats_.packets_sent;
  // Amortized stamp pruning: forget delivered sends and sends the flow's
  // receiver can no longer deliver, so a lossy flow's stamp ring stays
  // bounded. Pruning first lets a warm ring take the new stamp in place.
  const std::int64_t horizon =
      now - 4 * std::max<std::int64_t>(config_.receiver.reassembly_timeout, 1);
  while (!flow.sent_ns.empty() && (flow.sent_ns.front() == kDelivered ||
                                   flow.sent_ns.front() < horizon)) {
    flow.sent_ns.pop_front();
    ++flow.sent_base;
  }
  if (flow.sent_ns.empty()) flow.sent_base = id;
  flow.sent_ns.push_back(now);
  if (flow.manager) {
    flow.manager->on_packet_sent(id, k, payload, decision.channels, now);
    arm_rto(flow);
  }
  emit(flow, id, /*generation=*/0, k, decision.channels, payload, now);
}

void SessionEndpoint::resend(std::uint32_t cid, std::uint64_t id,
                             std::uint8_t generation,
                             const std::vector<std::uint8_t>& payload, int k) {
  const auto it = flows_.find(cid);
  if (it == flows_.end()) return;
  Flow& flow = it->second;
  const int n = static_cast<int>(channels_.size());
  const int m = std::min(n, k + config_.reliability.retransmit_extra);
  const std::uint32_t exposure = flow.manager->exposure_mask(id).value_or(0);

  // Privacy-aware channel choice: channels the adversary model already
  // counts as exposed first (free for it), then unexposed ones, each in
  // index order — ReliableLink's order with an empty risk vector.
  proto::ChannelList order;
  for (int i = 0; i < n; ++i) {
    if ((exposure >> i) & 1u) order.push_back(i);
  }
  for (int i = 0; i < n; ++i) {
    if (((exposure >> i) & 1u) == 0) order.push_back(i);
  }
  order.truncate(static_cast<std::size_t>(m));

  ++flow.sender_stats.packets_retransmitted;
  emit(flow, id, generation, k, order, payload, now_ns());
  flow.manager->note_exposure(id, std::as_const(order));
}

void SessionEndpoint::emit(Flow& flow, std::uint64_t id,
                           std::uint8_t generation, int k,
                           const proto::ChannelList& channels,
                           std::span<const std::uint8_t> payload,
                           std::int64_t now) {
  const auto m = static_cast<std::uint64_t>(channels.size());
  if (generation == 0) {
    flow.sender_stats.shares_sent += m;
  } else {
    flow.sender_stats.shares_retransmitted += m;
  }
  const bool keyed = config_.auth_key.has_value();
  const std::size_t need =
      proto::encoded_size(payload.size(), generation, keyed, flow.cid);
  if (need > pool_->slot_bytes()) {
    // A frame too large for the arena cannot travel the pooled path;
    // degrade is drop-with-stat (size the pool for your payloads).
    stats_.pool_oversize_drops += m;
    flow.sender_stats.shares_dropped_at_channel += m;
    return;
  }
  tx_slots_.clear();
  tx_spans_.clear();
  for (std::size_t j = 0; j < channels.size(); ++j) {
    util::FrameRef slot = pool_->acquire();
    if (!slot) break;  // only a retransmission runs outside the pump's gate
    slot.resize(need);
    proto::FrameMeta meta;
    meta.packet_id = id;
    meta.k = static_cast<std::uint8_t>(k);
    meta.share_index = static_cast<std::uint8_t>(j + 1);
    meta.generation = generation;
    meta.connection_id = flow.cid;
    const std::size_t off =
        proto::encode_header_into(meta, payload.size(), slot.span(), keyed);
    tx_spans_.push_back(slot.span().subspan(off, payload.size()));
    tx_slots_.push_back(std::move(slot));
  }
  // Shares that got no slot are lost. Fewer than k cannot reconstruct,
  // so then none is sent (the acquired slots return to the pool).
  const std::size_t got =
      tx_slots_.size() >= static_cast<std::size_t>(k) ? tx_slots_.size() : 0;
  flow.sender_stats.shares_dropped_at_channel += m - got;
  if (got == 0) {
    tx_slots_.clear();
    tx_spans_.clear();
    return;
  }
  sss::split_into(payload, k, tx_spans_, split_scratch_, rng_);
  if (keyed) {
    // The payload windows are spent: the same vector now names the whole
    // frames, and one lane pass tags them all.
    for (std::size_t j = 0; j < got; ++j) tx_spans_[j] = tx_slots_[j].span();
    proto::seal_frames(tx_spans_, *config_.auth_key);
  }
  for (std::size_t j = 0; j < got; ++j) {
    const auto ch = static_cast<std::size_t>(channels[j]);
    if (!channels_[ch]->try_send(std::move(tx_slots_[j]), now)) {
      ++flow.sender_stats.shares_dropped_at_channel;
    }
  }
  tx_slots_.clear();
  tx_spans_.clear();
}

void SessionEndpoint::arm_rto(Flow& flow) {
  const auto deadline = flow.manager->next_deadline();
  if (!deadline) {
    timeline_.cancel(flow.rto_timer);
    flow.rto_timer = {};
    return;
  }
  const std::int64_t when = *deadline;
  if (flow.rto_timer) {
    if (flow.rto_deadline <= when) return;  // armed early enough already
    timeline_.cancel(flow.rto_timer);
  }
  flow.rto_deadline = when;
  const std::uint32_t cid = flow.cid;
  // The callback captures the id, never the Flow: cancel-on-close is the
  // designed teardown path, and the table lookup makes a missed cancel a
  // no-op instead of a use-after-free. An overdue deadline fires on the
  // next advance: schedule_wall clamps it to the timeline's now().
  flow.rto_timer = transport::schedule_wall(timeline_, when, [this, cid] {
    const auto it = flows_.find(cid);
    if (it == flows_.end()) return;
    Flow& f = it->second;
    f.rto_timer = {};
    f.manager->advance(now_ns());
    fold_closed(f);
    arm_rto(f);
  });
}

void SessionEndpoint::on_share_batch(
    std::size_t channel, std::span<const std::span<const std::uint8_t>> frames) {
  // One lane pass frames and authenticates the whole batch BEFORE the
  // demux: the connection id is only trusted once its frame's tag is,
  // so a forged frame reaches no flow — not its receiver, not its
  // per-channel report counters.
  rx_views_.resize(frames.size());
  rx_status_.resize(frames.size());
  proto::decode_views(frames, rx_key_ ? &*rx_key_ : nullptr, rx_views_,
                      rx_status_);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (rx_status_[i] == proto::DecodeStatus::AuthFailed) {
      ++stats_.frames_auth_failed;
      continue;
    }
    if (rx_status_[i] != proto::DecodeStatus::Ok) {
      ++stats_.frames_undecodable;
      continue;
    }
    const proto::FrameView& view = rx_views_[i];
    if (view.connection_id == 0) {
      // Every flow's frames carry its id (cids start at 1); a frame
      // without one has no owner here and is dropped rather than guessed.
      ++stats_.frames_without_connection;
      continue;
    }
    const auto it = flows_.find(view.connection_id);
    if (it == flows_.end()) {
      // Late shares of a closed flow, or an unknown id.
      ++stats_.frames_unknown_connection;
      continue;
    }
    Flow& flow = it->second;
    if (flow.builder) flow.builder->on_channel_frame(channel, true);
    ++stats_.frames_demuxed;
    flow.receiver.on_frame(rx_status_[i], view);
  }
}

void SessionEndpoint::on_delivered(std::uint32_t cid, std::uint64_t id,
                                   std::vector<std::uint8_t> payload) {
  const auto it = flows_.find(cid);
  if (it == flows_.end()) return;
  Flow& flow = it->second;
  if (id >= flow.sent_base && id - flow.sent_base < flow.sent_ns.size()) {
    std::int64_t& sent = flow.sent_ns[id - flow.sent_base];
    if (sent != kDelivered) {
      if (obs::metrics_enabled()) {
        obs::Registry& registry = obs::Registry::global();
        static const obs::HistogramId delay_id = registry.histogram(
            "mcss_session_e2e_delay_seconds", obs::exp_bounds(1e-4, 2.0, 20));
        registry.observe(delay_id, net::to_seconds(now_ns() - sent));
      }
      sent = kDelivered;  // leaves the ring at the next dispatch
    }
  }
  ++stats_.packets_delivered;
  if (flow.builder) {
    flow.builder->on_delivered(id, now_ns());
    if (flow.builder->report_due()) {
      // Ahead of the periodic timer, before the SACK window slides past
      // ids it has not acked yet.
      append_report(flow, now_ns());
      send_report_datagram(now_ns());
    } else {
      push_report(flow);
    }
  }
  if (deliver_) deliver_(cid, id, std::move(payload));
}

void SessionEndpoint::emit_reports() {
  const std::int64_t now = now_ns();
  // Only flows with deliveries since the last report are on the list;
  // idle flows cost nothing. Several flows' reports coalesce into each
  // feedback datagram (the report codec's decode_prefix contract).
  while (report_head_ != nullptr) append_report(*report_head_, now);
  send_report_datagram(now);
  timeline_.schedule_at(now + config_.reliability.report_interval_ns,
                        [this] { emit_reports(); });
}

void SessionEndpoint::append_report(Flow& flow, std::int64_t now) {
  unlink_report(flow);
  feedback::ReceiverReport report = flow.builder->build(now);
  report.connection_id = flow.cid;
  const auto bytes = feedback::encode_report(
      report, config_.reliability.report_auth_key
                  ? &*config_.reliability.report_auth_key
                  : nullptr);
  if (report_datagram_.size() + bytes.size() > config_.max_datagram_bytes) {
    send_report_datagram(now);
  }
  report_datagram_.insert(report_datagram_.end(), bytes.begin(), bytes.end());
  ++stats_.reports_sent;
}

void SessionEndpoint::send_report_datagram(std::int64_t now) {
  if (report_datagram_.empty()) return;
  ++stats_.report_datagrams_sent;
  if (!feedback_ch_->try_send(std::span<const std::uint8_t>(report_datagram_),
                              now)) {
    ++stats_.reports_dropped_at_channel;
  }
  report_datagram_.clear();
}

void SessionEndpoint::on_feedback_datagram(
    std::span<const std::uint8_t> datagram, std::int64_t now) {
  const crypto::SipHashKey* key = config_.reliability.report_auth_key
                                      ? &*config_.reliability.report_auth_key
                                      : nullptr;
  std::span<const std::uint8_t> rest = datagram;
  while (!rest.empty()) {
    std::size_t consumed = 0;
    proto::DecodeStatus status = proto::DecodeStatus::Ok;
    const auto report = feedback::decode_report_prefix(rest, &consumed, key,
                                                       &status);
    if (!report) {
      // A malformed head has no resynchronization point; drop the rest.
      if (status == proto::DecodeStatus::AuthFailed) {
        ++stats_.reports_auth_failed;
      } else {
        ++stats_.reports_malformed;
      }
      return;
    }
    rest = rest.subspan(consumed);
    if (report->connection_id == 0) {
      ++stats_.reports_without_connection;
      continue;
    }
    const auto it = flows_.find(report->connection_id);
    if (it == flows_.end()) {
      ++stats_.reports_unknown_connection;
      continue;
    }
    Flow& flow = it->second;
    if (!flow.manager) continue;
    // The demux is the cross-flow safety property: this report reaches
    // ONLY its own flow's manager, so its SACK bits can never ack (and
    // its generations never supersede) another flow's packet ids.
    flow.manager->on_report(*report, now);
    ++stats_.reports_demuxed;
    fold_closed(flow);
    arm_rto(flow);
  }
}

void SessionEndpoint::update_write_interest() {
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    const bool want = channels_[i]->wants_write();
    if (want != write_interest_[i]) {
      poller_.modify(channels_[i]->tx_fd(), /*want_read=*/false,
                     /*want_write=*/want);
      write_interest_[i] = want;
    }
  }
  if (feedback_ch_) {
    const bool want = feedback_ch_->wants_write();
    if (want != feedback_write_interest_) {
      poller_.modify(feedback_ch_->tx_fd(), /*want_read=*/false,
                     /*want_write=*/want);
      feedback_write_interest_ = want;
    }
  }
}

void SessionEndpoint::run_for(std::int64_t wall_ns) {
  MCSS_ENSURE(wall_ns >= 0, "run_for needs a nonnegative duration");
  const std::int64_t deadline = now_ns() + wall_ns;
  for (;;) {
    const std::int64_t now = now_ns();
    // The loop's one timer advance, after the poller woke (or on entry)
    // and before its events are handled: every handler sees a timeline
    // at `now`, and no timer fires inside a receive loop. Per-flow RTO
    // timers live here too, so this is the ONLY place retransmissions
    // start — no per-flow manager scan anywhere.
    timeline_.run_until(now);
    handle_events(now);
    pump(now);
    for (const auto& ch : channels_) ch->flush(now);
    if (feedback_ch_) feedback_ch_->flush(now);
    update_write_interest();
    if (telemetry_) {
      telemetry_->poll(now_ns());
      telemetry_->health().on_pump(now_ns() - now);
    }
    if (now >= deadline) break;

    // A fresh read, not `now`: a timer the pump or flush above armed
    // may already be due, and it must not wait out a rounded-up 1 ms.
    const std::int64_t wait_start = now_ns();
    const transport::PollWait wait =
        transport::plan_wait(timeline_, wait_start, deadline);
    poller_.wait(wait.timeout_ms, events_);
    if (telemetry_) {
      telemetry_->health().on_wait(wait_start, wait.wake_ns, now_ns());
    }
  }
}

void SessionEndpoint::handle_events(std::int64_t now) {
  for (const transport::Poller::Event& ev : events_) {
    const auto it = fd_to_channel_.find(ev.fd);
    if (it == fd_to_channel_.end()) {
      if (telemetry_) {
        telemetry_->on_poller_event(ev.fd, ev.readable || ev.error,
                                    ev.writable || ev.error);
      }
      continue;
    }
    transport::UdpChannel& ch = it->second < channels_.size()
                                    ? *channels_[it->second]
                                    : *feedback_ch_;
    if (ev.fd == ch.rx_fd() && (ev.readable || ev.error)) {
      ch.on_readable();
    }
    if (ev.fd == ch.tx_fd() && (ev.writable || ev.error)) {
      ch.on_writable(now);
    }
  }
  // Handled once: the loop exits before the next wait() would refill it.
  events_.clear();
}

const proto::Receiver* SessionEndpoint::flow_receiver(
    std::uint32_t cid) const {
  const auto it = flows_.find(cid);
  return it != flows_.end() ? &it->second.receiver : nullptr;
}

feedback::RetransmitManager* SessionEndpoint::flow_manager(std::uint32_t cid) {
  const auto it = flows_.find(cid);
  if (it == flows_.end() || !it->second.manager) return nullptr;
  return &*it->second.manager;
}

std::size_t SessionEndpoint::flow_queued_packets(std::uint32_t cid) const {
  const auto it = flows_.find(cid);
  return it != flows_.end() ? it->second.queue.size() : 0;
}

const proto::SenderStats* SessionEndpoint::flow_sender_stats(
    std::uint32_t cid) const {
  const auto it = flows_.find(cid);
  return it != flows_.end() ? &it->second.sender_stats : nullptr;
}

std::size_t SessionEndpoint::flow_heap_bytes(std::uint32_t cid) const {
  const auto it = flows_.find(cid);
  if (it == flows_.end()) return 0;
  const Flow& flow = it->second;
  return flow.queue.heap_bytes() + flow.sent_ns.heap_bytes() +
         flow.receiver.history_heap_bytes() +
         (flow.builder ? flow.builder->heap_bytes() : 0);
}

void SessionEndpoint::fold_closed(Flow& flow) {
  if (!flow.manager) return;
  // Drain even without an accountant: the manager keeps one record per
  // closed packet until drained, so skipping the drain would grow every
  // reliability flow by one record per packet.
  const auto closed = flow.manager->drain_closed();
  if (!telemetry_ || closed.empty()) return;
  closed_scratch_.clear();
  closed_scratch_.reserve(closed.size());
  for (const feedback::ClosedPacket& packet : closed) {
    closed_scratch_.push_back({packet.k, packet.initial_mask,
                               packet.exposure_mask, packet.retransmits,
                               packet.acked, packet.initial_link_mask,
                               packet.link_exposure_mask});
  }
  telemetry_->privacy().on_closed(closed_scratch_);
}

bool SessionEndpoint::probe_flow(std::uint32_t cid,
                                 obs::runtime::FlowSample& out) const {
  const auto it = flows_.find(cid);
  if (it == flows_.end()) return false;  // closed since collection
  const Flow& flow = it->second;
  out.cid = cid;
  out.queued_packets = flow.queue.size();
  out.receiver_bytes = flow.receiver.buffered_bytes();
  out.packets_sent = flow.sender_stats.packets_sent;
  out.packets_delivered = flow.receiver.stats().packets_delivered;
  if (flow.manager) {
    out.outstanding = flow.manager->outstanding();
    out.rto_ns = flow.manager->current_rto_ns();
    out.retransmits = flow.manager->stats().retransmits;
    out.exposure_width = flow.manager->widest_exposure();
  }
  return true;
}

void SessionEndpoint::publish_runtime_metrics(obs::Registry& registry) const {
  // O(1) in flows: session-level counters as deltas plus cheap gauges.
  // The O(flows) per-flow aggregation stays in publish_metrics (the
  // end-of-run hook) — a 250 ms sampler must not walk 100k flows twice.
  const auto add = [&](std::string_view name, std::uint64_t value) {
    counter_deltas_.add_total(registry, name, value);
  };
  add("mcss_session_flows_opened", stats_.flows_opened);
  add("mcss_session_flows_closed", stats_.flows_closed);
  add("mcss_session_packets_sent", stats_.packets_sent);
  add("mcss_session_packets_delivered", stats_.packets_delivered);
  add("mcss_session_queue_rejects", stats_.queue_rejects);
  add("mcss_session_reports_sent", stats_.reports_sent);
  add("mcss_session_reports_demuxed", stats_.reports_demuxed);
  add("mcss_session_pool_defers", stats_.pool_defers);
  add("mcss_session_schedule_defers", stats_.schedule_defers);
  registry.set(registry.gauge("mcss_session_flows_open"),
               static_cast<double>(flows_.size()));
  registry.set(registry.gauge("mcss_session_admitted_bytes_per_s"),
               admitted_bytes_per_s_);
  registry.set(registry.gauge("mcss_session_budget_bytes_per_s"),
               budget_bytes_per_s_);
  if (telemetry_) {
    telemetry_->health().set_pool_occupancy(pool_->in_use(),
                                            pool_->capacity());
    // Fold batches skip the gauge stores (too hot); refresh them here
    // at sample cadence instead.
    telemetry_->privacy().publish_gauges();
  }
}

void SessionEndpoint::publish_metrics(obs::Registry& registry) const {
  // Delta-tracked adds: when the periodic sampler already published
  // these series mid-run, only the remainder lands here and the
  // registry converges to the exact totals.
  const auto add = [&](std::string_view name, std::uint64_t value) {
    counter_deltas_.add_total(registry, name, value);
  };
  add("mcss_session_flows_opened", stats_.flows_opened);
  add("mcss_session_flows_closed", stats_.flows_closed);
  add("mcss_session_flows_rejected_rate", stats_.flows_rejected_rate);
  add("mcss_session_flows_rejected_capacity", stats_.flows_rejected_capacity);
  add("mcss_session_packets_sent", stats_.packets_sent);
  add("mcss_session_packets_delivered", stats_.packets_delivered);
  add("mcss_session_queue_rejects", stats_.queue_rejects);
  add("mcss_session_frames_demuxed", stats_.frames_demuxed);
  add("mcss_session_frames_undecodable", stats_.frames_undecodable);
  add("mcss_session_frames_auth_failed", stats_.frames_auth_failed);
  add("mcss_session_frames_without_connection",
      stats_.frames_without_connection);
  add("mcss_session_frames_unknown_connection",
      stats_.frames_unknown_connection);
  add("mcss_session_reports_sent", stats_.reports_sent);
  add("mcss_session_report_datagrams_sent", stats_.report_datagrams_sent);
  add("mcss_session_reports_dropped_at_channel",
      stats_.reports_dropped_at_channel);
  add("mcss_session_reports_demuxed", stats_.reports_demuxed);
  add("mcss_session_reports_malformed", stats_.reports_malformed);
  add("mcss_session_reports_auth_failed", stats_.reports_auth_failed);
  add("mcss_session_reports_without_connection",
      stats_.reports_without_connection);
  add("mcss_session_reports_unknown_connection",
      stats_.reports_unknown_connection);
  add("mcss_session_pool_defers", stats_.pool_defers);
  add("mcss_session_schedule_defers", stats_.schedule_defers);
  add("mcss_session_pool_oversize_drops", stats_.pool_oversize_drops);
  registry.set(registry.gauge("mcss_session_flows_open"),
               static_cast<double>(flows_.size()));
  registry.set(registry.gauge("mcss_session_admitted_bytes_per_s"),
               admitted_bytes_per_s_);
  registry.set(registry.gauge("mcss_session_budget_bytes_per_s"),
               budget_bytes_per_s_);

  // Aggregate the per-flow protocol counters (flows are too many to
  // publish individually) plus the shared substrate.
  proto::SenderStats sender_total;
  proto::ReceiverStats receiver_total;
  // The session authenticates for its receivers, so forgeries it drops
  // count as receiver auth failures.
  receiver_total.auth_failures = stats_.frames_auth_failed;
  for (const auto& [cid, flow] : flows_) {
    (void)cid;
    const proto::SenderStats& s = flow.sender_stats;
    sender_total.packets_offered += s.packets_offered;
    sender_total.packets_rejected += s.packets_rejected;
    sender_total.packets_sent += s.packets_sent;
    sender_total.packets_retransmitted += s.packets_retransmitted;
    sender_total.shares_sent += s.shares_sent;
    sender_total.shares_retransmitted += s.shares_retransmitted;
    sender_total.shares_dropped_at_channel += s.shares_dropped_at_channel;
    sender_total.sum_k += s.sum_k;
    sender_total.sum_m += s.sum_m;
    const proto::ReceiverStats& r = flow.receiver.stats();
    receiver_total.frames_received += r.frames_received;
    receiver_total.malformed_frames += r.malformed_frames;
    receiver_total.auth_failures += r.auth_failures;
    receiver_total.duplicate_shares += r.duplicate_shares;
    receiver_total.late_shares += r.late_shares;
    receiver_total.conflicting_metadata += r.conflicting_metadata;
    receiver_total.packets_delivered += r.packets_delivered;
    receiver_total.bytes_delivered += r.bytes_delivered;
    receiver_total.packets_evicted_timeout += r.packets_evicted_timeout;
    receiver_total.packets_evicted_memory += r.packets_evicted_memory;
    receiver_total.shares_dropped_memory += r.shares_dropped_memory;
    receiver_total.stale_generation_shares += r.stale_generation_shares;
    receiver_total.partials_superseded += r.partials_superseded;
    receiver_total.partials_in_arena += r.partials_in_arena;
    receiver_total.partials_on_heap += r.partials_on_heap;
  }
  proto::publish(registry, sender_total);
  proto::publish(registry, receiver_total);

  std::vector<const transport::UdpChannel*> all_channels;
  all_channels.reserve(channels_.size() + 1);
  for (const auto& ch : channels_) all_channels.push_back(ch.get());
  if (feedback_ch_) all_channels.push_back(feedback_ch_.get());
  std::uint64_t syscalls = poller_.wait_calls();
  for (const transport::UdpChannel* ch : all_channels) {
    net::publish(registry, ch->impair_stats());
    transport::publish(registry, ch->stats());
    syscalls += ch->syscalls_send() + ch->syscalls_recv();
  }
  // Every kernel crossing the transport makes: send/sendmmsg,
  // recv/recvmmsg, and poller waits.
  add("mcss_transport_syscalls_total", syscalls);

  const util::FramePool::Stats& ps = pool_->stats();
  add("mcss_session_pool_acquired", ps.acquired);
  add("mcss_session_pool_exhausted", ps.exhausted);
  registry.set(registry.gauge("mcss_session_pool_high_water"),
               static_cast<double>(ps.high_water));
  registry.set(registry.gauge("mcss_session_pool_slots"),
               static_cast<double>(pool_->capacity()));
}

}  // namespace mcss::session
