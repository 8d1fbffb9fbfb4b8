// SessionEndpoint: multiplex many independent ReMICSS flows over one
// shared channel set.
//
// The one live endpoint: ReMICSS over real UDP sockets, for one flow or
// for a large churning population of secret-sharing sessions — the
// multicast / many-receiver shape of "Two-Multicast Channel with
// Confidential Messages". The substrate is singular (UdpChannels behind
// an epoll Poller, a wall-clock net::Simulator as the one timer queue, a
// FramePool arena); the protocol state is per-flow:
//
//   shared, one per endpoint            per-flow, in the flow table
//   ---------------------------         --------------------------------
//   Poller (all sockets)                packet-id space, send-queue and
//   net::Simulator timeline (RTO,         send-stamp rings
//     impairment, report, eviction)     DynamicScheduler (dither state)
//   FramePool (TX/partial slots)        proto::Receiver (reassembly)
//   UdpChannels + feedback lane         feedback::ReportBuilder (ARQ)
//                                       feedback::RetransmitManager (ARQ)
//
// A flow is one node of the flow table with everything above inline, and
// its heap use follows what it holds. The send queue, the send stamps,
// the receiver's completed-id history and the report builder's delay
// samples are util::Ring FIFOs that allocate on their first push and
// grow up to their existing limits, so a flow that has neither sent nor
// received costs its node and nothing else (DESIGN.md, "Per-flow state",
// has the byte table).
//
// Flows are keyed by the wire header's connection id (wire.hpp flag bit
// 2): every share and every receiver report carries the owning flow's
// id, the demux happens BEFORE any protocol processing, and packet ids /
// generations / acks are scoped within a connection. One flow's report
// can therefore never ack or supersede another flow's packets — two
// flows both using packet id 1 never meet in one reassembly buffer or
// one SACK window.
//
// Scale discipline (the 100k-flow requirements):
//   - O(1) ready-flow scheduling: flows with queued packets sit on an
//     intrusive doubly-linked ready list and are served round-robin (one
//     packet per turn). No per-flow heaps, no scan of idle flows.
//   - Per-flow RTO timers live on the SHARED timeline, armed at the
//     flow's RetransmitManager::next_deadline() and re-armed on ack and
//     fire. The pump never scans managers, and the poll timeout reads
//     the timeline's earliest deadline in O(1); an idle endpoint with
//     100k armed flows does O(due timers x log n) work per iteration,
//     not O(flows).
//   - Report emission is paced by one session-wide timer that walks an
//     intrusive list of flows with NEW deliveries since the last report
//     (again no idle-flow scan), coalescing several flows' reports into
//     each feedback datagram.
//   - Flow teardown cancels its RTO timer by handle
//     (net::Simulator::cancel), and the Receiver's destructor cancels its
//     eviction timers, so churn never leaves a callback aimed at freed
//     per-flow state. Eviction timers leave the timeline with their
//     packet, so it holds one per PENDING partial.
//   - Memory degrades PER FLOW: each flow's Receiver gets its own
//     memory cap (limits.per_flow_memory_bytes), so an overloaded or
//     attacked flow evicts its own oldest partials and cannot starve its
//     neighbours' reassembly.
//
// Admission control shares the channel rate budget fairly: a flow
// declares its offered rate (FlowParams), the endpoint prices it as
// rate_pps * mu * (payload + overhead) bytes/s, and admits while the
// aggregate stays under admission_headroom * sum(channel rate). Beyond
// that — or beyond max_flows — open_flow() refuses, with the reason
// counted in stats().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/siphash.hpp"
#include "feedback/report_builder.hpp"
#include "feedback/retransmit.hpp"
#include "net/sim_channel.hpp"
#include "net/simulator.hpp"
#include "obs/runtime/telemetry.hpp"
#include "protocol/receiver.hpp"
#include "protocol/scheduler.hpp"
#include "protocol/sender.hpp"
#include "transport/poller.hpp"
#include "transport/udp_channel.hpp"
#include "util/ring.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mcss::obs {
class Registry;
}

namespace mcss::session {

struct ChannelSpec {
  net::ChannelConfig config;
  std::string name;
};

/// Reliability add-on: a feedback UdpChannel carries coalesced receiver
/// reports back to the sender side, whose per-flow RetransmitManagers
/// ack, learn RTT, and retransmit on RTO timers.
struct ReliabilityConfig {
  bool enabled = false;
  feedback::RetransmitConfig retransmit;
  /// ReportBuilder sizing (num_channels is filled in by the endpoint).
  std::size_t sack_window_words = 16;
  std::size_t max_delay_samples = 64;
  std::int64_t report_interval_ns = 20'000'000;
  /// Shares beyond k on each retransmission.
  int retransmit_extra = 1;
  /// Impairment of the report path (feedback can be lossy too). The
  /// default is a clean fast lane, 10 Gbps with a 4 MiB queue: a report
  /// tick offers every reporting flow's report at once, about 280 B
  /// each, so it holds one tick of some 15k flows (100 Mbps / 64 KiB
  /// overflowed from 278).
  net::ChannelConfig feedback_channel{.rate_bps = 10e9,
                                      .queue_capacity_bytes = 4u << 20};
  /// Tag reports with SipHash; unauthenticated/tampered ones are
  /// rejected and counted.
  std::optional<crypto::SipHashKey> report_auth_key;
};

/// MCSS_LIVE_PORT_BASE as uint16, or `fallback` when unset/unparsable.
[[nodiscard]] std::uint16_t port_base_from_env(std::uint16_t fallback = 0);

/// What a flow declares at admission time. The endpoint prices the flow
/// from these and holds the reservation until close_flow().
struct FlowParams {
  /// Offered source-packet rate used for admission pricing (not a
  /// shaper — the per-flow queue bound is the actual backpressure).
  double rate_pps = 50.0;
  /// Typical payload size used for admission pricing.
  std::size_t payload_bytes = 256;
  /// Per-flow (kappa, mu) dither targets; unset = the session defaults.
  std::optional<double> kappa;
  std::optional<double> mu;
};

struct SessionLimits {
  /// Hard cap on concurrently open flows.
  std::size_t max_flows = 1u << 20;
  /// Fraction of the aggregate channel byte rate admission may book.
  double admission_headroom = 0.9;
  /// Each flow's Receiver memory cap: reassembly pressure evicts the
  /// offending flow's own oldest partials, never a neighbour's.
  std::size_t per_flow_memory_bytes = 64u << 10;
  /// Per-flow send queue bound (send() returns false beyond it).
  std::size_t max_queue_packets = 16;
  /// Packets dispatched per pump iteration before the loop returns to
  /// socket work — fairness between protocol CPU and IO under load.
  std::size_t max_dispatch_per_pump = 256;
};

struct SessionConfig {
  std::vector<ChannelSpec> channels;
  /// Session-default DynamicScheduler targets (per-flow dither state).
  double kappa = 2.0;
  double mu = 3.0;
  /// First RX port; channel i binds port_base + i (+ feedback lane at
  /// port_base + n), 0 = ephemeral (port_base_from_env() honors
  /// MCSS_LIVE_PORT_BASE). A range that would wrap past 65535 is refused.
  std::uint16_t port_base = 0;
  /// When set, frames carry SipHash tags and per-flow receivers are keyed.
  std::optional<crypto::SipHashKey> auth_key;
  /// Template for per-flow receivers; memory_limit_bytes and arena are
  /// overridden per flow (see SessionLimits::per_flow_memory_bytes).
  proto::ReceiverConfig receiver;
  std::uint64_t seed = 1;
  std::size_t max_datagram_bytes = 1400;
  ReliabilityConfig reliability;
  SessionLimits limits;
  /// Datagrams per sendmmsg / recvmmsg. 1 = the unbatched path (one
  /// syscall per datagram), bench/live_eval's before/after baseline.
  std::size_t send_batch = 32;
  std::size_t recv_batch = 32;
  /// FramePool sizing. 0 = auto: slots from channel count and batch
  /// depths plus slack for reassembly partials, slot bytes from
  /// max_datagram_bytes. A share frame larger than a slot is dropped and
  /// counted (pool_oversize_drops), so raise pool_slot_bytes when
  /// sending payloads beyond the defaults.
  std::size_t pool_slots = 0;
  std::size_t pool_slot_bytes = 0;
  /// Runtime telemetry plane (scrape server + sampler + privacy
  /// accounting + loop health); off by default. When
  /// telemetry.privacy.channel_risks is empty the endpoint fills a
  /// uniform 0.1 prior per channel (scenarios that know their real
  /// per-channel compromise probabilities should set them).
  obs::runtime::RuntimeTelemetryConfig telemetry;
};

struct SessionStats {
  std::uint64_t flows_opened = 0;
  std::uint64_t flows_closed = 0;
  std::uint64_t flows_rejected_rate = 0;      ///< admission budget exhausted
  std::uint64_t flows_rejected_capacity = 0;  ///< max_flows reached
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t queue_rejects = 0;  ///< send() on a full per-flow queue
  /// RX demux outcomes. Frames that fail share framing (undecodable) or,
  /// keyed, authentication (auth_failed: a bad or missing tag) cannot be
  /// attributed to any flow and are counted here only; frames without a
  /// connection id (the single-flow encoding) and frames for ids not in
  /// the table (late shares of a closed flow, or unkeyed forgeries) are
  /// dropped before any receiver sees them.
  std::uint64_t frames_demuxed = 0;
  std::uint64_t frames_undecodable = 0;
  std::uint64_t frames_auth_failed = 0;
  std::uint64_t frames_without_connection = 0;
  std::uint64_t frames_unknown_connection = 0;
  /// Feedback demux outcomes, same policy as frames.
  std::uint64_t reports_sent = 0;
  std::uint64_t report_datagrams_sent = 0;
  std::uint64_t reports_dropped_at_channel = 0;
  std::uint64_t reports_demuxed = 0;
  std::uint64_t reports_malformed = 0;
  std::uint64_t reports_auth_failed = 0;
  std::uint64_t reports_without_connection = 0;
  std::uint64_t reports_unknown_connection = 0;
  /// Dispatch backpressure: pump rounds parked for pool headroom or for
  /// no writable channel, and share frames larger than a pool slot.
  std::uint64_t pool_defers = 0;
  std::uint64_t schedule_defers = 0;
  std::uint64_t pool_oversize_drops = 0;
};

class SessionEndpoint {
 public:
  /// Delivery callback: (connection id, packet id, payload).
  using DeliverFn = std::function<void(std::uint32_t, std::uint64_t,
                                       std::vector<std::uint8_t>)>;

  explicit SessionEndpoint(SessionConfig config);
  ~SessionEndpoint();

  SessionEndpoint(const SessionEndpoint&) = delete;
  SessionEndpoint& operator=(const SessionEndpoint&) = delete;

  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Admit a flow and install its state; nullopt when admission refuses
  /// (rate budget or max_flows — see stats()). O(1) amortized.
  [[nodiscard]] std::optional<std::uint32_t> open_flow(
      const FlowParams& params = {});

  /// Tear a flow down: cancel its RTO timer, unlink it from the
  /// ready/report lists, release its admission reservation, destroy its
  /// state; the flow's Receiver cancels its pending eviction timers.
  /// False when `cid` is not an open flow.
  bool close_flow(std::uint32_t cid);

  /// Queue one source packet on flow `cid`. False = unknown flow or
  /// per-flow queue full (backpressure).
  bool send(std::uint32_t cid, std::vector<std::uint8_t> payload);

  /// Run the shared event loop for `wall_ns` of real time.
  void run_for(std::int64_t wall_ns);

  /// Monotonic nanoseconds since construction (the endpoint's timeline).
  [[nodiscard]] std::int64_t now_ns() const;

  /// Feed one feedback datagram (possibly several coalesced reports)
  /// through the demux, exactly as the feedback socket would. Public so
  /// tests and external feedback transports can inject reports.
  void on_feedback_datagram(std::span<const std::uint8_t> datagram,
                            std::int64_t now);

  [[nodiscard]] std::size_t num_flows() const noexcept {
    return flows_.size();
  }
  [[nodiscard]] std::size_t num_channels() const noexcept {
    return channels_.size();
  }
  [[nodiscard]] const SessionStats& stats() const noexcept { return stats_; }
  /// Aggregate admitted byte rate and the admission budget it is held
  /// against (bytes/s).
  [[nodiscard]] double admitted_bytes_per_s() const noexcept {
    return admitted_bytes_per_s_;
  }
  [[nodiscard]] double admission_budget_bytes_per_s() const noexcept {
    return budget_bytes_per_s_;
  }
  /// open_flow() wall-clock cost (seconds) — the bench's setup latency.
  /// A fixed-size seeded reservoir: a long-lived endpoint opens millions
  /// of flows, and percentiles need a sample, not every open.
  [[nodiscard]] PercentileTracker& setup_latency_seconds() noexcept {
    return setup_latency_;
  }
  [[nodiscard]] const util::FramePool& pool() const noexcept {
    return *pool_;
  }
  [[nodiscard]] const transport::Poller& poller() const noexcept {
    return poller_;
  }
  /// Share channel i (test hook: its RX port takes injected frames, and
  /// its sockets take injected EAGAIN and buffer sizes).
  [[nodiscard]] const transport::UdpChannel& channel(std::size_t i) const {
    return *channels_.at(i);
  }
  [[nodiscard]] transport::UdpChannel& channel(std::size_t i) {
    return *channels_.at(i);
  }

  /// Per-flow introspection for tests and benches; null/0 when `cid` is
  /// not an open flow.
  [[nodiscard]] const proto::Receiver* flow_receiver(std::uint32_t cid) const;
  [[nodiscard]] feedback::RetransmitManager* flow_manager(std::uint32_t cid);
  [[nodiscard]] std::size_t flow_queued_packets(std::uint32_t cid) const;
  [[nodiscard]] const proto::SenderStats* flow_sender_stats(
      std::uint32_t cid) const;
  /// Heap bytes `cid`'s rings and report builder hold (0 when unknown):
  /// zero for a flow that has not sent or received yet.
  [[nodiscard]] std::size_t flow_heap_bytes(std::uint32_t cid) const;

  /// Publish session, per-channel, pool, and aggregated per-flow
  /// counters into the registry (end-of-run hook). Session-level
  /// counters go through the same delta tracker the periodic sampler
  /// uses, so totals stay exact whether or not sampling ran.
  void publish_metrics(obs::Registry& registry) const;

  /// The runtime telemetry plane; null unless config.telemetry.enabled.
  [[nodiscard]] obs::runtime::RuntimeTelemetry* telemetry() noexcept {
    return telemetry_.get();
  }

 private:
  struct Flow {
    Flow(std::uint32_t id, const FlowParams& p, double bytes_per_s,
         net::Simulator& timeline, proto::ReceiverConfig rc, double kappa,
         double mu, int num_channels, std::size_t max_queue,
         std::int64_t opened)
        : cid(id),
          params(p),
          admitted_bytes_per_s(bytes_per_s),
          scheduler(kappa, mu, num_channels),
          receiver(timeline, std::move(rc)),
          queue(max_queue),
          opened_ns(opened) {}

    std::uint32_t cid;
    FlowParams params;
    double admitted_bytes_per_s;
    proto::DynamicScheduler scheduler;
    proto::Receiver receiver;
    std::optional<feedback::ReportBuilder> builder;
    std::optional<feedback::RetransmitManager> manager;

    util::Ring<std::vector<std::uint8_t>> queue;
    std::uint64_t next_packet_id = 1;
    proto::SenderStats sender_stats;
    /// Send stamps for the delay histogram: sent_ns[i] is the stamp of
    /// packet sent_base + i (ids are dense per flow), marked once its
    /// delivery read it. Each dispatch drops front stamps that are
    /// marked or older than four reassembly timeouts.
    util::Ring<std::int64_t> sent_ns;
    std::uint64_t sent_base = 1;

    /// Intrusive ready list (flows with queued packets), round-robin.
    Flow* ready_prev = nullptr;
    Flow* ready_next = nullptr;
    bool in_ready = false;
    /// Intrusive report list (flows with deliveries since last report).
    Flow* report_prev = nullptr;
    Flow* report_next = nullptr;
    bool in_report = false;

    /// This flow's RTO timer on the shared timeline; empty when unarmed.
    net::EventHandle rto_timer;
    std::int64_t rto_deadline = 0;

    std::int64_t opened_ns = 0;
  };

  void pump(std::int64_t now);
  void dispatch(Flow& flow, std::vector<std::uint8_t> payload,
                const proto::ShareDecision& decision, std::int64_t now);
  void resend(std::uint32_t cid, std::uint64_t id, std::uint8_t generation,
              const std::vector<std::uint8_t>& payload, int k);
  /// The one share-emit path, for first sends and retransmissions: one
  /// pool slot per share, headers written first, sss::split_into
  /// computes the share bytes straight into the slots, one lane pass
  /// seals them when keyed, and share j goes to channels[j]. A frame
  /// larger than a slot, or a share that gets no slot, is dropped and
  /// counted in the flow's shares_dropped_at_channel.
  void emit(Flow& flow, std::uint64_t id, std::uint8_t generation, int k,
            const proto::ChannelList& channels,
            std::span<const std::uint8_t> payload, std::int64_t now);
  /// One receive batch from share channel `channel`: decode and
  /// authenticate it in one lane pass, then demux each verified frame
  /// to its flow's receiver.
  void on_share_batch(std::size_t channel,
                      std::span<const std::span<const std::uint8_t>> frames);
  void on_delivered(std::uint32_t cid, std::uint64_t id,
                    std::vector<std::uint8_t> payload);
  /// (Re)arm the flow's RTO timer at its manager's next deadline;
  /// cancels a stale handle first. Call after any event that can move
  /// the deadline (dispatch, ack, fire).
  void arm_rto(Flow& flow);
  /// The periodic report timer: every flow on the report list, then
  /// re-arm.
  void emit_reports();
  /// Build `flow`'s report into report_datagram_ (sending the datagram
  /// first when the report would overflow it) and take the flow off the
  /// report list.
  void append_report(Flow& flow, std::int64_t now);
  void send_report_datagram(std::int64_t now);
  void handle_events(std::int64_t now);
  void update_write_interest();
  [[nodiscard]] double price_flow(const FlowParams& params) const noexcept;

  void push_ready(Flow& flow);
  void unlink_ready(Flow& flow);
  void push_report(Flow& flow);
  void unlink_report(Flow& flow);

  void init_telemetry();
  /// Wake-up timer so an idle poller still advances the sampler; 1 ms
  /// cadence while a sliced flow walk is in progress, the sample
  /// interval otherwise.
  void arm_sampler_timer();
  /// Drain the flow's closed-packet records into the privacy accountant,
  /// or drop them when telemetry is off (call after any event that can
  /// close packets).
  void fold_closed(Flow& flow);
  [[nodiscard]] bool probe_flow(std::uint32_t cid,
                                obs::runtime::FlowSample& out) const;
  /// Session-level counters as deltas + cheap gauges; the periodic
  /// sampler's publish hook (O(1) in flows).
  void publish_runtime_metrics(obs::Registry& registry) const;

  SessionConfig config_;
  std::int64_t epoch_ns_;
  transport::Poller poller_;
  /// Before timeline_/channels_/flows_: every FrameRef alive at
  /// destruction (impairment closures pending on the timeline, per-flow
  /// partials) must release into a live pool.
  std::unique_ptr<util::FramePool> pool_;
  /// The endpoint's only timer queue, shared by every channel and flow;
  /// now() is now_ns(), advanced once per run_for iteration.
  net::Simulator timeline_;
  Rng rng_;
  std::vector<std::unique_ptr<transport::UdpChannel>> channels_;
  std::vector<bool> write_interest_;
  std::unordered_map<int, std::size_t> fd_to_channel_;
  std::unique_ptr<transport::UdpChannel> feedback_ch_;
  bool feedback_write_interest_ = false;

  DeliverFn deliver_;
  SessionStats stats_;
  double budget_bytes_per_s_ = 0.0;
  double admitted_bytes_per_s_ = 0.0;
  std::uint32_t next_cid_ = 1;
  PercentileTracker setup_latency_;

  Flow* ready_head_ = nullptr;
  Flow* ready_tail_ = nullptr;
  Flow* report_head_ = nullptr;
  Flow* report_tail_ = nullptr;

  std::unique_ptr<obs::runtime::RuntimeTelemetry> telemetry_;
  /// Last totals published per counter series (publish_metrics is
  /// logically const; the tracker is bookkeeping, not state).
  mutable obs::runtime::CounterDeltas counter_deltas_;
  std::vector<obs::runtime::ExposureRecord> closed_scratch_;

  std::vector<transport::Poller::Event> events_;
  std::vector<proto::ChannelView> view_scratch_;
  std::vector<util::FrameRef> tx_slots_;
  std::vector<std::span<std::uint8_t>> tx_spans_;
  std::vector<std::uint8_t> split_scratch_;
  std::vector<std::uint8_t> report_datagram_;
  /// Key every flow's receiver carries; receive batches are verified
  /// under it before the demux. Unset = unkeyed.
  std::optional<crypto::SipHashKey> rx_key_;
  /// Receive-batch decode results, reserved for the largest batch.
  std::vector<proto::FrameView> rx_views_;
  std::vector<proto::DecodeStatus> rx_status_;

  /// Destroyed FIRST (declared last): per-flow receivers release arena
  /// slots into pool_ and cancel their eviction timers while timeline_
  /// still exists. Flows live in the nodes, whose addresses survive
  /// rehashing (the ready and report lists link them by pointer).
  std::unordered_map<std::uint32_t, Flow> flows_;
};

}  // namespace mcss::session
