// stream: one flow on SessionEndpoint over four clean loopback channels,
// kappa = 2, mu = 3, SipHash tags on. Closed loop with a 256-packet
// window; slices of 1470 B packets (the paper's iperf datagram) and of
// 128 B packets alternate. The loop is CPU-bound, so its costs are
// reported per CPU second (getrusage user + sys), not per wall second.
#include <memory>

#include "layers.hpp"
#include "workloads.hpp"

namespace mcssbench {

namespace {

using namespace mcss;

constexpr std::size_t kWindow = 256;
constexpr std::size_t kBigPayload = 1470;
constexpr std::size_t kSmallPayload = 128;
constexpr int kSetups = 5;
constexpr std::int64_t kRunForNs = 50'000;
/// Packets per measured slice, about 0.25 s each on a 4-core Xeon host.
/// A fixed count, not a fixed time: the flow's closed-packet records
/// grow with every packet while telemetry is off (README, "Findings"),
/// so only a fixed count keeps peak RSS comparable between runs.
constexpr std::uint64_t kBigSlicePackets = 5'500;
constexpr std::uint64_t kSmallSlicePackets = 20'000;
/// Unloaded 1470 B round trips (window 1) per slice: the latency figure.
/// With 256 packets in flight, latency is 256 x the wall time per packet
/// and absorbs every stall of the host; the median of single packets'
/// latencies does not.
constexpr std::uint64_t kPingsPerSlice = 100;

LiveShape stream_shape(std::uint64_t seed, bool telemetry) {
  LiveShape shape;
  for (int i = 0; i < 4; ++i) shape.channels.push_back(clean_channel());
  shape.auth = true;
  shape.max_flows = 4;
  // A full window of 1470 B partials must fit the flow's reassembly cap:
  // at the 64 KiB default the receiver evicts every packet (README,
  // "Known failure mode").
  shape.per_flow_memory_bytes = 8u << 20;
  shape.max_queue_packets = kWindow;
  shape.max_dispatch_per_pump = 256;
  shape.pool_slots = 4096;
  // One report's SACK window covers 1024 packet ids. At ~100k packets/s
  // the default 20 ms interval outruns it: unacked packets time out, are
  // resent, and resends that outlive the receiver's completed-id history
  // are delivered twice (README, "Findings"). 5 ms keeps acks in reach.
  shape.report_interval_ns = 5'000'000;
  // On a loaded host acks can still arrive after the timeout; a resend
  // must then find its id in the completed history, or it is delivered
  // twice. 65536 ids cover about half a second at the 128 B rate.
  shape.completed_history = 65536;
  shape.telemetry = telemetry;
  shape.seed = seed;
  return shape;
}

struct Phase {
  std::uint64_t delivered = 0;
  Usage used;
};

class Stream {
 public:
  /// One flow's id and delivery ledger.
  struct Flow {
    std::uint32_t cid = 0;
    FlowLedger ledger;
  };

  Stream(std::uint64_t seed, bool telemetry, const Payloads& payloads,
         Result& result)
      : ep_(live_config(stream_shape(seed, telemetry))),
        bulk_{0, FlowLedger(payloads, result)},
        ping_{0, FlowLedger(payloads, result)},
        payloads_(payloads),
        result_(result) {
    ep_.set_deliver([this](std::uint32_t cid, std::uint64_t id,
                           std::vector<std::uint8_t> payload) {
      (cid == ping_.cid ? ping_ : bulk_).ledger.delivered(cid, id, payload);
    });
    session::FlowParams params;
    params.rate_pps = 1000.0;
    params.payload_bytes = kBigPayload;
    // Pings ride a flow of their own, so their RTT samples never shorten
    // the bulk flow's retransmit timeout.
    for (Flow* f : {&bulk_, &ping_}) {
      const auto cid = ep_.open_flow(params);
      result_.check(cid.has_value(), "stream: open_flow refused");
      f->cid = cid.value_or(0);
    }
  }

  /// Closed loop on `flow` with `window` packets in flight until
  /// `packets` more have been delivered, or `cap_s` of wall time has
  /// passed without that (a stall, reported as such); then drain.
  Phase run_packets(Flow& flow, std::size_t len, std::uint64_t packets,
                    double cap_s, std::uint64_t window = kWindow) {
    Scope span("bench.stream.phase");
    FlowLedger& ledger = flow.ledger;
    const std::uint64_t delivered0 = ledger.delivered_count();
    const std::uint64_t target = delivered0 + packets;
    const Usage u0 = Usage::now();
    const std::int64_t cap =
        mono_ns() + static_cast<std::int64_t>(std::min(cap_s, budget_left_s()) * 1e9);
    while (ledger.delivered_count() < target && mono_ns() < cap) {
      fill(flow, len, window);
      Scope run_for("session.run_for", true);
      ep_.run_for(kRunForNs);
    }
    // What is still missing after the drain cap is a failure.
    drain(ep_, 5.0, [&ledger] { return ledger.in_flight() == 0; });
    result_.failed += ledger.in_flight();
    result_.check(ledger.in_flight() == 0,
                  "stream: packets accepted but never delivered");
    Phase p;
    p.used = Usage::now() - u0;
    p.delivered = ledger.delivered_count() - delivered0;
    result_.check(p.delivered >= packets, "stream: closed loop stalled");
    return p;
  }

  session::SessionEndpoint& ep() { return ep_; }
  Flow& bulk() { return bulk_; }
  Flow& ping() { return ping_; }

 private:
  void fill(Flow& flow, std::size_t len, std::uint64_t window) {
    while (flow.ledger.in_flight() < window) {
      const std::uint64_t id = flow.ledger.sent_count() + 1;
      ++result_.attempted;
      bool ok = false;
      {
        Scope span("session.send");
        ok = ep_.send(flow.cid, payloads_.make(flow.cid, id, len));
      }
      if (!ok) {
        // The queue bound equals the window, so a refusal is a failure.
        ++result_.failed;
        return;
      }
      flow.ledger.sent(len, mono_ns());
    }
  }

  session::SessionEndpoint ep_;
  Flow bulk_;
  Flow ping_;
  const Payloads& payloads_;
  Result& result_;
};

/// Construction, open_flow and a warm-up of 1024 packets: what a later
/// change would move into set-up shows here.
std::unique_ptr<Stream> set_up(std::uint64_t seed, bool telemetry,
                               const Payloads& payloads, Result& result,
                               double scale) {
  auto s = std::make_unique<Stream>(seed, telemetry, payloads, result);
  const std::uint64_t attempted = result.attempted;
  s->run_packets(s->bulk(), kBigPayload, static_cast<std::uint64_t>(1024 * scale) + 1,
                 10.0);
  // Warm-up sends are not part of the measured operation count.
  result.attempted = attempted;
  return s;
}

/// Pings and the two payload sizes alternate in short slices so all see
/// the same host conditions. Each slice yields its own cost and latency
/// figures; the pass reports their medians, which a burst of load from
/// other processes on the host moves far less than a whole-pass mean.
struct Pass {
  Phase big;  ///< totals over all 1470 B slices
  Phase small;
  std::vector<double> big_cpu_us;
  std::vector<double> small_cpu_us;
  std::vector<double> ping_p50_ms;
  std::vector<double> window_p50_ms;  ///< 1470 B, 256 in flight
  std::vector<double> pings_ms;       ///< every ping, for the tail
};

double cpu_us_per_packet(const Phase& ph) {
  return ph.delivered > 0
             ? ph.used.cpu_s() * 1e6 / static_cast<double>(ph.delivered)
             : 0.0;
}

Pass measure(Stream& s, double seconds, double scale) {
  Pass p;
  const int slices = std::max(2, static_cast<int>(seconds * 2.0));
  const auto big_n = static_cast<std::uint64_t>(kBigSlicePackets * scale) + 1;
  const auto small_n = static_cast<std::uint64_t>(kSmallSlicePackets * scale) + 1;
  const auto pings = static_cast<std::uint64_t>(kPingsPerSlice * scale) + 1;
  for (int i = 0; i < slices && budget_left_s() > 0.0; ++i) {
    Stream::Flow& bulk = s.bulk();
    Stream::Flow& pinger = s.ping();
    std::vector<double> ping;
    pinger.ledger.collect_latency(&ping, pinger.ledger.sent_count() + 1);
    s.run_packets(pinger, kBigPayload, pings, 10.0, 1);
    pinger.ledger.collect_latency(nullptr, 0);
    std::vector<double> window;
    bulk.ledger.collect_latency(&window, bulk.ledger.sent_count() + 1);
    const Phase big = s.run_packets(bulk, kBigPayload, big_n, 10.0);
    bulk.ledger.collect_latency(nullptr, 0);
    const Phase small = s.run_packets(bulk, kSmallPayload, small_n, 10.0);
    p.big_cpu_us.push_back(cpu_us_per_packet(big));
    p.small_cpu_us.push_back(cpu_us_per_packet(small));
    p.ping_p50_ms.push_back(percentile(ping, 50.0));
    p.window_p50_ms.push_back(percentile(window, 50.0));
    p.pings_ms.insert(p.pings_ms.end(), ping.begin(), ping.end());
    p.big.used += big.used;
    p.big.delivered += big.delivered;
    p.small.used += small.used;
    p.small.delivered += small.delivered;
  }
  return p;
}

}  // namespace

Result run_stream(const Options& opts) {
  Result result;
  const Payloads payloads(opts.seed);
  std::vector<double> setups;
  std::unique_ptr<Stream> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();
    const Usage u0 = Usage::now();
    s = set_up(opts.seed + static_cast<std::uint64_t>(i), false, payloads,
               result, opts.scale);
    setups.push_back((Usage::now() - u0).cpu_s());
  }
  const Pass base = measure(*s, opts.seconds, opts.scale);
  const auto* ss = s->ep().flow_sender_stats(s->bulk().cid);
  if (ss == nullptr || ss->packets_sent == 0) return result;
  const double kappa = ss->sum_k / static_cast<double>(ss->packets_sent);
  const double mu = ss->sum_m / static_cast<double>(ss->packets_sent);
  result.check(kappa > 1.98 && kappa < 2.02 && mu > 2.98 && mu < 3.02,
               "stream: achieved kappa/mu outside dither tolerance of 2/3");

  Values& v = result.values;
  v["setup_s"] = median(setups);
  v["peak_rss_mb"] = Usage::now().maxrss_mb;
  v["cpu_us_per_op"] = median(base.big_cpu_us);
  v["phase_b_us"] = median(base.small_cpu_us);
  v["lat_p50_ms"] = median(base.ping_p50_ms);
  v["tail.lat_p99_ms"] = percentile(base.pings_ms, 99.0);
  result.samples["setup"] = setups.size();
  result.samples["packets_1470"] = base.big.delivered;
  result.samples["packets_128"] = base.small.delivered;
  result.samples["slices"] = base.big_cpu_us.size();
  result.samples["pings"] = base.pings_ms.size();
  const double big_mbit =
      static_cast<double>(base.big.delivered * kBigPayload) * 8.0 / 1e6;
  result.notes["goodput_mbit_per_cpu_s"] = big_mbit / base.big.used.cpu_s();
  result.notes["kpkt_per_cpu_s"] =
      static_cast<double>(base.small.delivered) / 1e3 / base.small.used.cpu_s();
  result.notes["window_lat_p50_ms"] = median(base.window_p50_ms);
  result.notes["goodput_mbit_per_wall_s"] = big_mbit / base.big.used.wall_s;
  result.notes["achieved_kappa"] = kappa;
  result.notes["achieved_mu"] = mu;
  result.notes["retransmitted"] = static_cast<double>(ss->packets_retransmitted);
  const proto::ReceiverStats& rs0 = s->ep().flow_receiver(s->bulk().cid)->stats();
  result.notes["late_shares"] = static_cast<double>(rs0.late_shares);
  result.notes["evicted_memory"] = static_cast<double>(rs0.packets_evicted_memory);
  result.notes["evicted_timeout"] = static_cast<double>(rs0.packets_evicted_timeout);
  s.reset();
  if (!opts.trace) return result;

  // Traced pass: spans, obs registry and the telemetry plane on.
  begin_traced_pass();
  auto t = set_up(opts.seed + 1000, true, payloads, result, opts.scale);
  const session::SessionStats stats0 = t->ep().stats();
  const std::uint64_t waits0 = t->ep().poller().wait_calls();
  Tracer::get().reset_aggregates();
  RegistryWindow window;
  window.start();
  const Pass traced = measure(*t, opts.seconds, opts.scale);
  t->ep().publish_metrics(obs::Registry::global());
  window.stop();

  Values& l = result.values;
  const double delivered =
      static_cast<double>(traced.big.delivered + traced.small.delivered);
  Usage used = traced.big.used;
  used += traced.small.used;
  live_layers(t->ep(), window, stats0, waits0, delivered, l);
  usage_layers(used, l);
  const ProbeMix big{kBigPayload, 2, 3, static_cast<double>(traced.big.delivered)};
  const ProbeMix small{kSmallPayload, 2, 3,
                       static_cast<double>(traced.small.delivered)};
  const ProbeCost cb = probe_sss(std::span(&big, 1), true, opts.seed);
  const ProbeCost cs = probe_sss(std::span(&small, 1), true, opts.seed);
  const auto weighted = [&](double b, double sm) {
    return (b * big.weight + sm * small.weight) / std::max(delivered, 1.0);
  };
  l["sss.split_us_per_pkt"] = weighted(cb.split_us, cs.split_us);
  l["sss.reconstruct_us_per_pkt"] = weighted(cb.reconstruct_us, cs.reconstruct_us);
  l["crypto.tag_us_per_pkt"] = weighted(cb.tag_us, cs.tag_us);
  l["sss.cpu_share"] =
      ((cb.split_us + cb.reconstruct_us + cb.tag_us) * big.weight +
       (cs.split_us + cs.reconstruct_us + cs.tag_us) * small.weight) /
      1e6 / std::max(used.cpu_s(), 1e-9);
  const proto::ReceiverStats& rs = t->ep().flow_receiver(t->bulk().cid)->stats();
  l["protocol.evicted_memory"] = static_cast<double>(rs.packets_evicted_memory);
  l["protocol.evicted_timeout"] = static_cast<double>(rs.packets_evicted_timeout);
  l["protocol.late_shares"] = static_cast<double>(rs.late_shares);
  l["protocol.duplicate_shares"] = static_cast<double>(rs.duplicate_shares);
  const auto* ts = t->ep().flow_sender_stats(t->bulk().cid);
  l["protocol.achieved_kappa"] = ts->sum_k / static_cast<double>(ts->packets_sent);
  l["protocol.achieved_mu"] = ts->sum_m / static_cast<double>(ts->packets_sent);
  l["feedback.retransmits_per_kpkt"] =
      static_cast<double>(ts->packets_retransmitted) * 1000.0 /
      static_cast<double>(ts->packets_sent);
  l["feedback.packets_abandoned"] = static_cast<double>(
      t->ep().flow_manager(t->bulk().cid)->stats().packets_abandoned);
  l["trace.overhead_frac"] = tracing_overhead(median(base.big_cpu_us),
                                                median(traced.big_cpu_us));
  result.samples["traced_packets"] = static_cast<std::uint64_t>(delivered);
  return result;
}

}  // namespace mcssbench
