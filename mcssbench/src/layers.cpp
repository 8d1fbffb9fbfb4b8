#include "layers.hpp"

#include <algorithm>

#include "crypto/siphash.hpp"
#include "sss/shamir.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace mcssbench {

using namespace mcss;

net::ChannelConfig clean_channel() {
  net::ChannelConfig c;
  c.rate_bps = 10e9;
  c.loss = 0.0;
  c.delay = 0;
  c.queue_capacity_bytes = 4u << 20;
  c.ready_watermark_bytes = 0;
  c.jitter = 0;
  c.corrupt = 0.0;
  c.duplicate = 0.0;
  return c;
}

session::SessionConfig live_config(const LiveShape& shape) {
  session::SessionConfig c;
  for (std::size_t i = 0; i < shape.channels.size(); ++i) {
    c.channels.push_back({shape.channels[i], "ch" + std::to_string(i)});
  }
  c.kappa = 2.0;
  c.mu = 3.0;
  c.port_base = 0;
  SplitMix keys(shape.seed ^ 0xA17E'0000ULL);
  if (shape.auth) {
    crypto::SipHashKey key{};
    for (auto& b : key) b = static_cast<std::uint8_t>(keys.next());
    c.auth_key = key;
  } else {
    c.auth_key.reset();
  }
  c.receiver = proto::ReceiverConfig{};
  c.receiver.reassembly_timeout = net::from_millis(500);
  c.receiver.completed_history = shape.completed_history;
  c.seed = keys.next();
  c.max_datagram_bytes = 1400;

  c.reliability.enabled = true;
  c.reliability.retransmit.max_retransmits = 4;
  c.reliability.retransmit.max_outstanding = 4096;
  c.reliability.retransmit.initial_rto_ns = 200'000'000;
  c.reliability.retransmit.min_rto_ns = 50'000'000;
  c.reliability.retransmit.max_rto_ns = 2'000'000'000;
  c.reliability.retransmit.rto_granularity_ns = 1'000'000;
  c.reliability.retransmit.backoff = {
      .base_ns = 0, .cap_ns = 2'000'000'000, .multiplier = 2.0};
  c.reliability.sack_window_words = 16;
  c.reliability.max_delay_samples = 64;
  c.reliability.report_interval_ns = shape.report_interval_ns;
  c.reliability.retransmit_extra = 1;
  c.reliability.feedback_channel = clean_channel();
  c.reliability.report_auth_key.reset();

  c.limits.max_flows = shape.max_flows;
  c.limits.admission_headroom = 0.9;
  c.limits.per_flow_memory_bytes = shape.per_flow_memory_bytes;
  c.limits.max_queue_packets = shape.max_queue_packets;
  c.limits.max_dispatch_per_pump = shape.max_dispatch_per_pump;
  c.send_batch = 32;
  c.recv_batch = 32;
  c.pool_slots = shape.pool_slots;
  c.pool_slot_bytes = 2800;
  c.telemetry.enabled = shape.telemetry;
  c.telemetry.port = 0;
  return c;
}

ProbeCost probe_sss(std::span<const ProbeMix> mix, bool tagged,
                    std::uint64_t seed) {
  Scope span("sss.probe");
  ProbeCost cost;
  double weights = 0.0;
  Rng rng(seed);
  std::vector<std::uint8_t> scratch;
  crypto::SipHashKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i);
  for (const ProbeMix& p : mix) {
    if (p.weight <= 0.0) continue;
    std::vector<std::uint8_t> secret(p.payload);
    rng.fill(secret);
    std::vector<std::vector<std::uint8_t>> bufs(
        static_cast<std::size_t>(p.m), std::vector<std::uint8_t>(p.payload));
    std::vector<std::span<std::uint8_t>> dests(bufs.begin(), bufs.end());
    // Enough repetitions for ~2 ms per probe at 1470 B; the minimum of
    // five rounds discards scheduler noise.
    const int reps = std::max(64, static_cast<int>(400'000 / (p.payload + 64)));
    const auto best_of = [](int rounds, auto&& body) {
      double best = 1e9;
      for (int r = 0; r < rounds; ++r) best = std::min(best, body());
      return best;
    };
    const double split = best_of(5, [&] {
      const double t0 = thread_cpu_s();
      for (int i = 0; i < reps; ++i) {
        sss::split_into(secret, p.k, dests, scratch, rng);
      }
      return (thread_cpu_s() - t0) / reps;
    });
    const std::vector<sss::Share> shares = sss::split(secret, p.k, p.m, rng);
    const std::span<const sss::Share> k_shares(shares.data(),
                                               static_cast<std::size_t>(p.k));
    // The library calls live in other translation units, so the
    // optimiser cannot drop them; the byte count checks that they ran.
    std::size_t rebuilt = 0;
    const double rec = best_of(5, [&] {
      const double t0 = thread_cpu_s();
      for (int i = 0; i < reps; ++i) rebuilt += sss::reconstruct(k_shares).size();
      return (thread_cpu_s() - t0) / reps;
    });
    if (rebuilt != 5u * static_cast<std::size_t>(reps) * p.payload) return {};
    double tag = 0.0;
    if (tagged) {
      tag = best_of(5, [&] {
        const double t0 = thread_cpu_s();
        for (int i = 0; i < reps; ++i) (void)crypto::siphash24(bufs[0], key);
        return (thread_cpu_s() - t0) / reps;
      });
      // Each share frame is sealed once and verified once on receipt.
      tag *= 2.0 * p.m;
    }
    cost.split_us += p.weight * split * 1e6;
    cost.reconstruct_us += p.weight * rec * 1e6;
    cost.tag_us += p.weight * tag * 1e6;
    weights += p.weight;
  }
  if (weights > 0.0) {
    cost.split_us /= weights;
    cost.reconstruct_us /= weights;
    cost.tag_us /= weights;
  }
  return cost;
}

RegistryWindow::Hist RegistryWindow::hist(std::string_view name) const {
  Hist h;
  for (const auto& a : after_.histograms) {
    if (a.name != name) continue;
    h.bounds = a.bounds;
    h.buckets.assign(a.buckets.begin(), a.buckets.end());
    h.count = static_cast<double>(a.count);
    h.sum = a.sum;
  }
  for (const auto& b : before_.histograms) {
    if (b.name != name || b.buckets.size() != h.buckets.size()) continue;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      h.buckets[i] -= static_cast<double>(b.buckets[i]);
    }
    h.count -= static_cast<double>(b.count);
    h.sum -= b.sum;
  }
  return h;
}

double RegistryWindow::hist_percentile(std::string_view name, double q) const {
  const Hist h = hist(name);
  if (h.count <= 0.0 || h.bounds.empty()) return 0.0;
  const double rank = q / 100.0 * h.count;
  double seen = 0.0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const double lo = i == 0 ? 0.0 : h.bounds[i - 1];
    if (i >= h.bounds.size()) return lo;  // +Inf bucket: its lower edge
    const double hi = h.bounds[i];
    if (seen + h.buckets[i] >= rank && h.buckets[i] > 0.0) {
      return lo + (hi - lo) * (rank - seen) / h.buckets[i];
    }
    seen += h.buckets[i];
  }
  return h.bounds.back();
}

double RegistryWindow::hist_count(std::string_view name) const {
  return hist(name).count;
}

double RegistryWindow::hist_mean(std::string_view name) const {
  const Hist h = hist(name);
  return h.count > 0.0 ? h.sum / h.count : 0.0;
}

std::uint64_t RegistryWindow::counter(std::string_view name) const {
  return after_.counter_value(name) - before_.counter_value(name);
}

void live_layers(const session::SessionEndpoint& ep, const RegistryWindow& w,
                 const session::SessionStats& stats0, std::uint64_t waits0,
                 double delivered, Values& out) {
  const session::SessionStats& s = ep.stats();
  const double pkts = std::max(delivered, 1.0);
  const double waits = static_cast<double>(ep.poller().wait_calls() - waits0);
  out["transport.poll_waits_per_pkt"] = waits / pkts;
  // sendmmsg calls + recvmmsg calls that returned data + poller waits:
  // every kernel crossing of the batched path except the final empty
  // recvmmsg of each drain.
  out["transport.syscalls_per_pkt"] =
      (w.hist_count("mcss_transport_send_batch_datagrams") +
       w.hist_count("mcss_transport_recv_batch_datagrams") + waits) /
      pkts;
  out["transport.send_batch_mean"] =
      w.hist_mean("mcss_transport_send_batch_datagrams");
  out["transport.recv_batch_mean"] =
      w.hist_mean("mcss_transport_recv_batch_datagrams");
  out["transport.tx_queue_wait_us_p99"] =
      w.hist_percentile("mcss_transport_tx_queue_wait_seconds", 99.0) * 1e6;
  out["transport.impair_drops"] =
      static_cast<double>(w.counter("mcss_channel_frames_dropped_loss"));
  out["loop.wake_lag_us_p99"] =
      w.hist_percentile("mcss_loop_poll_wake_lag_us", 99.0);
  out["loop.pump_us_p99"] = w.hist_percentile("mcss_loop_pump_us", 99.0);
  out["transport.pool_high_water"] =
      static_cast<double>(ep.pool().stats().high_water);
  out["transport.pool_exhausted"] =
      static_cast<double>(ep.pool().stats().exhausted);
  out["protocol.reconstruct_us_p50"] =
      w.hist_percentile("mcss_receiver_reconstruct_seconds", 50.0) * 1e6;
  out["protocol.reassembly_wait_ms_p99"] =
      w.hist_percentile("mcss_receiver_reassembly_wait_seconds", 99.0) * 1e3;
  out["feedback.reports_per_kpkt"] =
      static_cast<double>(s.reports_sent - stats0.reports_sent) * 1000.0 / pkts;
  out["session.frames_unknown_connection"] = static_cast<double>(
      s.frames_unknown_connection - stats0.frames_unknown_connection);
  out["session.queue_rejects"] =
      static_cast<double>(s.queue_rejects - stats0.queue_rejects);
  out["session.pool_defers"] =
      static_cast<double>(s.pool_defers - stats0.pool_defers);
}

void begin_traced_pass() {
  Tracer::get().enable(true);
  obs::set_metrics_enabled(true);
}

double tracing_overhead(double untraced_cpu_us, double traced_cpu_us) {
  return untraced_cpu_us > 0.0 ? traced_cpu_us / untraced_cpu_us - 1.0 : 0.0;
}

void FlowLedger::sent(std::size_t len, std::int64_t stamp_ns) {
  len_.push_back(static_cast<std::uint32_t>(len));
  stamp_.push_back(stamp_ns);
  got_.push_back(false);
}

void FlowLedger::delivered(std::uint32_t cid, std::uint64_t id,
                           const std::vector<std::uint8_t>& payload) {
  const std::int64_t now = mono_ns();
  if (id == 0 || id > len_.size()) {
    result_.check(false, "delivery of a packet id that was never sent");
    return;
  }
  const std::size_t i = static_cast<std::size_t>(id - 1);
  if (got_[i]) {
    result_.check(false, "packet delivered twice");
    return;
  }
  got_[i] = true;
  ++delivered_;
  result_.check(payloads_.check(cid, id, payload, len_[i]),
                "delivered payload differs from the bytes sent");
  if (sink_ != nullptr && id >= from_id_) {
    sink_->push_back(static_cast<double>(now - stamp_[i]) / 1e6);
  }
}

void usage_layers(const Usage& used, Values& out) {
  out["proc.user_cpu_s"] = used.user_s;
  out["proc.sys_cpu_s"] = used.sys_s;
  out["proc.invol_ctx_switches"] = used.invol_csw;
  out["proc.cpu_util"] = used.wall_s > 0.0 ? used.cpu_s() / used.wall_s : 0.0;
  out["transport.sys_cpu_frac"] =
      used.cpu_s() > 0.0 ? used.sys_s / used.cpu_s() : 0.0;
  const Tracer& t = Tracer::get();
  if (t.root_s() > 0.0) {
    out["self.session_frac"] = t.self_s("session.") / t.root_s();
    out["self.psim_frac"] = t.self_s("workload.") / t.root_s();
    out["self.bench_frac"] = t.self_s("bench.") / t.root_s();
  }
  if (const auto* run_for = t.find("session.run_for");
      run_for != nullptr && t.root_cpu_s() > 0.0) {
    out["session.run_for_cpu_share"] = run_for->cpu_s / t.root_cpu_s();
  }
  if (const auto* send = t.find("session.send")) {
    out["session.send_us_p50"] = percentile(send->durations_us, 50.0);
  }
  if (const auto* close = t.find("session.close_flow")) {
    out["session.close_flow_us_p99"] = percentile(close->durations_us, 99.0);
  }
}

}  // namespace mcssbench
