// churn: 50k concurrent flows on one SessionEndpoint over three clean
// lanes, ARQ on with the default RTO, 64 B payloads. Set-up ramps to the
// population (every new flow sends one packet) and drains. The measured
// phase is a fixed count of replacements in batches of 64: close_flow on
// a seeded victim, open_flow, one send. The flow table, admission, RTO
// arm/cancel on the shared wheel, the wall-driven timeline and report
// coalescing do the work; sss and crypto do almost none.
#include <memory>

#include "layers.hpp"
#include "workloads.hpp"

namespace mcssbench {

namespace {

using namespace mcss;

constexpr std::size_t kPayload = 64;
constexpr std::size_t kFlows = 50'000;
/// Phase B repeats the replacements on a population a tenth the size:
/// what the per-flow loop costs scale with shows as the gap.
constexpr std::size_t kSmallFlows = 5'000;
constexpr std::size_t kBatch = 64;
constexpr int kSetups = 3;
/// Replacement batches per measured second: a fixed count, sized so the
/// two phases take about --seconds on a 4-core Xeon host.
constexpr double kBatchesPerSecond = 550.0;

LiveShape churn_shape(std::uint64_t seed, std::size_t flows, bool telemetry) {
  LiveShape shape;
  for (int i = 0; i < 3; ++i) {
    net::ChannelConfig c = clean_channel();
    c.rate_bps = 2e9;
    shape.channels.push_back(c);
  }
  shape.auth = false;
  shape.max_flows = flows + 16;
  shape.per_flow_memory_bytes = 64u << 10;
  shape.max_queue_packets = 16;
  shape.max_dispatch_per_pump = 1024;
  // A deep arena: the population's transient partials share it with the
  // socket path.
  shape.pool_slots = 8192;
  shape.report_interval_ns = 20'000'000;
  shape.telemetry = telemetry;
  shape.seed = seed;
  return shape;
}

session::FlowParams churn_params() {
  session::FlowParams params;
  params.rate_pps = 2.0;  // admission price; keeps the population in budget
  params.payload_bytes = kPayload;
  return params;
}

struct Totals {
  proto::ReceiverStats receiver;
  std::uint64_t packets_sent = 0;
  std::uint64_t retransmitted = 0;
  double sum_k = 0.0;
  double sum_m = 0.0;
  std::uint64_t abandoned = 0;
};

class Churn {
 public:
  Churn(std::uint64_t seed, std::size_t flows, bool telemetry,
        const Payloads& payloads, Result& result)
      : ep_(live_config(churn_shape(seed, flows, telemetry))),
        payloads_(payloads),
        result_(result),
        victims_(seed ^ 0xC0FFEEULL),
        flows_(flows) {
    ep_.set_deliver([this](std::uint32_t cid, std::uint64_t id,
                           std::vector<std::uint8_t> payload) {
      if (cid >= state_.size() || id != 1 || state_[cid].delivered) {
        result_.check(false, "churn: unexpected delivery");
        return;
      }
      state_[cid].delivered = true;
      ++delivered_;
      result_.check(payloads_.check(cid, id, payload, kPayload),
                    "churn: delivered payload differs from the bytes sent");
    });
  }

  /// Open a flow and send its packet; false (and a failure) on refusal.
  bool open_one(std::vector<double>* open_us) {
    ++result_.attempted;
    const std::int64_t t0 = mono_ns();
    std::optional<std::uint32_t> cid;
    {
      Scope span("session.open_flow");
      cid = ep_.open_flow(churn_params());
    }
    if (open_us != nullptr) {
      open_us->push_back(static_cast<double>(mono_ns() - t0) / 1e3);
    }
    if (!cid) {
      ++result_.failed;
      return false;
    }
    if (*cid >= state_.size()) state_.resize(*cid + 1 + state_.size() / 2);
    bool sent = false;
    {
      Scope span("session.send");
      sent = ep_.send(*cid, payloads_.make(*cid, 1, kPayload));
    }
    if (!sent) {
      ++result_.failed;
    } else {
      state_[*cid].sent = true;
      ++sent_;
    }
    open_.push_back(*cid);
    return true;
  }

  /// Ramp to the population and drain; false when the drain cap hit.
  bool ramp() {
    Scope span("bench.churn.ramp");
    open_.reserve(flows_);
    while (open_.size() < flows_) {
      for (std::size_t i = 0; i < 256 && open_.size() < flows_; ++i) {
        if (!open_one(nullptr)) return false;
      }
      Scope run_for("session.run_for", true);
      ep_.run_for(200'000);
    }
    return settle();
  }

  /// Replace `batches` x 64 flows; stops early (reporting the rest as
  /// failed) when `cap_s` of wall time runs out.
  void replace(std::size_t batches, double cap_s, std::vector<double>& open_us,
               Totals* totals) {
    Scope span("bench.churn.replace");
    const std::int64_t cap =
        mono_ns() + static_cast<std::int64_t>(std::min(cap_s, budget_left_s()) * 1e9);
    for (std::size_t b = 0; b < batches; ++b) {
      if (mono_ns() >= cap) {
        const std::uint64_t rest = (batches - b) * kBatch;
        result_.attempted += rest;
        result_.failed += rest;
        result_.check(false, "churn: replacement phase hit its wall-time cap");
        return;
      }
      for (std::size_t i = 0; i < kBatch; ++i) {
        const std::size_t slot = pick_victim();
        const std::uint32_t victim = open_[slot];
        if (totals != nullptr) fold(victim, *totals);
        bool closed = false;
        {
          Scope close("session.close_flow");
          closed = ep_.close_flow(victim);
        }
        result_.check(closed, "churn: close_flow on an open flow failed");
        open_[slot] = open_.back();
        open_.pop_back();
        open_one(&open_us);
      }
      Scope run_for("session.run_for", true);
      ep_.run_for(100'000);
    }
  }

  /// Drain until every sent packet is delivered; the rest are failures.
  bool settle() {
    const bool ok = drain(ep_, 20.0, [this] { return delivered_ == sent_; });
    result_.check(ok, "churn: packets accepted but never delivered");
    result_.failed += sent_ - delivered_;
    sent_ = delivered_;
    return ok;
  }

  void fold_open(Totals& totals) {
    for (const std::uint32_t cid : open_) fold(cid, totals);
  }

  session::SessionEndpoint& ep() { return ep_; }
  std::uint64_t delivered() const { return delivered_; }

 private:
  /// A seeded victim whose packet has been delivered: closing a flow
  /// with data in flight would lose that packet by design, which is not
  /// what this workload measures.
  std::size_t pick_victim() {
    std::size_t slot = static_cast<std::size_t>(victims_.below(open_.size()));
    for (std::size_t tries = 0; tries < open_.size(); ++tries) {
      if (state_[open_[slot]].delivered) return slot;
      slot = (slot + 1) % open_.size();
    }
    return slot;
  }

  void fold(std::uint32_t cid, Totals& t) {
    if (const proto::Receiver* r = ep_.flow_receiver(cid)) {
      const proto::ReceiverStats& s = r->stats();
      t.receiver.packets_evicted_memory += s.packets_evicted_memory;
      t.receiver.packets_evicted_timeout += s.packets_evicted_timeout;
      t.receiver.late_shares += s.late_shares;
      t.receiver.duplicate_shares += s.duplicate_shares;
    }
    if (const proto::SenderStats* s = ep_.flow_sender_stats(cid)) {
      t.packets_sent += s->packets_sent;
      t.retransmitted += s->packets_retransmitted;
      t.sum_k += s->sum_k;
      t.sum_m += s->sum_m;
    }
    if (feedback::RetransmitManager* m = ep_.flow_manager(cid)) {
      t.abandoned += m->stats().packets_abandoned;
    }
  }

  struct FlowState {
    bool sent = false;
    bool delivered = false;
  };

  session::SessionEndpoint ep_;
  const Payloads& payloads_;
  Result& result_;
  SplitMix victims_;
  std::size_t flows_;
  std::vector<std::uint32_t> open_;
  std::vector<FlowState> state_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
};

struct Pass {
  Usage used;
  std::uint64_t replacements = 0;
  std::vector<double> open_us;
  double cpu_us_per_op = 0.0;  ///< median over slices
};

/// The replacements run in kSlices equal slices, each yielding its own
/// CPU cost per replacement; the pass reports their median, which a
/// burst of load from other processes on the host moves far less than a
/// whole-pass mean.
constexpr std::size_t kSlices = 20;

Pass measure(Churn& c, std::size_t batches, double cap_s, Totals* totals) {
  Pass p;
  const std::uint64_t opened0 = c.ep().stats().flows_opened;
  const std::int64_t end = mono_ns() + static_cast<std::int64_t>(cap_s * 1e9);
  const std::size_t per_slice = std::max<std::size_t>(1, batches / kSlices);
  std::vector<double> slice_cpu_us;
  for (std::size_t done = 0; done < batches; done += per_slice) {
    const std::size_t n = std::min(per_slice, batches - done);
    const std::uint64_t opened = c.ep().stats().flows_opened;
    const Usage u0 = Usage::now();
    c.replace(n, static_cast<double>(end - mono_ns()) / 1e9, p.open_us, totals);
    const Usage used = Usage::now() - u0;
    p.used += used;
    const std::uint64_t got = c.ep().stats().flows_opened - opened;
    if (got > 0) slice_cpu_us.push_back(used.cpu_s() * 1e6 / static_cast<double>(got));
  }
  c.settle();
  p.replacements = c.ep().stats().flows_opened - opened0;
  p.cpu_us_per_op = median(slice_cpu_us);
  return p;
}

}  // namespace

Result run_churn(const Options& opts) {
  Result result;
  const Payloads payloads(opts.seed);
  const std::size_t flows = std::max(
      kBatch, static_cast<std::size_t>(static_cast<double>(kFlows) * opts.scale));
  const auto batches = static_cast<std::size_t>(
      kBatchesPerSecond * opts.seconds * opts.scale) + 1;
  std::vector<double> setups;
  double mem_per_flow_kb = 0.0;
  std::unique_ptr<Churn> c;
  for (int i = 0; i < kSetups; ++i) {
    c.reset();
    const double rss0 = rss_mb();
    const Usage u0 = Usage::now();
    c = std::make_unique<Churn>(opts.seed + static_cast<std::uint64_t>(i), flows,
                                false, payloads, result);
    const bool ok = c->ramp();
    result.check(ok, "churn: ramp did not reach its population");
    setups.push_back((Usage::now() - u0).cpu_s());
    // Later ramps reuse the allocator's freed pages; only the first sees
    // the population's full footprint.
    if (i == 0) mem_per_flow_kb = (rss_mb() - rss0) * 1024.0 / static_cast<double>(flows);
  }
  const Pass base = measure(*c, batches, 4.0 * opts.seconds + 10.0, nullptr);
  result.check(c->ep().num_flows() == flows, "churn: population not sustained");
  c.reset();
  const std::size_t small_flows = std::max(
      kBatch, static_cast<std::size_t>(static_cast<double>(kSmallFlows) * opts.scale));
  auto small = std::make_unique<Churn>(opts.seed + 500, small_flows, false,
                                       payloads, result);
  result.check(small->ramp(), "churn: small ramp did not reach its population");
  const Pass small_pass = measure(*small, batches / 3 + 1, 4.0 * opts.seconds + 10.0,
                                  nullptr);
  small.reset();

  Values& v = result.values;
  v["setup_s"] = median(setups);
  v["peak_rss_mb"] = Usage::now().maxrss_mb;
  v["cpu_us_per_op"] = base.cpu_us_per_op;
  v["phase_b_us"] = small_pass.cpu_us_per_op;
  v["lat_p50_ms"] = percentile(base.open_us, 50.0) / 1e3;
  v["tail.lat_p99_ms"] = percentile(base.open_us, 99.0) / 1e3;
  result.samples["setup"] = setups.size();
  result.samples["flows"] = flows;
  result.samples["replacements"] = base.replacements;
  result.samples["small_flows"] = small_flows;
  result.samples["small_replacements"] = small_pass.replacements;
  result.samples["open_latency"] = base.open_us.size();
  result.notes["opens_per_cpu_s"] = 1e6 / base.cpu_us_per_op;
  result.notes["open_p50_us"] = percentile(base.open_us, 50.0);
  result.notes["open_p99_us"] = percentile(base.open_us, 99.0);
  result.notes["mem_per_flow_kb"] = mem_per_flow_kb;
  if (!opts.trace) return result;

  begin_traced_pass();
  auto t = std::make_unique<Churn>(opts.seed + 1000, flows, true, payloads, result);
  result.check(t->ramp(), "churn: traced ramp did not reach its population");
  const session::SessionStats stats0 = t->ep().stats();
  const std::uint64_t waits0 = t->ep().poller().wait_calls();
  const std::uint64_t delivered0 = t->delivered();
  Tracer::get().reset_aggregates();
  RegistryWindow window;
  window.start();
  Totals totals;
  const Pass traced = measure(*t, batches, 4.0 * opts.seconds + 10.0, &totals);
  t->fold_open(totals);
  t->ep().publish_metrics(obs::Registry::global());
  window.stop();

  Values& l = result.values;
  const double delivered = static_cast<double>(t->delivered() - delivered0);
  live_layers(t->ep(), window, stats0, waits0, delivered, l);
  usage_layers(traced.used, l);
  const ProbeMix mix{kPayload, 2, 3, 1.0};
  const ProbeCost cost = probe_sss(std::span(&mix, 1), false, opts.seed);
  l["sss.split_us_per_pkt"] = cost.split_us;
  l["sss.reconstruct_us_per_pkt"] = cost.reconstruct_us;
  l["crypto.tag_us_per_pkt"] = cost.tag_us;
  l["sss.cpu_share"] = (cost.split_us + cost.reconstruct_us) * delivered / 1e6 /
                       std::max(traced.used.cpu_s(), 1e-9);
  l["protocol.evicted_memory"] =
      static_cast<double>(totals.receiver.packets_evicted_memory);
  l["protocol.evicted_timeout"] =
      static_cast<double>(totals.receiver.packets_evicted_timeout);
  l["protocol.late_shares"] = static_cast<double>(totals.receiver.late_shares);
  l["protocol.duplicate_shares"] =
      static_cast<double>(totals.receiver.duplicate_shares);
  const double sent = std::max(static_cast<double>(totals.packets_sent), 1.0);
  l["protocol.achieved_kappa"] = totals.sum_k / sent;
  l["protocol.achieved_mu"] = totals.sum_m / sent;
  l["feedback.retransmits_per_kpkt"] =
      static_cast<double>(totals.retransmitted) * 1000.0 / sent;
  l["feedback.packets_abandoned"] = static_cast<double>(totals.abandoned);
  l["session.mem_per_flow_kb"] = mem_per_flow_kb;
  l["trace.overhead_frac"] =
      tracing_overhead(base.cpu_us_per_op, traced.cpu_us_per_op);
  result.samples["traced_replacements"] = traced.replacements;
  return result;
}

}  // namespace mcssbench
