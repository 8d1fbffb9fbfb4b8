// reliability_eval: the reliability/privacy tradeoff on the Section VI
// lossy setup — three delivery strategies over the same five lossy
// channels, same offered load, same (kappa, mu) target:
//
//   best_effort  DynamicScheduler(2, 2) alone: minimal shares, no
//                feedback; whatever the channels drop stays lost
//   arq          the same scheduler with the endpoint's reliability on:
//                receiver reports over a lossy feedback channel,
//                RTO-driven re-split retransmissions, realized-exposure
//                accounting
//   proactive    plan_redundancy() picks the smallest n > k channel
//                subset whose closed-form l(k, M) clears the delivery
//                target; every packet is k-of-n up front, no feedback
//
// For each mode the table reports delivery probability, share overhead,
// repair/report counts, end-to-end delay, and — the privacy half — the
// mean z(k, M) over the packets' INITIAL channel sets next to the mean
// over their REALIZED exposure sets (union across retransmissions).
// For best_effort and proactive the two coincide by construction; for
// ARQ the gap is the measured privacy price of reactive repair.
//
//   reliability_eval [--obs] [--seconds S] [--pps P]
//                    [--out BENCH_reliability.json]
//
// Each mode is one session::SessionEndpoint with one flow, run on
// virtual time (no sockets, the timeline's clock): the live endpoint's
// pump, wake plan, receive path and ARQ, deterministic under its seed.
// The modes fan out over MCSS_THREADS workers; all printing happens on
// the main thread in mode order, so stdout and the JSON document are
// bitwise identical for any thread count.
#include <bit>
#include <cstdio>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/subset_metrics.hpp"
#include "feedback/redundancy.hpp"
#include "net/sim_time.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "session/session_endpoint.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/subset.hpp"

namespace {

using namespace mcss;
using bench::kPacketBytes;

constexpr int kThreshold = 2;        // k: shares needed to reconstruct
constexpr double kTargetDelivery = 0.9995;  // proactive planning goal
constexpr double kDrainSeconds = 2.5;       // post-send repair window

enum class Mode { BestEffort, Arq, Proactive };

struct ModePoint {
  Mode mode;
  const char* name;
  std::uint64_t seed;
};

struct ModeResult {
  std::uint64_t packets_offered = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t shares_sent = 0;           ///< including retransmitted shares
  std::uint64_t retransmits = 0;
  std::uint64_t reports_sent = 0;
  std::uint64_t reports_received = 0;
  std::uint64_t exposure_records = 0;      ///< packets with exposure accounting
  std::uint64_t initial_channel_sum = 0;
  std::uint64_t exposure_channel_sum = 0;
  double static_risk_mean = 0.0;    ///< mean z(k, initial channel set)
  double exposure_risk_mean = 0.0;  ///< mean z(k, realized exposure set)
  double delay_mean_s = 0.0;
  double plan_loss = -1.0;          ///< proactive only: predicted l(k, M)
  bool plan_feasible = false;
  std::string plan_channels = "[]";
};

/// Mean subset risk over a mask multiset, memoizing per distinct mask
/// (a mode realizes only a handful of distinct channel sets).
class RiskAverager {
 public:
  explicit RiskAverager(const ChannelSet& model) : model_(model) {}

  void add(std::uint32_t mask) {
    auto [it, inserted] = cache_.try_emplace(mask, 0.0);
    if (inserted) it->second = subset_risk(model_, kThreshold, Mask{mask});
    sum_ += it->second;
    ++count_;
  }

  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

 private:
  const ChannelSet& model_;
  std::map<std::uint32_t, double> cache_;
  double sum_ = 0.0;
  std::uint64_t count_ = 0;
};

ModeResult run_mode(const ModePoint& point, double pps, double seconds) {
  const workload::Setup setup = workload::lossy_setup();
  const ChannelSet model = setup.to_model(kPacketBytes);
  const int n = setup.num_channels();

  ModeResult r;

  // The endpoint's channel j is setup channel to_setup[j]: every setup
  // channel, or the proactive plan's subset.
  std::vector<int> to_setup;
  session::SessionConfig cfg;
  cfg.virtual_time = true;
  cfg.seed = point.seed;
  cfg.kappa = kThreshold;
  cfg.mu = kThreshold;
  if (point.mode == Mode::Proactive) {
    const feedback::RedundancyPlan plan = feedback::plan_redundancy(
        model, {.k = kThreshold, .target_delivery = kTargetDelivery,
                .offered_pps = pps});
    r.plan_loss = plan.predicted_loss;
    r.plan_feasible = plan.feasible;
    std::string joined = "[";
    for (std::size_t i = 0; i < plan.channels.size(); ++i) {
      if (i != 0) joined += ",";
      joined += std::to_string(plan.channels[i]);
    }
    joined += "]";
    r.plan_channels = std::move(joined);
    // k-of-|plan| over exactly the plan: DynamicScheduler with m = n
    // takes every channel.
    to_setup = plan.channels;
    cfg.kappa = plan.k;
    cfg.mu = static_cast<double>(plan.channels.size());
  } else {
    for (int i = 0; i < n; ++i) to_setup.push_back(i);
  }
  for (const int i : to_setup) {
    cfg.channels.push_back({setup.channels[static_cast<std::size_t>(i)],
                            "fwd" + std::to_string(i)});
  }
  if (point.mode == Mode::Arq) {
    session::ReliabilityConfig& rel = cfg.reliability;
    rel.enabled = true;
    rel.retransmit.max_retransmits = 6;
    rel.retransmit.initial_rto_ns = 100'000'000;
    rel.retransmit.min_rto_ns = 30'000'000;
    rel.report_interval_ns = 20'000'000;
    rel.retransmit_extra = 1;
    rel.channel_risks = setup.risks;
    // Narrower and itself lossy, like a real reverse channel — reports
    // must survive it or repairs never happen.
    rel.feedback_channel = {.rate_bps = 10e6,
                            .loss = 0.02,
                            .delay = net::from_millis(1)};
  }

  session::SessionEndpoint ep(std::move(cfg));
  const std::uint32_t cid =
      ep.open_flow({.rate_pps = pps, .payload_bytes = kPacketBytes}).value();

  // Each packet's initial channel set (its generation-0 emit) and its
  // realized exposure (the union over every emit), in setup indices.
  struct Exposure {
    std::uint32_t initial = 0;
    std::uint32_t realized = 0;
  };
  std::vector<Exposure> exposure;  // indexed by packet id - 1
  std::vector<std::int64_t> sent_at;
  ep.set_on_emit([&](std::uint32_t, std::uint64_t id, std::uint8_t generation,
                     int, std::span<const int> chans) {
    std::uint32_t mask = 0;
    for (const int c : chans) {
      mask |= std::uint32_t{1} << to_setup[static_cast<std::size_t>(c)];
    }
    if (exposure.size() < id) {
      exposure.resize(id);
      sent_at.resize(id);
    }
    Exposure& e = exposure[id - 1];
    if (generation == 0) {
      e.initial = mask;
      sent_at[id - 1] = ep.now_ns();
    }
    e.realized |= mask;
  });
  std::uint64_t delivered = 0;
  OnlineStats delay;
  ep.set_deliver([&](std::uint32_t, std::uint64_t id,
                     std::vector<std::uint8_t>) {
    ++delivered;
    delay.add(net::to_seconds(ep.now_ns() - sent_at[id - 1]));
  });

  // Paced constant-bitrate source: one packet per interval, stopping
  // after `seconds` so the drain window only carries repairs.
  const auto total = static_cast<std::uint64_t>(pps * seconds);
  const auto interval = static_cast<std::int64_t>(1e9 / pps);
  const std::int64_t end =
      net::from_seconds(seconds) + net::from_seconds(kDrainSeconds);
  Rng payload_rng(~point.seed);
  for (std::uint64_t i = 0; i < total; ++i) {
    std::vector<std::uint8_t> payload(kPacketBytes);
    payload_rng.fill(payload);
    (void)ep.send(cid, std::move(payload));
    ep.run_for(interval);
  }
  ep.run_for(end - ep.now_ns());

  const proto::SenderStats& ss = *ep.flow_sender_stats(cid);
  r.packets_offered = total;
  r.packets_sent = ss.packets_sent;
  r.packets_delivered = delivered;
  r.shares_sent = ss.shares_sent + ss.shares_retransmitted;
  r.retransmits = ss.packets_retransmitted;

  RiskAverager static_risk(model);
  RiskAverager exposure_risk(model);
  for (const Exposure& e : exposure) {
    static_risk.add(e.initial);
    exposure_risk.add(e.realized);
    r.initial_channel_sum += static_cast<std::uint64_t>(std::popcount(e.initial));
    r.exposure_channel_sum +=
        static_cast<std::uint64_t>(std::popcount(e.realized));
  }
  r.exposure_records = exposure.size();
  r.static_risk_mean = static_risk.mean();
  r.exposure_risk_mean = exposure_risk.mean();
  if (const feedback::RetransmitManager* manager = ep.flow_manager(cid)) {
    r.reports_sent = ep.stats().reports_sent;
    r.reports_received = manager->stats().reports_received;
    r.delay_mean_s = manager->stats().delay.mean();
  } else {
    r.delay_mean_s = delay.mean();
  }
  return r;
}

void publish_mode(obs::Registry& registry, const ModePoint& point,
                  const ModeResult& r) {
  const std::string prefix = std::string("mcss_reliability_") + point.name;
  const auto gauge = [&](const char* suffix, double value) {
    registry.set(registry.gauge(prefix + suffix), value);
  };
  gauge("_delivery", r.packets_sent == 0
                         ? 0.0
                         : static_cast<double>(r.packets_delivered) /
                               static_cast<double>(r.packets_sent));
  gauge("_static_risk_mean", r.static_risk_mean);
  gauge("_exposure_risk_mean", r.exposure_risk_mean);
  const auto add = [&](const char* suffix, std::uint64_t value) {
    registry.add(registry.counter(prefix + suffix), value);
  };
  add("_retransmits", r.retransmits);
  add("_initial_channel_sum", r.initial_channel_sum);
  add("_exposure_channel_sum", r.exposure_channel_sum);
}

}  // namespace

int main(int argc, char** argv) {
  bool obs_on = false;
  double seconds = 2.0;
  double pps = 1200.0;
  std::string out_path = "BENCH_reliability.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--obs") == 0) {
      obs_on = true;
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--pps") == 0 && i + 1 < argc) {
      pps = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: reliability_eval [--obs] [--seconds S] [--pps P]"
                   " [--out FILE]\n");
      return 2;
    }
  }
  if (obs_on) obs::set_metrics_enabled(true);

  char title[160];
  std::snprintf(title, sizeof title,
                "reliability_eval: best-effort vs ARQ vs proactive on the "
                "lossy setup, k=%d, %.0f pps x %.2f s",
                kThreshold, pps, seconds);
  bench::print_header(
      title,
      "mode         delivered  delivery  shares/pkt  rexmit  reports"
      "  static_z  exposure_z  delay_ms");

  const std::vector<ModePoint> points = {
      {Mode::BestEffort, "best_effort", 0x52454C01},
      {Mode::Arq, "arq", 0x52454C02},
      {Mode::Proactive, "proactive", 0x52454C03},
  };

  std::string modes_json = "[";
  std::map<std::string, ModeResult> by_name;
  bench::sweep_points(
      points, [&](const ModePoint& p) { return run_mode(p, pps, seconds); },
      [&](const ModePoint& p, ModeResult r) {
        const double delivery =
            r.packets_sent == 0
                ? 0.0
                : static_cast<double>(r.packets_delivered) /
                      static_cast<double>(r.packets_sent);
        const double shares_per_packet =
            r.packets_sent == 0
                ? 0.0
                : static_cast<double>(r.shares_sent) /
                      static_cast<double>(r.packets_sent);
        std::printf("%-12s %9llu  %8.6f  %10.6f  %6llu  %7llu  %8.6f"
                    "  %10.6f  %8.3f\n",
                    p.name,
                    static_cast<unsigned long long>(r.packets_delivered),
                    delivery, shares_per_packet,
                    static_cast<unsigned long long>(r.retransmits),
                    static_cast<unsigned long long>(r.reports_received),
                    r.static_risk_mean, r.exposure_risk_mean,
                    r.delay_mean_s * 1e3);

        obs::JsonRow row;
        row.field("mode", p.name)
            .field("packets_offered", r.packets_offered)
            .field("packets_sent", r.packets_sent)
            .field("packets_delivered", r.packets_delivered)
            .field("delivery", delivery)
            .field("shares_sent", r.shares_sent)
            .field("shares_per_packet", shares_per_packet)
            .field("retransmits", r.retransmits)
            .field("reports_sent", r.reports_sent)
            .field("reports_received", r.reports_received)
            .field("exposure_records", r.exposure_records)
            .field("initial_channel_sum", r.initial_channel_sum)
            .field("exposure_channel_sum", r.exposure_channel_sum)
            .field("static_risk_mean", r.static_risk_mean)
            .field("exposure_risk_mean", r.exposure_risk_mean)
            .field("delay_mean_s", r.delay_mean_s);
        if (p.mode == Mode::Proactive) {
          row.field("plan_loss", r.plan_loss)
              .field("plan_feasible", r.plan_feasible)
              .field_raw("plan_channels", r.plan_channels);
        }
        if (modes_json.size() > 1) modes_json += ",";
        modes_json += row.str();

        if (obs::metrics_enabled()) {
          publish_mode(obs::Registry::global(), p, r);
        }
        by_name.emplace(p.name, std::move(r));
      });
  modes_json += "]";

  const auto delivery_of = [&](const char* name) {
    const ModeResult& r = by_name.at(name);
    return r.packets_sent == 0
               ? 0.0
               : static_cast<double>(r.packets_delivered) /
                     static_cast<double>(r.packets_sent);
  };
  const ModeResult& arq = by_name.at("arq");
  const ModeResult& proactive = by_name.at("proactive");

  // Shape gates, in tradeoff order: ARQ must actually repair (the ISSUE
  // acceptance bar is >= 99.9% over lossy channels), repairs must cost
  // measurable exposure (realized z at or above the plan's), and the
  // proactive plan must buy its reliability with shares, not luck.
  bool pass = true;
  const auto gate = [&](bool ok, const char* what) {
    if (!ok) {
      std::printf("# GATE FAIL: %s\n", what);
      pass = false;
    }
  };
  gate(delivery_of("arq") >= 0.999, "ARQ delivery >= 0.999");
  gate(delivery_of("best_effort") < delivery_of("arq"),
       "best-effort delivers less than ARQ");
  gate(arq.retransmits > 0, "ARQ performed retransmissions");
  gate(arq.exposure_risk_mean >= arq.static_risk_mean - 1e-12,
       "ARQ realized exposure risk >= static plan risk");
  gate(arq.exposure_channel_sum >= arq.initial_channel_sum,
       "exposure sets cover initial sets");
  gate(proactive.plan_feasible, "proactive plan met the delivery target");
  gate(delivery_of("proactive") >= 0.998, "proactive delivery >= 0.998");
  gate(proactive.shares_sent * by_name.at("best_effort").packets_sent >
           by_name.at("best_effort").shares_sent * proactive.packets_sent,
       "proactive pays more shares per packet than best-effort");
  gate(proactive.retransmits == 0 && by_name.at("best_effort").retransmits == 0,
       "only ARQ retransmits");

  obs::JsonRow doc;
  doc.field("bench", "reliability_eval")
      .field("setup", "lossy")
      .field("k", kThreshold)
      .field("target_delivery", kTargetDelivery)
      .field("pps", pps)
      .field("seconds", seconds)
      .field("drain_seconds", kDrainSeconds)
      .field("packet_bytes", static_cast<std::uint64_t>(kPacketBytes))
      .field("pass", pass)
      .field_raw("modes", modes_json);
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(f, "%s\n", doc.str().c_str());
    std::fclose(f);
    std::printf("# wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    pass = false;
  }

  if (obs_on) {
    const auto snapshot = obs::Registry::global().snapshot();
    std::printf("\n%s", obs::prometheus_text(snapshot).c_str());
  }

  std::printf("# shape check: %s\n",
              pass ? "PASS (ARQ repairs, exposure priced, proactive plans)"
                   : "FAIL");
  return pass ? 0 : 1;
}
