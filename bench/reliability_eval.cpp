// reliability_eval: the reliability/privacy tradeoff on the Section VI
// lossy setup — three delivery strategies over the same five lossy
// channels, same offered load, same (kappa, mu) target:
//
//   best_effort  DynamicScheduler(2, 2) alone: minimal shares, no
//                feedback; whatever the channels drop stays lost
//   arq          the same scheduler under a ReliableLink: receiver
//                reports over a lossy feedback channel, RTO-driven
//                re-split retransmissions, realized-exposure accounting
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
// Each mode is one deterministic simulation (own Simulator, own seeded
// Rng) fanned out over MCSS_THREADS workers; all printing happens on
// the main thread in mode order, so stdout and the JSON document are
// bitwise identical for any thread count.
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.hpp"
#include "core/subset_metrics.hpp"
#include "feedback/redundancy.hpp"
#include "feedback/reliable_link.hpp"
#include "net/sim_channel.hpp"
#include "net/simulator.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "protocol/receiver.hpp"
#include "protocol/scheduler.hpp"
#include "protocol/sender.hpp"
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

  net::Simulator sim;
  Rng rng(point.seed);

  std::vector<std::unique_ptr<net::SimChannel>> channels;
  std::vector<net::SimChannel*> forward;
  for (int i = 0; i < n; ++i) {
    channels.push_back(std::make_unique<net::SimChannel>(
        sim, setup.channels[static_cast<std::size_t>(i)], rng.fork(),
        "fwd" + std::to_string(i)));
    forward.push_back(channels.back().get());
  }

  // Feedback path for ARQ: narrower and itself lossy, like a real
  // reverse channel — reports must survive it or repairs never happen.
  net::ChannelConfig feedback_cfg;
  feedback_cfg.rate_bps = 10e6;
  feedback_cfg.loss = 0.02;
  feedback_cfg.delay = net::from_millis(1);
  net::SimChannel feedback(sim, feedback_cfg, rng.fork(), "feedback");

  ModeResult r;

  std::unique_ptr<proto::ShareScheduler> scheduler;
  feedback::RedundancyPlan plan;
  if (point.mode == Mode::Proactive) {
    plan = feedback::plan_redundancy(
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
    scheduler = std::make_unique<proto::FixedScheduler>(plan.k, plan.channels);
  } else {
    scheduler = std::make_unique<proto::DynamicScheduler>(
        static_cast<double>(kThreshold), static_cast<double>(kThreshold), n);
  }

  proto::Receiver receiver(sim);
  proto::Sender sender(sim, forward, std::move(scheduler), rng.fork());

  const net::SimTime end =
      net::from_seconds(seconds) + net::from_seconds(kDrainSeconds);

  RiskAverager static_risk(model);
  RiskAverager exposure_risk(model);
  std::uint64_t delivered = 0;
  OnlineStats delay;
  std::unordered_map<std::uint64_t, net::SimTime> sent_at;

  std::unique_ptr<feedback::ReliableLink> link;
  if (point.mode == Mode::Arq) {
    feedback::ReliableLinkConfig link_cfg;
    link_cfg.retransmit.max_retransmits = 6;
    link_cfg.retransmit.initial_rto_ns = 100'000'000;
    link_cfg.retransmit.min_rto_ns = 30'000'000;
    link_cfg.report_interval = net::from_millis(20);
    link_cfg.stop_after = end;
    link_cfg.retransmit_extra = 1;
    link_cfg.risks = setup.risks;
    link = std::make_unique<feedback::ReliableLink>(
        sim, sender, receiver, forward, feedback, link_cfg, rng.fork());
    link->set_deliver([&](std::uint64_t, std::vector<std::uint8_t>) {
      ++delivered;
    });
  } else {
    for (auto* ch : forward) receiver.attach(*ch);
    // Without a link the dispatch hook is free: record each packet's
    // initial channel set (== its realized exposure, nothing resends)
    // and its send time for the end-to-end delay figure.
    sender.set_dispatch_hook([&](std::uint64_t id, int,
                                 std::span<const std::uint8_t>,
                                 std::span<const int> chans) {
      std::uint32_t mask = 0;
      for (int c : chans) mask |= std::uint32_t{1} << c;
      static_risk.add(mask);
      exposure_risk.add(mask);
      r.initial_channel_sum += static_cast<std::uint64_t>(chans.size());
      r.exposure_channel_sum += static_cast<std::uint64_t>(chans.size());
      ++r.exposure_records;
      sent_at.emplace(id, sim.now());
    });
    receiver.set_deliver([&](std::uint64_t id, std::vector<std::uint8_t>) {
      ++delivered;
      if (auto it = sent_at.find(id); it != sent_at.end()) {
        delay.add(net::to_seconds(sim.now() - it->second));
      }
    });
  }

  // Paced constant-bitrate source: one packet per interval, stopping
  // after `seconds` so the drain window only carries repairs.
  const auto total = static_cast<std::uint64_t>(pps * seconds);
  const auto interval = static_cast<net::SimTime>(1e9 / pps);
  auto payload_rng = std::make_shared<Rng>(rng.fork());
  for (std::uint64_t i = 0; i < total; ++i) {
    sim.schedule_at(static_cast<net::SimTime>(i) * interval, [&, payload_rng] {
      std::vector<std::uint8_t> payload(kPacketBytes);
      payload_rng->fill(payload);
      (void)sender.send(std::move(payload));
    });
  }
  sim.run_until(end);

  const auto& ss = sender.stats();
  r.packets_offered = total;
  r.packets_sent = ss.packets_sent;
  r.packets_delivered = delivered;
  r.shares_sent = ss.shares_sent + ss.shares_retransmitted;

  if (point.mode == Mode::Arq) {
    // Exposure accounting lives in the manager: closed packets plus
    // whatever the cutoff caught mid-flight.
    auto records = link->manager().drain_closed();
    for (const auto& open : link->manager().snapshot_open()) {
      records.push_back(open);
    }
    for (const auto& rec : records) {
      static_risk.add(rec.initial_mask);
      exposure_risk.add(rec.exposure_mask);
    }
    r.exposure_records = records.size();
    const auto& ms = link->manager().stats();
    r.retransmits = ms.retransmits;
    r.reports_received = ms.reports_received;
    r.reports_sent = link->stats().reports_sent;
    r.initial_channel_sum = ms.initial_channel_sum;
    r.exposure_channel_sum = ms.exposure_channel_sum;
    r.delay_mean_s = ms.delay.mean();
  } else {
    r.delay_mean_s = delay.mean();
  }
  r.static_risk_mean = static_risk.mean();
  r.exposure_risk_mean = exposure_risk.mean();
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
