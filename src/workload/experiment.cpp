#include "workload/experiment.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "core/optimal.hpp"
#include "net/simulator.hpp"
#include "obs/metrics.hpp"
#include "protocol/scheduler.hpp"
#include "protocol/wire.hpp"
#include "util/ensure.hpp"
#include "util/stats.hpp"
#include "workload/traffic.hpp"

namespace mcss::workload {

namespace {

/// End-to-end one-way delay of delivered packets (sim time).
obs::HistogramId delay_hist() {
  if (!obs::metrics_enabled()) return {};
  return obs::Registry::global().histogram("mcss_e2e_delay_seconds",
                                           obs::exp_bounds(1e-5, 2.0, 24));
}

std::unique_ptr<proto::ShareScheduler> make_scheduler(
    const ExperimentConfig& config, Rng rng) {
  const int n = config.setup.num_channels();
  switch (config.scheduler) {
    case SchedulerKind::Dynamic:
      return std::make_unique<proto::DynamicScheduler>(config.kappa, config.mu, n);
    case SchedulerKind::StaticLp: {
      const ChannelSet model = config.setup.to_model(config.packet_bytes);
      ScheduleLpSpec spec;
      spec.objective = config.lp_objective;
      spec.kappa = config.kappa;
      spec.mu = config.mu;
      spec.rate = RateConstraint::MaxRate;
      const auto lp = solve_schedule_lp(model, spec);
      MCSS_ENSURE(lp.status == lp::Status::Optimal,
                  "IV-D schedule LP infeasible for these parameters");
      return std::make_unique<proto::StaticScheduler>(*lp.schedule, rng);
    }
    case SchedulerKind::Proportional: {
      const ChannelSet model = config.setup.to_model(config.packet_bytes);
      return std::make_unique<proto::StaticScheduler>(max_rate_schedule(model), rng);
    }
    case SchedulerKind::Fixed: {
      const int k = static_cast<int>(config.kappa + 0.5);
      proto::ChannelList every;
      for (int i = 0; i < n; ++i) every.push_back(i);
      return std::make_unique<proto::FixedScheduler>(k, every);
    }
    case SchedulerKind::Custom: {
      MCSS_ENSURE(config.custom_schedule.has_value(),
                  "SchedulerKind::Custom requires custom_schedule");
      return std::make_unique<proto::StaticScheduler>(*config.custom_schedule,
                                                      rng);
    }
  }
  MCSS_INVARIANT(false, "unknown scheduler kind");
}

struct CounterSnapshot {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delivered_bytes = 0;
};

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& config) {
  MCSS_ENSURE(config.duration_s > 0.0, "measurement window must be positive");
  MCSS_ENSURE(config.packet_bytes >= 8 &&
                  config.packet_bytes + proto::kHeaderSize <= 64 * 1024,
              "packet size out of range");

  net::Simulator sim;
  Rng root(config.seed);

  // --- channels ------------------------------------------------------
  std::vector<std::unique_ptr<net::SimChannel>> forward_storage, reverse_storage;
  std::vector<net::SimChannel*> forward, reverse;
  for (const auto& cfg : config.setup.channels) {
    forward_storage.push_back(
        std::make_unique<net::SimChannel>(sim, cfg, root.fork()));
    forward.push_back(forward_storage.back().get());
  }
  if (config.echo) {
    for (const auto& cfg : config.setup.channels) {
      reverse_storage.push_back(
          std::make_unique<net::SimChannel>(sim, cfg, root.fork()));
      reverse.push_back(reverse_storage.back().get());
    }
  }

  // --- hosts -----------------------------------------------------------
  net::CpuModel cpu_near(sim, config.cpu);
  net::CpuModel cpu_far(sim, config.cpu);
  net::CpuModel* near_cpu = config.cpu.unlimited ? nullptr : &cpu_near;
  net::CpuModel* far_cpu = config.cpu.unlimited ? nullptr : &cpu_far;

  // --- protocol endpoints ---------------------------------------------
  proto::Receiver far_rx(sim, config.receiver, far_cpu);
  for (auto* ch : forward) far_rx.attach(*ch);
  proto::Sender near_tx(sim, forward, make_scheduler(config, root.fork()),
                        root.fork(), near_cpu, config.sender);

  std::optional<proto::Sender> far_tx;    // echo path
  std::optional<proto::Receiver> near_rx;
  if (config.echo) {
    far_tx.emplace(sim, reverse, make_scheduler(config, root.fork()),
                   root.fork(), far_cpu, config.sender);
    near_rx.emplace(sim, config.receiver, near_cpu);
    for (auto* ch : reverse) near_rx->attach(*ch);
  }

  // --- measurement -----------------------------------------------------
  const net::SimTime window_start = net::from_seconds(config.warmup_s);
  const net::SimTime window_end =
      net::from_seconds(config.warmup_s + config.duration_s);
  OnlineStats delay_stats;
  PercentileTracker delay_tail;
  const auto in_window = [&] {
    return sim.now() >= window_start && sim.now() <= window_end;
  };

  if (config.echo) {
    // Far host: bounce every reconstructed datagram back, unmodified.
    far_rx.set_deliver([&](std::uint64_t, std::vector<std::uint8_t> payload) {
      (void)far_tx->send(std::move(payload));
    });
    // Near host: RTT = now - embedded send timestamp; one-way = RTT / 2.
    near_rx->set_deliver([&](std::uint64_t, std::vector<std::uint8_t> payload) {
      if (!in_window()) return;
      const double rtt = net::to_seconds(sim.now() - payload_timestamp(payload));
      delay_stats.add(rtt / 2.0);
      delay_tail.add(rtt / 2.0);
      if (obs::metrics_enabled()) {
        obs::Registry::global().observe(delay_hist(), rtt / 2.0);
      }
    });
  } else {
    far_rx.set_deliver([&](std::uint64_t, std::vector<std::uint8_t> payload) {
      if (!in_window()) return;
      const double one_way =
          net::to_seconds(sim.now() - payload_timestamp(payload));
      delay_stats.add(one_way);
      delay_tail.add(one_way);
      if (obs::metrics_enabled()) {
        obs::Registry::global().observe(delay_hist(), one_way);
      }
    });
  }

  CounterSnapshot at_start, at_end;
  sim.schedule_at(window_start, [&] {
    at_start = {near_tx.stats().packets_sent, far_rx.stats().packets_delivered,
                far_rx.stats().bytes_delivered};
  });
  sim.schedule_at(window_end, [&] {
    at_end = {near_tx.stats().packets_sent, far_rx.stats().packets_delivered,
              far_rx.stats().bytes_delivered};
  });

  // --- load --------------------------------------------------------------
  CbrSource source(sim, config.offered_bps, config.packet_bytes,
                   /*start=*/0, /*stop=*/window_end,
                   [&](std::vector<std::uint8_t> p) {
                     return near_tx.send(std::move(p));
                   },
                   root.fork()());

  sim.run();

  if (obs::metrics_enabled()) {
    // Publish every component's counters. Counters add, so a sweep of
    // many experiments accumulates fleet totals in the registry.
    auto& registry = obs::Registry::global();
    near_tx.publish_metrics(registry);
    far_rx.publish_metrics(registry);
    if (far_tx) far_tx->publish_metrics(registry);
    if (near_rx) near_rx->publish_metrics(registry);
    for (const auto* ch : forward) publish(registry, ch->stats());
    for (const auto* ch : reverse) publish(registry, ch->stats());
    registry.add(registry.counter("mcss_source_packets_offered"),
                 source.stats().packets_offered);
    registry.add(registry.counter("mcss_source_packets_accepted"),
                 source.stats().packets_accepted);
    registry.add(registry.counter("mcss_experiments_run"), 1);
  }

  // --- results -----------------------------------------------------------
  ExperimentResult result;
  result.offered_mbps = config.offered_bps / 1e6;
  result.packets_sent_window = at_end.sent - at_start.sent;
  result.packets_delivered_window = at_end.delivered - at_start.delivered;
  result.achieved_mbps =
      static_cast<double>(at_end.delivered_bytes - at_start.delivered_bytes) *
      8.0 / config.duration_s / 1e6;
  // Loss over the WHOLE drained run: every share in flight at source stop
  // has resolved (delivered or evicted) by now, so delivered/sent is an
  // unbiased estimate of the symbol loss probability, unlike a windowed
  // ratio which charges the in-flight tail as loss.
  const std::uint64_t total_sent = near_tx.stats().packets_sent;
  const std::uint64_t total_delivered = far_rx.stats().packets_delivered;
  result.loss_fraction =
      total_sent ? 1.0 - static_cast<double>(total_delivered) /
                             static_cast<double>(total_sent)
                 : 0.0;
  result.mean_delay_s = delay_stats.mean();
  result.p99_delay_s = delay_tail.percentile(99.0);
  result.achieved_kappa = near_tx.stats().achieved_kappa();
  result.achieved_mu = near_tx.stats().achieved_mu();
  result.sender_stats = near_tx.stats();
  result.receiver_stats = far_rx.stats();
  return result;
}

}  // namespace mcss::workload
