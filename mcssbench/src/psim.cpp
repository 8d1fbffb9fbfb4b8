// psim: workload::run_multiflow on 8 logical processes, 64 B packets,
// the control plane on (the Planner re-solves). The only workload that
// runs the simulator (net, net/parallel_sim, runtime, sim-side protocol,
// core/lp). A 12k-flow population repeats for the run: first inline on
// one thread (CPU and wall per run), then on two worker threads (phase
// B: CPU per flow; the two-thread wall figures, which on a host with
// CPU steal are too unsteady to bound, are reported per layer). Every
// run must complete every flow with the same fingerprint at both thread
// counts.
#include <cmath>

#include "layers.hpp"
#include "runtime/thread_pool.hpp"
#include "workload/multiflow.hpp"
#include "workloads.hpp"

namespace mcssbench {

namespace {

using namespace mcss;

constexpr std::uint64_t kFlows = 12'000;
constexpr std::uint64_t kSetupFlows = 4'000;
constexpr std::uint32_t kLps = 8;
constexpr unsigned kThreads = 2;
constexpr int kSetups = 5;
constexpr int kMinRepeats = 2;

workload::MultiflowConfig population(std::uint64_t flows, std::uint64_t seed) {
  workload::MultiflowConfig c;
  c.num_lps = kLps;
  c.total_flows = flows;
  c.max_active_per_lp = 48;
  c.kappa = 2.0;
  c.mu = 3.0;
  c.offered_bps = 1e6;
  c.packet_bytes = 64;
  c.flow_duration_s = 0.004;
  // Arrivals paced so the active population stays near the concurrency
  // bound whatever the flow count.
  c.arrival_window_s = static_cast<double>(flows) * c.flow_duration_s /
                       (static_cast<double>(kLps) * c.max_active_per_lp) * 1.5;
  c.seed = seed;
  c.lookahead = net::from_micros(250);
  c.control_plane = true;
  c.control_period_s = 0.05;
  c.control_max_loss = 0.05;
  return c;
}

struct Run {
  workload::MultiflowResult result;
  Usage used;
};

Run run_once(const workload::MultiflowConfig& config) {
  Scope span("workload.run_multiflow");
  Run r;
  const Usage u0 = Usage::now();
  r.result = workload::run_multiflow(config);
  r.used = Usage::now() - u0;
  return r;
}

/// A population must finish every flow; its fingerprint must match the
/// first run of the same config.
void check_run(const Run& r, std::uint64_t flows, std::uint64_t fingerprint,
               Result& result) {
  result.attempted += flows;
  const std::uint64_t missing =
      flows > r.result.flows_completed ? flows - r.result.flows_completed : 0;
  result.failed += missing;
  result.check(missing == 0, "psim: not every flow completed");
  result.check(r.result.fingerprint() == fingerprint,
               "psim: fingerprint differs between runs of one config");
}

struct Pass {
  std::vector<Run> runs;
  std::vector<double> wall_ms;
  std::vector<double> cpu_us_per_flow;
};

/// Repeat the full population until `seconds` have passed (at least
/// kMinRepeats times, so the fingerprint is always compared). Every run
/// must match `fingerprint`, or the first run's when it is 0.
Pass measure(const workload::MultiflowConfig& config, double seconds,
             std::uint64_t fingerprint, Result& result) {
  Pass p;
  const std::int64_t end = mono_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (p.runs.size() < static_cast<std::size_t>(kMinRepeats) || mono_ns() < end) {
    Run r = run_once(config);
    if (fingerprint == 0) fingerprint = r.result.fingerprint();
    check_run(r, config.total_flows, fingerprint, result);
    p.wall_ms.push_back(r.used.wall_s * 1e3);
    p.cpu_us_per_flow.push_back(r.used.cpu_s() * 1e6 /
                                static_cast<double>(config.total_flows));
    p.runs.push_back(std::move(r));
  }
  return p;
}

}  // namespace

Result run_psim(const Options& opts) {
  Result result;
  // The inline path first: the worker pool is sized on first parallel
  // use, which comes after set_threads(kThreads) below.
  runtime::set_threads(1);
  const std::uint64_t seed = SplitMix(opts.seed).next();
  const auto flows = std::max<std::uint64_t>(
      kLps, static_cast<std::uint64_t>(static_cast<double>(kFlows) * opts.scale));
  const auto setup_flows = std::max<std::uint64_t>(
      kLps, static_cast<std::uint64_t>(static_cast<double>(kSetupFlows) * opts.scale));

  // Set-up: a small population, run to completion.
  std::vector<double> setups;
  std::uint64_t setup_fp = 0;
  for (int i = 0; i < kSetups; ++i) {
    const Run r = run_once(population(setup_flows, seed));
    if (i == 0) setup_fp = r.result.fingerprint();
    check_run(r, setup_flows, setup_fp, result);
    setups.push_back(r.used.cpu_s());
  }
  const workload::MultiflowConfig config = population(flows, seed);
  const Pass inline_pass = measure(config, opts.seconds * 0.5, 0, result);
  const std::uint64_t fingerprint = inline_pass.runs.front().result.fingerprint();
  runtime::set_threads(kThreads);
  const Pass parallel = measure(config, opts.seconds * 0.5, fingerprint, result);

  Values& v = result.values;
  v["setup_s"] = median(setups);
  v["peak_rss_mb"] = Usage::now().maxrss_mb;
  v["cpu_us_per_op"] = median(inline_pass.cpu_us_per_flow);
  v["phase_b_us"] = median(parallel.cpu_us_per_flow);
  v["lat_p50_ms"] = median(inline_pass.wall_ms);
  v["tail.lat_p99_ms"] = percentile(inline_pass.wall_ms, 99.0);
  const auto& first = inline_pass.runs.front().result;
  const double events = static_cast<double>(first.partition.events_processed);
  result.samples["setup"] = setups.size();
  result.samples["repeats_1t"] = inline_pass.runs.size();
  result.samples["repeats_2t"] = parallel.runs.size();
  result.samples["flows"] = flows;
  result.samples["events"] = first.partition.events_processed;
  result.samples["fingerprint"] = fingerprint;
  result.notes["sim_mevents_per_s_1t"] = events / (median(inline_pass.wall_ms) / 1e3) / 1e6;
  result.notes["sim_mevents_per_s_2t"] = events / (median(parallel.wall_ms) / 1e3) / 1e6;
  if (!opts.trace) return result;

  Values& l = result.values;
  const net::psim::PartitionStats& ps = first.partition;
  Usage used2;
  for (const Run& r : parallel.runs) used2 += r.used;
  l["psim.windows"] = static_cast<double>(ps.windows);
  l["psim.events_per_window"] =
      ps.windows > 0 ? events / static_cast<double>(ps.windows) : 0.0;
  l["psim.max_window_events"] = static_cast<double>(ps.max_window_events);
  l["psim.cross_events"] = static_cast<double>(ps.cross_events);
  l["psim.control_rounds"] = static_cast<double>(first.control_rounds);
  l["psim.cpu_per_wall"] = used2.wall_s > 0.0 ? used2.cpu_s() / used2.wall_s : 0.0;
  l["psim.speedup_vs_1t"] = median(inline_pass.wall_ms) / median(parallel.wall_ms);
  l["psim.mevents_per_s"] = result.notes["sim_mevents_per_s_2t"];
  const double completed = static_cast<double>(first.flows_completed);
  l["protocol.achieved_kappa"] = completed > 0.0 ? first.sum_kappa / completed : 0.0;
  l["protocol.achieved_mu"] = completed > 0.0 ? first.sum_mu / completed : 0.0;

  // Traced pass: the inline configuration again, spans and registry on.
  begin_traced_pass();
  runtime::set_threads(1);
  const Pass traced = measure(config, opts.seconds * 0.5, fingerprint, result);
  Usage used;
  for (const Run& r : traced.runs) used += r.used;
  usage_layers(used, l);
  // The planner moves (kappa, mu) off 2/3; probe the nearest (k, m).
  const int k = std::max(1, static_cast<int>(std::lround(l["protocol.achieved_kappa"])));
  const int m = std::max(k, static_cast<int>(std::lround(l["protocol.achieved_mu"])));
  const ProbeMix mix{config.packet_bytes, k, m, 1.0};
  const ProbeCost cost = probe_sss(std::span(&mix, 1), false, opts.seed);
  l["sss.split_us_per_pkt"] = cost.split_us;
  l["sss.reconstruct_us_per_pkt"] = cost.reconstruct_us;
  l["sss.cpu_share"] = (cost.split_us + cost.reconstruct_us) *
                       static_cast<double>(first.packets_delivered) / 1e6 /
                       std::max(inline_pass.runs.front().used.cpu_s(), 1e-9);
  l["trace.overhead_frac"] = tracing_overhead(median(inline_pass.cpu_us_per_flow),
                                              median(traced.cpu_us_per_flow));
  result.samples["traced_repeats"] = traced.runs.size();
  return result;
}

}  // namespace mcssbench
