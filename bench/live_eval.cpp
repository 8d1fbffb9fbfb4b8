// live_eval: the Section VI comparison, but over real sockets.
//
// Runs ReMICSS through the live loopback transport (one flow on a
// session::SessionEndpoint over src/transport's UDP channels) on
// the paper's five-channel setups — Diverse rates, Lossy, Delayed — with
// the userspace impairment shim playing the role of htb + netem, and
// compares what was measured against what the model predicts:
//
//   rate   measured goodput vs the Theorem 4 optimal rate
//   loss   measured end-to-end loss vs the IV-D LP loss at max rate
//   delay  measured packet delay vs the IV-D LP expected delay
//
// Two passes over the setups. The paced pass offers 0.9x the optimum
// (the paper's "at the rate measured in the rate experiment"). The
// saturating pass offers 1.2x on Identical, Diverse, Lossy and Delayed,
// so the channels, not the offered load, bound goodput: that is the
// paper's headline, ReMICSS within 3-4% of the Theorem 4 optimum, and
// its gate is >= 0.96x the optimum on Identical and Diverse.
//
//   live_eval [--obs] [--seconds S] [--out BENCH_live.json]
//
// Results go to stdout as a table and to --out as JSON (schema below).
// With --obs the run also publishes transport metrics into the obs
// registry, prints the Prometheus snapshot, and writes a Chrome trace
// (live_trace.json) of the live run's split/share/packet spans.
//
// Unlike the simulator benches this measures wall time on a shared
// machine, so the shape checks are deliberately loose: they catch a
// transport that wedges or grossly diverges, not single-percent drift.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "core/lp_schedule.hpp"
#include "core/rate.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "session/session_endpoint.hpp"
#include "util/rng.hpp"
#include "workload/setups.hpp"

namespace {

using namespace mcss;

constexpr std::size_t kPacketBytes = 1470;  // iperf-style datagram
/// Fastpath-section payload: small on purpose. At 1470B the run is
/// bound by GF(256) split/reconstruct arithmetic (~20 cycles/byte) and
/// syscall savings disappear into protocol cost; at 128B the per-packet
/// fixed costs the batching work targets — syscalls, buffer handling —
/// dominate, so the before/after actually measures them.
constexpr std::size_t kFastpathBytes = 128;
constexpr double kKappa = 2.0;
constexpr double kMu = 3.0;
/// Saturating pass: offered load as a multiple of the Theorem 4 rate,
/// the send queue, the goodput gate (the paper's 3-4% from optimal),
/// and the per-channel rate of the Identical setup (as in fig3).
constexpr double kSaturateLoad = 1.2;
constexpr std::size_t kSaturateQueue = 64;
constexpr double kSaturateGate = 0.96;
constexpr double kIdenticalMbps = 100.0;

/// Cycle counter for the cycles_per_byte column. On x86 this is the TSC;
/// elsewhere it falls back to the endpoint-independent steady clock in
/// nanoseconds, which on modern parts is within small-integer factors of
/// a cycle — the column is for before/after comparison on one machine,
/// not cross-machine absolutes.
std::uint64_t cycle_now() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// The host CPU's model name, recorded beside the core count so every
/// number in BENCH_live.json names the machine that produced it.
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(": ");
    if (colon != std::string::npos) return line.substr(colon + 2);
  }
  return "unknown";
}

/// Every kernel crossing the endpoint made: poller waits plus per-channel
/// send/sendmmsg and recv/recvmmsg calls.
std::uint64_t total_syscalls(const session::SessionEndpoint& ep) {
  std::uint64_t total = ep.poller().wait_calls();
  for (std::size_t i = 0; i < ep.num_channels(); ++i) {
    total += ep.channel(i).syscalls_send() + ep.channel(i).syscalls_recv();
  }
  return total;
}

struct LiveResult {
  double offered_mbps = 0.0;
  double measured_mbps = 0.0;
  /// Goodput over the last 3/4 of the sending time, counting only what
  /// was delivered in it: the steady rate, without the pipeline filling
  /// at the start or the queue draining after the end.
  double steady_mbps = 0.0;
  double loss_fraction = 0.0;
  double median_delay_s = 0.0;
  double p95_delay_s = 0.0;
  double achieved_kappa = 0.0;
  double achieved_mu = 0.0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  double syscalls_per_packet = 0.0;  ///< kernel crossings / delivered packet
  double cycles_per_byte = 0.0;      ///< loop cycles / delivered payload byte
  std::string channel_rows_json;  ///< per-channel measured vs configured
};

/// The endpoint settings both runs share: one flow whose receiver keeps
/// the default 8 MiB reassembly budget, and a send queue of `queue`.
session::SessionConfig one_flow_config(std::size_t queue, std::uint64_t seed) {
  session::SessionConfig cfg;
  cfg.kappa = kKappa;
  cfg.mu = kMu;
  cfg.seed = seed;
  cfg.limits.per_flow_memory_bytes = proto::ReceiverConfig{}.memory_limit_bytes;
  cfg.limits.max_queue_packets = queue;
  cfg.port_base = session::port_base_from_env(0);
  return cfg;
}

/// Opens the run's one flow. Admission only prices a flow, it does not
/// shape it, so the default declaration serves every offered load.
std::uint32_t open_one_flow(session::SessionEndpoint& ep) {
  const auto cid = ep.open_flow();
  if (!cid) {
    std::fprintf(stderr, "live_eval: the endpoint refused its one flow\n");
    std::exit(1);
  }
  return *cid;
}

/// What the model predicts for a setup at kMu: the Theorem 4 optimum and
/// the IV-D LP's loss and delay at that rate (-1 when the LP fails).
struct Model {
  double optimal_pps = 0.0;
  double optimal_mbps = 0.0;
  double lp_loss = -1.0;
  double lp_delay_s = -1.0;
};

Model solve_model(const workload::Setup& setup) {
  const ChannelSet channels = setup.to_model(kPacketBytes);
  Model m;
  m.optimal_pps = optimal_rate(channels, kMu);
  m.optimal_mbps =
      m.optimal_pps * static_cast<double>(kPacketBytes) * 8.0 / 1e6;
  const auto solve = [&](Objective objective) {
    const auto r =
        solve_schedule_lp(channels, {.objective = objective,
                                     .kappa = kKappa,
                                     .mu = kMu,
                                     .rate = RateConstraint::MaxRate});
    return r.status == lp::Status::Optimal ? r.objective_value : -1.0;
  };
  m.lp_loss = solve(Objective::Loss);
  m.lp_delay_s = solve(Objective::Delay);
  return m;
}

/// Send stamps for the delay columns. Packet ids are dense per flow from
/// 1 in send order, so accepted send i becomes packet i + 1, and a
/// packet's delay runs from its send() to its delivery.
struct SendStamps {
  std::vector<std::int64_t> sent_ns;
  PercentileTracker delay_s;

  void on_sent(std::int64_t now) { sent_ns.push_back(now); }
  void on_delivered(std::uint64_t id, std::int64_t now) {
    delay_s.add(static_cast<double>(now - sent_ns[id - 1]) / 1e9);
  }
};

LiveResult run_live(const workload::Setup& setup, double offered_pps,
                    double seconds, std::uint64_t seed, std::size_t queue) {
  session::SessionConfig cfg = one_flow_config(queue, seed);
  for (std::size_t i = 0; i < setup.channels.size(); ++i) {
    cfg.channels.push_back(
        {setup.channels[i], setup.name + "/" + std::to_string(i)});
  }
  session::SessionEndpoint ep(std::move(cfg));
  const std::uint32_t cid = open_one_flow(ep);

  const std::int64_t start = ep.now_ns();
  const std::int64_t t_end = start + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t steady_from = start + (t_end - start) / 4;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t steady_bytes = 0;
  SendStamps stamps;
  ep.set_deliver([&](std::uint32_t, std::uint64_t id,
                     std::vector<std::uint8_t> payload) {
    const std::int64_t now = ep.now_ns();
    ++delivered_packets;
    delivered_bytes += payload.size();
    if (now >= steady_from && now < t_end) steady_bytes += payload.size();
    stamps.on_delivered(id, now);
  });

  Rng payload_rng(seed ^ 0x9e3779b9ULL);
  std::vector<std::uint8_t> payload(kPacketBytes);

  const std::int64_t interval_ns =
      static_cast<std::int64_t>(1e9 / offered_pps);
  std::int64_t next_send = start;
  const std::uint64_t cycles_start = cycle_now();

  while (ep.now_ns() < t_end) {
    // Paced offered load, catching up if the loop fell behind.
    while (next_send <= ep.now_ns() && next_send < t_end) {
      payload_rng.fill(payload);
      const std::int64_t now = ep.now_ns();
      if (ep.send(cid, payload)) stamps.on_sent(now);
      next_send += interval_ns;
    }
    // The clock may pass next_send between the pacing check and here;
    // clamp so run_for never sees a negative slice.
    const std::int64_t slice =
        std::min<std::int64_t>(2'000'000, next_send - ep.now_ns());
    ep.run_for(std::max<std::int64_t>(slice, 0));
  }
  const std::int64_t sending_elapsed = ep.now_ns() - start;
  // Drain: no new sends, let queued shares and delayed releases land.
  ep.run_for(150'000'000);
  const std::uint64_t cycles_elapsed = cycle_now() - cycles_start;

  LiveResult r;
  const proto::SenderStats& ss = *ep.flow_sender_stats(cid);
  r.packets_sent = ss.packets_sent;
  r.packets_delivered = delivered_packets;
  r.offered_mbps = offered_pps * static_cast<double>(kPacketBytes) * 8.0 / 1e6;
  r.measured_mbps = static_cast<double>(delivered_bytes) * 8.0 /
                    (static_cast<double>(sending_elapsed) / 1e9) / 1e6;
  r.steady_mbps = static_cast<double>(steady_bytes) * 8.0 /
                  (static_cast<double>(t_end - steady_from) / 1e9) / 1e6;
  r.loss_fraction =
      ss.packets_sent == 0
          ? 0.0
          : 1.0 - static_cast<double>(delivered_packets) /
                      static_cast<double>(ss.packets_sent);
  r.median_delay_s = stamps.delay_s.median();
  r.p95_delay_s = stamps.delay_s.percentile(95.0);
  r.achieved_kappa = ss.achieved_kappa();
  r.achieved_mu = ss.achieved_mu();
  // Whole-loop accounting: the numerators cover scheduling, splitting,
  // impairment, and reassembly too — this is end-to-end cost per unit of
  // useful output, the number the batching fast path is meant to move.
  r.syscalls_per_packet =
      delivered_packets == 0 ? 0.0
                             : static_cast<double>(total_syscalls(ep)) /
                                   static_cast<double>(delivered_packets);
  r.cycles_per_byte = delivered_bytes == 0
                          ? 0.0
                          : static_cast<double>(cycles_elapsed) /
                                static_cast<double>(delivered_bytes);

  std::string rows = "[";
  for (std::size_t i = 0; i < ep.num_channels(); ++i) {
    const auto& is = ep.channel(i).impair_stats();
    const auto& us = ep.channel(i).stats();
    const std::uint64_t decided = is.frames_dropped_loss + is.frames_delivered;
    obs::JsonRow row;
    row.field("channel", static_cast<std::uint64_t>(i))
        .field("configured_rate_mbps",
               ep.channel(i).config().rate_bps / 1e6)
        .field("configured_loss", ep.channel(i).config().loss)
        .field("configured_delay_ms",
               static_cast<double>(ep.channel(i).config().delay) / 1e6)
        .field("frames_offered", is.frames_offered)
        .field("frames_delivered", is.frames_delivered)
        .field("measured_loss",
               decided == 0 ? 0.0
                            : static_cast<double>(is.frames_dropped_loss) /
                                  static_cast<double>(decided))
        .field("datagrams_sent", us.datagrams_sent)
        .field("send_wouldblock", us.send_wouldblock);
    if (i != 0) rows += ",";
    rows += row.str();
  }
  rows += "]";
  r.channel_rows_json = std::move(rows);

  if (obs::metrics_enabled()) {
    ep.publish_metrics(obs::Registry::global());
  }
  return r;
}

struct FastpathResult {
  double mbps = 0.0;
  double syscalls_per_packet = 0.0;
  double cycles_per_byte = 0.0;
  std::uint64_t packets_delivered = 0;
  bool complete = false;  ///< every offered packet delivered in budget
};

/// Saturation run for the sendmmsg/recvmmsg fast path: four clean
/// channels (no loss, no delay, rate high enough that the impairment
/// shim stays transparent), packets pushed as fast as backpressure
/// admits. batch is the sendmmsg/recvmmsg depth: 1 moves one datagram
/// per syscall (the before), 32 batches them (the after); both run the
/// same transport code. Single-threaded process, so mbps here is
/// throughput per core.
FastpathResult run_fastpath(std::size_t batch, int packets,
                            std::uint64_t seed) {
  session::SessionConfig cfg = one_flow_config(4096, seed);
  net::ChannelConfig clean;
  clean.rate_bps = 1e12;
  clean.loss = 0.0;
  clean.delay = 0;
  clean.queue_capacity_bytes = 4 * 1024 * 1024;
  for (int i = 0; i < 4; ++i) {
    cfg.channels.push_back({clean, "fast" + std::to_string(i)});
  }
  cfg.send_batch = batch;
  cfg.recv_batch = batch;
  // Deep arena so the pool's dispatch backpressure sits above the bench
  // window — this run measures the syscall path, not slot recycling.
  cfg.pool_slots = 8192;
  session::SessionEndpoint ep(std::move(cfg));
  const std::uint32_t cid = open_one_flow(ep);

  std::uint64_t delivered_bytes = 0;
  std::uint64_t delivered_packets = 0;
  ep.set_deliver([&](std::uint32_t, std::uint64_t,
                     std::vector<std::uint8_t> payload) {
    ++delivered_packets;
    delivered_bytes += payload.size();
  });

  const std::vector<std::uint8_t> payload(kFastpathBytes, 0x5a);
  const std::int64_t start = ep.now_ns();
  const std::int64_t budget_end = start + 10'000'000'000;  // safety cap
  const std::uint64_t cycles_start = cycle_now();
  // Closed loop: keep a bounded number of packets in flight instead of
  // dumping the whole workload at once. An open loop measures kernel
  // buffer drops, not the transport — UDP has no flow control, so the
  // bench provides the window a real application (or the PR 5 ARQ
  // layer) would.
  constexpr std::uint64_t kWindow = 1024;
  int sent = 0;
  while (delivered_packets < static_cast<std::uint64_t>(packets) &&
         ep.now_ns() < budget_end) {
    while (sent < packets &&
           static_cast<std::uint64_t>(sent) < delivered_packets + kWindow &&
           ep.send(cid, payload)) {
      ++sent;
    }
    // Short slices so the window refills as soon as deliveries land —
    // long slices would idle out their tail and measure the slice
    // length, not the transport.
    ep.run_for(200'000);
  }
  const std::uint64_t cycles_elapsed = cycle_now() - cycles_start;
  const double elapsed_s = static_cast<double>(ep.now_ns() - start) / 1e9;

  FastpathResult r;
  r.packets_delivered = delivered_packets;
  r.complete = delivered_packets >= static_cast<std::uint64_t>(packets);
  r.mbps = elapsed_s <= 0.0 ? 0.0
                            : static_cast<double>(delivered_bytes) * 8.0 /
                                  elapsed_s / 1e6;
  r.syscalls_per_packet =
      delivered_packets == 0 ? 0.0
                             : static_cast<double>(total_syscalls(ep)) /
                                   static_cast<double>(delivered_packets);
  r.cycles_per_byte = delivered_bytes == 0
                          ? 0.0
                          : static_cast<double>(cycles_elapsed) /
                                static_cast<double>(delivered_bytes);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool obs_on = false;
  double seconds = 0.8;
  std::string out_path = "BENCH_live.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--obs") == 0) {
      obs_on = true;
    } else if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: live_eval [--obs] [--seconds S] [--out FILE]\n");
      return 2;
    }
  }
  if (obs_on) {
    obs::set_metrics_enabled(true);
    obs::Tracer::global().set_enabled(true);
  }

  const workload::Setup setups[] = {workload::diverse_setup(),
                                    workload::lossy_setup(),
                                    workload::delayed_setup()};

  std::printf("# live_eval: ReMICSS over real loopback UDP, kappa=%.1f mu=%.1f"
              ", %.2fs per setup\n",
              kKappa, kMu, seconds);
  std::printf("setup     opt_mbps  meas_mbps  lp_loss%%  meas_loss%%"
              "  lp_delay_ms  med_delay_ms  p95_ms  kappa  mu  sys/pkt"
              "  cyc/B\n");

  std::string setups_json = "[";
  bool all_pass = true;
  std::uint64_t seed = 4242;
  for (const auto& setup : setups) {
    const Model model = solve_model(setup);

    // Paper methodology: measure "at the rate measured in the rate
    // experiment" — offer just under the model optimum.
    const LiveResult r =
        run_live(setup, 0.9 * model.optimal_pps, seconds, seed++, 1024);

    std::printf("%-9s %8.1f  %9.1f  %8.3f  %10.3f  %11.3f  %12.3f  %6.3f"
                "  %5.2f  %4.2f  %7.2f  %5.0f\n",
                setup.name.c_str(), model.optimal_mbps, r.measured_mbps,
                model.lp_loss * 100.0, r.loss_fraction * 100.0,
                model.lp_delay_s * 1e3, r.median_delay_s * 1e3,
                r.p95_delay_s * 1e3, r.achieved_kappa, r.achieved_mu,
                r.syscalls_per_packet, r.cycles_per_byte);

    // Loose live gates: the transport must carry a meaningful fraction
    // of the offered load, loss must stay in the LP's neighborhood, and
    // delay must not explode past the slowest configured channel path.
    const bool pass = r.measured_mbps > 0.5 * (0.9 * model.optimal_mbps) &&
                      r.loss_fraction < model.lp_loss + 0.08 &&
                      r.median_delay_s < 0.200;
    if (!pass) all_pass = false;

    obs::JsonRow row;
    row.field("setup", setup.name)
        .field("kappa", kKappa)
        .field("mu", kMu)
        .field("seconds", seconds)
        .field("optimal_mbps", model.optimal_mbps)
        .field("lp_loss", model.lp_loss)
        .field("lp_delay_s", model.lp_delay_s)
        .field("offered_mbps", r.offered_mbps)
        .field("measured_mbps", r.measured_mbps)
        .field("measured_loss", r.loss_fraction)
        .field("median_delay_s", r.median_delay_s)
        .field("p95_delay_s", r.p95_delay_s)
        .field("achieved_kappa", r.achieved_kappa)
        .field("achieved_mu", r.achieved_mu)
        .field("packets_sent", r.packets_sent)
        .field("packets_delivered", r.packets_delivered)
        .field("syscalls_per_packet", r.syscalls_per_packet)
        .field("cycles_per_byte", r.cycles_per_byte)
        .field("pass", pass)
        .field_raw("channels", r.channel_rows_json);
    if (setups_json.size() > 1) setups_json += ",";
    setups_json += row.str();
  }
  setups_json += "]";

  // Saturating rows: 1.2x the optimum, so the channels bound goodput.
  // The send queue is short (kSaturateQueue packets) because the excess
  // is refused at send() by design; a deep queue would only add its own
  // length to every packet's delay.
  const workload::Setup saturating[] = {
      workload::identical_setup(kIdenticalMbps), workload::diverse_setup(),
      workload::lossy_setup(), workload::delayed_setup()};
  std::printf("# saturating: %.1fx the Theorem 4 rate, queue %zu packets;"
              " gate >= %.2fx optimum on Identical and Diverse\n",
              kSaturateLoad, kSaturateQueue, kSaturateGate);
  std::printf("setup     opt_mbps  offered  meas_mbps  frac_opt"
              "  lp_delay_ms  med_delay_ms  p95_ms  sys/pkt  gate\n");
  std::string saturating_json = "[";
  for (const auto& setup : saturating) {
    const Model model = solve_model(setup);
    const LiveResult r = run_live(setup, kSaturateLoad * model.optimal_pps,
                                  seconds, seed++, kSaturateQueue);
    const double frac = r.steady_mbps / model.optimal_mbps;
    const bool gated = setup.name == "Identical" || setup.name == "Diverse";
    const bool pass = !gated || frac >= kSaturateGate;
    if (!pass) all_pass = false;
    std::printf("%-9s %8.1f  %7.1f  %9.1f  %8.3f  %11.3f  %12.3f  %6.3f"
                "  %7.2f  %s\n",
                setup.name.c_str(), model.optimal_mbps, r.offered_mbps,
                r.steady_mbps, frac, model.lp_delay_s * 1e3,
                r.median_delay_s * 1e3, r.p95_delay_s * 1e3,
                r.syscalls_per_packet,
                gated ? (pass ? "PASS" : "FAIL") : "-");
    obs::JsonRow row;
    row.field("setup", setup.name)
        .field("seconds", seconds)
        .field("send_queue_packets", static_cast<std::uint64_t>(kSaturateQueue))
        .field("optimal_mbps", model.optimal_mbps)
        .field("offered_mbps", r.offered_mbps)
        .field("measured_mbps", r.steady_mbps)
        .field("rate_frac_opt", frac)
        .field("lp_delay_s", model.lp_delay_s)
        .field("median_delay_s", r.median_delay_s)
        .field("p95_delay_s", r.p95_delay_s)
        .field("measured_loss", r.loss_fraction)
        .field("packets_sent", r.packets_sent)
        .field("packets_delivered", r.packets_delivered)
        .field("syscalls_per_packet", r.syscalls_per_packet)
        .field("gated", gated)
        .field("pass", pass);
    if (saturating_json.size() > 1) saturating_json += ",";
    saturating_json += row.str();
  }
  saturating_json += "]";

  // Fast-path before/after: depth 1 (one datagram per sendmmsg and
  // per recvmmsg) against depth 32, same transport code, same
  // clean-channel saturation workload. The CI-safe in-binary gate is 2x;
  // see EXPERIMENTS.md for measured headroom.
  constexpr int kFastpathPackets = 4000;
  // Warmup run (discarded): pages in, trains branches, and lifts the
  // CPU governor out of idle so the first measured run isn't cold.
  (void)run_fastpath(32, 500, 990);
  // Best-of-3 per mode: wall-clock loopback runs on a shared machine
  // jitter by tens of percent; the best run is the least-disturbed one.
  FastpathResult slow;
  FastpathResult fast;
  for (int rep = 0; rep < 3; ++rep) {
    const FastpathResult s =
        run_fastpath(1, kFastpathPackets, 991 + static_cast<std::uint64_t>(rep));
    const FastpathResult f = run_fastpath(
        32, kFastpathPackets, 991 + static_cast<std::uint64_t>(rep));
    if (s.complete && s.mbps > slow.mbps) slow = s;
    if (f.complete && f.mbps > fast.mbps) fast = f;
  }
  const double speedup = slow.mbps > 0.0 ? fast.mbps / slow.mbps : 0.0;
  const bool fastpath_pass =
      slow.complete && fast.complete && speedup >= 2.0;
  if (!fastpath_pass) all_pass = false;
  std::printf("# fastpath (%d x %zuB, 4 clean channels, per core):\n",
              kFastpathPackets, kFastpathBytes);
  std::printf("  batch=1   %8.1f mbps  %6.2f sys/pkt  %5.0f cyc/B%s\n",
              slow.mbps, slow.syscalls_per_packet, slow.cycles_per_byte,
              slow.complete ? "" : "  [INCOMPLETE]");
  std::printf("  batch=32  %8.1f mbps  %6.2f sys/pkt  %5.0f cyc/B%s\n",
              fast.mbps, fast.syscalls_per_packet, fast.cycles_per_byte,
              fast.complete ? "" : "  [INCOMPLETE]");
  std::printf("  speedup   %.2fx (gate: >= 2x)\n", speedup);

  if (obs::metrics_enabled()) {
    auto& reg = obs::Registry::global();
    reg.set(reg.gauge("mcss_live_fastpath_syscalls_per_packet"),
            fast.syscalls_per_packet);
    reg.set(reg.gauge("mcss_live_fastpath_cycles_per_byte"),
            fast.cycles_per_byte);
    reg.set(reg.gauge("mcss_live_fastpath_speedup"), speedup);
  }

  std::string fastpath_json;
  {
    obs::JsonRow slow_row;
    slow_row.field("batch", static_cast<std::uint64_t>(1))
        .field("mbps", slow.mbps)
        .field("syscalls_per_packet", slow.syscalls_per_packet)
        .field("cycles_per_byte", slow.cycles_per_byte)
        .field("packets_delivered", slow.packets_delivered)
        .field("complete", slow.complete);
    obs::JsonRow fast_row;
    fast_row.field("batch", static_cast<std::uint64_t>(32))
        .field("mbps", fast.mbps)
        .field("syscalls_per_packet", fast.syscalls_per_packet)
        .field("cycles_per_byte", fast.cycles_per_byte)
        .field("packets_delivered", fast.packets_delivered)
        .field("complete", fast.complete);
    obs::JsonRow fp;
    fp.field("packets", static_cast<std::uint64_t>(kFastpathPackets))
        .field("packet_bytes", static_cast<std::uint64_t>(kFastpathBytes))
        .field_raw("unbatched", slow_row.str())
        .field_raw("batched", fast_row.str())
        .field("speedup", speedup)
        .field("pass", fastpath_pass);
    fastpath_json = fp.str();
  }

  obs::JsonRow doc;
  doc.field("bench", "live_eval")
      .field("host_cores", static_cast<std::uint64_t>(
                               std::max(1u, std::thread::hardware_concurrency())))
      .field("cpu_model", cpu_model())
      .field("transport", "udp-loopback")
      .field("packet_bytes", static_cast<std::uint64_t>(kPacketBytes))
      .field_raw("setups", setups_json)
      .field_raw("saturating", saturating_json)
      .field_raw("fastpath", fastpath_json);
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(f, "%s\n", doc.str().c_str());
    std::fclose(f);
    std::printf("# wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    all_pass = false;
  }

  if (obs_on) {
    const auto snapshot = obs::Registry::global().snapshot();
    std::printf("\n%s", obs::prometheus_text(snapshot).c_str());
    auto& tracer = obs::Tracer::global();
    tracer.write_chrome_trace("live_trace.json");
    std::printf("# trace: %zu events -> live_trace.json\n",
                tracer.collect().size());
  }

  std::printf("# shape check: %s\n",
              all_pass ? "PASS (live transport tracks the model)" : "FAIL");
  return all_pass ? 0 : 1;
}
