// live_eval: the Section VI comparison, but over real sockets.
//
// Runs ReMICSS through the live loopback transport (src/transport) on
// the paper's five-channel setups — Diverse rates, Lossy, Delayed — with
// the userspace impairment shim playing the role of htb + netem, and
// compares what was measured against what the model predicts:
//
//   rate   measured goodput vs the Theorem 4 optimal rate
//   loss   measured end-to-end loss vs the IV-D LP loss at max rate
//   delay  measured packet delay vs the IV-D LP expected delay
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
#include "transport/live_endpoint.hpp"
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

std::string backend_name(transport::Poller::Backend b) {
  switch (b) {
    case transport::Poller::Backend::Epoll: return "epoll";
    case transport::Poller::Backend::Poll: return "poll";
    case transport::Poller::Backend::Uring: return "uring";
  }
  return "unknown";
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
std::uint64_t total_syscalls(transport::LiveEndpoint& ep) {
  std::uint64_t total = ep.poller().wait_calls();
  for (std::size_t i = 0; i < ep.num_channels(); ++i) {
    total += ep.channel(i).syscalls_send() + ep.channel(i).syscalls_recv();
  }
  return total;
}

struct LiveResult {
  double offered_mbps = 0.0;
  double measured_mbps = 0.0;
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

LiveResult run_live(const workload::Setup& setup, double offered_pps,
                    double seconds, std::uint64_t seed) {
  transport::LiveConfig cfg;
  for (std::size_t i = 0; i < setup.channels.size(); ++i) {
    cfg.channels.push_back(
        {setup.channels[i], setup.name + "/" + std::to_string(i)});
  }
  cfg.kappa = kKappa;
  cfg.mu = kMu;
  cfg.seed = seed;
  cfg.max_queue_packets = 1024;
  cfg.port_base = transport::port_base_from_env(0);
  transport::LiveEndpoint ep(std::move(cfg));

  std::uint64_t delivered_bytes = 0;
  std::uint64_t delivered_packets = 0;
  ep.set_deliver([&](std::uint64_t, std::vector<std::uint8_t> payload) {
    ++delivered_packets;
    delivered_bytes += payload.size();
  });

  Rng payload_rng(seed ^ 0x9e3779b9ULL);
  std::vector<std::uint8_t> payload(kPacketBytes);

  const std::int64_t interval_ns =
      static_cast<std::int64_t>(1e9 / offered_pps);
  const std::int64_t t_end =
      ep.now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t next_send = ep.now_ns();
  const std::int64_t start = ep.now_ns();
  const std::uint64_t cycles_start = cycle_now();

  while (ep.now_ns() < t_end) {
    // Paced offered load, catching up if the loop fell behind.
    while (next_send <= ep.now_ns() && next_send < t_end) {
      payload_rng.fill(payload);
      (void)ep.send(payload);
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
  const auto& ss = ep.sender_stats();
  r.packets_sent = ss.packets_sent;
  r.packets_delivered = delivered_packets;
  r.offered_mbps = offered_pps * static_cast<double>(kPacketBytes) * 8.0 / 1e6;
  r.measured_mbps = static_cast<double>(delivered_bytes) * 8.0 /
                    (static_cast<double>(sending_elapsed) / 1e9) / 1e6;
  r.loss_fraction =
      ss.packets_sent == 0
          ? 0.0
          : 1.0 - static_cast<double>(delivered_packets) /
                      static_cast<double>(ss.packets_sent);
  r.median_delay_s = ep.delay_seconds().median();
  r.p95_delay_s = ep.delay_seconds().percentile(95.0);
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
/// admits. batch == 1 is the legacy one-syscall-per-datagram path kept
/// for exactly this before/after; batch > 1 exercises coalescing,
/// sendmmsg/recvmmsg, and the pool fast path. Single-threaded process,
/// so mbps here is throughput per core.
FastpathResult run_fastpath(std::size_t batch, int packets,
                            std::uint64_t seed) {
  transport::LiveConfig cfg;
  net::ChannelConfig clean;
  clean.rate_bps = 1e12;
  clean.loss = 0.0;
  clean.delay = 0;
  clean.queue_capacity_bytes = 4 * 1024 * 1024;
  for (int i = 0; i < 4; ++i) {
    cfg.channels.push_back({clean, "fast" + std::to_string(i)});
  }
  cfg.kappa = kKappa;
  cfg.mu = kMu;
  cfg.seed = seed;
  cfg.max_queue_packets = 4096;
  cfg.send_batch = batch;
  cfg.recv_batch = batch;
  // Deep arena so the pool's dispatch backpressure sits above the bench
  // window — this run measures the syscall path, not slot recycling.
  cfg.pool_slots = 8192;
  cfg.port_base = transport::port_base_from_env(0);
  transport::LiveEndpoint ep(std::move(cfg));

  std::uint64_t delivered_bytes = 0;
  std::uint64_t delivered_packets = 0;
  ep.set_deliver([&](std::uint64_t, std::vector<std::uint8_t> payload) {
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
           ep.send(payload)) {
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
    const ChannelSet model = setup.to_model(kPacketBytes);
    const double optimal_pps = optimal_rate(model, kMu);
    const double optimal_mbps =
        optimal_pps * static_cast<double>(kPacketBytes) * 8.0 / 1e6;
    const auto lp_loss =
        solve_schedule_lp(model, {.objective = Objective::Loss,
                                  .kappa = kKappa,
                                  .mu = kMu,
                                  .rate = RateConstraint::MaxRate});
    const auto lp_delay =
        solve_schedule_lp(model, {.objective = Objective::Delay,
                                  .kappa = kKappa,
                                  .mu = kMu,
                                  .rate = RateConstraint::MaxRate});
    const double predicted_loss =
        lp_loss.status == lp::Status::Optimal ? lp_loss.objective_value : -1.0;
    const double predicted_delay =
        lp_delay.status == lp::Status::Optimal ? lp_delay.objective_value
                                               : -1.0;

    // Paper methodology: measure "at the rate measured in the rate
    // experiment" — offer just under the model optimum.
    const LiveResult r = run_live(setup, 0.9 * optimal_pps, seconds, seed++);

    std::printf("%-9s %8.1f  %9.1f  %8.3f  %10.3f  %11.3f  %12.3f  %6.3f"
                "  %5.2f  %4.2f  %7.2f  %5.0f\n",
                setup.name.c_str(), optimal_mbps, r.measured_mbps,
                predicted_loss * 100.0, r.loss_fraction * 100.0,
                predicted_delay * 1e3, r.median_delay_s * 1e3,
                r.p95_delay_s * 1e3, r.achieved_kappa, r.achieved_mu,
                r.syscalls_per_packet, r.cycles_per_byte);

    // Loose live gates: the transport must carry a meaningful fraction
    // of the offered load, loss must stay in the LP's neighborhood, and
    // delay must not explode past the slowest configured channel path.
    const bool pass = r.measured_mbps > 0.5 * (0.9 * optimal_mbps) &&
                      r.loss_fraction < predicted_loss + 0.08 &&
                      r.median_delay_s < 0.200;
    if (!pass) all_pass = false;

    obs::JsonRow row;
    row.field("setup", setup.name)
        .field("kappa", kKappa)
        .field("mu", kMu)
        .field("seconds", seconds)
        .field("optimal_mbps", optimal_mbps)
        .field("lp_loss", predicted_loss)
        .field("lp_delay_s", predicted_delay)
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

  // Fast-path before/after: the legacy batch=1 path (one syscall per
  // datagram, assembly copies) against the batched sendmmsg/recvmmsg +
  // FramePool path, same clean-channel saturation workload. The CI-safe
  // in-binary gate is 2x; see EXPERIMENTS.md for measured headroom.
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
      .field("poller_backend", backend_name(transport::Poller::default_backend()))
      .field_raw("setups", setups_json)
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
