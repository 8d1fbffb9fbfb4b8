// parallel_sim_eval: the partitioned logical-process engine at scale.
//
// Three phases over workload::run_multiflow (flows pinned to per-LP
// channel sets, cross-LP planner control loop riding the conservative
// lookahead path):
//
//   determinism  the same population at MCSS_THREADS = 1, 2, 8 must
//                produce bitwise-identical result fingerprints (the
//                (time, seq) merge guarantee). HARD GATE: exit 1 on any
//                mismatch, whatever the host.
//   thread sweep wall-clock for one fixed population across thread
//                counts, with the worker-team size each row actually
//                used and its per-window numbers: the slowest and the
//                mean member's compute and the caller's barrier wait
//                (microseconds per window; 0 on the inline path). The
//                speedup bar is conditional on the host
//                (same policy as run_bench_sweeps.sh): >= 2.0x at 8
//                threads on hosts with >= 8 cores, >= 1.3x at 4 on
//                >= 4 cores, informational below that — single-core CI
//                still verifies determinism. MCSS_PSIM_REQUIRE_SPEEDUP=1
//                forces the 2.0x bar regardless of the detected core
//                count (CI sets it on runners known to be >= 8-wide, so
//                a mis-detected host cannot silently skip the gate).
//   LP sweep +   windows / events / cross-events as the partition count
//   large point  grows, then one large population (default 1,000,000
//                flows; MCSS_PSIM_FLOWS or --large-flows overrides for
//                constrained hosts), both at the configured thread count
//                (MCSS_THREADS, else the host width).
//
//   parallel_sim_eval [--flows N] [--large-flows N] [--out FILE]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "runtime/thread_pool.hpp"
#include "workload/multiflow.hpp"

namespace {

using namespace mcss;

workload::MultiflowConfig population(std::uint64_t flows, std::uint32_t lps) {
  workload::MultiflowConfig config;
  config.num_lps = lps;
  config.total_flows = flows;
  config.max_active_per_lp = 48;
  config.offered_bps = 1e6;
  config.packet_bytes = 64;
  config.flow_duration_s = 0.004;
  // Arrivals paced so the steady-state active population stays near the
  // concurrency bound regardless of total flow count.
  config.arrival_window_s =
      static_cast<double>(flows) * config.flow_duration_s /
      (static_cast<double>(lps) * config.max_active_per_lp) * 1.5;
  config.control_period_s = 0.05;
  config.seed = 42;
  return config;
}

struct Timed {
  workload::MultiflowResult result;
  double wall_s = 0.0;
};

/// Team size and per-window team timings of one run, in microseconds
/// per window (zeros when every window ran inline).
struct WindowTimes {
  std::uint64_t members = 1;
  double busy_max_us = 0.0;
  double busy_mean_us = 0.0;
  double barrier_us = 0.0;

  explicit WindowTimes(const net::psim::PartitionStats& p) {
    if (p.team_windows == 0) return;
    members = p.team_members;
    const double windows = static_cast<double>(p.team_windows);
    busy_max_us = static_cast<double>(p.busy_max_ns) / windows / 1e3;
    busy_mean_us = static_cast<double>(p.busy_sum_ns) /
                   (windows * static_cast<double>(members)) / 1e3;
    barrier_us = static_cast<double>(p.barrier_wait_ns) / windows / 1e3;
  }

  [[nodiscard]] std::string text() const {
    char buf[128];
    std::snprintf(buf, sizeof buf,
                  "members=%llu  busy max/mean=%.1f/%.1fus  barrier=%.1fus",
                  static_cast<unsigned long long>(members), busy_max_us,
                  busy_mean_us, barrier_us);
    return buf;
  }

  obs::JsonRow& fields(obs::JsonRow& row) const {
    return row.field("members", members)
        .field("busy_max_us", busy_max_us)
        .field("busy_mean_us", busy_mean_us)
        .field("barrier_us", barrier_us);
  }
};

Timed run_timed(const workload::MultiflowConfig& config, unsigned threads) {
  runtime::set_threads(threads);
  const auto start = std::chrono::steady_clock::now();
  Timed t;
  t.result = workload::run_multiflow(config);
  t.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t flows = 4000;
  std::uint64_t large_flows = 1'000'000;
  std::string out_path;
  if (const char* env = std::getenv("MCSS_PSIM_FLOWS")) {
    large_flows = std::strtoull(env, nullptr, 10);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--flows") {
      flows = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--large-flows") {
      large_flows = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--out") {
      out_path = next();
    } else {
      std::fprintf(stderr,
                   "usage: parallel_sim_eval [--flows N] [--large-flows N] "
                   "[--out FILE]\n");
      return 2;
    }
  }

  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  // Read before the thread sweep's set_threads() calls override it.
  const unsigned width = runtime::configured_threads();
  const char* require_env = std::getenv("MCSS_PSIM_REQUIRE_SPEEDUP");
  const bool require_speedup =
      require_env != nullptr && require_env[0] != '\0' && require_env[0] != '0';
  std::printf("parallel_sim_eval: host has %u cores%s\n", cores,
              require_speedup ? " (speedup bar forced on)" : "");
  bool failed = false;

  // --- determinism gate ----------------------------------------------
  std::printf("\n== determinism: MCSS_THREADS in {1, 2, 8}, 8 LPs ==\n");
  const auto det_config = population(std::min<std::uint64_t>(flows, 1200), 8);
  std::uint64_t det_fingerprint = 0;
  bool det_ok = true;
  for (const unsigned threads : {1u, 2u, 8u}) {
    const auto point = run_timed(det_config, threads);
    const std::uint64_t fp = point.result.fingerprint();
    std::printf("  threads=%u  fingerprint=%016llx  flows=%llu  %.3fs\n",
                threads, static_cast<unsigned long long>(fp),
                static_cast<unsigned long long>(point.result.flows_completed),
                point.wall_s);
    if (threads == 1u) {
      det_fingerprint = fp;
    } else if (fp != det_fingerprint) {
      det_ok = false;
    }
  }
  if (det_ok) {
    std::printf("  OK: bitwise identical across thread counts\n");
  } else {
    std::printf("  FAIL: fingerprints differ across thread counts\n");
    failed = true;
  }

  // --- thread sweep ---------------------------------------------------
  std::printf("\n== thread sweep: %llu flows, 8 LPs ==\n",
              static_cast<unsigned long long>(flows));
  const auto sweep_config = population(flows, 8);
  double seq_s = 0.0;
  double best_speedup = 0.0;
  std::string thread_rows;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    const auto point = run_timed(sweep_config, threads);
    if (threads == 1u) seq_s = point.wall_s;
    const double speedup = point.wall_s > 0.0 ? seq_s / point.wall_s : 0.0;
    best_speedup = std::max(best_speedup, speedup);
    const WindowTimes times(point.result.partition);
    std::printf("  threads=%u  %.3fs  speedup=%.2fx  windows=%llu  %s\n",
                threads, point.wall_s, speedup,
                static_cast<unsigned long long>(point.result.partition.windows),
                times.text().c_str());
    if (!thread_rows.empty()) thread_rows += ",";
    obs::JsonRow row;
    row.field("threads", static_cast<std::uint64_t>(threads))
        .field("wall_s", point.wall_s)
        .field("speedup", speedup);
    thread_rows += times.fields(row).str();
  }
  if (cores >= 8 || require_speedup) {
    if (best_speedup < 2.0) {
      std::printf("  FAIL: best speedup %.2fx < 2.0x on a %u-core host\n",
                  best_speedup, cores);
      failed = true;
    } else {
      std::printf("  OK: best speedup %.2fx (bar: 2.0x at >= 8 cores)\n",
                  best_speedup);
    }
  } else if (cores >= 4) {
    if (best_speedup < 1.3) {
      std::printf("  FAIL: best speedup %.2fx < 1.3x on a %u-core host\n",
                  best_speedup, cores);
      failed = true;
    } else {
      std::printf("  OK: best speedup %.2fx (bar: 1.3x at >= 4 cores)\n",
                  best_speedup);
    }
  } else {
    std::printf("  note: %u-core host, speedup informational only\n", cores);
  }

  // --- LP-count sweep -------------------------------------------------
  std::printf("\n== LP sweep: %llu flows, %u threads ==\n",
              static_cast<unsigned long long>(flows), width);
  std::string lp_rows;
  for (const std::uint32_t lps : {1u, 2u, 4u, 8u, 16u}) {
    const auto point = run_timed(population(flows, lps), width);
    const auto& p = point.result.partition;
    const WindowTimes times(p);
    std::printf(
        "  lps=%-2u  %.3fs  windows=%-8llu events=%-10llu cross=%-7llu "
        "fingerprint=%016llx  %s\n",
        lps, point.wall_s, static_cast<unsigned long long>(p.windows),
        static_cast<unsigned long long>(p.events_processed),
        static_cast<unsigned long long>(p.cross_events),
        static_cast<unsigned long long>(point.result.fingerprint()),
        times.text().c_str());
    if (point.result.flows_completed != flows) {
      std::printf("  FAIL: only %llu/%llu flows completed at lps=%u\n",
                  static_cast<unsigned long long>(point.result.flows_completed),
                  static_cast<unsigned long long>(flows), lps);
      failed = true;
    }
    if (!lp_rows.empty()) lp_rows += ",";
    obs::JsonRow row;
    row.field("lps", static_cast<std::uint64_t>(lps))
        .field("wall_s", point.wall_s)
        .field("windows", p.windows)
        .field("events", p.events_processed)
        .field("cross_events", p.cross_events);
    lp_rows += times.fields(row).str();
  }

  // --- large point ----------------------------------------------------
  std::printf("\n== large point: %llu flows, 8 LPs, %u threads ==\n",
              static_cast<unsigned long long>(large_flows), width);
  const auto large = run_timed(population(large_flows, 8), width);
  const auto per_sec = [&](std::uint64_t n) {
    return large.wall_s > 0.0 ? static_cast<double>(n) / large.wall_s : 0.0;
  };
  const double events_per_sec = per_sec(large.result.partition.events_processed);
  const double flows_per_sec = per_sec(large.result.flows_completed);
  const WindowTimes large_times(large.result.partition);
  std::printf(
      "  %.3fs  flows=%llu (%.0f flows/s)  events=%llu (%.2fM events/s)  "
      "cross=%llu  control_rounds=%llu\n  %s\n",
      large.wall_s,
      static_cast<unsigned long long>(large.result.flows_completed),
      flows_per_sec,
      static_cast<unsigned long long>(large.result.partition.events_processed),
      events_per_sec / 1e6,
      static_cast<unsigned long long>(large.result.partition.cross_events),
      static_cast<unsigned long long>(large.result.control_rounds),
      large_times.text().c_str());
  if (large.result.flows_completed != large_flows) {
    std::printf("  FAIL: large point incomplete\n");
    failed = true;
  }

  if (!out_path.empty()) {
    obs::JsonRow large_row;
    large_row.field("flows", large_flows)
        .field("wall_s", large.wall_s)
        .field("events", large.result.partition.events_processed)
        .field("events_per_sec", events_per_sec)
        .field("flows_per_sec", flows_per_sec)
        .field("fingerprint", large.result.fingerprint());
    large_times.fields(large_row);
    std::string doc = obs::JsonRow()
                          .field("bench", "parallel_sim_eval")
                          .field("host_cores", static_cast<std::uint64_t>(cores))
                          .field("threads", static_cast<std::uint64_t>(width))
                          .field("flows", flows)
                          .field("deterministic", det_ok)
                          .field("determinism_fingerprint", det_fingerprint)
                          .field("best_speedup", best_speedup)
                          .field_raw("thread_sweep", "[" + thread_rows + "]")
                          .field_raw("lp_sweep", "[" + lp_rows + "]")
                          .field_raw("large_point", large_row.str())
                          .str();
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fputs(doc.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path.c_str());
  }

  std::printf("\n%s\n", failed ? "FAILED" : "PASSED");
  return failed ? 1 : 0;
}
