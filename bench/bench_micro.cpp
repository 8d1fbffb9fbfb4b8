// Micro-benchmarks over the substrate primitives (google-benchmark).
//
// These are not paper figures; they document the cost of each building
// block: field arithmetic, Shamir split/reconstruct across (k, m), the
// subset-metric evaluations (DP vs the paper's literal exponential sums),
// the schedule LPs, wire codec, dithering, raw simulator throughput, the
// timer-queue costs the live pump loop pays, and the kernel cost of a
// share datagram on loopback UDP.
#include <benchmark/benchmark.h>
#include <sys/socket.h>

#include <string>
#include <vector>

#include "core/lp_schedule.hpp"
#include "core/subset_metrics.hpp"
#include "field/gf256.hpp"
#include "field/gf256_bulk.hpp"
#include "lp/simplex.hpp"
#include "net/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/scope_timer.hpp"
#include "obs/trace.hpp"
#include "crypto/siphash.hpp"
#include "protocol/dither.hpp"
#include "protocol/wire.hpp"
#include "sss/shamir.hpp"
#include "transport/udp_socket.hpp"
#include "util/poisson_binomial.hpp"
#include "util/rng.hpp"
#include "workload/setups.hpp"

namespace {

using namespace mcss;

// ---------------------------------------------------------------- field

void BM_Gf256Mul(benchmark::State& state) {
  Rng rng(1);
  std::vector<gf::Elem> a(4096), b(4096);
  for (auto& v : a) v = rng.byte();
  for (auto& v : b) v = rng.byte();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gf::mul(a[i & 4095], b[i & 4095]));
    ++i;
  }
}
BENCHMARK(BM_Gf256Mul);

void BM_Gf256Inv(benchmark::State& state) {
  std::size_t i = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gf::inv(static_cast<gf::Elem>((i & 254) + 1)));
    ++i;
  }
}
BENCHMARK(BM_Gf256Inv);

void BM_PolyEval(benchmark::State& state) {
  const auto degree = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<gf::Elem> coeffs(degree + 1);
  for (auto& c : coeffs) c = rng.byte();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gf::poly_eval(coeffs, 0x53));
  }
}
BENCHMARK(BM_PolyEval)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// Raw region-kernel throughput: dst ^= s * src over a buffer, the inner
// primitive of the slice-major sharer. The auto-dispatched path is
// labeled with the kernel it resolved to; the forced-portable runs
// document the cost of the fallback on the same host.

void BM_GfMulAccBuf(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(40);
  std::vector<gf::Elem> src(n), dst(n);
  rng.fill(src);
  rng.fill(dst);
  for (auto _ : state) {
    gf::bulk::mul_acc_buf(dst.data(), src.data(), 0x53, n);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(gf::bulk::kernel_name(gf::bulk::active_kernel()));
}
BENCHMARK(BM_GfMulAccBuf)->Arg(64)->Arg(1470)->Arg(65536);

void BM_GfMulAccBufPortable(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(41);
  std::vector<gf::Elem> src(n), dst(n);
  rng.fill(src);
  rng.fill(dst);
  for (auto _ : state) {
    gf::bulk::mul_acc_buf(gf::bulk::Kernel::Portable, dst.data(), src.data(),
                          0x53, n);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GfMulAccBufPortable)->Arg(64)->Arg(1470)->Arg(65536);

void BM_GfXorBuf(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(43);
  std::vector<gf::Elem> src(n), dst(n);
  rng.fill(src);
  rng.fill(dst);
  for (auto _ : state) {
    gf::bulk::xor_buf(dst.data(), src.data(), n);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_GfXorBuf)->Arg(1470)->Arg(65536);

void BM_RngFill(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(44);
  std::vector<std::uint8_t> buf(n);
  for (auto _ : state) {
    rng.fill(buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RngFill)->Arg(1470)->Arg(65536);

// ---------------------------------------------------------------- sss

void BM_ShamirSplit(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  Rng rng(3);
  std::vector<std::uint8_t> secret(1470);
  for (auto& b : secret) b = rng.byte();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sss::split(secret, k, m, rng));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1470);
}
BENCHMARK(BM_ShamirSplit)
    ->Args({1, 1})
    ->Args({1, 5})
    ->Args({3, 5})
    ->Args({5, 5})
    ->Args({8, 16});

// The per-byte scalar reference path, kept in the library so the region
// kernels are measured against it rather than asserted faster.
void BM_ShamirSplitScalar(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  const int m = static_cast<int>(state.range(1));
  Rng rng(3);
  std::vector<std::uint8_t> secret(1470);
  for (auto& b : secret) b = rng.byte();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sss::split_scalar(secret, k, m, rng));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1470);
}
BENCHMARK(BM_ShamirSplitScalar)
    ->Args({1, 1})
    ->Args({1, 5})
    ->Args({3, 5})
    ->Args({5, 5})
    ->Args({8, 16});

void BM_ShamirReconstruct(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Rng rng(4);
  std::vector<std::uint8_t> secret(1470);
  for (auto& b : secret) b = rng.byte();
  const auto shares = sss::split(secret, k, k, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sss::reconstruct(shares));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1470);
}
BENCHMARK(BM_ShamirReconstruct)->Arg(1)->Arg(2)->Arg(3)->Arg(5)->Arg(8);

void BM_ShamirReconstructScalar(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Rng rng(4);
  std::vector<std::uint8_t> secret(1470);
  for (auto& b : secret) b = rng.byte();
  const auto shares = sss::split(secret, k, k, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sss::reconstruct_scalar(shares));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1470);
}
BENCHMARK(BM_ShamirReconstructScalar)->Arg(1)->Arg(3)->Arg(5)->Arg(8);

void BM_SipHash(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  Rng rng(33);
  std::vector<std::uint8_t> data(len);
  for (auto& b : data) b = rng.byte();
  crypto::SipHashKey key{};
  for (auto& b : key) b = rng.byte();
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::siphash24(data, key));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_SipHash)->Arg(16)->Arg(256)->Arg(1486);

// Four messages per siphash24_lanes call on one forced kernel tier: a
// 24 B-payload share frame (40 B), a 128 B one with session header
// (152 B) and a 1470 B one (1494 B). Registered as
// BM_SipHashLanes/<tier>/<len> for every tier this host supports.
void BM_SipHashLanes(benchmark::State& state, crypto::LaneKernel tier,
                     std::size_t len) {
  Rng rng(35);
  std::vector<std::vector<std::uint8_t>> bufs(4, std::vector<std::uint8_t>(len));
  for (auto& b : bufs) rng.fill(b);
  const std::vector<std::span<const std::uint8_t>> msgs(bufs.begin(),
                                                        bufs.end());
  crypto::SipHashKey key{};
  for (auto& b : key) b = rng.byte();
  std::vector<std::uint64_t> out(msgs.size());
  for (auto _ : state) {
    crypto::siphash24_lanes(tier, msgs, key, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(msgs.size() * len));
  state.SetLabel(crypto::lane_kernel_name(tier));
}

const bool kSipHashLanesRegistered = [] {
  for (const auto tier : {crypto::LaneKernel::Portable,
                          crypto::LaneKernel::Avx2}) {
    if (!crypto::lane_kernel_supported(tier)) continue;
    for (const std::size_t len : {std::size_t{40}, std::size_t{152},
                                  std::size_t{1494}}) {
      const std::string name = std::string("BM_SipHashLanes/") +
                               crypto::lane_kernel_name(tier) + "/" +
                               std::to_string(len);
      benchmark::RegisterBenchmark(name.c_str(), BM_SipHashLanes, tier, len);
    }
  }
  return true;
}();

// ---------------------------------------------------------------- model

void BM_SubsetRiskDp(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(6);
  std::vector<Channel> cs;
  for (int i = 0; i < n; ++i) cs.push_back({rng.uniform(), 0, 0, 1});
  const ChannelSet c(std::move(cs));
  for (auto _ : state) {
    benchmark::DoNotOptimize(subset_risk(c, n / 2 + 1, c.all()));
  }
}
BENCHMARK(BM_SubsetRiskDp)->Arg(5)->Arg(10)->Arg(20);

void BM_SubsetRiskBruteforce(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  std::vector<Channel> cs;
  for (int i = 0; i < n; ++i) cs.push_back({rng.uniform(), 0, 0, 1});
  const ChannelSet c(std::move(cs));
  for (auto _ : state) {
    benchmark::DoNotOptimize(subset_risk_bruteforce(c, n / 2 + 1, c.all()));
  }
}
BENCHMARK(BM_SubsetRiskBruteforce)->Arg(5)->Arg(10)->Arg(20);

void BM_SubsetDelay(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(8);
  std::vector<Channel> cs;
  for (int i = 0; i < n; ++i) {
    cs.push_back({0, rng.uniform(0, 0.3), rng.uniform(0, 10), 1});
  }
  const ChannelSet c(std::move(cs));
  for (auto _ : state) {
    benchmark::DoNotOptimize(subset_delay(c, n / 2 + 1, c.all()));
  }
}
BENCHMARK(BM_SubsetDelay)->Arg(5)->Arg(10)->Arg(15);

void BM_PoissonBinomialPmf(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(9);
  std::vector<double> probs(n);
  for (auto& p : probs) p = rng.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(poisson_binomial_pmf(probs));
  }
}
BENCHMARK(BM_PoissonBinomialPmf)->Arg(5)->Arg(32)->Arg(128);

void BM_ScheduleLpIvB(benchmark::State& state) {
  const ChannelSet model = workload::lossy_setup().to_model(1470);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_schedule_lp(
        model, {.objective = Objective::Loss, .kappa = 2.0, .mu = 3.5}));
  }
}
BENCHMARK(BM_ScheduleLpIvB);

void BM_ScheduleLpIvD(benchmark::State& state) {
  const ChannelSet model = workload::lossy_setup().to_model(1470);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_schedule_lp(model, {.objective = Objective::Loss,
                                  .kappa = 2.0,
                                  .mu = 3.5,
                                  .rate = RateConstraint::MaxRate}));
  }
}
BENCHMARK(BM_ScheduleLpIvD);

void BM_OptimalRate(benchmark::State& state) {
  const ChannelSet model = workload::diverse_setup().to_model(1470);
  int step = 0;
  for (auto _ : state) {
    const double mu = 1.0 + 0.1 * (step % 41);  // 1.0 .. 5.0 inclusive
    benchmark::DoNotOptimize(optimal_rate(model, mu));
    ++step;
  }
}
BENCHMARK(BM_OptimalRate);

// ---------------------------------------------------------------- protocol

void BM_WireEncodeDecode(benchmark::State& state) {
  proto::ShareFrame frame;
  frame.packet_id = 123456;
  frame.k = 3;
  frame.share_index = 2;
  frame.payload.assign(1470, 0x77);
  for (auto _ : state) {
    auto bytes = proto::encode(frame);
    benchmark::DoNotOptimize(proto::decode(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1470);
}
BENCHMARK(BM_WireEncodeDecode);

void BM_Dither(benchmark::State& state) {
  proto::KappaMuDither dither(2.3, 3.7, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dither.next());
  }
}
BENCHMARK(BM_Dither);

// ---------------------------------------------------------------- simulator

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    net::Simulator sim;
    int counter = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule_at(i, [&counter] { ++counter; });
    }
    sim.run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

// The live endpoints' one timer queue: N armed timers (deadlines spread
// over one second, as RTOs of N flows would be). The pump loop reads the
// next deadline once per iteration, so that cost must not grow with N;
// arming and cancelling an RTO is the per-packet cost and grows only as
// the heap's depth, log N.

/// A simulator holding `n` pending no-op timers.
net::Simulator armed_timers(std::int64_t n) {
  net::Simulator sim;
  Rng rng(11);
  for (std::int64_t i = 0; i < n; ++i) {
    sim.schedule_at(static_cast<net::SimTime>(rng.uniform_int(1'000'000'000)),
                    [] {});
  }
  return sim;
}

void BM_TimerQueueNextDeadline(benchmark::State& state) {
  const net::Simulator sim = armed_timers(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.next_event_time());
  }
}
BENCHMARK(BM_TimerQueueNextDeadline)->Arg(1'000)->Arg(100'000)->Arg(1'000'000);

void BM_TimerQueueScheduleCancel(benchmark::State& state) {
  net::Simulator sim = armed_timers(state.range(0));
  Rng rng(12);
  for (auto _ : state) {
    const net::EventHandle h = sim.schedule_at(
        static_cast<net::SimTime>(rng.uniform_int(1'000'000'000)), [] {});
    benchmark::DoNotOptimize(sim.cancel(h));
  }
}
BENCHMARK(BM_TimerQueueScheduleCancel)
    ->Arg(1'000)
    ->Arg(100'000)
    ->Arg(1'000'000);

// ---------------------------------------------------------------- transport
//
// The live path's kernel cost per share datagram. One iteration sends a
// run of `run` equal datagrams of `bytes` in one sendmmsg — one message
// per datagram (plain), or the whole run as one UDP_SEGMENT message the
// kernel cuts back into the same datagrams (gso) — and drains them with
// 32-deep recvmmsg into 2 KiB slots. gso+gro sends as gso, but the
// receiver sets UDP_GRO: the run arrives as one entry, read into 4
// entries of 64 KiB and counted by the segment size its cmsg carries.
// cpu_ns_per_datagram is thread CPU (user + kernel; loopback delivery
// runs on the sending thread) per datagram, send and receive together.
// Registered as BM_UdpLoopback/<plain|gso|gso+gro>/<bytes>/<run>; the
// gso rows only where the kernel supports UDP_SEGMENT, and the gso+gro
// rows only where it also takes UDP_GRO.

void BM_UdpLoopback(benchmark::State& state, bool gso, bool gro,
                    std::size_t bytes, std::size_t run) {
  transport::UdpSocket rx = transport::UdpSocket::bound_loopback(0);
  transport::UdpSocket tx = transport::UdpSocket::bound_loopback(0);
  tx.connect_loopback(rx.local_port());
  tx.set_send_buffer(4 << 20);
  rx.set_recv_buffer(4 << 20);
  if (gro) rx.enable_receive_offload();

  std::vector<std::uint8_t> payload(bytes * run, 0x5a);
  std::vector<iovec> tx_iovs(run);
  std::vector<mmsghdr> tx_msgs(run);
  for (std::size_t i = 0; i < run; ++i) {
    tx_iovs[i] = {payload.data() + i * bytes, bytes};
    tx_msgs[i] = {};
    tx_msgs[i].msg_hdr.msg_iov = &tx_iovs[i];
    tx_msgs[i].msg_hdr.msg_iovlen = 1;
  }
  transport::UdpSocket::SegmentCmsg control{};
  std::size_t messages = run;
  if (gso) {
    tx_msgs[0].msg_hdr.msg_iovlen = run;
    transport::UdpSocket::set_segment_size(
        tx_msgs[0].msg_hdr, control, static_cast<std::uint16_t>(bytes));
    messages = 1;
  }

  const std::size_t entries = gro ? 4 : 32;
  const std::size_t entry_bytes = gro ? std::size_t{64} << 10 : 2048;
  std::vector<std::uint8_t> slots(entries * entry_bytes);
  std::vector<iovec> rx_iovs(entries);
  std::vector<mmsghdr> rx_msgs(entries);
  std::vector<transport::UdpSocket::RecvCmsg> rx_controls(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    rx_iovs[i] = {slots.data() + i * entry_bytes, entry_bytes};
    rx_msgs[i] = {};
    rx_msgs[i].msg_hdr.msg_iov = &rx_iovs[i];
    rx_msgs[i].msg_hdr.msg_iovlen = 1;
    if (gro) rx_msgs[i].msg_hdr.msg_control = rx_controls[i].buf;
  }

  for (auto _ : state) {
    const auto sent = tx.send_many({tx_msgs.data(), messages});
    if (sent.completed != messages) {
      state.SkipWithError("sendmmsg fell short");
      break;
    }
    std::size_t received = 0;
    while (received < run) {
      if (!gro) {
        received += rx.recv_many(rx_msgs).completed;
        continue;
      }
      for (std::size_t i = 0; i < entries; ++i) {
        rx_msgs[i].msg_hdr.msg_controllen = sizeof(rx_controls[i].buf);
      }
      const unsigned n = rx.recv_many(rx_msgs).completed;
      for (unsigned i = 0; i < n; ++i) {
        const std::size_t len = rx_msgs[i].msg_len;
        const std::size_t segment = transport::UdpSocket::read_recv_cmsgs(
                                        rx_msgs[i].msg_hdr)
                                        .segment_bytes;
        received += segment != 0 && segment < len
                        ? (len + segment - 1) / segment
                        : 1;
      }
    }
    benchmark::DoNotOptimize(received);
  }
  // A rate counter divides by CPU seconds and kInvert flips it, so
  // datagrams * 1e-9 reads back as CPU nanoseconds per datagram.
  const auto datagrams =
      state.iterations() * static_cast<benchmark::IterationCount>(run);
  state.counters["cpu_ns_per_datagram"] = benchmark::Counter(
      static_cast<double>(datagrams) * 1e-9,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(datagrams);
  state.SetLabel(gro ? "gso+gro" : gso ? "gso" : "plain");
}

const bool kUdpLoopbackRegistered = [] {
  const bool kernel_segments =
      transport::UdpSocket::bound_loopback(0).max_segments() > 1;
  transport::UdpSocket probe = transport::UdpSocket::bound_loopback(0);
  probe.enable_receive_offload();
  const bool kernel_gro = kernel_segments && probe.gro();
  const struct {
    const char* name;
    bool gso;
    bool gro;
    bool supported;
  } modes[] = {{"plain", false, false, true},
               {"gso", true, false, kernel_segments},
               {"gso+gro", true, true, kernel_gro}};
  for (const auto& mode : modes) {
    if (!mode.supported) continue;
    for (const std::size_t bytes : {std::size_t{1494}, std::size_t{1360}}) {
      for (const std::size_t run : {std::size_t{2}, std::size_t{3},
                                    std::size_t{9}, std::size_t{32}}) {
        const std::string name = std::string("BM_UdpLoopback/") + mode.name +
                                 "/" + std::to_string(bytes) + "/" +
                                 std::to_string(run);
        benchmark::RegisterBenchmark(name.c_str(), BM_UdpLoopback, mode.gso,
                                     mode.gro, bytes, run);
      }
    }
  }
  return true;
}();

// ---------------------------------------------------------------- obs
//
// The observability overheads that matter: the cost of a disabled guard
// (what every instrumented hot path pays when MCSS_METRICS/MCSS_TRACE
// are unset), and of live counter/histogram/trace updates when enabled.

void BM_ObsDisabledGuard(benchmark::State& state) {
  obs::set_metrics_enabled(false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::metrics_enabled());
    benchmark::DoNotOptimize(obs::trace_enabled());
  }
}
BENCHMARK(BM_ObsDisabledGuard);

void BM_ObsCounterAdd(benchmark::State& state) {
  obs::set_metrics_enabled(true);
  obs::Registry registry;
  const auto id = registry.counter("bench_counter");
  for (auto _ : state) {
    registry.add(id);
  }
  obs::set_metrics_enabled(false);
  benchmark::DoNotOptimize(registry.snapshot());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::set_metrics_enabled(true);
  obs::Registry registry;
  const auto id =
      registry.histogram("bench_hist", obs::exp_bounds(1e-6, 2.0, 24));
  double v = 1e-6;
  for (auto _ : state) {
    registry.observe(id, v);
    v = v < 1.0 ? v * 1.001 : 1e-6;
  }
  obs::set_metrics_enabled(false);
  benchmark::DoNotOptimize(registry.snapshot());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsScopeTimer(benchmark::State& state) {
  obs::set_metrics_enabled(true);
  obs::Registry registry;
  const auto id =
      registry.histogram("bench_scope", obs::exp_bounds(1e-8, 4.0, 16));
  for (auto _ : state) {
    obs::ScopeTimer timer(id, registry);
  }
  obs::set_metrics_enabled(false);
  benchmark::DoNotOptimize(registry.snapshot());
}
BENCHMARK(BM_ObsScopeTimer);

void BM_ObsTraceEvent(benchmark::State& state) {
  obs::Tracer tracer;
  tracer.set_ring_capacity(1 << 12);
  tracer.set_enabled(true);
  std::int64_t ts = 0;
  for (auto _ : state) {
    tracer.complete("bench", "bench", ts, 10, 1, "a", 1);
    ++ts;
  }
  tracer.set_enabled(false);
}
BENCHMARK(BM_ObsTraceEvent);

}  // namespace
