#include "common.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>

namespace mcssbench {

std::int64_t mono_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

namespace {
std::int64_t g_deadline_ns = INT64_MAX;
}  // namespace

void set_run_budget(double seconds) {
  g_deadline_ns = mono_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

double budget_left_s() {
  return std::max(0.0, static_cast<double>(g_deadline_ns - mono_ns()) / 1e9);
}

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  Usage u;
  u.wall_s = static_cast<double>(mono_ns()) / 1e9;
  u.user_s = tv(ru.ru_utime);
  u.sys_s = tv(ru.ru_stime);
  u.invol_csw = static_cast<double>(ru.ru_nivcsw);
  u.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return u;
}

Usage Usage::operator-(const Usage& earlier) const {
  Usage d;
  d.wall_s = wall_s - earlier.wall_s;
  d.user_s = user_s - earlier.user_s;
  d.sys_s = sys_s - earlier.sys_s;
  d.invol_csw = invol_csw - earlier.invol_csw;
  d.maxrss_mb = maxrss_mb;
  return d;
}

Usage& Usage::operator+=(const Usage& d) {
  wall_s += d.wall_s;
  user_s += d.user_s;
  sys_s += d.sys_s;
  invol_csw += d.invol_csw;
  maxrss_mb = std::max(maxrss_mb, d.maxrss_mb);
  return *this;
}

double rss_mb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long total = 0;
  unsigned long resident = 0;
  const int got = std::fscanf(f, "%lu %lu", &total, &resident);
  std::fclose(f);
  if (got != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
constexpr std::size_t kPoolBytes = 1u << 16;
constexpr std::size_t kMaxPayload = 4096;
}  // namespace

Payloads::Payloads(std::uint64_t seed) : pool_(kPoolBytes + kMaxPayload) {
  SplitMix rng(seed ^ 0x5EED'0F'DA7AULL);
  for (std::size_t i = 0; i < pool_.size(); i += 8) {
    const std::uint64_t v = rng.next();
    std::memcpy(pool_.data() + i, &v, std::min<std::size_t>(8, pool_.size() - i));
  }
  salt_ = rng.next();
}

std::uint64_t Payloads::key(std::uint32_t flow, std::uint64_t id) const {
  SplitMix mix(salt_ ^ (static_cast<std::uint64_t>(flow) << 40) ^ id);
  return mix.next();
}

std::vector<std::uint8_t> Payloads::make(std::uint32_t flow, std::uint64_t id,
                                         std::size_t len) const {
  const std::uint64_t k = key(flow, id);
  const std::size_t off = static_cast<std::size_t>(k % kPoolBytes);
  std::vector<std::uint8_t> out(pool_.begin() + static_cast<std::ptrdiff_t>(off),
                                pool_.begin() + static_cast<std::ptrdiff_t>(off + len));
  for (std::size_t i = 0; i < std::min<std::size_t>(8, len); ++i) {
    out[i] ^= static_cast<std::uint8_t>(k >> (8 * i));
  }
  return out;
}

bool Payloads::check(std::uint32_t flow, std::uint64_t id,
                     std::span<const std::uint8_t> got, std::size_t len) const {
  if (got.size() != len) return false;
  const std::uint64_t k = key(flow, id);
  const std::size_t off = static_cast<std::size_t>(k % kPoolBytes);
  const std::size_t head = std::min<std::size_t>(8, len);
  for (std::size_t i = 0; i < head; ++i) {
    if (got[i] != static_cast<std::uint8_t>(pool_[off + i] ^ (k >> (8 * i)))) {
      return false;
    }
  }
  return std::memcmp(got.data() + head, pool_.data() + off + head, len - head) == 0;
}

void Result::check(bool ok, std::string_view what) {
  if (ok) return;
  correct = false;
  // First occurrence on stderr; the run record carries the counts.
  if (check_failures[std::string(what)]++ == 0) {
    std::fprintf(stderr, "CHECK FAILED: %.*s\n", static_cast<int>(what.size()),
                 what.data());
  }
}

// The metric catalog. Every workload reports every end-to-end metric;
// the per-layer set is reported in traced runs, 0 where a workload does
// not exercise the layer. mcssbench/README.md documents each name.
namespace {

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower", ""},
    {"peak_rss_mb", "MB", "lower", ""},
    {"cpu_us_per_op", "us", "lower", ""},
    {"phase_b_us", "us", "lower", ""},
    {"lat_p50_ms", "ms", "lower", ""},
};

constexpr MetricDef kPerLayer[] = {
    {"sss.split_us_per_pkt", "us", "lower", "cpu_us_per_op@stream"},
    {"sss.reconstruct_us_per_pkt", "us", "lower", "cpu_us_per_op@stream"},
    {"crypto.tag_us_per_pkt", "us", "lower", "cpu_us_per_op@stream"},
    {"sss.cpu_share", "frac", "lower", "cpu_us_per_op@stream"},
    {"transport.syscalls_per_pkt", "count", "lower", "phase_b_us@stream"},
    {"transport.sys_cpu_frac", "frac", "lower", "phase_b_us@stream"},
    {"transport.send_batch_mean", "count", "higher", "phase_b_us@stream"},
    {"transport.recv_batch_mean", "count", "higher", "phase_b_us@stream"},
    {"transport.poll_waits_per_pkt", "count", "lower", "phase_b_us@stream"},
    {"transport.tx_queue_wait_us_p99", "us", "lower", "tail.lat_p99_ms@section6"},
    {"transport.impair_drops", "count", "lower", "phase_b_us@section6"},
    {"loop.wake_lag_us_p99", "us", "lower", "tail.lat_p99_ms@section6"},
    {"loop.pump_us_p99", "us", "lower", "tail.lat_p99_ms@section6"},
    {"transport.pool_high_water", "count", "lower", "run.fail_frac@all"},
    {"transport.pool_exhausted", "count", "lower", "run.fail_frac@all"},
    {"protocol.reconstruct_us_p50", "us", "lower", "cpu_us_per_op@stream"},
    {"protocol.reassembly_wait_ms_p99", "ms", "lower", "tail.lat_p99_ms@section6"},
    {"protocol.evicted_memory", "count", "lower", "run.fail_frac@all"},
    {"protocol.evicted_timeout", "count", "lower", "run.fail_frac@all"},
    {"protocol.late_shares", "count", "lower", "run.fail_frac@all"},
    {"protocol.duplicate_shares", "count", "lower", "run.fail_frac@all"},
    {"protocol.achieved_kappa", "1", "higher", "check@section6"},
    {"protocol.achieved_mu", "1", "higher", "check@section6"},
    {"feedback.retransmits_per_kpkt", "count", "lower", "cpu_us_per_op@section6"},
    {"feedback.reports_per_kpkt", "count", "lower", "cpu_us_per_op@churn"},
    {"feedback.packets_abandoned", "count", "lower", "run.fail_frac@all"},
    {"session.close_flow_us_p99", "us", "lower", "cpu_us_per_op@churn"},
    {"session.send_us_p50", "us", "lower", "cpu_us_per_op@churn"},
    {"session.run_for_cpu_share", "frac", "lower", "cpu_us_per_op@churn"},
    {"session.frames_unknown_connection", "count", "lower", "cpu_us_per_op@churn"},
    {"session.queue_rejects", "count", "lower", "run.fail_frac@all"},
    {"session.pool_defers", "count", "lower", "cpu_us_per_op@churn"},
    {"session.mem_per_flow_kb", "KB", "lower", "peak_rss_mb@churn"},
    {"psim.windows", "count", "lower", "lat_p50_ms@psim"},
    {"psim.events_per_window", "count", "higher", "lat_p50_ms@psim"},
    {"psim.max_window_events", "count", "lower", "lat_p50_ms@psim"},
    {"psim.cross_events", "count", "lower", "lat_p50_ms@psim"},
    {"psim.control_rounds", "count", "lower", "lat_p50_ms@psim"},
    {"psim.cpu_per_wall", "1", "lower", "phase_b_us@psim"},
    {"psim.speedup_vs_1t", "1", "higher", "phase_b_us@psim"},
    {"psim.mevents_per_s", "Mevent/s", "higher", "phase_b_us@psim"},
    {"lp.solve_us", "us", "lower", "setup_s@section6"},
    {"model.rate_frac_opt", "frac", "higher", "phase_b_us@section6"},
    {"proc.user_cpu_s", "s", "lower", "cpu_us_per_op@all"},
    {"proc.sys_cpu_s", "s", "lower", "cpu_us_per_op@all"},
    {"proc.invol_ctx_switches", "count", "lower", "tail.lat_p99_ms@all"},
    {"proc.cpu_util", "frac", "higher", "cpu_us_per_op@stream"},
    {"gen.lag_ms_p99", "ms", "lower", "tail.lat_p99_ms@section6"},
    {"tail.lat_p99_ms", "ms", "lower", "lat_p50_ms@all"},
    {"run.fail_frac", "frac", "lower", "failed@all"},
    {"self.session_frac", "frac", "lower", "cpu_us_per_op@churn"},
    {"self.psim_frac", "frac", "lower", "lat_p50_ms@psim"},
    {"self.bench_frac", "frac", "lower", "cpu_us_per_op@all"},
    {"trace.overhead_frac", "frac", "lower", "cpu_us_per_op@all"},
};

}  // namespace

std::span<const MetricDef> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricDef> per_layer_metrics() { return kPerLayer; }

// --------------------------------------------------------------- Tracer

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

int Tracer::begin(const char* name, bool cpu) {
  const std::int64_t now = mono_ns();
  if (epoch_ns_ == 0) epoch_ns_ = now;
  int stored = -1;
  if (stored_.size() < kMaxStored) {
    const int parent = stack_.empty() ? -1 : stack_.back().stored;
    stored = static_cast<int>(stored_.size());
    stored_.push_back({name, now, now, parent});
  }
  // Root spans always sample CPU: they are the self-time denominators.
  cpu = cpu || stack_.empty();
  stack_.push_back({name, now, cpu ? thread_cpu_s() : 0.0, 0.0, stored, cpu});
  return static_cast<int>(stack_.size() - 1);
}

void Tracer::end(int handle) {
  const std::int64_t now = mono_ns();
  // Scopes nest, so the span closing is always the innermost open one.
  if (stack_.empty() || handle != static_cast<int>(stack_.size() - 1)) return;
  const Open open = stack_.back();
  stack_.pop_back();
  const double dur_s = static_cast<double>(now - open.start_ns) / 1e9;
  if (open.stored >= 0) stored_[static_cast<std::size_t>(open.stored)].end_ns = now;
  if (!stack_.empty()) stack_.back().child_s += dur_s;
  auto it = agg_.find(std::string_view(open.name));
  if (it == agg_.end()) it = agg_.emplace(open.name, Aggregate{}).first;
  Aggregate& a = it->second;
  a.self_s += dur_s - open.child_s;
  const double cpu_s = open.cpu ? thread_cpu_s() - open.cpu0 : 0.0;
  a.cpu_s += cpu_s;
  if (stack_.empty()) {
    root_s_ += dur_s;
    root_cpu_s_ += cpu_s;
  }
  if (a.durations_us.size() < kMaxSamples) a.durations_us.push_back(dur_s * 1e6);
  ++recorded_;
}

void Tracer::reset_aggregates() {
  agg_.clear();
  root_s_ = 0.0;
  root_cpu_s_ = 0.0;
}

const Tracer::Aggregate* Tracer::find(std::string_view name) const {
  const auto it = agg_.find(name);
  return it == agg_.end() ? nullptr : &it->second;
}

double Tracer::self_s(std::string_view prefix) const {
  double sum = 0.0;
  for (const auto& [name, a] : agg_) {
    if (std::string_view(name).substr(0, prefix.size()) == prefix) sum += a.self_s;
  }
  return sum;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < stored_.size(); ++i) {
    const Stored& s = stored_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - epoch_ns_) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
  }
  std::fputs("],\"displayTimeUnit\":\"ms\"}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace mcssbench
