// Shared plumbing for the mcssbench workloads: clocks and rusage, seeded
// inputs, sample statistics, the metric catalog and result, and the span
// recorder used by traced runs.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mcssbench {

// ---------------------------------------------------------------- clocks

[[nodiscard]] std::int64_t mono_ns();
[[nodiscard]] double thread_cpu_s();

/// The whole run's wall-time budget: every wait in the benchmark is
/// capped by what is left of it, so a stalled phase ends the run with
/// its failures counted instead of hanging.
void set_run_budget(double seconds);
[[nodiscard]] double budget_left_s();

/// Process resource usage at one instant (getrusage RUSAGE_SELF + wall).
struct Usage {
  double wall_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  double invol_csw = 0.0;
  double maxrss_mb = 0.0;

  [[nodiscard]] static Usage now();
  [[nodiscard]] double cpu_s() const { return user_s + sys_s; }
  /// Component-wise difference (maxrss keeps the later value).
  [[nodiscard]] Usage operator-(const Usage& earlier) const;
  Usage& operator+=(const Usage& d);
};

/// Resident set size right now, in MB (/proc/self/statm).
[[nodiscard]] double rss_mb();

// ----------------------------------------------------------- statistics

/// Linear-interpolated percentile (q in [0, 100]); 0 for no samples.
[[nodiscard]] double percentile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);

// -------------------------------------------------------- seeded inputs

/// SplitMix64: the benchmark's only source of input randomness.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, n), n > 0.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Seeded payload bytes: the payload of (flow, packet id, length) is a
/// slice of a seeded pool at a per-packet offset, with its first eight
/// bytes keyed to the (flow, id) pair. check() recomputes and compares,
/// so a delivery that is corrupt, truncated or misattributed fails.
class Payloads {
 public:
  explicit Payloads(std::uint64_t seed);
  [[nodiscard]] std::vector<std::uint8_t> make(std::uint32_t flow,
                                               std::uint64_t id,
                                               std::size_t len) const;
  [[nodiscard]] bool check(std::uint32_t flow, std::uint64_t id,
                           std::span<const std::uint8_t> got,
                           std::size_t len) const;

 private:
  [[nodiscard]] std::uint64_t key(std::uint32_t flow, std::uint64_t id) const;
  std::vector<std::uint8_t> pool_;
  std::uint64_t salt_;
};

// ------------------------------------------------------ metrics, result

/// Values a workload measured, by catalog name. Per-layer names a
/// workload does not exercise stay absent and are reported as 0.
using Values = std::map<std::string, double>;

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Values values;
  /// Sample counts behind the reported statistics (and the psim
  /// fingerprint), by name.
  std::map<std::string, std::uint64_t> samples;
  /// Workload-specific figures for the log (per-workload names, model
  /// predictions); not part of the metric set.
  Values notes;
  /// Failed checks by message, with their counts.
  std::map<std::string, std::uint64_t> check_failures;

  /// Record a correctness check; a failed one marks the run incorrect
  /// and is printed to stderr.
  void check(bool ok, std::string_view what);
};

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
  /// Per-layer only: "<end-to-end metric>@<workload>" it should move.
  const char* predicts;
};

[[nodiscard]] std::span<const MetricDef> end_to_end_metrics();
[[nodiscard]] std::span<const MetricDef> per_layer_metrics();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
  /// Scales every workload's population and counts (smoke tests).
  double scale = 1.0;
};

// ------------------------------------------------------------- tracing

/// In-memory span recorder for traced runs. Spans wrap the benchmark's
/// own calls into each library layer; each has a name, a start, an end
/// and a parent. Self time (duration minus child spans) is aggregated
/// per name as spans close; the first kMaxStored spans are kept for the
/// Chrome trace file written at exit. Off by default: a disabled Scope
/// costs one branch.
class Tracer {
 public:
  static Tracer& get();

  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool on() const { return on_; }

  struct Aggregate {
    double self_s = 0.0;
    double cpu_s = 0.0;  ///< thread CPU inside the span (cpu spans only)
    std::vector<double> durations_us;  ///< first kMaxSamples durations
  };

  int begin(const char* name, bool cpu);
  void end(int handle);

  [[nodiscard]] const Aggregate* find(std::string_view name) const;
  /// Sum of self time over spans whose name starts with `prefix`.
  [[nodiscard]] double self_s(std::string_view prefix) const;
  [[nodiscard]] std::uint64_t spans_recorded() const { return recorded_; }
  /// Wall and thread-CPU seconds covered by root spans (no parent): the
  /// denominators of the self-time shares.
  [[nodiscard]] double root_s() const { return root_s_; }
  [[nodiscard]] double root_cpu_s() const { return root_cpu_s_; }
  /// Drop the aggregates (not the stored spans), so they cover only
  /// what runs after this call.
  void reset_aggregates();
  /// Chrome trace JSON ("X" events with args.parent); false on I/O error.
  bool write_chrome(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    std::int64_t start_ns;
    double cpu0;
    double child_s;
    int stored;  ///< index into stored_, or -1
    bool cpu;
  };
  struct Stored {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };
  static constexpr std::size_t kMaxStored = 100'000;
  static constexpr std::size_t kMaxSamples = 200'000;

  bool on_ = false;
  std::int64_t epoch_ns_ = 0;
  std::vector<Open> stack_;
  std::vector<Stored> stored_;
  std::map<std::string, Aggregate, std::less<>> agg_;
  std::uint64_t recorded_ = 0;
  double root_s_ = 0.0;
  double root_cpu_s_ = 0.0;
};

/// RAII span; `cpu` also samples thread CPU at both ends.
class Scope {
 public:
  explicit Scope(const char* name, bool cpu = false)
      : handle_(Tracer::get().on() ? Tracer::get().begin(name, cpu) : -1) {}
  ~Scope() {
    if (handle_ >= 0) Tracer::get().end(handle_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int handle_;
};

}  // namespace mcssbench
