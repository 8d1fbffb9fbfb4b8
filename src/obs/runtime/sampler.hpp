// Periodic in-loop sampler: snapshots the metrics Registry and walks
// the owning endpoint's flow table in bounded slices, so a 100k-flow
// endpoint never stalls its pump to produce a scrape.
//
// The owner wires two callbacks: collect_cids fills the universe of
// open connection ids at the start of a sample, and probe_flow fills a
// FlowSample for one cid (returning false when the flow closed since
// collection — samples are best-effort point-in-time, not
// transactional). Each poll() processes at most max_flows_per_slice
// probes; when the walk completes the sampler finalizes: invokes the
// owner's publish hook, snapshots the Registry, renders the cached
// /metrics and /flows documents, and bumps sample_seq.
//
// Determinism: top-K lists are ordered by (metric desc, cid asc) and
// the Prometheus text inherits the Registry's sorted-by-name order, so
// two scrapes between which nothing happened are byte-identical
// (modulo the sample timestamp line, which tests can strip).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace mcss::obs::runtime {

/// Point-in-time drill-down for one flow, filled by the owner.
struct FlowSample {
  std::uint32_t cid = 0;
  std::uint64_t queued_packets = 0;    ///< sender queue depth
  std::uint64_t outstanding = 0;       ///< unacked packets in ARQ
  std::int64_t rto_ns = 0;             ///< current (backed-off) RTO
  std::uint64_t retransmits = 0;
  std::uint64_t receiver_bytes = 0;    ///< reassembly memory held
  int exposure_width = 0;              ///< widest realized exposure union
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
};

struct SamplerConfig {
  std::int64_t interval_ns = 250'000'000;  ///< MCSS_OBS_INTERVAL override
  std::size_t top_k = 8;
  /// Probe at most this many flows per poll() call; a 100k-flow walk
  /// spreads across ~25 pump iterations at the default.
  std::size_t max_flows_per_slice = 4096;
};

/// Parse MCSS_OBS_INTERVAL (milliseconds, > 0) into nanoseconds;
/// returns `fallback_ns` when unset/empty/invalid.
[[nodiscard]] std::int64_t obs_interval_from_env(std::int64_t fallback_ns);

class Sampler {
 public:
  using CollectCidsFn = std::function<void(std::vector<std::uint32_t>&)>;
  using ProbeFlowFn = std::function<bool(std::uint32_t, FlowSample&)>;
  using PublishFn = std::function<void(Registry&)>;

  explicit Sampler(SamplerConfig config = {});

  void set_flow_probes(CollectCidsFn collect, ProbeFlowFn probe);
  /// Invoked at finalize time, right before the Registry snapshot, so
  /// the owner can fold its gauges/counter deltas in.
  void set_publish(PublishFn publish);

  /// Advance the sampler: starts a sample when one is due, otherwise
  /// continues (one slice of) an in-progress walk. Cheap when idle.
  void poll(std::int64_t now_ns);

  /// Force a full sample to completion right now (benches and
  /// shutdown paths that want one last consistent scrape).
  void sample_now(std::int64_t now_ns);

  /// Next instant poll() wants to run, for arming a loop timer:
  /// immediately (now) while a walk is in progress, else the next
  /// interval boundary.
  [[nodiscard]] std::int64_t next_due_ns(std::int64_t now_ns) const;

  // -- cached scrape documents (latest completed sample) ---------------
  [[nodiscard]] const std::string& metrics_text() const noexcept {
    return metrics_text_;
  }
  [[nodiscard]] const std::string& flows_json() const noexcept {
    return flows_json_;
  }
  [[nodiscard]] std::uint64_t sample_seq() const noexcept {
    return sample_seq_;
  }
  [[nodiscard]] std::int64_t sample_time_ns() const noexcept {
    return sample_time_ns_;
  }
  [[nodiscard]] std::size_t flows_open() const noexcept {
    return flows_open_;
  }
  [[nodiscard]] bool sampling() const noexcept { return walking_; }
  [[nodiscard]] const SamplerConfig& config() const noexcept {
    return config_;
  }

 private:
  struct TopK {
    // Bounded worst-out list ordered by (value desc, cid asc); small K
    // makes linear insertion cheaper than a heap.
    std::vector<std::pair<std::uint64_t, FlowSample>> entries;
    void offer(std::uint64_t value, const FlowSample& sample,
               std::size_t cap);
  };

  void begin(std::int64_t now_ns);
  void step();
  void finalize(std::int64_t now_ns);
  static void append_flow_array(std::string& out, const TopK& top,
                                std::string_view key);

  SamplerConfig config_;
  CollectCidsFn collect_;
  ProbeFlowFn probe_;
  PublishFn publish_;

  // walk state
  bool walking_ = false;
  std::vector<std::uint32_t> walk_cids_;
  std::size_t walk_pos_ = 0;
  std::int64_t walk_started_ns_ = 0;
  TopK by_queue_;
  TopK by_rto_;
  TopK by_receiver_mem_;
  TopK by_exposure_;

  // latest completed sample
  std::int64_t next_sample_ns_ = 0;
  std::uint64_t sample_seq_ = 0;
  std::int64_t sample_time_ns_ = 0;
  std::size_t flows_open_ = 0;
  std::string metrics_text_;
  std::string flows_json_;
};

}  // namespace mcss::obs::runtime
