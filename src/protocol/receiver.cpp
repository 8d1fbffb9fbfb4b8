#include "protocol/receiver.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/scope_timer.hpp"
#include "obs/trace.hpp"
#include "protocol/wire.hpp"
#include "sss/shamir.hpp"
#include "util/ensure.hpp"

namespace mcss::proto {

namespace {

/// Sim-time from a packet's first share arriving to its k-th (the
/// reassembly wait). Invalid while metrics are disabled.
obs::HistogramId reassembly_wait_hist() {
  if (!obs::metrics_enabled()) return {};
  return obs::Registry::global().histogram(
      "mcss_receiver_reassembly_wait_seconds", obs::exp_bounds(1e-6, 2.0, 24));
}

/// Wall-clock cost of one Shamir reconstruction.
obs::HistogramId reconstruct_hist() {
  if (!obs::metrics_enabled()) return {};
  return obs::Registry::global().histogram(
      "mcss_receiver_reconstruct_seconds", obs::exp_bounds(1e-8, 4.0, 16));
}

}  // namespace

void publish(obs::Registry& registry, const ReceiverStats& stats) {
  const auto add = [&](std::string_view name, std::uint64_t value) {
    registry.add(registry.counter(name), value);
  };
  add("mcss_receiver_frames_received", stats.frames_received);
  add("mcss_receiver_malformed_frames", stats.malformed_frames);
  add("mcss_receiver_auth_failures", stats.auth_failures);
  add("mcss_receiver_duplicate_shares", stats.duplicate_shares);
  add("mcss_receiver_late_shares", stats.late_shares);
  add("mcss_receiver_conflicting_metadata", stats.conflicting_metadata);
  add("mcss_receiver_packets_delivered", stats.packets_delivered);
  add("mcss_receiver_bytes_delivered", stats.bytes_delivered);
  add("mcss_receiver_packets_evicted_timeout", stats.packets_evicted_timeout);
  add("mcss_receiver_packets_evicted_memory", stats.packets_evicted_memory);
  add("mcss_receiver_shares_dropped_memory", stats.shares_dropped_memory);
  add("mcss_receiver_stale_generation_shares", stats.stale_generation_shares);
  add("mcss_receiver_partials_superseded", stats.partials_superseded);
  add("mcss_receiver_partials_in_arena", stats.partials_in_arena);
  add("mcss_receiver_partials_on_heap", stats.partials_on_heap);
}

void Receiver::publish_metrics(obs::Registry& registry) const {
  publish(registry, stats_);
}

Receiver::Receiver(net::Simulator& sim, ReceiverConfig config,
                   net::CpuModel* cpu)
    : sim_(sim),
      config_(config),
      cpu_(cpu),
      delivered_(config.completed_history) {
  MCSS_ENSURE(config_.reassembly_timeout > 0, "timeout must be positive");
  MCSS_ENSURE(config_.memory_limit_bytes > 0, "memory limit must be positive");
  if (cpu_ != nullptr) alive_ = std::make_shared<bool>(true);
}

Receiver::~Receiver() {
  // The simulator may be shared and outlive this receiver (session flows
  // come and go): take back every eviction timer still parked there, and
  // let deferred deliveries, which hold the token, stand down.
  for (const auto& [id, partial] : partials_) sim_.cancel(partial.eviction);
  if (alive_) *alive_ = false;
}

void Receiver::attach(net::ChannelPort& channel) {
  channel.set_receiver([this](std::vector<std::uint8_t> f) {
    on_frame(std::span<const std::uint8_t>(f));
  });
}

void Receiver::on_frame(std::span<const std::uint8_t> raw) {
  FrameView view;
  DecodeStatus status = DecodeStatus::Ok;
  decode_views({&raw, 1}, auth_key(), {&view, 1}, {&status, 1});
  on_frame(status, view);
}

void Receiver::on_frame(DecodeStatus status, const FrameView& view) {
  ++stats_.frames_received;
  if (status == DecodeStatus::Ok && config_.auth_key && !view.authenticated) {
    status = DecodeStatus::AuthFailed;
  }
  if (status != DecodeStatus::Ok) {
    if (status == DecodeStatus::AuthFailed) {
      ++stats_.auth_failures;
    } else {
      ++stats_.malformed_frames;
    }
    return;
  }
  // Zero-copy: the payload is a span into the caller's buffer, copied
  // exactly once, straight into the partial's storage, on append.
  const std::uint64_t id = view.packet_id;
  if (obs::trace_enabled()) {
    // Ends the span the sender opened when it enqueued this share.
    obs::Tracer::global().async_end(
        "share", "share", obs::share_span_id(id, view.share_index),
        sim_.now());
  }
  if (delivered_.state(id) != util::IdWindow::State::New) {
    ++stats_.late_shares;
    return;
  }

  auto it = partials_.find(id);
  if (it == partials_.end()) {
    if (!make_room(view.payload.size(), std::nullopt)) {
      ++stats_.shares_dropped_memory;
      return;
    }
    Partial partial;
    partial.id = id;
    partial.k = view.k;
    partial.generation = view.generation;
    partial.share_size = view.payload.size();
    partial.first_seen = sim_.now();
    it = partials_.emplace(id, std::move(partial)).first;
    init_storage(it->second);
    creation_order_.push_back(it->second);
    if (obs::trace_enabled()) {
      obs::Tracer::global().async_begin("reassembly", "receiver", id,
                                        sim_.now(), "k", view.k);
    }
    arm_eviction_timer(id, it->second);
  }

  Partial& partial = it->second;
  if (view.generation != partial.generation) {
    // RFC 1982 serial order on the 8-bit generation, so an ARQ session
    // surviving 255 re-splits wraps cleanly.
    const bool newer =
        static_cast<std::uint8_t>(view.generation - partial.generation) <
        0x80;
    if (!newer) {
      ++stats_.stale_generation_shares;
      return;
    }
    // A retransmission re-split the packet: stored shares are from a
    // different random polynomial and can never combine with this one.
    // Restart the partial around the new generation, and give it a fresh
    // reassembly lease — with ARQ, a packet legitimately outlives one
    // reassembly timeout while retransmissions are still arriving.
    buffered_bytes_ -= partial.share_size * partial.count;
    partial.slot.reset();
    partial.heap.clear();
    partial.count = 0;
    partial.k = view.k;
    partial.generation = view.generation;
    partial.share_size = view.payload.size();
    partial.first_seen = sim_.now();
    init_storage(partial);
    ++stats_.partials_superseded;
    arm_eviction_timer(id, partial);
  }
  if (view.k != partial.k || view.payload.size() != partial.share_size) {
    ++stats_.conflicting_metadata;
    return;
  }
  if (has_share(partial, view.share_index)) {
    ++stats_.duplicate_shares;
    return;
  }

  // The cap must hold for APPENDS too, not only for new partials — an
  // existing packet accumulating shares grows buffered_bytes_ all the
  // same. The partial being extended is never its own victim; if even
  // evicting everything else cannot fit the share, drop the share.
  if (!make_room(view.payload.size(), id)) {
    ++stats_.shares_dropped_memory;
    return;
  }
  buffered_bytes_ += view.payload.size();
  append_share(partial, view.share_index, view.payload);
  if (partial.count >= partial.k) {
    complete(id, partial);
  }
}

void Receiver::init_storage(Partial& partial) {
  // Every partial has one layout, k index bytes up front and then k
  // share regions of share_size each, so an append is a byte write plus
  // a memcpy. An arena slot holds it whole, with no heap at all. The
  // heap buffer grows as shares append and is never reserved for all k
  // up front: a forged header can claim 255 shares of 64 KiB, and the
  // memory cap counts only bytes that arrived.
  const std::size_t need =
      static_cast<std::size_t>(partial.k) * (1 + partial.share_size);
  if (config_.arena != nullptr && need <= config_.arena->slot_bytes()) {
    partial.slot = config_.arena->acquire();
  }
  if (partial.slot) {
    partial.slot.resize(need);
    ++stats_.partials_in_arena;
  } else {
    ++stats_.partials_on_heap;
  }
}

bool Receiver::has_share(Partial& partial, std::uint8_t index) {
  const std::uint8_t* indices = partial.storage();
  return std::find(indices, indices + partial.count, index) !=
         indices + partial.count;
}

void Receiver::append_share(Partial& partial, std::uint8_t index,
                            std::span<const std::uint8_t> payload) {
  const std::size_t at =
      partial.k + static_cast<std::size_t>(partial.count) * partial.share_size;
  if (!partial.slot) partial.heap.resize(at + partial.share_size);
  std::uint8_t* base = partial.storage();
  base[partial.count] = index;
  if (!payload.empty()) std::memcpy(base + at, payload.data(), payload.size());
  ++partial.count;
}

void Receiver::arm_eviction_timer(std::uint64_t id, Partial& partial) {
  // IP-reassembly-style timer: if the packet is still partial when it
  // fires, evict it. complete(), evict() and a generation supersede
  // cancel it, so a firing timer always finds its partial pending.
  sim_.cancel(partial.eviction);
  partial.eviction =
      sim_.schedule_in(config_.reassembly_timeout, [this, id] {
        evict(id, &stats_.packets_evicted_timeout);
      });
}

void Receiver::complete(std::uint64_t id, Partial& partial) {
  const net::SimTime now = sim_.now();
  if (obs::metrics_enabled()) {
    obs::Registry::global().observe(reassembly_wait_hist(),
                                    net::to_seconds(now - partial.first_seen));
  }

  std::vector<std::uint8_t> payload;
  {
    obs::ScopeTimer reconstruct_timer(reconstruct_hist());
    // Views straight into the partial's storage; k <= 255 bounds the
    // stack array. complete() fires on the k-th append, so count == k.
    sss::ShareView views[255];
    const std::uint8_t* base = partial.storage();
    for (std::size_t i = 0; i < partial.k; ++i) {
      views[i] = {base[i],
                  {base + partial.k + i * partial.share_size,
                   partial.share_size}};
    }
    payload = sss::reconstruct_views(
        std::span<const sss::ShareView>(views, partial.k));
  }

  net::SimTime done = now;
  if (cpu_ != nullptr) {
    done = cpu_->submit(cpu_->reconstruct_ops(partial.k));
  }
  if (obs::trace_enabled()) {
    obs::Tracer::global().async_end("reassembly", "receiver", id, now);
    // Sim-time reconstruction charge, then the end of the packet span
    // the sender opened at dispatch.
    obs::Tracer::global().complete("reconstruct", "receiver", now,
                                   std::max<net::SimTime>(0, done - now), id,
                                   "k", partial.k);
    obs::Tracer::global().async_end("packet", "packet", id, done);
  }
  ++stats_.packets_delivered;
  stats_.bytes_delivered += payload.size();
  delivered_.mark(id);  // before the callback, which may build a report
  if (deliver_) {
    if (done <= sim_.now()) {
      deliver_(id, std::move(payload));
    } else {  // only with a CpuModel, so alive_ is set
      sim_.schedule_at(
          done, [this, alive = alive_, id, p = std::move(payload)]() mutable {
            if (!*alive) return;
            deliver_(id, std::move(p));
          });
    }
  }

  buffered_bytes_ -= partial.share_size * partial.count;
  sim_.cancel(partial.eviction);
  creation_order_.erase(partial);
  partials_.erase(id);
}

void Receiver::evict(std::uint64_t id, std::uint64_t* counter) {
  const auto it = partials_.find(id);
  MCSS_INVARIANT(it != partials_.end(), "evicting a packet that is not pending");
  buffered_bytes_ -= it->second.share_size * it->second.count;
  sim_.cancel(it->second.eviction);  // no-op when the timer is what fired
  creation_order_.erase(it->second);
  partials_.erase(it);
  ++*counter;
  if (obs::trace_enabled()) {
    obs::Tracer::global().instant(counter == &stats_.packets_evicted_timeout
                                      ? "evict_timeout"
                                      : "evict_memory",
                                  "receiver", sim_.now(), id);
    obs::Tracer::global().async_end("reassembly", "receiver", id, sim_.now());
  }
}

bool Receiver::make_room(std::size_t incoming_bytes,
                         std::optional<std::uint64_t> exclude) {
  Partial* next = creation_order_.front();
  while (buffered_bytes_ + incoming_bytes > config_.memory_limit_bytes &&
         next != nullptr) {
    const std::uint64_t victim = next->id;
    next = creation_order_.next(*next);  // before evict() frees the victim
    if (exclude && victim == *exclude) continue;
    evict(victim, &stats_.packets_evicted_memory);
  }
  return buffered_bytes_ + incoming_bytes <= config_.memory_limit_bytes;
}

}  // namespace mcss::proto
