#include "transport/udp_channel.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "net/sim_time.hpp"
#include "obs/metrics.hpp"
#include "protocol/wire.hpp"
#include "transport/wall_clock.hpp"
#include "util/ensure.hpp"

namespace mcss::transport {

namespace {

// These ids sit on per-frame / per-syscall paths, so they are resolved
// once and cached (function-local static, the hot-path convention): a
// registry lookup per datagram burst costs a mutex and two allocations
// at rates where that is measurable. Callers gate on metrics_enabled();
// after a Registry::reset() the cached ids are inert no-ops by design.

/// Wall-clock time a released frame waited in the pending ring before
/// the kernel took it.
obs::HistogramId tx_queue_wait_hist() {
  static const obs::HistogramId id = obs::Registry::global().histogram(
      "mcss_transport_tx_queue_wait_seconds", obs::exp_bounds(1e-7, 4.0, 20));
  return id;
}

/// Datagrams moved per sendmmsg/recvmmsg that moved any — the batching
/// efficiency distribution (1 = the syscall carried a single datagram).
obs::HistogramId send_batch_hist() {
  static const obs::HistogramId id = obs::Registry::global().histogram(
      "mcss_transport_send_batch_datagrams", obs::exp_bounds(1.0, 2.0, 8));
  return id;
}

obs::HistogramId recv_batch_hist() {
  static const obs::HistogramId id = obs::Registry::global().histogram(
      "mcss_transport_recv_batch_datagrams", obs::exp_bounds(1.0, 2.0, 8));
  return id;
}

}  // namespace

UdpChannel::UdpChannel(net::ChannelConfig config, Rng rng,
                       net::Simulator& timeline, util::FramePool& pool, std::uint16_t rx_port,
                       std::string name, std::size_t max_datagram_bytes,
                       std::size_t send_batch, std::size_t recv_batch)
    : name_(std::move(name)),
      max_datagram_bytes_(max_datagram_bytes),
      send_batch_(send_batch),
      recv_batch_(recv_batch),
      rx_(UdpSocket::bound_loopback(rx_port)),
      tx_(UdpSocket::bound_loopback(0)),
      timeline_(timeline),
      pool_(pool),
      impair_(config, rng, timeline,
              [this](util::FrameRef frame, std::int64_t release_ns) {
                release(std::move(frame), release_ns);
              }),
      // Seed the retry pacer from (not with) the impairment stream so the
      // two stay independent. Waits are short: kernel buffers drain fast.
      retry_backoff_({.base_ns = 500'000, .cap_ns = 20'000'000,
                      .multiplier = 2.0},
                     Rng(rng())) {
  MCSS_ENSURE(max_datagram_bytes_ >= proto::kHeaderSize + proto::kTagSize,
              "max datagram too small for one frame");
  MCSS_ENSURE(send_batch_ >= 1, "send batch must be at least 1");
  MCSS_ENSURE(recv_batch_ >= 1, "recv batch must be at least 1");
  tx_.connect_loopback(rx_.local_port());

  // Deep kernel buffers for the batched path: one pump can flush every
  // free pool slot in a single sendmmsg burst, and the RX side has to
  // hold that burst until the next recvmmsg wakeup. Sized to the arena
  // (the true in-flight bound), best effort — the kernel silently clamps
  // to net.core.{w,r}mem_max, and a clamped buffer only means earlier
  // EAGAIN on TX or kernel drops on RX, both of which the transport
  // already treats as backpressure and loss.
  const auto want = static_cast<int>(std::clamp<std::size_t>(
      pool_.capacity() * pool_.slot_bytes(), 256u << 10, 4u << 20));
  tx_.set_send_buffer(want);
  rx_.set_recv_buffer(want);

  // Every allocation the steady state needs happens HERE, once. The ring
  // bound is every pool slot in flight at once, duplicated (the
  // impairment's duplicate knob shares slots between two pending
  // entries), plus slack for the RX pins not being in the ring.
  ring_.resize(2 * pool_.capacity() + 4);
  last_flush_release_ns_.reserve(ring_.size());
  tx_msgs_.resize(send_batch_);
  tx_takes_.resize(send_batch_);
  tx_iovs_.resize(ring_.size());
  if (recv_batch_ > 1) {
    rx_slots_.reserve(recv_batch_);
    rx_msgs_.resize(recv_batch_);
    rx_iovs_.resize(recv_batch_);
    for (std::size_t i = 0; i < recv_batch_; ++i) {
      util::FrameRef slot = pool_.acquire();
      MCSS_ENSURE(slot,
                  "frame pool too small to pin this channel's receive slots");
      rx_iovs_[i].iov_base = slot.data();
      rx_iovs_[i].iov_len = pool_.slot_bytes();
      std::memset(&rx_msgs_[i].msg_hdr, 0, sizeof(rx_msgs_[i].msg_hdr));
      rx_msgs_[i].msg_hdr.msg_iov = &rx_iovs_[i];
      rx_msgs_[i].msg_hdr.msg_iovlen = 1;
      rx_slots_.push_back(std::move(slot));
    }
  }
}

UdpChannel::~UdpChannel() = default;

bool UdpChannel::try_send(util::FrameRef frame, std::int64_t now_ns) {
  last_now_ns_ = now_ns;
  return impair_.offer(std::move(frame), now_ns);
}

bool UdpChannel::try_send(std::span<const std::uint8_t> frame,
                          std::int64_t now_ns) {
  util::FrameRef staged = pool_.acquire_copy(frame);
  if (!staged) {
    ++stats_.frames_dropped_pool;
    return false;
  }
  return try_send(std::move(staged), now_ns);
}

bool UdpChannel::ready(std::int64_t now_ns) const noexcept {
  (void)now_ns;
  // Bytes parked behind a full kernel buffer count against the watermark
  // exactly as queued-at-the-serializer bytes do: both are backlog the
  // scheduler should steer new shares away from.
  return impair_.queued_bytes() + pending_out_bytes_ <
         (impair_.config().ready_watermark_bytes != 0
              ? impair_.config().ready_watermark_bytes
              : std::max<std::size_t>(1,
                                      impair_.config().queue_capacity_bytes / 2));
}

std::int64_t UdpChannel::backlog_ns(std::int64_t now_ns) const noexcept {
  std::int64_t t = impair_.backlog_ns(now_ns);
  if (pending_out_bytes_ > 0) {
    // Parked bytes have already been paced; charge them at line rate as a
    // proxy for the kernel buffer draining.
    t += net::from_seconds(static_cast<double>(pending_out_bytes_) * 8.0 /
                           impair_.config().rate_bps);
  }
  return t;
}

void UdpChannel::release(util::FrameRef frame, std::int64_t release_ns) {
  if (ring_count_ == ring_.size()) {
    // Pathological park (kernel jammed for ages): degrade is tail drop
    // with a stat, never an allocation.
    ++stats_.frames_dropped_pool;
    return;
  }
  pending_out_bytes_ += frame.size();
  Pending& slot = ring_[(ring_head_ + ring_count_) % ring_.size()];
  slot.ref = std::move(frame);
  slot.release_ns = release_ns;
  ++ring_count_;
  // Legacy mode keeps the old send-on-release behavior; the batched mode
  // waits for the endpoint's per-pump flush unless a full sendmmsg's
  // worth is already pending.
  if (send_batch_ == 1 || ring_count_ >= send_batch_) flush(release_ns);
}

void UdpChannel::flush(std::int64_t now_ns) {
  last_flush_release_ns_.clear();
  if (send_batch_ == 1) {
    flush_legacy(now_ns);
  } else {
    flush_batched(now_ns);
  }
}

void UdpChannel::retire_front_frames(std::size_t frames, std::int64_t now_ns,
                                     bool sent) {
  const bool metrics = sent && obs::metrics_enabled();
  for (std::size_t i = 0; i < frames; ++i) {
    Pending& p = ring_[ring_head_];
    pending_out_bytes_ -= p.ref.size();
    if (sent) {
      last_flush_release_ns_.push_back(p.release_ns);
      if (metrics) {
        const std::int64_t wait = now_ns - p.release_ns;
        obs::Registry::global().observe(tx_queue_wait_hist(),
                                        net::to_seconds(wait > 0 ? wait : 0));
      }
    }
    p.ref.reset();
    ring_head_ = (ring_head_ + 1) % ring_.size();
    --ring_count_;
  }
}

void UdpChannel::flush_batched(std::int64_t now_ns) {
  while (ring_count_ > 0) {
    // Build up to send_batch_ datagrams: greedy head-first coalescing,
    // each frame an iovec pointing straight into its pool slot — the
    // kernel gathers, we never assemble.
    std::size_t iov_idx = 0;
    std::size_t frame_idx = 0;
    unsigned ndg = 0;
    while (ndg < send_batch_ && frame_idx < ring_count_) {
      const std::size_t start_iov = iov_idx;
      // The head frame always goes (even if it alone exceeds the budget
      // — UDP will take it or EMSGSIZE will tell us); later frames join
      // while they fit.
      util::FrameRef& head = ring_at(frame_idx).ref;
      std::size_t total = head.size();
      std::size_t take = 1;
      tx_iovs_[iov_idx].iov_base = head.data();
      tx_iovs_[iov_idx].iov_len = head.size();
      ++iov_idx;
      while (frame_idx + take < ring_count_ &&
             total + ring_at(frame_idx + take).ref.size() <=
                 max_datagram_bytes_) {
        util::FrameRef& next = ring_at(frame_idx + take).ref;
        tx_iovs_[iov_idx].iov_base = next.data();
        tx_iovs_[iov_idx].iov_len = next.size();
        total += next.size();
        ++iov_idx;
        ++take;
      }
      mmsghdr& m = tx_msgs_[ndg];
      std::memset(&m.msg_hdr, 0, sizeof(m.msg_hdr));
      m.msg_hdr.msg_iov = &tx_iovs_[start_iov];
      m.msg_hdr.msg_iovlen = take;
      m.msg_len = 0;
      tx_takes_[ndg] = take;
      ++ndg;
      frame_idx += take;
    }

    const auto batch = tx_.send_many({tx_msgs_.data(), ndg});
    if (batch.completed > 0) {
      for (unsigned i = 0; i < batch.completed; ++i) {
        ++stats_.datagrams_sent;
        stats_.bytes_sent += tx_msgs_[i].msg_len;
        stats_.frames_coalesced += tx_takes_[i] - 1;
        retire_front_frames(tx_takes_[i], now_ns, /*sent=*/true);
      }
      if (obs::metrics_enabled()) {
        obs::Registry::global().observe(
            send_batch_hist(), static_cast<double>(batch.completed));
      }
      // The kernel accepted datagrams, so the congestion episode is
      // over; the next one starts from the base wait.
      retry_backoff_.reset();
    }
    switch (batch.result) {
      case UdpSocket::IoResult::Ok:
        if (batch.completed == ndg) continue;  // full batch; maybe more
        // Short return: a mid-batch slot failed. Per sendmmsg(2) the
        // error surfaces as the HEAD errno of the next call, so just
        // loop — the requeued tail goes out again and the verdict
        // (WouldBlock/Refused/...) lands in one of the cases below.
        ++stats_.sendmmsg_short;
        if (batch.completed == 0) {
          // Zero progress with no errno (only the inject_accept_limit
          // hook produces this): park rather than spin.
          arm_retry();
          return;
        }
        continue;
      case UdpSocket::IoResult::WouldBlock:
        // Kernel buffer full: park everything and wait for EPOLLOUT,
        // with a backoff-paced timer retry as a backstop.
        ++stats_.send_wouldblock;
        arm_retry();
        return;
      case UdpSocket::IoResult::Refused:
        // ICMP port unreachable from an earlier datagram, charged to the
        // head: best-effort loss, not an error. The shares are gone; the
        // threshold scheme absorbs it.
        ++stats_.send_refused;
        retire_front_frames(tx_takes_[0], now_ns, /*sent=*/false);
        continue;
      case UdpSocket::IoResult::Error:
        ++stats_.send_errors;
        retire_front_frames(tx_takes_[0], now_ns, /*sent=*/false);
        continue;
    }
  }
}

void UdpChannel::flush_legacy(std::int64_t now_ns) {
  // The pre-batching path, preserved verbatim (assembly copy, one send()
  // per datagram) as the bench's before/after baseline.
  std::vector<std::uint8_t> datagram;
  while (ring_count_ > 0) {
    std::size_t take = 1;
    std::size_t total = ring_at(0).ref.size();
    while (take < ring_count_ &&
           total + ring_at(take).ref.size() <= max_datagram_bytes_) {
      total += ring_at(take).ref.size();
      ++take;
    }
    datagram.clear();
    datagram.reserve(total);
    for (std::size_t i = 0; i < take; ++i) {
      const auto bytes = ring_at(i).ref.cspan();
      datagram.insert(datagram.end(), bytes.begin(), bytes.end());
    }

    switch (tx_.send(datagram)) {
      case UdpSocket::IoResult::Ok:
        ++stats_.datagrams_sent;
        stats_.bytes_sent += datagram.size();
        stats_.frames_coalesced += take - 1;
        retire_front_frames(take, now_ns, /*sent=*/true);
        break;
      case UdpSocket::IoResult::WouldBlock:
        ++stats_.send_wouldblock;
        arm_retry();
        return;
      case UdpSocket::IoResult::Refused:
        ++stats_.send_refused;
        retire_front_frames(take, now_ns, /*sent=*/false);
        break;
      case UdpSocket::IoResult::Error:
        ++stats_.send_errors;
        retire_front_frames(take, now_ns, /*sent=*/false);
        break;
    }
    retry_backoff_.reset();
  }
}

void UdpChannel::arm_retry() {
  if (retry_armed_) return;
  retry_armed_ = true;
  const std::int64_t at = last_now_ns_ + retry_backoff_.next();
  schedule_wall(timeline_, at, [this, at] {
    retry_armed_ = false;
    if (ring_count_ > 0) {
      ++stats_.send_retries;
      flush(at);
    }
  });
}

void UdpChannel::on_writable(std::int64_t now_ns) { flush(now_ns); }

void UdpChannel::on_readable() {
  if (recv_batch_ == 1) {
    on_readable_legacy();
  } else {
    on_readable_batched();
  }
}

void UdpChannel::on_readable_batched() {
  for (;;) {
    const auto batch = rx_.recv_many({rx_msgs_.data(), recv_batch_});
    switch (batch.result) {
      case UdpSocket::IoResult::Ok:
        break;
      case UdpSocket::IoResult::WouldBlock:
        return;  // drained
      case UdpSocket::IoResult::Refused:
        ++stats_.recv_refused;
        continue;  // pending ICMP error consumed; keep draining
      case UdpSocket::IoResult::Error:
        ++stats_.recv_errors;
        return;
    }
    if (obs::metrics_enabled() && batch.completed > 0) {
      obs::Registry::global().observe(recv_batch_hist(),
                                      static_cast<double>(batch.completed));
    }
    for (unsigned i = 0; i < batch.completed; ++i) {
      const mmsghdr& m = rx_msgs_[i];
      if ((m.msg_hdr.msg_flags & MSG_TRUNC) != 0) {
        // Datagram overflowed its pool slot: the tail is gone and frame
        // boundaries with it. Count and drop; slots are sized for the
        // endpoint's own datagrams, so this flags a mis-sized pool.
        ++stats_.recv_truncated;
        continue;
      }
      const std::size_t n = m.msg_len;
      if (n == 0) continue;  // zero-length datagram carries nothing
      ++stats_.datagrams_received;
      stats_.bytes_received += n;
      split_and_forward({rx_slots_[i].data(), n});
    }
    if (batch.completed < recv_batch_) return;  // queue drained mid-batch
  }
}

void UdpChannel::on_readable_legacy() {
  std::array<std::uint8_t, 65535> buf;
  for (;;) {
    std::size_t n = 0;
    switch (rx_.recv(buf, &n)) {
      case UdpSocket::IoResult::Ok:
        break;
      case UdpSocket::IoResult::WouldBlock:
        return;  // drained
      case UdpSocket::IoResult::Refused:
        ++stats_.recv_refused;
        continue;
      case UdpSocket::IoResult::Error:
        ++stats_.recv_errors;
        return;
    }
    if (n == 0) continue;
    ++stats_.datagrams_received;
    stats_.bytes_received += n;
    split_and_forward({buf.data(), n});
  }
}

void UdpChannel::split_and_forward(std::span<const std::uint8_t> datagram) {
  // Split the datagram back into frames in place. Framing only (no key):
  // the keyed proto::Receiver upstream re-decodes each frame and owns
  // the malformed/auth-failure accounting, so a tampered frame is
  // counted exactly once, by the component the tests assert on.
  std::span<const std::uint8_t> rest = datagram;
  while (!rest.empty()) {
    const auto extent = proto::frame_extent(rest);
    if (extent.has_value()) {
      ++stats_.frames_forwarded;
      if (on_frame_) on_frame_(rest.first(*extent));
      rest = rest.subspan(*extent);
    } else {
      // Undecodable head: forward the remainder whole so the receiver
      // sees (and counts) the malformation, then move to the next
      // datagram — frame boundaries inside garbage are unknowable.
      ++stats_.unparsed_forwarded;
      if (on_frame_) on_frame_(rest);
      break;
    }
  }
}

}  // namespace mcss::transport
