// The load generator: ONE thread driving four non-blocking connections
// through epoll. It never spins: between scheduled sends it sleeps in
// epoll_wait with a timerfd armed at the next send time, with the thread's
// timer slack cut to 1ns so the kernel does not defer the wakeup.
//
//   * Open loop: request k is due at t0 + k/rate on connection k % 4,
//     whatever the replies do. Latency runs from the due time, so a stall
//     also charges the requests queued behind it; a request answered with
//     anything but a checked kOk counts as infinitely slow. The time the
//     generator itself ran late is recorded per request.
//   * Closed loop: each connection keeps a fixed window of frames in
//     flight and sends the next one as each reply arrives.
//
// Every reply is checked against the pool's expectation as it is parsed
// (workload.hpp explains why that is one compare). Requests take pool
// draws in order; a run that exhausts the pool walks it again in an
// order permuted per pass. Replaying it in the same order would re-send,
// first, exactly the positions the server's memo cached first — a burst
// of hits no fresh stream would produce. Append frames are the exception:
// each is sent once. A closed loop is given a number of them and ends
// early, at the last whole slice, when it has sent them all; an open loop
// that finds the append pool empty fails the run.
#pragma once

#include <sys/prctl.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace wtbench {

inline uint64_t NowNs() { return wt::obs::NowNanos(); }

/// Latency of a request that did not get a checked kOk reply.
inline constexpr uint64_t kFailedLatency = UINT64_MAX;

/// Phases count answered ops per slice of this length; capacity is read
/// from the distribution of slice rates (wtbench.cpp, SustainedRate).
inline constexpr uint64_t kSliceNs = 100'000'000;

/// Per-phase outcome counts, in ops (items), not frames.
struct Tally {
  uint64_t attempted_ops = 0;
  uint64_t shed_ops = 0;     // kOverloaded
  uint64_t expired_ops = 0;  // kDeadlineExceeded
  uint64_t error_ops = 0;    // any other non-kOk status
  uint64_t wrong_ops = 0;    // kOk whose answer disagrees with the oracle
  uint64_t acked_strings = 0;
  uint64_t acked_bytes = 0;

  uint64_t failed_ops() const {
    return shed_ops + expired_ops + error_ops + wrong_ops;
  }
  void Add(const Tally& o) {
    attempted_ops += o.attempted_ops;
    shed_ops += o.shed_ops;
    expired_ops += o.expired_ops;
    error_ops += o.error_ops;
    wrong_ops += o.wrong_ops;
    acked_strings += o.acked_strings;
    acked_bytes += o.acked_bytes;
  }
};

struct PhaseResult {
  Tally tally;
  double seconds = 0;  // measured: a closed loop cut short stops earlier
  bool cut_short = false;
  std::vector<uint64_t> slice_ops;  // kOk ops answered, per kSliceNs
  // A recorded open loop's samples: [samples_begin, samples_end) of
  // LoadGen::latency_ns() and late_ns().
  size_t samples_begin = 0;
  size_t samples_end = 0;
};

class LoadGen {
 public:
  static constexpr size_t kConns = 4;
  /// Client request spans are sampled 1 in this many.
  static constexpr uint64_t kSpanSampling = 64;

  /// `max_open_requests` sizes the open loops' sample buffers up front,
  /// so they are allocated before the benchmark takes its RSS baseline.
  LoadGen(const Workload& w, size_t max_open_requests)
      : w_(w),
        ring_(kRing),
        sent_per_domain_(w.spec->store.domains, 0),
        rbuf_(kReadChunk) {
    for (Conn& c : conns_) {
      c.out.reserve(1 << 20);
      c.in.reserve(2 << 20);
    }
    latency_.reserve(max_open_requests);
    late_.reserve(max_open_requests);
  }

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  wtrie::Status Connect(uint16_t port) {
    (void)::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    wtrie::Result<wt::net::EventPoller> poller =
        wt::net::EventPoller::Create();
    if (!poller.ok()) return poller.status();
    poller_ = std::move(*poller);
    timer_ = wt::net::Fd(
        ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC));
    if (!timer_.valid()) {
      return wtrie::Status::Error(wtrie::ErrorCode::kIoError,
                                  "loadgen: timerfd_create failed");
    }
    if (auto st = poller_.Add(timer_.get(), kTimerToken, true, false);
        !st.ok()) {
      return st;
    }
    for (size_t i = 0; i < kConns; ++i) {
      wtrie::Result<wt::net::Fd> fd = wt::net::TcpConnect(port);
      if (!fd.ok()) return fd.status();
      if (auto st = wt::net::SetNonBlocking(fd->get()); !st.ok()) return st;
      if (auto st = poller_.Add(fd->get(), i, true, false); !st.ok()) {
        return st;
      }
      conns_[i].fd = std::move(*fd);
    }
    return wtrie::Status::Ok();
  }

  /// `record` appends per-request latency and lateness samples to
  /// latency_ns() and late_ns().
  PhaseResult OpenLoop(double frames_per_s, double seconds, bool record,
                       SpanLog* spans, uint64_t span_parent) {
    PhaseResult r;
    r.samples_begin = latency_.size();
    Begin(&r, record, spans, span_parent);
    append_limit_ = w_.appends.size();
    const uint64_t total = static_cast<uint64_t>(frames_per_s * seconds);
    const double interval_ns = 1e9 / frames_per_s;
    const uint64_t t0 = NowNs();
    StartWindow(&r, t0, seconds);
    auto due = [&](uint64_t k) {
      return t0 + static_cast<uint64_t>(double(k) * interval_ns);
    };
    uint64_t k = 0;
    while (!broken_) {
      const uint64_t now = NowNs();
      for (; k < total && due(k) <= now; ++k) {
        if (!Send(k % kConns, due(k))) {
          Fail("open loop: the append pool is exhausted");
          break;
        }
        if (record) late_.push_back(now - due(k));
      }
      FlushAll();
      if (k == total && outstanding_ == 0) break;
      if (k == total && now > window_end_ + kDrainNs) {
        Fail("open loop: requests still unanswered 5s after the phase");
        break;
      }
      WaitUntil(k < total ? due(k) : window_end_ + kDrainNs);
    }
    r.seconds = seconds;
    r.samples_end = latency_.size();
    End();
    return r;
  }

  /// Sends at most `max_appends` append frames.
  PhaseResult ClosedLoop(uint32_t window, double seconds, size_t max_appends,
                         SpanLog* spans, uint64_t span_parent) {
    PhaseResult r;
    Begin(&r, /*record=*/false, spans, span_parent);
    append_limit_ = std::min(w_.appends.size(), appends_sent_ + max_appends);
    const uint64_t t0 = NowNs();
    StartWindow(&r, t0, seconds);
    r.seconds = seconds;
    refill_ = true;
    for (size_t c = 0; c < kConns && refill_; ++c) {
      for (uint32_t i = 0; i < window && refill_; ++i) Refill(c, t0);
    }
    FlushAll();
    while (!broken_) {
      const uint64_t now = NowNs();
      if (now >= window_end_) refill_ = false;
      if (!refill_ && outstanding_ == 0) break;
      if (now > window_end_ + kDrainNs) {
        Fail("closed loop: requests still unanswered 5s after the phase");
        break;
      }
      WaitUntil(refill_ ? window_end_ : window_end_ + kDrainNs);
      FlushAll();
    }
    refill_ = false;
    End();
    return r;
  }

  /// One inline-served admin request (kPing, kMetrics, kTrace) on
  /// connection 0, between phases. Returns the reply body after the
  /// status byte.
  wtrie::Result<std::string> Admin(wt::net::MsgType type) {
    const uint64_t id = kAdminBit | next_admin_++;
    conns_[0].out += wt::net::EncodeFrame(static_cast<uint8_t>(type), id, 0,
                                          std::string());
    admin_done_ = false;
    FlushConn(0);
    const uint64_t deadline = NowNs() + kDrainNs;
    while (!admin_done_ && !broken_) {
      if (NowNs() > deadline) {
        Fail("admin request unanswered for 5s");
        break;
      }
      WaitUntil(deadline);
      FlushAll();
    }
    if (broken_) {
      return wtrie::Status::Error(wtrie::ErrorCode::kIoError,
                                  "load generator failed (see error())");
    }
    if (admin_.empty() ||
        admin_[0] != static_cast<char>(wt::net::WireStatus::kOk)) {
      return wtrie::Status::Error(wtrie::ErrorCode::kIoError,
                                  "admin request refused");
    }
    return admin_.substr(1);
  }

  /// Open-loop latency per request, from its due time (kFailedLatency for
  /// a failed request), and how late the generator sent it.
  const std::vector<uint64_t>& latency_ns() const { return latency_; }
  const std::vector<uint64_t>& late_ns() const { return late_; }

  bool broken() const { return broken_; }
  const std::string& error() const { return error_; }
  const std::vector<std::string>& mismatches() const { return mismatches_; }

 private:
  static constexpr size_t kRing = size_t{1} << 17;  // in-flight id slots
  static constexpr size_t kReadChunk = 256 << 10;
  static constexpr uint64_t kTimerToken = 100;
  static constexpr uint64_t kAdminBit = uint64_t{1} << 63;
  static constexpr uint64_t kDrainNs = 5'000'000'000ull;

  struct Conn {
    wt::net::Fd fd;
    std::string out;
    size_t out_off = 0;
    std::string in;
    size_t in_off = 0;
    bool want_write = false;
  };

  struct Slot {
    uint64_t id = 0;
    uint64_t due_ns = 0;
    const Draw* draw = nullptr;
    uint8_t conn = 0;
    bool live = false;
  };

  void Begin(PhaseResult* r, bool record, SpanLog* spans, uint64_t parent) {
    cur_ = r;
    record_ = record;
    spans_ = spans != nullptr && spans->enabled() ? spans : nullptr;
    span_parent_ = parent;
  }

  void StartWindow(PhaseResult* r, uint64_t t0, double seconds) {
    window_start_ = t0;
    window_end_ = t0 + static_cast<uint64_t>(seconds * 1e9);
    r->slice_ops.assign((window_end_ - t0 + kSliceNs - 1) / kSliceNs, 0);
  }

  void End() {
    cur_ = nullptr;
    record_ = false;
    spans_ = nullptr;
  }

  void Fail(const std::string& why) {
    if (!broken_) error_ = why;
    broken_ = true;
  }

  /// Index of the k-th draw: pass 0 walks the pool in order, pass p > 0
  /// through the bijection i -> (a_p * i + b_p) mod size (a_p odd; pool
  /// sizes are powers of two).
  uint32_t DrawIndex(uint64_t k) const {
    const uint64_t size = w_.draws.size();
    const uint64_t pass = k / size;
    const uint64_t i = k % size;
    if (pass == 0) return static_cast<uint32_t>(i);
    const uint64_t a = SplitMix(pass) | 1;
    return static_cast<uint32_t>((a * i + SplitMix(~pass)) & (size - 1));
  }

  /// Sends the next draw; false, sending nothing, when it is an append
  /// slot and the phase's append frames are used up.
  bool Send(size_t ci, uint64_t due_ns) {
    const Draw* d = &w_.draws[DrawIndex(draws_sent_)];
    if (d->op == Op::kAppend) {
      if (appends_sent_ == append_limit_) return false;
      d = &w_.appends[appends_sent_++];
      for (uint32_t i = d->aux; i < d->aux + d->ops; ++i) {
        sent_per_domain_[w_.appended_domain[i]]++;
      }
    }
    draws_sent_++;
    const uint64_t id = next_id_++;
    Slot& s = ring_[id & (kRing - 1)];
    if (s.live) {
      Fail("more requests in flight than the id ring holds");
      return true;
    }
    s = {id, due_ns, d, static_cast<uint8_t>(ci), true};
    Conn& c = conns_[ci];
    const size_t at = c.out.size();
    c.out.append(w_.frames, d->off, d->len);
    std::memcpy(&c.out[at + offsetof(wt::net::FrameHeader, request_id)], &id,
                sizeof(id));
    outstanding_++;
    cur_->tally.attempted_ops += d->ops;
    return true;
  }

  /// A closed loop's next send; once the phase's append frames are used
  /// up, stops the refills and ends the measured window there.
  void Refill(size_t ci, uint64_t now) {
    if (Send(ci, now)) return;
    refill_ = false;
    cur_->cut_short = true;
    cur_->seconds = double(now - window_start_) / 1e9;
  }

  void FlushAll() {
    for (size_t i = 0; i < kConns; ++i) FlushConn(i);
  }

  void FlushConn(size_t ci) {
    Conn& c = conns_[ci];
    while (c.out_off < c.out.size()) {
      wtrie::Result<wt::net::IoOutcome> r = wt::net::WriteSome(
          c.fd.get(), c.out.data() + c.out_off, c.out.size() - c.out_off);
      if (!r.ok() || r->eof) {
        Fail("send to the daemon failed");
        return;
      }
      if (r->would_block) break;
      c.out_off += r->n;
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    } else if (c.out_off > (1 << 20)) {
      c.out.erase(0, c.out_off);
      c.out_off = 0;
    }
    const bool want = !c.out.empty();
    if (want != c.want_write &&
        poller_.Modify(c.fd.get(), ci, true, want).ok()) {
      c.want_write = want;
    }
  }

  void WaitUntil(uint64_t wake_ns) {
    if (wake_ns != armed_ns_) {
      itimerspec its{};
      its.it_value.tv_sec = static_cast<time_t>(wake_ns / 1'000'000'000);
      its.it_value.tv_nsec = static_cast<long>(wake_ns % 1'000'000'000);
      ::timerfd_settime(timer_.get(), TFD_TIMER_ABSTIME, &its, nullptr);
      armed_ns_ = wake_ns;
    }
    events_.clear();
    if (!poller_.Wait(-1, &events_).ok()) {
      Fail("epoll_wait failed");
      return;
    }
    for (const wt::net::Readiness& ev : events_) {
      if (ev.token == kTimerToken) {
        uint64_t expirations = 0;
        (void)::read(timer_.get(), &expirations, sizeof(expirations));
        armed_ns_ = 0;  // expired: the next wait must re-arm
        continue;
      }
      if (ev.readable) ReadConn(ev.token);
      if (ev.writable) FlushConn(ev.token);
    }
  }

  void ReadConn(size_t ci) {
    Conn& c = conns_[ci];
    for (int budget = 0; budget < 16 && !broken_; ++budget) {
      wtrie::Result<wt::net::IoOutcome> r =
          wt::net::ReadSome(c.fd.get(), rbuf_.data(), rbuf_.size());
      if (!r.ok() || r->eof) {
        Fail("the daemon closed a connection");
        return;
      }
      if (r->would_block) return;
      c.in.append(rbuf_.data(), r->n);
      ParseReplies(ci, NowNs());
      if (r->n < rbuf_.size()) return;
    }
  }

  void ParseReplies(size_t ci, uint64_t now) {
    Conn& c = conns_[ci];
    while (!broken_) {
      size_t consumed = 0;
      const wt::net::FrameParse parse = wt::net::TryParseFrame(
          c.in.data() + c.in_off, c.in.size() - c.in_off,
          wt::net::kDefaultMaxResponsePayload, &reply_, &consumed);
      if (parse == wt::net::FrameParse::kNeedMore) break;
      if (parse != wt::net::FrameParse::kFrame ||
          (reply_.header.type & wt::net::kResponseBit) == 0) {
        Fail("malformed reply frame");
        return;
      }
      c.in_off += consumed;
      OnReply(reply_.header, reply_.payload.data(), now);
    }
    if (c.in_off == c.in.size()) {
      c.in.clear();
      c.in_off = 0;
    } else if (c.in_off > (1 << 20)) {
      c.in.erase(0, c.in_off);
      c.in_off = 0;
    }
  }

  void OnReply(const wt::net::FrameHeader& h, const char* payload,
               uint64_t now) {
    if ((h.request_id & kAdminBit) != 0) {
      admin_.assign(payload, h.payload_len);
      admin_done_ = true;
      return;
    }
    Slot& s = ring_[h.request_id & (kRing - 1)];
    if (cur_ == nullptr || !s.live || s.id != h.request_id) {
      Fail("reply to a request that is not in flight");
      return;
    }
    s.live = false;
    const Slot slot = s;
    outstanding_--;
    const Draw& d = *slot.draw;
    Tally& t = cur_->tally;
    const auto status =
        h.payload_len == 0 ? wt::net::WireStatus::kError
                           : static_cast<wt::net::WireStatus>(payload[0]);
    bool ok = false;
    switch (status) {
      case wt::net::WireStatus::kOk:
        ok = Matches(d, h, payload);
        if (!ok) {
          t.wrong_ops += d.ops;
          NoteMismatch(d, h);
        }
        break;
      case wt::net::WireStatus::kOverloaded:
        t.shed_ops += d.ops;
        break;
      case wt::net::WireStatus::kDeadlineExceeded:
        t.expired_ops += d.ops;
        break;
      default:
        t.error_ops += d.ops;
        break;
    }
    if (ok) {
      if (d.op == Op::kAppend) {
        t.acked_strings += d.ops;
        t.acked_bytes += d.user_bytes;
      }
      if (now < window_end_) {
        cur_->slice_ops[(now - window_start_) / kSliceNs] += d.ops;
      }
    }
    if (record_) latency_.push_back(ok ? now - slot.due_ns : kFailedLatency);
    if (spans_ != nullptr && h.request_id % kSpanSampling == 0) {
      spans_->Add("client.request", span_parent_, slot.due_ns, now);
    }
    if (refill_ && now < window_end_) Refill(slot.conn, now);
  }

  bool Matches(const Draw& d, const wt::net::FrameHeader& h,
               const char* payload) const {
    if (d.op == Op::kCountPrefix) {
      // [kOk][u32 1][u64 count]: at least the initial count, at most that
      // plus every string with the prefix sent in an append so far.
      if (h.payload_len != 1 + 4 + 8) return false;
      uint64_t count = 0;
      std::memcpy(&count, payload + 5, sizeof(count));
      return count >= d.expect &&
             count - d.expect <= sent_per_domain_[d.aux];
    }
    return h.checksum == d.expect;
  }

  void NoteMismatch(const Draw& d, const wt::net::FrameHeader& h) {
    if (mismatches_.size() >= 8) return;
    static const char* const kOpNames[] = {"access", "rank", "select",
                                           "count_prefix", "frequent",
                                           "append"};
    mismatches_.push_back(std::string(kOpNames[static_cast<int>(d.op)]) +
                          " request " + std::to_string(h.request_id) +
                          ": reply digest " + std::to_string(h.checksum) +
                          ", expected " + std::to_string(d.expect));
  }

  const Workload& w_;
  std::array<Conn, kConns> conns_;
  wt::net::EventPoller poller_;
  wt::net::Fd timer_;
  uint64_t armed_ns_ = 0;
  std::vector<wt::net::Readiness> events_;
  std::vector<Slot> ring_;
  std::vector<uint64_t> sent_per_domain_;
  std::vector<char> rbuf_;
  wt::net::Frame reply_;  // reused, so its payload keeps its capacity
  std::vector<uint64_t> latency_;
  std::vector<uint64_t> late_;
  uint64_t next_id_ = 1;
  uint64_t next_admin_ = 1;
  uint64_t draws_sent_ = 0;
  size_t appends_sent_ = 0;
  size_t append_limit_ = 0;  // appends_sent_ may not pass it this phase
  uint64_t outstanding_ = 0;

  PhaseResult* cur_ = nullptr;
  bool record_ = false;
  bool refill_ = false;
  uint64_t window_start_ = 0;
  uint64_t window_end_ = 0;
  SpanLog* spans_ = nullptr;
  uint64_t span_parent_ = 0;

  std::string admin_;
  bool admin_done_ = false;
  bool broken_ = false;
  std::string error_;
  std::vector<std::string> mismatches_;
};

}  // namespace wtbench
