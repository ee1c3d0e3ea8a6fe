// Bounded admission queue with load shedding and deadline enforcement
// (DESIGN.md #11).
//
// The contract that makes the server overload-safe:
//
//   * Admission is bounded by request count AND queued bytes. When either
//     bound is hit, Offer() sheds: the caller sends a typed kOverloaded
//     reply with a retry-after hint. Nothing is ever silently dropped —
//     every request is either shed at the door (client told immediately)
//     or admitted, and every admitted request produces exactly one reply.
//   * Deadlines are enforced at dequeue: a request that expired while
//     waiting is not handed to the dispatcher as work; Pop() moves it to
//     an `expired` out-list so the caller can send kDeadlineExceeded.
//     (The dispatcher re-checks before replying — serving a result after
//     its deadline is serving it stale-late; see server.hpp.)
//   * The retry-after hint is honest: estimated drain time of the queue
//     ahead of the rejected request, from an EWMA of recent per-request
//     service time. Overloaded clients back off proportionally to actual
//     backlog instead of a magic constant.
//   * Close() flips the queue into drain mode: new offers are refused with
//     kClosed (the server answers kShuttingDown), already-admitted work
//     keeps draining — the graceful-shutdown half of the contract.
//
// Everything is guarded by one mutex with full thread-safety annotations;
// the clang -Wthread-safety CI job proves the locking discipline.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/thread_annotations.hpp"
#include "net/clock.hpp"
#include "net/frame.hpp"
#include "obs/metrics.hpp"

namespace wt::net {

/// One admitted request, carrying everything the dispatcher needs to
/// execute it and route the reply.
struct PendingRequest {
  uint64_t conn_id = 0;
  uint64_t request_id = 0;
  uint8_t type = 0;  // MsgType of the request (response bit clear)
  RequestBody body;
  uint64_t deadline_ns = 0;  // absolute monotonic ns; 0 = no deadline
  uint64_t enqueued_ns = 0;
  size_t cost_bytes = 0;
};

class AdmissionQueue {
 public:
  enum class Offer : uint8_t { kAdmitted = 0, kShed = 1, kClosed = 2 };

  struct Limits {
    size_t max_requests = 1024;
    size_t max_bytes = 32u << 20;
  };

  /// `metrics` is where the queue's counters/gauges and the admit-wait
  /// histogram live, and where they are read back from; null creates a
  /// private registry. The server passes the engine's, so one snapshot
  /// covers admission, serving stages and the engine alike.
  AdmissionQueue(Limits limits, MonotonicClock* clock,
                 std::shared_ptr<wt::obs::MetricsRegistry> metrics = nullptr)
      : limits_(limits),
        clock_(clock),
        metrics_(metrics != nullptr
                     ? std::move(metrics)
                     : std::make_shared<wt::obs::MetricsRegistry>()) {
    wt::obs::MetricsRegistry& reg = *metrics_;
    c_offered_ = reg.GetCounter("wt_admission_offered_total");
    c_admitted_ = reg.GetCounter("wt_admission_admitted_total");
    c_shed_ = reg.GetCounter("wt_admission_shed_total");
    c_refused_closed_ = reg.GetCounter("wt_admission_refused_closed_total");
    c_expired_dequeue_ =
        reg.GetCounter("wt_admission_expired_at_dequeue_total");
    c_expired_reply_ =
        reg.GetCounter("wt_admission_expired_before_reply_total");
    c_completed_ = reg.GetCounter("wt_admission_completed_total");
    g_depth_ = reg.GetGauge("wt_admission_queue_depth");
    g_bytes_ = reg.GetGauge("wt_admission_queued_bytes");
    h_admit_wait_us_ = reg.GetHistogram("wt_serving_admit_wait_us");
  }

  /// Admits or sheds one request. On kShed, *retry_after_ms carries the
  /// backoff hint. Never blocks the caller: shedding is a synchronous
  /// decision on the I/O thread, which is what keeps "queue full" from
  /// turning into "server stops reading and clients time out blind".
  Offer TryOffer(PendingRequest&& req, uint32_t* retry_after_ms)
      WT_EXCLUDES(mu_) {
    Offer verdict = Offer::kAdmitted;
    {
      wt::MutexLock lock(mu_);
      if (closed_) {
        verdict = Offer::kClosed;
      } else if (queue_.size() >= limits_.max_requests ||
                 queued_bytes_ + req.cost_bytes > limits_.max_bytes) {
        shed_streak_++;
        *retry_after_ms = RetryAfterMsLocked();
        verdict = Offer::kShed;
      } else {
        queued_bytes_ += req.cost_bytes;
        shed_streak_ = 0;
        queue_.push_back(std::move(req));
        UpdateQueueGaugesLocked();
        cv_.NotifyOne();
      }
    }
    // Counter publication happens after the lock drops — same invariant as
    // the batched paths: no shared RMWs inside the queue's critical section.
    c_offered_->Increment();
    switch (verdict) {
      case Offer::kClosed:
        c_refused_closed_->Increment();
        break;
      case Offer::kShed:
        c_shed_->Increment();
        break;
      case Offer::kAdmitted:
        c_admitted_->Increment();
        break;
    }
    return verdict;
  }

  /// Batched TryOffer: one lock acquisition and one dispatcher wakeup for a
  /// whole read's worth of frames. verdicts->at(i) is the decision for
  /// reqs->at(i); admitted requests are moved out of *reqs, refused ones
  /// left in place so the caller can reply. *retry_after_ms carries the
  /// hint for any kShed verdicts (computed once per batch — the backlog
  /// barely moves within one).
  void TryOfferBatch(std::vector<PendingRequest>* reqs,
                     std::vector<Offer>* verdicts, uint32_t* retry_after_ms)
      WT_EXCLUDES(mu_) {
    verdicts->clear();
    verdicts->reserve(reqs->size());
    // Tally verdicts locally; the counters take one Add per kind after the
    // lock drops — this loop is the I/O thread's hot path, and per-frame
    // shared RMWs here are measurable at saturation qps.
    uint64_t n_closed = 0, n_shed = 0, n_admitted = 0;
    {
      wt::MutexLock lock(mu_);
      for (PendingRequest& req : *reqs) {
        if (closed_) {
          n_closed++;
          verdicts->push_back(Offer::kClosed);
          continue;
        }
        if (queue_.size() >= limits_.max_requests ||
            queued_bytes_ + req.cost_bytes > limits_.max_bytes) {
          n_shed++;
          shed_streak_++;
          *retry_after_ms = RetryAfterMsLocked();
          verdicts->push_back(Offer::kShed);
          continue;
        }
        queued_bytes_ += req.cost_bytes;
        n_admitted++;
        shed_streak_ = 0;
        queue_.push_back(std::move(req));
        verdicts->push_back(Offer::kAdmitted);
      }
      UpdateQueueGaugesLocked();
      if (n_admitted > 0) cv_.NotifyOne();
    }
    c_offered_->Add(reqs->size());
    if (n_closed > 0) c_refused_closed_->Add(n_closed);
    if (n_shed > 0) c_shed_->Add(n_shed);
    if (n_admitted > 0) c_admitted_->Add(n_admitted);
  }

  /// Pops up to max_batch admissible requests, blocking until at least one
  /// request is available or the queue is closed AND empty (drain done —
  /// returns false). Requests whose deadline passed while queued are moved
  /// to *expired instead of *batch: the deadline-at-dequeue check. Both
  /// lists can be non-empty in one call.
  bool PopBatch(size_t max_batch, std::vector<PendingRequest>* batch,
                std::vector<PendingRequest>* expired) WT_EXCLUDES(mu_) {
    batch->clear();
    expired->clear();
    bool drained = false;
    bool slack = true;
    uint64_t n_expired = 0;
    {
      wt::MutexLock lock(mu_);
      while (queue_.empty() && !closed_) cv_.Wait(mu_);
      if (queue_.empty()) {
        drained = true;  // closed and drained
      } else {
        const uint64_t now = clock_->NowNanos();
        size_t popped = 0;
        while (!queue_.empty() && popped < max_batch) {
          PendingRequest req = std::move(queue_.front());
          queue_.pop_front();
          queued_bytes_ -= req.cost_bytes;
          pending_waits_.Add((now - req.enqueued_ns) / 1000);
          popped++;
          if (req.deadline_ns != 0 && now >= req.deadline_ns) {
            n_expired++;
            expired->push_back(std::move(req));
          } else {
            batch->push_back(std::move(req));
          }
        }
        slack = popped < max_batch;
        UpdateQueueGaugesLocked();
      }
    }
    // Slack-aware publication (DESIGN.md #12): wait samples accumulate in
    // the consumer-owned batch (plain stores) and reach the shared
    // histogram only when the pop ran below max_batch — i.e. the queue has
    // slack to spare — every kPublishEveryPops pops as a staleness bound,
    // or when the queue drains for good. The saturated path publishes
    // nothing per pop.
    if (drained || slack || ++pending_pops_ >= kPublishEveryPops) {
      FlushWaitSamples();
    }
    if (n_expired > 0) c_expired_dequeue_->Add(n_expired);
    return !drained;
  }

  /// Non-blocking PopBatch — the deterministic-test / manual-dispatch seam.
  bool TryPopBatch(size_t max_batch, std::vector<PendingRequest>* batch,
                   std::vector<PendingRequest>* expired) WT_EXCLUDES(mu_) {
    batch->clear();
    expired->clear();
    bool empty = false;
    bool slack = true;
    uint64_t n_expired = 0;
    {
      wt::MutexLock lock(mu_);
      if (queue_.empty()) {
        empty = true;
      } else {
        const uint64_t now = clock_->NowNanos();
        size_t popped = 0;
        while (!queue_.empty() && popped < max_batch) {
          PendingRequest req = std::move(queue_.front());
          queue_.pop_front();
          queued_bytes_ -= req.cost_bytes;
          pending_waits_.Add((now - req.enqueued_ns) / 1000);
          popped++;
          if (req.deadline_ns != 0 && now >= req.deadline_ns) {
            n_expired++;
            expired->push_back(std::move(req));
          } else {
            batch->push_back(std::move(req));
          }
        }
        slack = popped < max_batch;
        UpdateQueueGaugesLocked();
      }
    }
    // Same slack-aware publication as PopBatch; an empty poll is the
    // manual-dispatch loop going idle, which is also a publish point.
    if (empty || slack || ++pending_pops_ >= kPublishEveryPops) {
      FlushWaitSamples();
    }
    if (n_expired > 0) c_expired_dequeue_->Add(n_expired);
    return !empty;
  }

  /// Records one served request's wall time, updating the EWMA behind the
  /// retry-after hint, and the completion counter.
  void NoteServiced(uint64_t service_ns) WT_EXCLUDES(mu_) {
    c_completed_->Increment();
    wt::MutexLock lock(mu_);
    if (ewma_service_ns_ == 0) {
      ewma_service_ns_ = service_ns;
    } else {
      // alpha = 1/8: smooth enough to ride out one slow analytics query,
      // fresh enough to track a load shift within a few dozen requests.
      ewma_service_ns_ = ewma_service_ns_ - ewma_service_ns_ / 8 +
                         service_ns / 8;
    }
  }

  /// Batched NoteServiced: one lock and one EWMA step per dispatch batch.
  /// per_req_ns is already the batch's evenly-split per-request cost, so a
  /// single blend step carries the same signal as count identical ones.
  void NoteServicedBatch(uint64_t count, uint64_t per_req_ns)
      WT_EXCLUDES(mu_) {
    if (count == 0) return;
    c_completed_->Add(count);
    wt::MutexLock lock(mu_);
    if (ewma_service_ns_ == 0) {
      ewma_service_ns_ = per_req_ns;
    } else {
      ewma_service_ns_ = ewma_service_ns_ - ewma_service_ns_ / 8 +
                         per_req_ns / 8;
    }
  }

  /// Records a request that expired after dequeue, before its reply.
  void NoteExpiredBeforeReply() { c_expired_reply_->Increment(); }

  /// Drain mode: refuse new work, keep serving admitted work. Wakes any
  /// blocked PopBatch so the dispatcher can finish and exit.
  void Close() WT_EXCLUDES(mu_) {
    wt::MutexLock lock(mu_);
    closed_ = true;
    cv_.NotifyAll();
  }

  bool closed() const WT_EXCLUDES(mu_) {
    wt::MutexLock lock(mu_);
    return closed_;
  }

  size_t depth() const WT_EXCLUDES(mu_) {
    wt::MutexLock lock(mu_);
    return queue_.size();
  }

 private:
  /// Mirrors queue depth/bytes into the exposition gauges. Telemetry
  /// only — admission decisions read the guarded fields directly.
  void UpdateQueueGaugesLocked() WT_REQUIRES(mu_) {
    g_depth_->Set(static_cast<int64_t>(queue_.size()));
    g_bytes_->Set(static_cast<int64_t>(queued_bytes_));
  }

  /// Estimated drain time of the current backlog, clamped to [1ms, 10s].
  /// Callers hold mu_.
  ///
  /// The estimate counts not just the queued requests but every request
  /// shed since the queue last had room: those callers were told to retry
  /// and will land ahead of (or around) this one, so a hint based on queue
  /// depth alone understates the wait and re-synchronizes the herd onto
  /// the 1ms floor. The streak resets the moment an offer is admitted.
  uint32_t RetryAfterMsLocked() const WT_REQUIRES(mu_) {
    // Before any completion the EWMA is unknown; assume 1ms per queued
    // request — pessimistic enough to spread the retry stampede.
    const uint64_t per_req_ns =
        ewma_service_ns_ == 0 ? 1000000ull : ewma_service_ns_;
    const uint64_t drain_ns =
        per_req_ns * (queue_.size() + 1 + shed_streak_);
    uint64_t ms = drain_ns / 1000000ull;
    if (ms < 1) ms = 1;
    if (ms > 10000) ms = 10000;
    return static_cast<uint32_t>(ms);
  }

  const Limits limits_;
  MonotonicClock* const clock_;
  // Instrument home (shared so the server can unify all surfaces into one
  // snapshot) plus cached pointers.
  const std::shared_ptr<wt::obs::MetricsRegistry> metrics_;
  wt::obs::Counter* c_offered_ = nullptr;
  wt::obs::Counter* c_admitted_ = nullptr;
  wt::obs::Counter* c_shed_ = nullptr;
  wt::obs::Counter* c_refused_closed_ = nullptr;
  wt::obs::Counter* c_expired_dequeue_ = nullptr;
  wt::obs::Counter* c_expired_reply_ = nullptr;
  wt::obs::Counter* c_completed_ = nullptr;
  wt::obs::Gauge* g_depth_ = nullptr;
  wt::obs::Gauge* g_bytes_ = nullptr;
  wt::obs::Histogram* h_admit_wait_us_ = nullptr;

  /// Publishes the deferred wait samples and resets the accumulator.
  /// Consumer-thread only (see pending_waits_).
  void FlushWaitSamples() {
    h_admit_wait_us_->Record(pending_waits_);
    pending_waits_ = {};
    pending_pops_ = 0;
  }

  /// Staleness bound for deferred wait samples: a saturated dispatcher
  /// publishes at least once every this many pops (~a millisecond of
  /// full batches), so a live kMetrics poll is never more than that far
  /// behind.
  static constexpr size_t kPublishEveryPops = 64;
  // Consumer-side accumulator for admit-wait samples. Written under mu_
  // during pops, published outside it by the same thread; the server runs
  // ONE dispatcher (or one manual-dispatch test thread), which is what
  // makes the unlocked flush safe.
  wt::obs::HistogramBatch pending_waits_;
  size_t pending_pops_ = 0;

  mutable wt::Mutex mu_;
  wt::CondVar cv_;
  std::deque<PendingRequest> queue_ WT_GUARDED_BY(mu_);
  size_t queued_bytes_ WT_GUARDED_BY(mu_) = 0;
  bool closed_ WT_GUARDED_BY(mu_) = false;
  uint64_t ewma_service_ns_ WT_GUARDED_BY(mu_) = 0;
  uint64_t shed_streak_ WT_GUARDED_BY(mu_) = 0;
};

}  // namespace wt::net
