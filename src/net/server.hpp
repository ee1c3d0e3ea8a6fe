// The serving front end: request coalescing behind admission control,
// deadlines, and graceful degradation (DESIGN.md #11).
//
// Two threads per server:
//
//   * the I/O thread owns epoll, every connection's Session, and all
//     socket reads/writes. It extracts frames, answers Ping, Metrics and
//     Trace inline, and offers engine requests to the AdmissionQueue —
//     synchronously, so shedding decisions are deterministic and a full
//     queue answers kOverloaded (with an honest retry-after) the moment
//     the frame arrives instead of stalling the client blind;
//   * the dispatcher thread pops admitted requests in batches and
//     coalesces them per snapshot epoch into the engine's *Batch APIs: all
//     Access positions across the popped requests become ONE AccessBatch,
//     all Rank/Select pairs one RankBatch/SelectBatch, all appends one
//     engine AppendBatch — the amortization the paper's level-synchronous
//     traversal rewards (DESIGN.md #6) applied across independent clients.
//     The pinned snapshot is re-acquired only when Engine::PublishEpoch()
//     moves, so steady state pays one relaxed load per dispatch.
//
// Robustness spine:
//   * bounded admission (count + bytes) with typed kOverloaded shedding —
//     nothing is ever silently dropped: every admitted request produces
//     exactly one reply attempt (admitted == completed + expired);
//   * per-request deadlines enforced twice — at dequeue (expired waiting
//     in queue: kDeadlineExceeded, no engine work spent) and again before
//     reply (expired during execution: the result is discarded rather
//     than served stale-late);
//   * slow-client backpressure via Session's bounded write buffer: above
//     the soft limit the server stops reading from that client; above the
//     hard limit it disconnects (memory per client is bounded, period);
//   * malformed/oversized/torn frames through the non-aborting FrameParse
//     taxonomy: torn waits for bytes, everything else gets one typed
//     error frame and a close — never an abort, never a resync guess;
//   * graceful shutdown: Stop() closes admission (new requests answer
//     kShuttingDown), drains every admitted request, flushes replies,
//     then Flush()es ingest and fsyncs the WAL — the store on disk is
//     recoverable and every acknowledged append durable.
//
// Deterministic-test seams: Options::clock injects a ManualClock;
// Options::manual_dispatch disables the dispatcher thread and the test
// pumps DispatchOnce() itself — shed/deadline/drain behavior becomes a
// pure function of the calls the test makes.
#pragma once

#if defined(__linux__)

#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "net/admission.hpp"
#include "net/clock.hpp"
#include "net/frame.hpp"
#include "net/session.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"

namespace wt::net {

template <typename Codec>
class Server {
 public:
  using EngineT = wtrie::Engine<Codec>;
  using SnapshotT = typename EngineT::SnapshotT;
  static_assert(std::is_same_v<typename Codec::Value, std::string>,
                "the wire protocol carries byte-string values; serve an "
                "engine whose codec decodes to std::string");

  struct Options {
    uint16_t port = 0;  // 0 = ephemeral; read the choice back via port()
    AdmissionQueue::Limits admission;
    SessionLimits session;
    /// Requests popped per dispatch — the coalescing window. 1 degenerates
    /// to one-query-per-dispatch.
    size_t max_dispatch_batch = 1024;
    /// Grace for flushing replies to slow clients at shutdown.
    uint32_t drain_timeout_ms = 5000;
    /// Injectable time source; null uses the real monotonic clock.
    MonotonicClock* clock = nullptr;
    /// No dispatcher thread; the owner pumps DispatchOnce(). Single
    /// pumping thread only.
    bool manual_dispatch = false;
    /// Entry cap for the per-epoch access memo (position -> value for the
    /// currently pinned snapshot, invalidated whenever the engine
    /// publishes). Bounds the memo to cap * O(value) bytes; 0 disables.
    size_t access_cache_entries = 1 << 16;
  };

  /// Binds, starts the threads, returns a serving server.
  static wtrie::Result<std::unique_ptr<Server>> Start(EngineT* engine,
                                                      Options opt) {
    std::unique_ptr<Server> s(new Server(engine, std::move(opt)));
    if (Status st = s->Init(); !st.ok()) return st;
    return s;
  }

  ~Server() { (void)Stop(); }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  uint16_t port() const { return port_; }

  size_t queue_depth() const { return admission_.depth(); }

  /// The registry every serving-side instrument lives in: the engine's,
  /// so one snapshot covers admission, per-stage serving histograms and
  /// engine internals alike. The only read path for the server's own
  /// numbers, in process or over kMetrics.
  const std::shared_ptr<wt::obs::MetricsRegistry>& metrics() const {
    return engine_->metrics();
  }

  /// Graceful shutdown: refuse new work, finish admitted work, flush
  /// replies (bounded by drain_timeout_ms for stalled clients), then
  /// flush ingest and fsync the WAL. Idempotent.
  Status Stop() {
    if (stopped_.exchange(true, std::memory_order_acq_rel)) {
      return Status::Ok();
    }
    admission_.Close();  // new offers answer kShuttingDown from here on
    if (dispatcher_.joinable()) {
      dispatcher_.join();  // exits once the admitted backlog is executed
    } else {
      // Manual mode: drain whatever the owner has not pumped.
      std::vector<PendingRequest> batch, expired;
      while (admission_.TryPopBatch(opt_.max_dispatch_batch, &batch,
                                    &expired)) {
        ExecuteBatch(batch, expired);
      }
      // No DispatcherLoop to flush deferred samples on exit — do it here.
      FlushDispatchStageSamples();
    }
    draining_.store(true, std::memory_order_release);
    wakeup_.Signal();
    if (io_thread_.joinable()) io_thread_.join();
    // The store outlives the server: freeze what the daemon ingested and
    // make acknowledged appends durable against OS crashes too.
    if (Status st = engine_->Flush(); !st.ok()) return st;
    return engine_->SyncWal();
  }

  /// Manual-dispatch pump: pops and executes at most one batch. Returns
  /// false when the queue was empty. Only valid with
  /// Options::manual_dispatch, from one thread.
  bool DispatchOnce() {
    std::vector<PendingRequest> batch, expired;
    if (!admission_.TryPopBatch(opt_.max_dispatch_batch, &batch, &expired)) {
      return false;
    }
    ExecuteBatch(batch, expired);
    return true;
  }

 private:
  // epoll tokens: fixed ids for the two internal fds, conn ids above them.
  static constexpr uint64_t kListenerToken = 0;
  static constexpr uint64_t kWakeupToken = 1;
  static constexpr uint64_t kFirstConnId = 2;

  struct Conn {
    Conn(uint64_t id, const SessionLimits& limits, Fd sock)
        : fd(std::move(sock)), session(id, limits) {}
    Fd fd;
    Session session;
    bool reg_read = true;
    bool reg_write = false;
    bool closing = false;  // stream error: close once the error frame flushed
  };

  /// One batch's replies for ONE connection: frames for every request the
  /// batch answered on it, already encoded back to back. Grouping per
  /// connection (instead of one entry per request) makes the reply path
  /// cost one write-buffer append and one flush per touched connection.
  struct Completion {
    uint64_t conn_id = 0;
    uint64_t replies = 0;  // how many inflight requests these bytes answer
    std::string bytes;
    uint64_t created_ns = 0;  // posted by the dispatcher; flush wait = now -
                              // created (wt_serving_reply_flush_us)
  };

  Server(EngineT* engine, Options opt)
      : engine_(engine),
        opt_(std::move(opt)),
        clock_(opt_.clock != nullptr ? opt_.clock : RealClock::Instance()),
        admission_(opt_.admission, clock_, engine->metrics()) {
    wt::obs::MetricsRegistry& reg = *engine->metrics();
    c_conns_accepted_ = reg.GetCounter("wt_serving_conns_accepted_total");
    c_conns_closed_ = reg.GetCounter("wt_serving_conns_closed_total");
    c_protocol_errors_ = reg.GetCounter("wt_serving_protocol_errors_total");
    c_slow_client_disconnects_ =
        reg.GetCounter("wt_serving_slow_client_disconnects_total");
    c_dup_hits_ = reg.GetCounter("wt_serving_coalesced_dup_hits_total");
    c_memo_hits_ = reg.GetCounter("wt_serving_access_memo_hits_total");
    c_access_positions_ = reg.GetCounter("wt_serving_access_positions_total");
    h_batch_size_ = reg.GetHistogram("wt_serving_batch_size");
    h_coalesce_us_ = reg.GetHistogram("wt_serving_coalesce_us");
    h_engine_batch_us_ = reg.GetHistogram("wt_serving_engine_batch_us");
    h_reply_flush_us_ = reg.GetHistogram("wt_serving_reply_flush_us");
    h_total_us_ = reg.GetHistogram("wt_serving_total_us");
  }

  Status Init() {
    wtrie::Result<Fd> listener = TcpListen(opt_.port);
    if (!listener.ok()) return listener.status();
    listener_ = std::move(*listener);
    wtrie::Result<uint16_t> port = BoundPort(listener_.get());
    if (!port.ok()) return port.status();
    port_ = *port;
    wtrie::Result<EventPoller> poller = EventPoller::Create();
    if (!poller.ok()) return poller.status();
    poller_ = std::move(*poller);
    wtrie::Result<WakeupFd> wake = WakeupFd::Create();
    if (!wake.ok()) return wake.status();
    wakeup_ = std::move(*wake);
    if (Status st = poller_.Add(listener_.get(), kListenerToken,
                                /*read=*/true, /*write=*/false);
        !st.ok()) {
      return st;
    }
    if (Status st = poller_.Add(wakeup_.fd(), kWakeupToken, /*read=*/true,
                                /*write=*/false);
        !st.ok()) {
      return st;
    }
    io_thread_ = std::thread([this] { IoLoop(); });
    pthread_setname_np(io_thread_.native_handle(), "wt-net-io");
    if (!opt_.manual_dispatch) {
      dispatcher_ = std::thread([this] { DispatcherLoop(); });
      pthread_setname_np(dispatcher_.native_handle(), "wt-net-dispatch");
    }
    return Status::Ok();
  }

  // ------------------------------------------------------------ I/O thread

  void IoLoop() {
    std::vector<Readiness> events;
    uint64_t drain_start_ns = 0;
    for (;;) {
      const bool draining = draining_.load(std::memory_order_acquire);
      if (draining) {
        if (listener_.valid()) {
          // Close, not just unregister: a connection still in the accept
          // backlog is reset instead of waiting on a socket nobody reads.
          poller_.Remove(listener_.get());
          listener_.Reset();
        }
        if (drain_start_ns == 0) drain_start_ns = clock_->NowNanos();
        DrainCompletions();
        if (AllFlushed()) break;
        if (clock_->NowNanos() - drain_start_ns >
            uint64_t(opt_.drain_timeout_ms) * 1000000ull) {
          break;  // stalled clients forfeit their tail of replies
        }
      }
      events.clear();
      // During drain, poll with a short timeout so the deadline above is
      // observed even if no client ever becomes writable again.
      if (Status st = poller_.Wait(draining ? 20 : -1, &events); !st.ok()) {
        break;  // epoll itself failed: nothing sane left to do
      }
      for (const Readiness& ev : events) {
        if (ev.token == kListenerToken) {
          if (listener_.valid()) HandleAccept();
        } else if (ev.token == kWakeupToken) {
          wakeup_.Drain();
        } else {
          auto it = conns_.find(ev.token);
          if (it == conns_.end()) continue;  // closed earlier this pass
          Conn& c = *it->second;
          if (ev.hangup && !ev.readable) {
            CloseConn(ev.token);
            continue;
          }
          if (ev.readable && !c.closing) HandleReadable(ev.token, c);
          if (conns_.count(ev.token) == 0) continue;
          if (ev.writable) FlushConn(ev.token, c);
        }
      }
      DrainCompletions();
    }
    // Exit: publish deferred flush samples, then drop every remaining
    // connection.
    FlushReplyFlushSamples();
    std::vector<uint64_t> ids;
    ids.reserve(conns_.size());
    for (const auto& [id, c] : conns_) ids.push_back(id);
    for (uint64_t id : ids) CloseConn(id);
  }

  void HandleAccept() {
    for (;;) {
      bool would_block = false;
      wtrie::Result<Fd> conn = Accept(listener_.get(), &would_block);
      if (!conn.ok() || would_block) return;
      const uint64_t id = next_conn_id_++;
      c_conns_accepted_->Increment();
      auto c = std::make_unique<Conn>(id, opt_.session, std::move(*conn));
      if (!poller_.Add(c->fd.get(), id, /*read=*/true, /*write=*/false)
               .ok()) {
        c_conns_closed_->Increment();
        continue;  // Fd destructor closes the socket
      }
      conns_.emplace(id, std::move(c));
    }
  }

  void HandleReadable(uint64_t id, Conn& c) {
    // Bounded per wakeup: level-triggered epoll re-reports leftover bytes,
    // so one firehose client cannot monopolize the loop.
    char buf[64 << 10];
    size_t budget = 4;
    bool eof = false;
    while (budget-- > 0) {
      wtrie::Result<IoOutcome> r = ReadSome(c.fd.get(), buf, sizeof(buf));
      if (!r.ok() || r->eof) {
        eof = true;
        break;
      }
      if (r->would_block) break;
      c.session.AppendReadBytes(buf, r->n);
      if (r->n < sizeof(buf)) break;
    }
    std::vector<Frame> frames;
    const FrameParse parse = c.session.ExtractFrames(&frames);
    ProcessFrames(id, c, frames);
    if (conns_.count(id) == 0) return;  // closed during processing
    if (parse != FrameParse::kFrame && parse != FrameParse::kNeedMore) {
      // Corrupt stream: one typed error frame, then close. The request id
      // is unknowable (the header failed), so echo id 0.
      c_protocol_errors_->Increment();
      PayloadWriter w;
      w.Pod<uint8_t>(static_cast<uint8_t>(WireStatus::kBadRequest));
      c.session.EnqueueWrite(
          EncodeFrame(static_cast<uint8_t>(MsgType::kPing) | kResponseBit,
                      /*request_id=*/0, 0, w.Take()));
      c.closing = true;
      FlushConn(id, c);
      if (conns_.count(id) != 0) CloseConn(id);
      return;
    }
    if (eof) {
      CloseConn(id);
      return;
    }
    FlushConn(id, c);
  }

  void ProcessFrames(uint64_t id, Conn& c, std::vector<Frame>& frames) {
    const uint64_t now = clock_->NowNanos();
    offer_reqs_.clear();
    offer_hdrs_.clear();
    for (Frame& f : frames) {
      const uint8_t t = f.header.type;
      if ((t & kResponseBit) != 0) {
        // A client sending response frames is talking a different
        // protocol; treat like a corrupt stream. Requests decoded before
        // the bad frame still get offered below.
        c_protocol_errors_->Increment();
        c.closing = true;
        break;
      }
      const MsgType type = static_cast<MsgType>(t);
      if (type == MsgType::kPing) {
        ReplyInline(c, f.header, WireStatus::kOk, nullptr);
        continue;
      }
      if (type == MsgType::kMetrics) {
        // One snapshot for the whole process: serving, admission and
        // engine instruments share the engine's registry.
        engine_->RefreshMetrics();
        PayloadWriter body;
        body.Str(wt::obs::SerializeMetricsSnapshot(metrics()->Snapshot()));
        ReplyInline(c, f.header, WireStatus::kOk, &body);
        continue;
      }
      if (type == MsgType::kTrace) {
        // The process-wide span timeline: engine background jobs, pager
        // activity and dispatcher batches all land in one snapshot, so
        // parent ids cross-link threads.
        PayloadWriter body;
        body.Str(wt::obs::SerializeTraceSnapshot(
            wt::obs::Tracer::Get().Snapshot()));
        ReplyInline(c, f.header, WireStatus::kOk, &body);
        continue;
      }
      PendingRequest req;
      if (!DecodeRequest(type, f.payload, &req.body)) {
        // Checksum-valid frame, malformed payload: the stream framing is
        // intact, so this is a per-request error, not a connection error.
        c_protocol_errors_->Increment();
        ReplyInline(c, f.header, WireStatus::kBadRequest, nullptr);
        continue;
      }
      req.conn_id = id;
      req.request_id = f.header.request_id;
      req.type = t;
      req.enqueued_ns = now;
      req.deadline_ns =
          f.header.deadline_ms == 0
              ? 0
              : now + uint64_t(f.header.deadline_ms) * 1000000ull;
      req.cost_bytes = req.body.CostBytes();
      offer_reqs_.push_back(std::move(req));
      offer_hdrs_.push_back(f.header);
    }
    if (offer_reqs_.empty()) return;
    // One lock acquisition and one dispatcher wakeup for the whole read's
    // worth of requests: per-frame mutex traffic on the I/O thread is
    // per-request overhead the coalesced dispatch cannot amortize away.
    uint32_t retry_after_ms = 0;
    admission_.TryOfferBatch(&offer_reqs_, &offer_verdicts_,
                             &retry_after_ms);
    for (size_t i = 0; i < offer_verdicts_.size(); ++i) {
      switch (offer_verdicts_[i]) {
        case AdmissionQueue::Offer::kAdmitted:
          c.session.inflight++;
          break;
        case AdmissionQueue::Offer::kShed: {
          PayloadWriter body;
          body.Pod<uint32_t>(retry_after_ms);
          ReplyInline(c, offer_hdrs_[i], WireStatus::kOverloaded, &body);
          break;
        }
        case AdmissionQueue::Offer::kClosed:
          ReplyInline(c, offer_hdrs_[i], WireStatus::kShuttingDown,
                      nullptr);
          break;
      }
    }
  }

  /// Enqueues a response whose payload is just the status byte (plus an
  /// optional kOk body from `extra`).
  void ReplyInline(Conn& c, const FrameHeader& req, WireStatus st,
                   PayloadWriter* extra) {
    std::string body(1, static_cast<char>(st));
    if (extra != nullptr) body += extra->Take();
    c.session.EnqueueWrite(EncodeFrame(req.type | kResponseBit,
                                       req.request_id, 0, body));
  }

  /// Writes as much of the session's buffer as the socket takes, then
  /// reconciles epoll interest and the backpressure ladder.
  void FlushConn(uint64_t id, Conn& c) {
    while (c.session.WantsWrite()) {
      wtrie::Result<IoOutcome> r = WriteSome(
          c.fd.get(), c.session.PendingWriteData(),
          c.session.PendingWriteBytes());
      if (!r.ok() || r->eof) {
        CloseConn(id);
        return;
      }
      if (r->would_block) break;
      c.session.ConsumeWritten(r->n);
    }
    if (c.session.OverHardLimit()) {
      // The client has stalled past the bound; its memory claim ends here.
      c_slow_client_disconnects_->Increment();
      CloseConn(id);
      return;
    }
    if (c.closing && !c.session.WantsWrite()) {
      CloseConn(id);
      return;
    }
    UpdateInterest(id, c);
  }

  void UpdateInterest(uint64_t id, Conn& c) {
    const bool want_read = !c.closing && !c.session.ReadPaused();
    const bool want_write = c.session.WantsWrite();
    if (want_read != c.reg_read || want_write != c.reg_write) {
      if (poller_.Modify(c.fd.get(), id, want_read, want_write).ok()) {
        c.reg_read = want_read;
        c.reg_write = want_write;
      }
    }
  }

  void CloseConn(uint64_t id) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    poller_.Remove(it->second->fd.get());
    conns_.erase(it);
    c_conns_closed_->Increment();
  }

  /// Moves completed replies from the dispatcher into their sessions'
  /// write buffers and flushes. Replies to connections that died in the
  /// meantime are dropped here — the one legitimate "drop", and it is a
  /// delivery failure to a gone peer, not a silent queue discard (the
  /// request itself was executed and counted).
  void DrainCompletions() {
    std::vector<Completion> batch;
    {
      wt::MutexLock lock(completion_mu_);
      batch.swap(completions_);
    }
    for (Completion& done : batch) {
      auto it = conns_.find(done.conn_id);
      if (it == conns_.end()) continue;
      Conn& c = *it->second;
      c.session.inflight -= std::min(c.session.inflight, done.replies);
      c.session.EnqueueWrite(done.bytes);
    }
    // Flush after grouping: one syscall pass per touched connection.
    for (Completion& done : batch) {
      auto it = conns_.find(done.conn_id);
      if (it != conns_.end()) FlushConn(done.conn_id, *it->second);
    }
    if (batch.empty()) {
      // Idle I/O pass: publish anything the busy path deferred (and skip
      // the clock read — nothing to sample).
      if (!acc_reply_flush_us_.Empty()) FlushReplyFlushSamples();
      return;
    }
    // Handoff + first flush attempt per completion. Slow clients whose
    // bytes sit in the session buffer past this point show up as
    // backpressure (OverHardLimit), not here. Samples accumulate in the
    // I/O-thread-owned batch; a small drain means the thread is lightly
    // loaded, which is when publication to the shared histogram happens.
    const uint64_t now = clock_->NowNanos();
    for (const Completion& done : batch) {
      acc_reply_flush_us_.Add((now - done.created_ns) / 1000);
    }
    if (batch.size() < kSmallDrain || ++acc_drains_ >= kPublishEveryBatches) {
      FlushReplyFlushSamples();
    }
  }

  /// Publishes the I/O-thread-owned reply-flush accumulator and resets it.
  void FlushReplyFlushSamples() {
    h_reply_flush_us_->Record(acc_reply_flush_us_);
    acc_reply_flush_us_ = {};
    acc_drains_ = 0;
  }

  bool AllFlushed() const {
    {
      wt::MutexLock lock(completion_mu_);
      if (!completions_.empty()) return false;
    }
    for (const auto& [id, c] : conns_) {
      // inflight > 0 would mean an admitted request whose reply has not
      // reached this session yet — by the time drain starts the dispatch
      // side has been joined/drained, so this is a belt-and-braces check
      // (and the drain timeout bounds it if the invariant ever breaks).
      if (c->session.inflight != 0 || c->session.WantsWrite()) return false;
    }
    return true;
  }

  // ------------------------------------------------------ dispatcher side

  void DispatcherLoop() {
    std::vector<PendingRequest> batch, expired;
    while (admission_.PopBatch(opt_.max_dispatch_batch, &batch, &expired)) {
      ExecuteBatch(batch, expired);
    }
    // Queue closed and drained: publish whatever the slack-aware path
    // still holds so post-Stop snapshots are complete.
    FlushDispatchStageSamples();
  }

  /// One-byte reply body: just the status (errors and acks carry nothing
  /// else). Fits in SSO — no allocation.
  static std::string StatusBody(WireStatus st) {
    return std::string(1, static_cast<char>(st));
  }

  /// Executes one popped batch: expired-at-dequeue requests answer
  /// kDeadlineExceeded; live ones are coalesced per opcode into single
  /// engine batch calls; every reply is deadline-checked again before it
  /// leaves. Exactly one reply per request, always — encoded straight
  /// into its connection's Completion buffer (per-conn request order
  /// preserved: expired first, then batch order).
  void ExecuteBatch(std::vector<PendingRequest>& batch,
                    std::vector<PendingRequest>& expired) {
    std::vector<Completion> out;
    completion_index_.clear();  // buckets persist across batches
    auto emit = [&out, this](const PendingRequest& req,
                             std::string_view body) {
      auto [it, fresh] =
          completion_index_.try_emplace(req.conn_id, out.size());
      if (fresh) out.push_back({req.conn_id, 0, {}});
      Completion& c = out[it->second];
      EncodeFrameTo(c.bytes, req.type | kResponseBit, req.request_id, 0,
                    body);
      c.replies++;
    };
    for (const PendingRequest& req : expired) {
      emit(req, StatusBody(WireStatus::kDeadlineExceeded));
    }
    if (!batch.empty()) {
      const uint64_t t0 = clock_->NowNanos();
      // One span per coalesced batch (arg = batch size). Engine work the
      // batch triggers synchronously (WAL append/fsync on the dispatcher
      // thread) nests under it via the thread-local span stack.
      const uint64_t batch_span = wt::obs::Tracer::Get().SpanBegin(
          wt::obs::TraceName::kEngineBatch, batch.size());
      ExecuteCoalesced(batch);
      wt::obs::Tracer::Get().SpanEnd(
          batch_span, wt::obs::TraceName::kEngineBatch, batch.size());
      const uint64_t t1 = clock_->NowNanos();
      // EWMA feed: execution cost only (queue wait excluded), split evenly
      // across the batch — what one more queued request costs to serve.
      const uint64_t per_req_ns = (t1 - t0) / batch.size();
      uint64_t serviced = 0;
      for (size_t i = 0; i < batch.size(); ++i) {
        const PendingRequest& req = batch[i];
        // End-to-end latency sees every admitted request that reached
        // execution, replied or expired alike.
        acc_total_us_.Add((t1 - req.enqueued_ns) / 1000);
        if (req.deadline_ns != 0 && t1 >= req.deadline_ns) {
          // Expired during execution: discard the result, never serve
          // stale-late.
          admission_.NoteExpiredBeforeReply();
          emit(req, StatusBody(WireStatus::kDeadlineExceeded));
        } else {
          serviced++;
          emit(req, reply_scratch_[i]);
        }
      }
      admission_.NoteServicedBatch(serviced, per_req_ns);
    }
    // Slack-aware publication (DESIGN.md #12): stage samples reach the
    // shared histograms only when this batch ran below the dispatch cap —
    // i.e. the dispatcher has cycles to spare — or at the staleness bound.
    // Publishing before PostCompletions keeps tests deterministic: a
    // client that saw its reply queries a registry that already counts it.
    const bool slack = batch.size() + expired.size() < opt_.max_dispatch_batch;
    if (slack || ++acc_batches_ >= kPublishEveryBatches) {
      FlushDispatchStageSamples();
    }
    PostCompletions(std::move(out));
  }

  /// Publishes the dispatcher-owned stage accumulators and resets them.
  /// Dispatcher-thread only.
  void FlushDispatchStageSamples() {
    h_total_us_->Record(acc_total_us_);
    h_batch_size_->Record(acc_batch_size_);
    h_coalesce_us_->Record(acc_coalesce_us_);
    h_engine_batch_us_->Record(acc_engine_us_);
    acc_total_us_ = {};
    acc_batch_size_ = {};
    acc_coalesce_us_ = {};
    acc_engine_us_ = {};
    acc_batches_ = 0;
  }

  /// The coalescing core: one engine batch call per opcode present.
  /// Fills reply_scratch_[0..batch.size()) with one status-prefixed reply
  /// BODY per request (ExecuteBatch frames them into per-connection
  /// buffers). Scratch slots keep their capacity across batches, so the
  /// steady-state reply path allocates nothing per request.
  void ExecuteCoalesced(std::vector<PendingRequest>& batch) {
    const uint64_t tc0 = wt::obs::TimerStart();
    acc_batch_size_.Add(batch.size());
    if (reply_scratch_.size() < batch.size()) {
      reply_scratch_.resize(batch.size());
    }
    std::vector<std::string>& reply = reply_scratch_;
    // Re-pin the snapshot only when the engine published new segments.
    // The access memo is keyed to the pinned snapshot, so a publish
    // invalidates it wholesale — correctness by construction, no TTLs.
    const uint64_t epoch = engine_->PublishEpoch();
    if (!snap_.has_value() || snap_epoch_ != epoch) {
      snap_.emplace(engine_->GetSnapshot());
      snap_epoch_ = epoch;
      access_cache_.clear();
    }
    const SnapshotT& snap = *snap_;
    const uint64_t visible = snap.size();

    struct Slice {
      size_t req;  // index into batch/reply
      size_t off;  // offset into the merged column
      size_t len;
    };
    std::vector<Slice> access_slices, rank_slices, select_slices;
    std::vector<uint64_t> access_pos, rank_pos, select_idx;
    // Access positions resolve through two coalescing tiers before any
    // engine walk: the per-epoch memo (a previous batch against this
    // snapshot already computed the value), then in-batch dedup
    // (singleflight per dispatch: concurrent requests for the same hot
    // key — the normal case under skewed real traffic — share one walk).
    // access_ids records each requested position's source: kCachedTag |
    // index into cached_vals, or an index into the deduped fresh column.
    constexpr uint32_t kCachedTag = 0x80000000u;
    std::vector<uint32_t> access_ids;
    std::vector<const std::string*> cached_vals;
    access_dedup_.clear();  // buckets persist; steady state allocates nothing
    uint64_t dup_hits = 0, cache_hits = 0;
    std::vector<std::string> rank_vals, select_vals;
    std::vector<size_t> append_reqs;
    std::vector<std::string> append_vals;

    for (size_t i = 0; i < batch.size(); ++i) {
      RequestBody& b = batch[i].body;
      switch (b.type) {
        case MsgType::kAccess: {
          // Validate per request so one bad position fails its own
          // request, not the merged batch.
          bool ok = true;
          for (uint64_t p : b.nums) ok = ok && p < visible;
          if (!ok) {
            reply[i].assign(1, static_cast<char>(WireStatus::kOutOfRange));
            break;
          }
          access_slices.push_back({i, access_ids.size(), b.nums.size()});
          for (uint64_t p : b.nums) {
            if (auto hit = access_cache_.find(p); hit != access_cache_.end()) {
              access_ids.push_back(
                  kCachedTag | static_cast<uint32_t>(cached_vals.size()));
              cached_vals.push_back(&hit->second);
              cache_hits++;
              continue;
            }
            auto [it, fresh] = access_dedup_.try_emplace(
                p, static_cast<uint32_t>(access_pos.size()));
            if (fresh) {
              access_pos.push_back(p);
            } else {
              dup_hits++;
            }
            access_ids.push_back(it->second);
          }
          break;
        }
        case MsgType::kRank: {
          bool ok = true;
          for (uint64_t p : b.nums) ok = ok && p <= visible;
          if (!ok) {
            reply[i].assign(1, static_cast<char>(WireStatus::kOutOfRange));
            break;
          }
          rank_slices.push_back({i, rank_pos.size(), b.nums.size()});
          rank_pos.insert(rank_pos.end(), b.nums.begin(), b.nums.end());
          for (std::string& v : b.strings) rank_vals.push_back(std::move(v));
          break;
        }
        case MsgType::kSelect: {
          select_slices.push_back({i, select_idx.size(), b.nums.size()});
          select_idx.insert(select_idx.end(), b.nums.begin(), b.nums.end());
          for (std::string& v : b.strings) {
            select_vals.push_back(std::move(v));
          }
          break;
        }
        case MsgType::kCountPrefix: {
          if constexpr (SnapshotT::kHasPrefixCodec) {
            std::string& w = reply[i];
            w.clear();
            AppendPod<uint8_t>(w, static_cast<uint8_t>(WireStatus::kOk));
            AppendPod<uint32_t>(w, static_cast<uint32_t>(b.strings.size()));
            for (const std::string& p : b.strings) {
              AppendPod<uint64_t>(w, snap.CountPrefix(p));
            }
          } else {
            reply[i].assign(1, static_cast<char>(WireStatus::kBadRequest));
          }
          break;
        }
        case MsgType::kFrequent: {
          wtrie::Result<wtrie::DistinctCursor<std::string>> cur =
              snap.Frequent(b.range_lo, b.range_hi, b.threshold);
          if (!cur.ok()) {
            reply[i].assign(1, static_cast<char>(ToWireStatus(cur.status())));
            break;
          }
          std::string& w = reply[i];
          w.clear();
          AppendPod<uint8_t>(w, static_cast<uint8_t>(WireStatus::kOk));
          AppendPod<uint32_t>(w, static_cast<uint32_t>(cur->size()));
          while (cur->Next()) {
            AppendStr(w, cur->value());
            AppendPod<uint64_t>(w, cur->count());
          }
          break;
        }
        case MsgType::kAppend: {
          append_reqs.push_back(i);
          for (std::string& v : b.strings) append_vals.push_back(std::move(v));
          break;
        }
        case MsgType::kPing:
        case MsgType::kMetrics:
        case MsgType::kTrace:
          // Served inline on the I/O thread; reaching here is a bug kept
          // non-fatal on the serving path.
          reply[i].assign(1, static_cast<char>(WireStatus::kBadRequest));
          break;
      }
    }
    // Stage split: everything above is column building + dedup/memo lookup
    // (wt_serving_coalesce_us); everything below is engine batch walks +
    // reply encoding (wt_serving_engine_batch_us).
    const uint64_t tc1 = wt::obs::TimerStart();
    acc_coalesce_us_.Add((tc1 - tc0) / 1000);

    if (!access_slices.empty()) {
      std::vector<std::string> fresh;
      Status ast = Status::Ok();
      if (!access_pos.empty()) {
        wtrie::Result<std::vector<std::string>> r =
            snap.AccessBatch(access_pos);
        if (r.ok()) {
          fresh = std::move(*r);
        } else {
          ast = r.status();
        }
      }
      // Freshly walked values feed the memo (up to the cap) so later
      // batches against this epoch hit them; replies read from the memo
      // node to avoid holding a second copy.
      std::vector<const std::string*> column(fresh.size());
      if (ast.ok()) {
        for (size_t j = 0; j < fresh.size(); ++j) {
          if (access_cache_.size() < opt_.access_cache_entries) {
            auto [it, ins] =
                access_cache_.try_emplace(access_pos[j], std::move(fresh[j]));
            column[j] = &it->second;
          } else {
            column[j] = &fresh[j];
          }
        }
      }
      for (const Slice& s : access_slices) {
        if (!ast.ok()) {
          // A failed engine walk only dooms slices that reference the
          // fresh column; a slice satisfied entirely from the per-epoch
          // memo needed no walk and is served normally.
          bool needs_fresh = false;
          for (size_t j = 0; j < s.len && !needs_fresh; ++j) {
            needs_fresh = (access_ids[s.off + j] & kCachedTag) == 0;
          }
          if (needs_fresh) {
            reply[s.req].assign(1, static_cast<char>(ToWireStatus(ast)));
            continue;
          }
        }
        std::string& w = reply[s.req];
        w.clear();
        AppendPod<uint8_t>(w, static_cast<uint8_t>(WireStatus::kOk));
        AppendPod<uint32_t>(w, static_cast<uint32_t>(s.len));
        for (size_t j = 0; j < s.len; ++j) {
          const uint32_t id = access_ids[s.off + j];
          AppendStr(w, (id & kCachedTag) != 0
                           ? *cached_vals[id & ~kCachedTag]
                           : *column[id]);
        }
      }
      c_dup_hits_->Add(dup_hits);
      c_memo_hits_->Add(cache_hits);
      c_access_positions_->Add(access_ids.size());
    }
    if (!rank_slices.empty()) {
      // Guard the engine call on the merged column, not the slice list: a
      // zero-item request contributes a slice but no values, and it still
      // must get its kOk/count-0 reply written here — leaving its scratch
      // slot untouched would frame a stale body from a prior batch.
      wtrie::Result<std::vector<uint64_t>> r(std::vector<uint64_t>{});
      if (!rank_vals.empty()) r = snap.RankBatch(rank_vals, rank_pos);
      for (const Slice& s : rank_slices) {
        if (!r.ok()) {
          reply[s.req].assign(1, static_cast<char>(ToWireStatus(r.status())));
          continue;
        }
        std::string& w = reply[s.req];
        w.clear();
        AppendPod<uint8_t>(w, static_cast<uint8_t>(WireStatus::kOk));
        AppendPod<uint32_t>(w, static_cast<uint32_t>(s.len));
        for (size_t j = 0; j < s.len; ++j) {
          AppendPod<uint64_t>(w, (*r)[s.off + j]);
        }
      }
    }
    if (!select_slices.empty()) {
      wtrie::Result<std::vector<std::optional<uint64_t>>> r(
          std::vector<std::optional<uint64_t>>{});
      if (!select_vals.empty()) r = snap.SelectBatch(select_vals, select_idx);
      for (const Slice& s : select_slices) {
        if (!r.ok()) {
          reply[s.req].assign(1, static_cast<char>(ToWireStatus(r.status())));
          continue;
        }
        std::string& w = reply[s.req];
        w.clear();
        AppendPod<uint8_t>(w, static_cast<uint8_t>(WireStatus::kOk));
        AppendPod<uint32_t>(w, static_cast<uint32_t>(s.len));
        for (size_t j = 0; j < s.len; ++j) {
          const std::optional<uint64_t>& v = (*r)[s.off + j];
          AppendPod<uint8_t>(w, v.has_value() ? 1 : 0);
          AppendPod<uint64_t>(w, v.value_or(0));
        }
      }
    }
    if (!append_reqs.empty()) {
      // One merged ingest batch: one WAL record per touched shard, one
      // word-parallel memtable append — and one crash-atomic unit, so the
      // acks below are all-or-nothing under recovery.
      const Status st = engine_->AppendBatch(append_vals);
      const WireStatus ws = ToWireStatus(st);
      for (size_t i : append_reqs) {
        reply[i].assign(1, static_cast<char>(ws));
      }
    }
    acc_engine_us_.Add((wt::obs::TimerStart() - tc1) / 1000);
  }

  void PostCompletions(std::vector<Completion>&& done) {
    if (done.empty()) return;
    const uint64_t now = clock_->NowNanos();
    for (Completion& c : done) c.created_ns = now;
    {
      wt::MutexLock lock(completion_mu_);
      for (Completion& c : done) completions_.push_back(std::move(c));
    }
    wakeup_.Signal();
  }

  // ----------------------------------------------------------------- state

  EngineT* const engine_;
  const Options opt_;
  MonotonicClock* const clock_;
  AdmissionQueue admission_;
  // Cached instrument pointers (deque-stable in the registry); read back
  // through metrics()->Snapshot() or kMetrics, never a second ledger.
  wt::obs::Counter* c_conns_accepted_ = nullptr;
  wt::obs::Counter* c_conns_closed_ = nullptr;
  wt::obs::Counter* c_protocol_errors_ = nullptr;
  wt::obs::Counter* c_slow_client_disconnects_ = nullptr;
  wt::obs::Counter* c_dup_hits_ = nullptr;
  wt::obs::Counter* c_memo_hits_ = nullptr;
  wt::obs::Counter* c_access_positions_ = nullptr;
  wt::obs::Histogram* h_batch_size_ = nullptr;
  wt::obs::Histogram* h_coalesce_us_ = nullptr;
  wt::obs::Histogram* h_engine_batch_us_ = nullptr;
  wt::obs::Histogram* h_reply_flush_us_ = nullptr;
  /// Staleness bound for slack-aware publication (DESIGN.md #12): a
  /// saturated thread publishes its stage accumulators at least once
  /// every this many batches/drains.
  static constexpr size_t kPublishEveryBatches = 64;
  /// Drains below this size mean the I/O thread has slack — publish.
  static constexpr size_t kSmallDrain = 8;
  // Dispatcher-thread-owned stage accumulators (plain stores on the hot
  // path; Record merges happen only at publication points).
  wt::obs::HistogramBatch acc_total_us_;
  wt::obs::HistogramBatch acc_batch_size_;
  wt::obs::HistogramBatch acc_coalesce_us_;
  wt::obs::HistogramBatch acc_engine_us_;
  size_t acc_batches_ = 0;
  // I/O-thread-owned reply-flush accumulator.
  wt::obs::HistogramBatch acc_reply_flush_us_;
  size_t acc_drains_ = 0;
  wt::obs::Histogram* h_total_us_ = nullptr;

  Fd listener_;
  uint16_t port_ = 0;
  EventPoller poller_;
  WakeupFd wakeup_;

  // Owned exclusively by the I/O thread.
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = kFirstConnId;
  // ProcessFrames scratch, reused across reads to keep allocations off the
  // per-request path.
  std::vector<PendingRequest> offer_reqs_;
  std::vector<FrameHeader> offer_hdrs_;
  std::vector<AdmissionQueue::Offer> offer_verdicts_;

  // Owned exclusively by the dispatch side (dispatcher thread, or the one
  // thread pumping DispatchOnce).
  std::optional<SnapshotT> snap_;
  uint64_t snap_epoch_ = ~uint64_t{0};
  // Reply-body scratch, one slot per batch index; capacity persists across
  // dispatches so steady-state replies don't allocate.
  std::vector<std::string> reply_scratch_;
  // Access-position dedup map for one dispatch batch (cleared, not
  // destroyed, between batches).
  std::unordered_map<uint64_t, uint32_t> access_dedup_;
  // conn_id -> index into ExecuteBatch's Completion vector, so reply
  // grouping is O(1) per request (cleared, not destroyed, between batches).
  std::unordered_map<uint64_t, size_t> completion_index_;
  // Per-epoch access memo: position -> value under the pinned snapshot.
  // Entry-capped (Options::access_cache_entries); cleared on every epoch
  // re-pin. Node pointers are stable across inserts, which the reply path
  // relies on within a batch.
  std::unordered_map<uint64_t, std::string> access_cache_;

  // Dispatcher -> I/O thread handoff.
  mutable wt::Mutex completion_mu_;
  std::vector<Completion> completions_ WT_GUARDED_BY(completion_mu_);

  std::atomic<bool> stopped_{false};
  std::atomic<bool> draining_{false};

  std::thread io_thread_;
  std::thread dispatcher_;
};

}  // namespace wt::net

#endif  // __linux__
