// Tests for the serving layer (src/net/, DESIGN.md #11):
//   * frame parse taxonomy: round trip, torn (kNeedMore), garbage magic,
//     version skew, unknown opcodes, oversized announcements, checksum
//     failures — and the DecodeRequest bounds (lying counts, trailing
//     bytes, item ceilings);
//   * session state machine: incremental extraction across torn reads,
//     the backpressure ladder (soft pause / hard disconnect), lazy write
//     buffer compaction;
//   * admission queue with a ManualClock: shed-at-the-door on both bounds
//     with honest retry-after, deadline-at-dequeue, drain-mode refusal,
//     the admitted == completed + expired accounting identity — every
//     count read back from the metrics registry, the one stats path;
//   * server loopback fault tests (Linux): differential round trips vs a
//     pinned snapshot oracle, per-request errors that keep the connection,
//     stream errors that end it, shed-under-burst with manual dispatch,
//     deadline expiry mid-queue with a manual clock, slow-client
//     disconnect, and graceful shutdown that answers everything admitted;
//   * coalescing as counts (Linux, manual dispatch): requests per dispatch
//     from wt_serving_batch_size and one serving.engine_batch span per
//     dispatch, coalesced vs one-request-per-dispatch.
//
// All server tests run under TSan in CI (two server threads + client
// threads exercise the completion handoff and the atomics).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/admission.hpp"
#include "net/clock.hpp"
#include "net/frame.hpp"
#include "net/session.hpp"
#include "obs/metrics.hpp"

#if defined(__linux__)
#include <chrono>
#include <thread>

#include "engine/engine.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "util/workloads.hpp"
#endif

namespace wt::net {
namespace {

// ----------------------------------------------------------------- framing

std::string AccessPayloadOf(const std::vector<uint64_t>& pos) {
  PayloadWriter w;
  w.Pod<uint32_t>(static_cast<uint32_t>(pos.size()));
  for (uint64_t p : pos) w.Pod<uint64_t>(p);
  return w.Take();
}

TEST(Frame, RoundTrip) {
  const std::string payload = AccessPayloadOf({1, 2, 3});
  const std::string bytes = EncodeFrame(
      static_cast<uint8_t>(MsgType::kAccess), /*request_id=*/42,
      /*deadline_ms=*/7, payload);
  Frame f;
  size_t consumed = 0;
  ASSERT_EQ(TryParseFrame(bytes.data(), bytes.size(), kDefaultMaxPayload, &f,
                          &consumed),
            FrameParse::kFrame);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(f.header.request_id, 42u);
  EXPECT_EQ(f.header.deadline_ms, 7u);
  EXPECT_EQ(f.header.type, static_cast<uint8_t>(MsgType::kAccess));
  EXPECT_EQ(f.payload, payload);
}

TEST(Frame, TornWaitsConsumingNothing) {
  const std::string bytes = EncodeFrame(
      static_cast<uint8_t>(MsgType::kPing), 1, 0, "");
  Frame f;
  size_t consumed = 99;
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    ASSERT_EQ(TryParseFrame(bytes.data(), cut, kDefaultMaxPayload, &f,
                            &consumed),
              FrameParse::kNeedMore)
        << "cut=" << cut;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(Frame, ErrorTaxonomy) {
  std::string ok = EncodeFrame(static_cast<uint8_t>(MsgType::kAccess), 1, 0,
                               AccessPayloadOf({5}));
  Frame f;
  size_t consumed = 0;
  auto parse = [&](const std::string& b, uint32_t max_payload) {
    return TryParseFrame(b.data(), b.size(), max_payload, &f, &consumed);
  };

  std::string bad = ok;
  bad[0] ^= 0x5A;  // magic
  EXPECT_EQ(parse(bad, kDefaultMaxPayload), FrameParse::kBadMagic);

  bad = ok;
  bad[4] ^= 0x5A;  // version
  EXPECT_EQ(parse(bad, kDefaultMaxPayload), FrameParse::kBadVersion);

  // Unknown opcodes: below the range, the retired opcode 8 inside it,
  // above it, and far outside it.
  for (const uint8_t op : {0, 8, 11, 0x55}) {
    bad = ok;
    bad[6] = static_cast<char>(op);
    EXPECT_EQ(parse(bad, kDefaultMaxPayload), FrameParse::kBadType)
        << int(op);
  }

  bad = ok;
  bad[7] = 1;  // reserved flags must be zero
  EXPECT_EQ(parse(bad, kDefaultMaxPayload), FrameParse::kBadType);

  // Oversized is judged from the announced length, before any body bytes
  // arrive — a lying length field must not grow the read buffer.
  EXPECT_EQ(parse(ok, /*max_payload=*/4), FrameParse::kOversized);

  bad = ok;
  bad[sizeof(FrameHeader) + 1] ^= 0x5A;  // payload byte
  EXPECT_EQ(parse(bad, kDefaultMaxPayload), FrameParse::kBadChecksum);
}

TEST(Frame, DecodeRequestBounds) {
  RequestBody body;

  // Valid access request.
  ASSERT_TRUE(DecodeRequest(MsgType::kAccess, AccessPayloadOf({9, 11}), &body));
  EXPECT_EQ(body.nums, (std::vector<uint64_t>{9, 11}));

  // Trailing bytes after the last item are a malformed payload.
  EXPECT_FALSE(
      DecodeRequest(MsgType::kAccess, AccessPayloadOf({9}) + "x", &body));

  // A count the remaining bytes cannot cover is rejected before reserve.
  PayloadWriter lying;
  lying.Pod<uint32_t>(1000);
  lying.Pod<uint64_t>(1);
  EXPECT_FALSE(DecodeRequest(MsgType::kAccess, lying.Take(), &body));

  // Item ceiling: even a self-consistent payload cannot ask for more than
  // kMaxItemsPerRequest items in one frame.
  PayloadWriter big;
  big.Pod<uint32_t>(kMaxItemsPerRequest + 1);
  for (uint32_t i = 0; i <= kMaxItemsPerRequest; ++i) big.Pod<uint64_t>(i);
  EXPECT_FALSE(DecodeRequest(MsgType::kAccess, big.Take(), &body));

  // Rank interleaves (pos, value) pairs.
  PayloadWriter rank;
  rank.Pod<uint32_t>(1);
  rank.Pod<uint64_t>(3);
  rank.Str("abc");
  ASSERT_TRUE(DecodeRequest(MsgType::kRank, rank.Take(), &body));
  EXPECT_EQ(body.nums, (std::vector<uint64_t>{3}));
  EXPECT_EQ(body.strings, (std::vector<std::string>{"abc"}));

  // An inner string length past the payload end is caught by the reader.
  PayloadWriter torn;
  torn.Pod<uint32_t>(1);
  torn.Pod<uint32_t>(1000);  // string claims 1000 bytes, none follow
  EXPECT_FALSE(DecodeRequest(MsgType::kCountPrefix, torn.Take(), &body));

  // Ping and Stats carry no payload.
  EXPECT_TRUE(DecodeRequest(MsgType::kPing, "", &body));
  EXPECT_FALSE(DecodeRequest(MsgType::kPing, "x", &body));

  PayloadWriter freq;
  freq.Pod<uint64_t>(0);
  freq.Pod<uint64_t>(100);
  freq.Pod<uint64_t>(2);
  ASSERT_TRUE(DecodeRequest(MsgType::kFrequent, freq.Take(), &body));
  EXPECT_EQ(body.range_hi, 100u);
  EXPECT_EQ(body.threshold, 2u);
}

// ----------------------------------------------------------------- session

TEST(Session, ExtractsFramesAcrossTornReads) {
  Session s(/*conn_id=*/1, SessionLimits{});
  const std::string two =
      EncodeFrame(static_cast<uint8_t>(MsgType::kPing), 1, 0, "") +
      EncodeFrame(static_cast<uint8_t>(MsgType::kAccess), 2, 0,
                  AccessPayloadOf({7}));
  std::vector<Frame> frames;
  // Feed a byte at a time: a mid-frame buffer parses kNeedMore, a byte
  // that completes a frame parses kFrame — never an error, and frames
  // appear exactly when complete.
  for (char c : two) {
    s.AppendReadBytes(&c, 1);
    const size_t before = frames.size();
    const FrameParse r = s.ExtractFrames(&frames);
    if (frames.size() > before) {
      ASSERT_EQ(r, FrameParse::kFrame);
    } else {
      ASSERT_EQ(r, FrameParse::kNeedMore);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].header.request_id, 1u);
  EXPECT_EQ(frames[1].header.request_id, 2u);

  // A stream error after a valid frame still yields the valid frame.
  frames.clear();
  std::string tail = EncodeFrame(static_cast<uint8_t>(MsgType::kPing), 3, 0, "");
  tail += "garbage garbage garbage garbage ";
  s.AppendReadBytes(tail.data(), tail.size());
  EXPECT_EQ(s.ExtractFrames(&frames), FrameParse::kBadMagic);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].header.request_id, 3u);
}

TEST(Session, BackpressureLadder) {
  SessionLimits limits;
  limits.write_buffer_soft = 64;
  limits.write_buffer_hard = 256;
  Session s(1, limits);
  EXPECT_FALSE(s.ReadPaused());
  s.EnqueueWrite(std::string(65, 'a'));
  EXPECT_TRUE(s.ReadPaused());
  EXPECT_FALSE(s.OverHardLimit());
  s.EnqueueWrite(std::string(200, 'b'));
  EXPECT_TRUE(s.OverHardLimit());

  // Draining re-enables reading; partially consumed data stays readable
  // through compaction.
  s.ConsumeWritten(230);
  EXPECT_EQ(s.PendingWriteBytes(), 35u);
  EXPECT_FALSE(s.ReadPaused());
  s.EnqueueWrite("zz");  // triggers lazy compaction internally
  EXPECT_EQ(s.PendingWriteBytes(), 37u);
  std::string rest(s.PendingWriteData(), s.PendingWriteBytes());
  EXPECT_EQ(rest, std::string(35, 'b') + "zz");
}

// --------------------------------------------------------------- admission

/// Reads one counter back from the registry; a missing counter fails the
/// test.
uint64_t Count(const wt::obs::MetricsRegistry& reg, std::string_view name) {
  const wt::obs::MetricsSnapshot snap = reg.Snapshot();
  const uint64_t* v = snap.FindCounter(name);
  EXPECT_NE(v, nullptr) << name;
  return v != nullptr ? *v : 0;
}

/// The accounting identity "nothing vanishes" rests on: every admitted
/// request was completed or expired (waiting in queue or before reply).
void ExpectAdmittedAllAnswered(const wt::obs::MetricsRegistry& reg) {
  EXPECT_EQ(Count(reg, "wt_admission_admitted_total"),
            Count(reg, "wt_admission_completed_total") +
                Count(reg, "wt_admission_expired_at_dequeue_total") +
                Count(reg, "wt_admission_expired_before_reply_total"));
}

PendingRequest Req(uint64_t id, uint64_t deadline_ns, size_t cost = 100) {
  PendingRequest r;
  r.conn_id = 1;
  r.request_id = id;
  r.type = static_cast<uint8_t>(MsgType::kAccess);
  r.deadline_ns = deadline_ns;
  r.cost_bytes = cost;
  return r;
}

TEST(AdmissionQueue, ShedsAtCountBoundWithRetryHint) {
  ManualClock clock;
  auto reg = std::make_shared<wt::obs::MetricsRegistry>();
  AdmissionQueue q({.max_requests = 2, .max_bytes = 1u << 20}, &clock, reg);
  uint32_t retry = 0;
  EXPECT_EQ(q.TryOffer(Req(1, 0), &retry), AdmissionQueue::Offer::kAdmitted);
  EXPECT_EQ(q.TryOffer(Req(2, 0), &retry), AdmissionQueue::Offer::kAdmitted);
  EXPECT_EQ(q.TryOffer(Req(3, 0), &retry), AdmissionQueue::Offer::kShed);
  EXPECT_GE(retry, 1u);

  // The hint tracks observed service time: after slow requests the backoff
  // for the same backlog grows.
  q.NoteServiced(50 * 1000000ull);  // 50ms each
  uint32_t slow_retry = 0;
  EXPECT_EQ(q.TryOffer(Req(4, 0), &slow_retry), AdmissionQueue::Offer::kShed);
  EXPECT_GT(slow_retry, retry);

  EXPECT_EQ(Count(*reg, "wt_admission_offered_total"), 4u);
  EXPECT_EQ(Count(*reg, "wt_admission_admitted_total"), 2u);
  EXPECT_EQ(Count(*reg, "wt_admission_shed_total"), 2u);
}

TEST(AdmissionQueue, ShedsAtByteBound) {
  ManualClock clock;
  AdmissionQueue q({.max_requests = 1000, .max_bytes = 250}, &clock);
  uint32_t retry = 0;
  EXPECT_EQ(q.TryOffer(Req(1, 0, 200), &retry),
            AdmissionQueue::Offer::kAdmitted);
  EXPECT_EQ(q.TryOffer(Req(2, 0, 200), &retry), AdmissionQueue::Offer::kShed);

  // Draining the queue frees its byte claim.
  std::vector<PendingRequest> batch, expired;
  ASSERT_TRUE(q.TryPopBatch(16, &batch, &expired));
  EXPECT_EQ(q.TryOffer(Req(3, 0, 200), &retry),
            AdmissionQueue::Offer::kAdmitted);
}

TEST(AdmissionQueue, DeadlineEnforcedAtDequeue) {
  ManualClock clock;
  auto reg = std::make_shared<wt::obs::MetricsRegistry>();
  AdmissionQueue q({}, &clock, reg);
  uint32_t retry = 0;
  const uint64_t now = clock.NowNanos();
  // One request expiring at +10ms, one at +100ms, one without a deadline.
  ASSERT_EQ(q.TryOffer(Req(1, now + 10 * 1000000ull), &retry),
            AdmissionQueue::Offer::kAdmitted);
  ASSERT_EQ(q.TryOffer(Req(2, now + 100 * 1000000ull), &retry),
            AdmissionQueue::Offer::kAdmitted);
  ASSERT_EQ(q.TryOffer(Req(3, 0), &retry), AdmissionQueue::Offer::kAdmitted);

  clock.AdvanceMillis(50);  // request 1 is now stale in the queue
  std::vector<PendingRequest> batch, expired;
  ASSERT_TRUE(q.PopBatch(16, &batch, &expired));
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].request_id, 1u);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].request_id, 2u);
  EXPECT_EQ(batch[1].request_id, 3u);
  EXPECT_EQ(Count(*reg, "wt_admission_expired_at_dequeue_total"), 1u);
}

TEST(AdmissionQueue, CloseRefusesNewAndDrainsAdmitted) {
  ManualClock clock;
  auto reg = std::make_shared<wt::obs::MetricsRegistry>();
  AdmissionQueue q({}, &clock, reg);
  uint32_t retry = 0;
  ASSERT_EQ(q.TryOffer(Req(1, 0), &retry), AdmissionQueue::Offer::kAdmitted);
  q.Close();
  EXPECT_EQ(q.TryOffer(Req(2, 0), &retry), AdmissionQueue::Offer::kClosed);

  // Already-admitted work still drains; then Pop reports drained-and-done.
  std::vector<PendingRequest> batch, expired;
  ASSERT_TRUE(q.PopBatch(16, &batch, &expired));
  ASSERT_EQ(batch.size(), 1u);
  q.NoteServiced(1000);
  EXPECT_FALSE(q.PopBatch(16, &batch, &expired));

  EXPECT_EQ(Count(*reg, "wt_admission_refused_closed_total"), 1u);
  ExpectAdmittedAllAnswered(*reg);
}

// ------------------------------------------------------- server (loopback)

#if defined(__linux__)

using StrEngine = wtrie::Engine<wt::ByteCodec>;
using StrServer = Server<wt::ByteCodec>;

std::vector<std::string> UrlWorkload(size_t n, uint64_t seed) {
  wt::UrlLogOptions opt;
  opt.num_domains = 24;
  opt.paths_per_domain = 12;
  opt.seed = seed;
  wt::UrlLogGenerator gen(opt);
  std::vector<std::string> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(gen.Next());
  return out;
}

/// An in-memory engine preloaded with `values`, flushed so reads see all
/// of it, plus a pinned snapshot to use as the oracle.
struct ServedStore {
  explicit ServedStore(const std::vector<std::string>& values) {
    auto opened = StrEngine::Open({.num_shards = 2});
    EXPECT_TRUE(opened.ok());
    engine = std::move(*opened);
    EXPECT_TRUE(engine->AppendBatch(values).ok());
    EXPECT_TRUE(engine->Flush().ok());
  }
  std::unique_ptr<StrEngine> engine;
};

uint8_t ReplyType(MsgType req) {
  return static_cast<uint8_t>(req) | kResponseBit;
}

/// Decodes a response frame: returns the status and leaves *r positioned
/// after the status byte.
WireStatus StatusOf(const Frame& f, PayloadReader* r) {
  WireStatus st = WireStatus::kError;
  EXPECT_TRUE(Client::DecodeStatus(f, &st, r));
  return st;
}

/// Reads one histogram back from the registry; a missing histogram fails
/// the test.
wt::obs::HistogramSnapshot Hist(const wt::obs::MetricsRegistry& reg,
                                std::string_view name) {
  const wt::obs::MetricsSnapshot snap = reg.Snapshot();
  const wt::obs::HistogramSnapshot* h = snap.FindHistogram(name);
  EXPECT_NE(h, nullptr) << name;
  return h != nullptr ? *h : wt::obs::HistogramSnapshot{};
}

/// serving.engine_batch begins on the process timeline so far. Manual
/// dispatch runs on the calling thread, so publishing its ring first makes
/// every dispatch it pumped visible.
size_t EngineBatchSpans() {
  wt::obs::Tracer& tracer = wt::obs::Tracer::Get();
  tracer.FlushThisThread();
  size_t n = 0;
  for (const wt::obs::TraceWireEvent& e : tracer.Snapshot().events) {
    n += e.kind == static_cast<uint8_t>(wt::obs::TraceKind::kBegin) &&
         e.name == static_cast<uint8_t>(wt::obs::TraceName::kEngineBatch);
  }
  return n;
}

/// One kMetrics round trip, parsed into *out.
::testing::AssertionResult FetchMetrics(Client& c, uint64_t request_id,
                                        wt::obs::MetricsSnapshot* out) {
  auto resp = c.Call(MsgType::kMetrics, request_id, 0, "");
  if (!resp.ok()) return ::testing::AssertionFailure() << "call failed";
  if (resp->header.type != ReplyType(MsgType::kMetrics)) {
    return ::testing::AssertionFailure() << "reply type " << +resp->header.type;
  }
  PayloadReader r(nullptr, 0);
  std::string bytes;
  if (StatusOf(*resp, &r) != WireStatus::kOk || !r.Str(&bytes) ||
      !r.AtEnd()) {
    return ::testing::AssertionFailure() << "malformed kMetrics reply";
  }
  if (!wt::obs::ParseMetricsSnapshot(bytes.data(), bytes.size(), out)) {
    return ::testing::AssertionFailure() << "snapshot does not parse";
  }
  return ::testing::AssertionSuccess();
}

TEST(ServerTest, DifferentialRoundTrip) {
  const std::vector<std::string> values = UrlWorkload(4096, 77);
  ServedStore store(values);
  auto snap = store.engine->GetSnapshot();

  auto server = StrServer::Start(store.engine.get(), {});
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());

  // Ping.
  {
    auto resp = client->Call(MsgType::kPing, 1, 0, "");
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->header.type, ReplyType(MsgType::kPing));
    EXPECT_EQ(resp->header.request_id, 1u);
    PayloadReader r(nullptr, 0);
    EXPECT_EQ(StatusOf(*resp, &r), WireStatus::kOk);
  }

  // Access vs the snapshot oracle.
  {
    std::vector<uint64_t> pos;
    for (uint64_t p = 0; p < values.size(); p += 97) pos.push_back(p);
    auto resp = client->Call(MsgType::kAccess, 2, 0,
                             Client::AccessPayload(pos));
    ASSERT_TRUE(resp.ok());
    PayloadReader r(nullptr, 0);
    ASSERT_EQ(StatusOf(*resp, &r), WireStatus::kOk);
    uint32_t n = 0;
    ASSERT_TRUE(r.Pod(&n));
    ASSERT_EQ(n, pos.size());
    auto want = snap.AccessBatch(pos);
    ASSERT_TRUE(want.ok());
    for (uint32_t i = 0; i < n; ++i) {
      std::string got;
      ASSERT_TRUE(r.Str(&got));
      EXPECT_EQ(got, (*want)[i]);
    }
    EXPECT_TRUE(r.AtEnd());
  }

  // Rank and Select vs the oracle.
  {
    std::vector<std::string> vals = {values[0], values[1], "not-present"};
    std::vector<uint64_t> pos = {values.size(), values.size() / 2, 10};
    auto resp = client->Call(MsgType::kRank, 3, 0,
                             Client::RankPayload(vals, pos));
    ASSERT_TRUE(resp.ok());
    PayloadReader r(nullptr, 0);
    ASSERT_EQ(StatusOf(*resp, &r), WireStatus::kOk);
    uint32_t n = 0;
    ASSERT_TRUE(r.Pod(&n));
    auto want = snap.RankBatch(vals, pos);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(n, want->size());
    for (uint32_t i = 0; i < n; ++i) {
      uint64_t got = 0;
      ASSERT_TRUE(r.Pod(&got));
      EXPECT_EQ(got, (*want)[i]);
    }

    auto sresp = client->Call(MsgType::kSelect, 4, 0,
                              Client::SelectPayload(vals, {0, 1, 0}));
    ASSERT_TRUE(sresp.ok());
    PayloadReader sr(nullptr, 0);
    ASSERT_EQ(StatusOf(*sresp, &sr), WireStatus::kOk);
    ASSERT_TRUE(sr.Pod(&n));
    auto swant = snap.SelectBatch(vals, {0, 1, 0});
    ASSERT_TRUE(swant.ok());
    ASSERT_EQ(n, swant->size());
    for (uint32_t i = 0; i < n; ++i) {
      uint8_t has = 0;
      uint64_t v = 0;
      ASSERT_TRUE(sr.Pod(&has));
      ASSERT_TRUE(sr.Pod(&v));
      EXPECT_EQ(has != 0, (*swant)[i].has_value());
      if (has != 0) EXPECT_EQ(v, (*swant)[i].value());
    }
  }

  // CountPrefix and Frequent vs the oracle.
  {
    std::vector<std::string> prefixes = {"www.site1", "www.", "zzz"};
    auto resp = client->Call(MsgType::kCountPrefix, 5, 0,
                             Client::StringsPayload(prefixes));
    ASSERT_TRUE(resp.ok());
    PayloadReader r(nullptr, 0);
    ASSERT_EQ(StatusOf(*resp, &r), WireStatus::kOk);
    uint32_t n = 0;
    ASSERT_TRUE(r.Pod(&n));
    ASSERT_EQ(n, prefixes.size());
    for (uint32_t i = 0; i < n; ++i) {
      uint64_t got = 0;
      ASSERT_TRUE(r.Pod(&got));
      EXPECT_EQ(got, snap.CountPrefix(prefixes[i]));
    }

    auto fresp = client->Call(MsgType::kFrequent, 6, 0,
                              Client::FrequentPayload(0, values.size(), 100));
    ASSERT_TRUE(fresp.ok());
    PayloadReader fr(nullptr, 0);
    ASSERT_EQ(StatusOf(*fresp, &fr), WireStatus::kOk);
    ASSERT_TRUE(fr.Pod(&n));
    std::map<std::string, uint64_t> got;
    for (uint32_t i = 0; i < n; ++i) {
      std::string v;
      uint64_t c = 0;
      ASSERT_TRUE(fr.Str(&v));
      ASSERT_TRUE(fr.Pod(&c));
      got[v] = c;
    }
    auto want = snap.Frequent(0, values.size(), 100);
    ASSERT_TRUE(want.ok());
    std::map<std::string, uint64_t> expect;
    while (want->Next()) expect[want->value()] = want->count();
    EXPECT_EQ(got, expect);
  }

  // Append through the wire, then flush: the acked values are visible to
  // the next frozen snapshot (snapshots cover the frozen prefix by
  // design; the ack itself promises durability, not instant visibility).
  {
    auto resp = client->Call(MsgType::kAppend, 7, 0,
                             Client::StringsPayload({"net-a", "net-b"}));
    ASSERT_TRUE(resp.ok());
    PayloadReader r(nullptr, 0);
    EXPECT_EQ(StatusOf(*resp, &r), WireStatus::kOk);
    ASSERT_TRUE(store.engine->Flush().ok());
    auto after = store.engine->GetSnapshot();
    EXPECT_EQ(after.size(), values.size() + 2);
    auto rank = after.Rank("net-b", after.size());
    ASSERT_TRUE(rank.ok());
    EXPECT_EQ(*rank, 1u);
  }

  // kMetrics reports the admission counters.
  {
    wt::obs::MetricsSnapshot m;
    ASSERT_TRUE(FetchMetrics(*client, 8, &m));
    const uint64_t* offered = m.FindCounter("wt_admission_offered_total");
    const uint64_t* admitted = m.FindCounter("wt_admission_admitted_total");
    const uint64_t* shed = m.FindCounter("wt_admission_shed_total");
    ASSERT_NE(offered, nullptr);
    ASSERT_NE(admitted, nullptr);
    ASSERT_NE(shed, nullptr);
    EXPECT_GE(*offered, 6u);  // access, rank, select, countprefix, frequent,
                              // append (ping/metrics are served inline)
    EXPECT_EQ(*offered, *admitted);
    EXPECT_EQ(*shed, 0u);
  }

  ASSERT_TRUE((*server)->Stop().ok());
}

TEST(ServerTest, PerRequestErrorsKeepTheConnection) {
  ServedStore store(UrlWorkload(256, 3));
  auto server = StrServer::Start(store.engine.get(), {});
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());

  // Out-of-range access answers kOutOfRange for that request only.
  {
    auto resp = client->Call(MsgType::kAccess, 1, 0,
                             Client::AccessPayload({1u << 20}));
    ASSERT_TRUE(resp.ok());
    PayloadReader r(nullptr, 0);
    EXPECT_EQ(StatusOf(*resp, &r), WireStatus::kOutOfRange);
  }

  // A checksum-valid frame whose payload does not decode is kBadRequest —
  // and the framing survives, so the next request still works.
  {
    auto resp = client->Call(MsgType::kAccess, 2, 0, "malformed!");
    ASSERT_TRUE(resp.ok());
    PayloadReader r(nullptr, 0);
    EXPECT_EQ(StatusOf(*resp, &r), WireStatus::kBadRequest);

    auto ping = client->Call(MsgType::kPing, 3, 0, "");
    ASSERT_TRUE(ping.ok());
    EXPECT_EQ(StatusOf(*ping, &r), WireStatus::kOk);
  }
  ASSERT_TRUE((*server)->Stop().ok());
}

TEST(ServerTest, StreamErrorsEndTheConnection) {
  ServedStore store(UrlWorkload(64, 5));
  auto server = StrServer::Start(store.engine.get(), {});
  ASSERT_TRUE(server.ok());

  // Garbage bytes: one typed error frame, then close.
  {
    auto client = Client::Connect((*server)->port());
    ASSERT_TRUE(client.ok());
    const std::string garbage(128, '!');
    ASSERT_TRUE(WriteAll(client->fd(), garbage.data(), garbage.size()).ok());
    auto resp = client->Recv();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->header.request_id, 0u);  // id unknowable from garbage
    PayloadReader r(nullptr, 0);
    EXPECT_EQ(StatusOf(*resp, &r), WireStatus::kBadRequest);
    EXPECT_FALSE(client->Recv().ok());  // server closed after the error
  }

  // Oversized announcement: rejected from the header alone.
  {
    auto client = Client::Connect((*server)->port());
    ASSERT_TRUE(client.ok());
    FrameHeader h;
    h.magic = kFrameMagic;
    h.version = kFrameVersion;
    h.type = static_cast<uint8_t>(MsgType::kAccess);
    h.payload_len = kDefaultMaxPayload + 1;
    ASSERT_TRUE(WriteAll(client->fd(), &h, sizeof(h)).ok());
    auto resp = client->Recv();
    ASSERT_TRUE(resp.ok());
    PayloadReader r(nullptr, 0);
    EXPECT_EQ(StatusOf(*resp, &r), WireStatus::kBadRequest);
    EXPECT_FALSE(client->Recv().ok());
  }

  EXPECT_GE(Count(*(*server)->metrics(), "wt_serving_protocol_errors_total"),
            2u);
  ASSERT_TRUE((*server)->Stop().ok());
}

TEST(ServerTest, ShedUnderBurstIsExactWithManualDispatch) {
  ServedStore store(UrlWorkload(256, 9));
  ManualClock clock;
  StrServer::Options opt;
  opt.admission.max_requests = 16;
  opt.clock = &clock;
  opt.manual_dispatch = true;
  auto server = StrServer::Start(store.engine.get(), opt);
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());

  // Burst 100 requests with nothing dispatching: exactly 16 admitted, 84
  // shed with a retry-after hint — synchronously, so the counts are exact.
  constexpr int kBurst = 100;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(client->Send(MsgType::kAccess, uint64_t(i), 0,
                             Client::AccessPayload({uint64_t(i) % 256}))
                    .ok());
  }
  int shed = 0;
  for (int i = 0; i < kBurst - 16; ++i) {
    auto resp = client->Recv();
    ASSERT_TRUE(resp.ok());
    PayloadReader r(nullptr, 0);
    ASSERT_EQ(StatusOf(*resp, &r), WireStatus::kOverloaded);
    uint32_t retry_ms = 0;
    ASSERT_TRUE(r.Pod(&retry_ms));
    EXPECT_GE(retry_ms, 1u);
    shed++;
  }
  EXPECT_EQ(shed, kBurst - 16);

  // One dispatch answers all 16 admitted requests, so shedding the other
  // 84 cost the dispatcher nothing.
  ASSERT_TRUE((*server)->DispatchOnce());
  EXPECT_FALSE((*server)->DispatchOnce());
  for (int i = 0; i < 16; ++i) {
    auto resp = client->Recv();
    ASSERT_TRUE(resp.ok());
    PayloadReader r(nullptr, 0);
    EXPECT_EQ(StatusOf(*resp, &r), WireStatus::kOk);
  }

  const wt::obs::MetricsRegistry& reg = *(*server)->metrics();
  EXPECT_EQ(Count(reg, "wt_admission_offered_total"), uint64_t(kBurst));
  EXPECT_EQ(Count(reg, "wt_admission_admitted_total"), 16u);
  EXPECT_EQ(Count(reg, "wt_admission_shed_total"), uint64_t(kBurst - 16));
  EXPECT_EQ(Count(reg, "wt_admission_completed_total"), 16u);
  ExpectAdmittedAllAnswered(reg);
  const wt::obs::HistogramSnapshot sizes = Hist(reg, "wt_serving_batch_size");
  EXPECT_EQ(sizes.count, 1u);
  EXPECT_EQ(sizes.sum, 16u);
  ASSERT_TRUE((*server)->Stop().ok());
}

TEST(ServerTest, DeadlineExpiresMidQueue) {
  ServedStore store(UrlWorkload(256, 11));
  ManualClock clock;
  StrServer::Options opt;
  opt.clock = &clock;
  opt.manual_dispatch = true;
  auto server = StrServer::Start(store.engine.get(), opt);
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());

  // Two requests: 10ms deadline and no deadline. Time passes (manually)
  // while both sit in the queue.
  ASSERT_TRUE(client->Send(MsgType::kAccess, 1, /*deadline_ms=*/10,
                           Client::AccessPayload({0}))
                  .ok());
  ASSERT_TRUE(client->Send(MsgType::kAccess, 2, /*deadline_ms=*/0,
                           Client::AccessPayload({0}))
                  .ok());
  // Wait until the I/O thread has admitted both before advancing time.
  while ((*server)->queue_depth() < 2) {
    std::this_thread::yield();
  }
  clock.AdvanceMillis(50);
  ASSERT_TRUE((*server)->DispatchOnce());

  auto first = client->Recv();
  ASSERT_TRUE(first.ok());
  auto second = client->Recv();
  ASSERT_TRUE(second.ok());
  const Frame& expired = first->header.request_id == 1 ? *first : *second;
  const Frame& served = first->header.request_id == 1 ? *second : *first;
  PayloadReader r(nullptr, 0);
  EXPECT_EQ(StatusOf(expired, &r), WireStatus::kDeadlineExceeded);
  EXPECT_EQ(StatusOf(served, &r), WireStatus::kOk);

  const wt::obs::MetricsRegistry& reg = *(*server)->metrics();
  EXPECT_EQ(Count(reg, "wt_admission_expired_at_dequeue_total"), 1u);
  EXPECT_EQ(Count(reg, "wt_admission_completed_total"), 1u);
  ExpectAdmittedAllAnswered(reg);
  ASSERT_TRUE((*server)->Stop().ok());
}

TEST(ServerTest, SlowClientIsDisconnectedAtTheHardCap) {
  // ~20k distinct strings make a kFrequent reply of ~1MB from a 24-byte
  // request: the amplification lets a non-reading client overwhelm its
  // write buffer long before the test has to send much of anything.
  std::vector<std::string> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    values.push_back("distinct.example.com/item/" + std::to_string(i));
  }
  ServedStore store(values);
  StrServer::Options opt;
  opt.session.write_buffer_soft = 64u << 10;
  opt.session.write_buffer_hard = 256u << 10;
  auto server = StrServer::Start(store.engine.get(), opt);
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());

  // Pipeline many amplifying requests and never read.
  for (int i = 0; i < 16; ++i) {
    if (!client
             ->Send(MsgType::kFrequent, uint64_t(i), 0,
                    Client::FrequentPayload(0, values.size(), 1))
             .ok()) {
      break;  // server already cut us off mid-write: also a pass
    }
  }
  // The server must disconnect us rather than buffer unboundedly.
  const wt::obs::MetricsRegistry& reg = *(*server)->metrics();
  for (int spin = 0; spin < 10000; ++spin) {
    if (Count(reg, "wt_serving_slow_client_disconnects_total") > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(Count(reg, "wt_serving_slow_client_disconnects_total"), 1u);
  ASSERT_TRUE((*server)->Stop().ok());
}

TEST(ServerTest, GracefulShutdownAnswersEverythingAdmitted) {
  ServedStore store(UrlWorkload(512, 13));
  StrServer::Options opt;
  opt.manual_dispatch = true;  // hold requests in-queue across Stop()
  auto server = StrServer::Start(store.engine.get(), opt);
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());

  constexpr int kInFlight = 8;
  for (int i = 0; i < kInFlight; ++i) {
    ASSERT_TRUE(client->Send(MsgType::kAccess, uint64_t(i), 0,
                             Client::AccessPayload({uint64_t(i)}))
                    .ok());
  }
  while ((*server)->queue_depth() < kInFlight) {
    std::this_thread::yield();
  }

  // Stop with the queue loaded: every admitted request must still answer.
  std::thread stopper([&] { ASSERT_TRUE((*server)->Stop().ok()); });
  int ok_replies = 0;
  for (int i = 0; i < kInFlight; ++i) {
    auto resp = client->Recv();
    ASSERT_TRUE(resp.ok());
    PayloadReader r(nullptr, 0);
    if (StatusOf(*resp, &r) == WireStatus::kOk) ok_replies++;
  }
  EXPECT_EQ(ok_replies, kInFlight);
  EXPECT_FALSE(client->Recv().ok());  // then the server goes away
  stopper.join();

  const wt::obs::MetricsRegistry& reg = *(*server)->metrics();
  EXPECT_EQ(Count(reg, "wt_admission_admitted_total"), uint64_t(kInFlight));
  EXPECT_EQ(Count(reg, "wt_admission_completed_total"), uint64_t(kInFlight));
}

TEST(ServerTest, RequestsAfterCloseAnswerShuttingDown) {
  ServedStore store(UrlWorkload(64, 17));
  ManualClock clock;
  StrServer::Options opt;
  opt.clock = &clock;
  opt.manual_dispatch = true;
  auto server = StrServer::Start(store.engine.get(), opt);
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());

  // Race-free variant of "request arrives during drain": Stop() in manual
  // mode drains synchronously, but the I/O thread keeps flushing until its
  // write buffers are empty — a request sent just before the close either
  // gets served or gets kShuttingDown, never silence. Here we assert the
  // post-close answer specifically by stopping first.
  std::thread stopper([&] { ASSERT_TRUE((*server)->Stop().ok()); });
  // The reply is either kShuttingDown (admission closed first) or a lost
  // connection (I/O thread exited first) — both are clean refusals; what
  // must never happen is an accepted-then-dropped request.
  auto resp = client->Call(MsgType::kAccess, 1, 0, Client::AccessPayload({0}));
  if (resp.ok()) {
    PayloadReader r(nullptr, 0);
    const WireStatus st = StatusOf(*resp, &r);
    EXPECT_TRUE(st == WireStatus::kShuttingDown || st == WireStatus::kOk);
  }
  stopper.join();
  ExpectAdmittedAllAnswered(*(*server)->metrics());
}

// The listener closes when the drain starts, so nothing can connect to a
// stopped server and then wait forever on a socket nobody accepts — the
// fate of a connection that was still in the accept backlog at Stop().
TEST(ServerTest, StopClosesTheListener) {
  ServedStore store(UrlWorkload(64, 31));
  auto server = StrServer::Start(store.engine.get(), {});
  ASSERT_TRUE(server.ok());
  const uint16_t port = (*server)->port();
  ASSERT_TRUE((*server)->Stop().ok());
  EXPECT_FALSE(Client::Connect(port).ok());
}

TEST(ServerTest, CoalescesAcrossConnectionsAndEpochsTrackPublishes) {
  ServedStore store(UrlWorkload(512, 19));
  const uint64_t epoch0 = store.engine->PublishEpoch();

  ManualClock clock;
  StrServer::Options opt;
  opt.clock = &clock;
  opt.manual_dispatch = true;
  auto server = StrServer::Start(store.engine.get(), opt);
  ASSERT_TRUE(server.ok());

  // Two clients, three requests total, one DispatchOnce: the coalescer
  // merges them into single batch calls and every reply still routes to
  // the right connection and request id.
  auto send_three = [](Client& a, Client& b) {
    ASSERT_TRUE(
        a.Send(MsgType::kAccess, 101, 0, Client::AccessPayload({1, 2})).ok());
    ASSERT_TRUE(
        b.Send(MsgType::kAccess, 201, 0, Client::AccessPayload({3})).ok());
    ASSERT_TRUE(
        b.Send(MsgType::kRank, 202, 0, Client::RankPayload({"zzz"}, {100}))
            .ok());
  };
  auto c1 = Client::Connect((*server)->port());
  auto c2 = Client::Connect((*server)->port());
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  send_three(*c1, *c2);
  while ((*server)->queue_depth() < 3) std::this_thread::yield();
  const size_t spans_before = EngineBatchSpans();
  ASSERT_TRUE((*server)->DispatchOnce());
  // One dispatch, one engine batch, one batch-size sample of 3.
  EXPECT_EQ(EngineBatchSpans() - spans_before, 1u);
  const wt::obs::HistogramSnapshot coalesced =
      Hist(*(*server)->metrics(), "wt_serving_batch_size");
  EXPECT_EQ(coalesced.count, 1u);
  EXPECT_EQ(coalesced.sum, 3u);

  auto snap = store.engine->GetSnapshot();
  {
    auto resp = c1->Recv();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->header.request_id, 101u);
    PayloadReader r(nullptr, 0);
    ASSERT_EQ(StatusOf(*resp, &r), WireStatus::kOk);
    uint32_t n = 0;
    ASSERT_TRUE(r.Pod(&n));
    ASSERT_EQ(n, 2u);
    auto want = snap.AccessBatch({1, 2});
    ASSERT_TRUE(want.ok());
    for (uint32_t i = 0; i < n; ++i) {
      std::string got;
      ASSERT_TRUE(r.Str(&got));
      EXPECT_EQ(got, (*want)[i]);
    }
  }
  for (uint64_t want_id : {201u, 202u}) {
    auto resp = c2->Recv();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->header.request_id, want_id);
    PayloadReader r(nullptr, 0);
    EXPECT_EQ(StatusOf(*resp, &r), WireStatus::kOk);
  }

  // Ingest + flush publishes new segments and bumps the epoch the
  // dispatcher keys its snapshot cache on.
  ASSERT_TRUE(store.engine->AppendBatch({"epoch-probe"}).ok());
  ASSERT_TRUE(store.engine->Flush().ok());
  EXPECT_GT(store.engine->PublishEpoch(), epoch0);

  // A post-publish request sees the new value through the re-pinned snap.
  ASSERT_TRUE(c1->Send(MsgType::kRank, 102, 0,
                       Client::RankPayload({"epoch-probe"},
                                           {store.engine->size()}))
                  .ok());
  while ((*server)->queue_depth() < 1) std::this_thread::yield();
  ASSERT_TRUE((*server)->DispatchOnce());
  auto resp = c1->Recv();
  ASSERT_TRUE(resp.ok());
  PayloadReader r(nullptr, 0);
  ASSERT_EQ(StatusOf(*resp, &r), WireStatus::kOk);
  uint32_t n = 0;
  ASSERT_TRUE(r.Pod(&n));
  ASSERT_EQ(n, 1u);
  uint64_t rank = 0;
  ASSERT_TRUE(r.Pod(&rank));
  EXPECT_EQ(rank, 1u);

  ASSERT_TRUE((*server)->Stop().ok());

  // The coalescing ablation: the same three requests against a server
  // that pops one request per dispatch take three dispatches and three
  // engine batches. A batch with no slack defers its samples, so the
  // histogram is read after Stop().
  ServedStore solo_store(UrlWorkload(512, 19));
  StrServer::Options solo_opt = opt;
  solo_opt.max_dispatch_batch = 1;
  auto solo = StrServer::Start(solo_store.engine.get(), solo_opt);
  ASSERT_TRUE(solo.ok());
  auto s1 = Client::Connect((*solo)->port());
  auto s2 = Client::Connect((*solo)->port());
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  send_three(*s1, *s2);
  while ((*solo)->queue_depth() < 3) std::this_thread::yield();
  const size_t solo_spans_before = EngineBatchSpans();
  size_t dispatches = 0;
  while ((*solo)->DispatchOnce()) dispatches++;
  EXPECT_EQ(dispatches, 3u);
  EXPECT_EQ(EngineBatchSpans() - solo_spans_before, 3u);
  const std::pair<Client*, uint64_t> solo_replies[] = {
      {&*s1, 101}, {&*s2, 201}, {&*s2, 202}};
  for (const auto& [client, want_id] : solo_replies) {
    auto reply = client->Recv();
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->header.request_id, want_id);
    PayloadReader pr(nullptr, 0);
    EXPECT_EQ(StatusOf(*reply, &pr), WireStatus::kOk);
  }
  ASSERT_TRUE((*solo)->Stop().ok());
  const wt::obs::HistogramSnapshot solo_sizes =
      Hist(*(*solo)->metrics(), "wt_serving_batch_size");
  EXPECT_EQ(solo_sizes.count, 3u);
  EXPECT_EQ(solo_sizes.sum, 3u);
}

TEST(ServerTest, CoalescedBatchDedupsRepeatedAccessPositions) {
  ServedStore store(UrlWorkload(512, 23));

  ManualClock clock;
  StrServer::Options opt;
  opt.clock = &clock;
  opt.manual_dispatch = true;
  auto server = StrServer::Start(store.engine.get(), opt);
  ASSERT_TRUE(server.ok());

  // Three requests hammer position 7, one asks {7, 9}: one dispatch batch
  // holds five requested positions but only two distinct ones. The dedup
  // (singleflight per dispatch) must answer every request correctly and
  // account for the three saved engine walks.
  auto c1 = Client::Connect((*server)->port());
  auto c2 = Client::Connect((*server)->port());
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  ASSERT_TRUE(
      c1->Send(MsgType::kAccess, 1, 0, Client::AccessPayload({7})).ok());
  ASSERT_TRUE(
      c1->Send(MsgType::kAccess, 2, 0, Client::AccessPayload({7})).ok());
  ASSERT_TRUE(
      c2->Send(MsgType::kAccess, 3, 0, Client::AccessPayload({7})).ok());
  ASSERT_TRUE(
      c2->Send(MsgType::kAccess, 4, 0, Client::AccessPayload({7, 9})).ok());
  while ((*server)->queue_depth() < 4) std::this_thread::yield();
  ASSERT_TRUE((*server)->DispatchOnce());

  auto snap = store.engine->GetSnapshot();
  auto want = snap.AccessBatch({7, 9});
  ASSERT_TRUE(want.ok());
  auto expect_access = [&](Client& c, uint64_t want_id,
                           std::vector<std::string> vals) {
    auto resp = c.Recv();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->header.request_id, want_id);
    PayloadReader r(nullptr, 0);
    ASSERT_EQ(StatusOf(*resp, &r), WireStatus::kOk);
    uint32_t n = 0;
    ASSERT_TRUE(r.Pod(&n));
    ASSERT_EQ(n, vals.size());
    for (const std::string& v : vals) {
      std::string got;
      ASSERT_TRUE(r.Str(&got));
      EXPECT_EQ(got, v);
    }
  };
  expect_access(*c1, 1, {(*want)[0]});
  expect_access(*c1, 2, {(*want)[0]});
  expect_access(*c2, 3, {(*want)[0]});
  expect_access(*c2, 4, {(*want)[0], (*want)[1]});
  const wt::obs::MetricsRegistry& reg = *(*server)->metrics();
  EXPECT_EQ(Count(reg, "wt_serving_coalesced_dup_hits_total"), 3u);
  EXPECT_EQ(Count(reg, "wt_serving_access_memo_hits_total"), 0u);

  // A LATER batch against the same epoch answers position 7 from the
  // per-epoch memo instead of a fresh engine walk.
  ASSERT_TRUE(
      c1->Send(MsgType::kAccess, 5, 0, Client::AccessPayload({7})).ok());
  while ((*server)->queue_depth() < 1) std::this_thread::yield();
  ASSERT_TRUE((*server)->DispatchOnce());
  expect_access(*c1, 5, {(*want)[0]});
  EXPECT_EQ(Count(reg, "wt_serving_access_memo_hits_total"), 1u);

  // A publish bumps the epoch and invalidates the memo: the next request
  // walks the engine again (no new cache hit) and still answers right.
  ASSERT_TRUE(store.engine->AppendBatch({"memo-epoch-probe"}).ok());
  ASSERT_TRUE(store.engine->Flush().ok());
  ASSERT_TRUE(
      c1->Send(MsgType::kAccess, 6, 0, Client::AccessPayload({7})).ok());
  while ((*server)->queue_depth() < 1) std::this_thread::yield();
  ASSERT_TRUE((*server)->DispatchOnce());
  expect_access(*c1, 6, {(*want)[0]});
  EXPECT_EQ(Count(reg, "wt_serving_access_memo_hits_total"), 1u);

  ASSERT_TRUE((*server)->Stop().ok());
}

TEST(ServerTest, ZeroItemRequestsGetFreshEmptyRepliesNotStaleScratch) {
  ServedStore store(UrlWorkload(512, 29));

  ManualClock clock;
  StrServer::Options opt;
  opt.clock = &clock;
  opt.manual_dispatch = true;
  auto server = StrServer::Start(store.engine.get(), opt);
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());

  // Batch A fills reply scratch slot 0 with a real multi-value body, so a
  // later batch that forgets to write slot 0 would leak these bytes.
  ASSERT_TRUE(client
                  ->Send(MsgType::kRank, 1, 0,
                         Client::RankPayload({"a", "b", "c"}, {10, 20, 30}))
                  .ok());
  while ((*server)->queue_depth() < 1) std::this_thread::yield();
  ASSERT_TRUE((*server)->DispatchOnce());
  {
    auto resp = client->Recv();
    ASSERT_TRUE(resp.ok());
    PayloadReader r(nullptr, 0);
    ASSERT_EQ(StatusOf(*resp, &r), WireStatus::kOk);
  }

  // A zero-item request of each batched opcode, each ALONE in its dispatch
  // batch (no same-opcode sibling with items): the reply must be a freshly
  // written kOk with count 0 — never the scratch slot's previous contents.
  auto expect_empty_ok = [&](MsgType type, uint64_t id,
                             const std::string& payload) {
    ASSERT_TRUE(client->Send(type, id, 0, payload).ok());
    while ((*server)->queue_depth() < 1) std::this_thread::yield();
    ASSERT_TRUE((*server)->DispatchOnce());
    auto resp = client->Recv();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->header.request_id, id);
    EXPECT_EQ(resp->header.type, ReplyType(type));
    PayloadReader r(nullptr, 0);
    ASSERT_EQ(StatusOf(*resp, &r), WireStatus::kOk);
    uint32_t n = 99;
    ASSERT_TRUE(r.Pod(&n));
    EXPECT_EQ(n, 0u);
    EXPECT_TRUE(r.AtEnd());
  };
  expect_empty_ok(MsgType::kRank, 2, Client::RankPayload({}, {}));
  expect_empty_ok(MsgType::kSelect, 3, Client::SelectPayload({}, {}));
  expect_empty_ok(MsgType::kAccess, 4, Client::AccessPayload({}));

  ASSERT_TRUE((*server)->Stop().ok());
}

// The kMetrics endpoint: a live server answers with a parseable registry
// snapshot whose per-stage tracing histograms are non-zero after real
// traffic, the admission counters agree with an in-process registry read
// (one ledger, two read paths), and the engine's instruments ride along
// in the same snapshot.
TEST(ServerTest, MetricsEndpointExposesRequestLifecycle) {
  ServedStore store(UrlWorkload(1024, 9));

  auto server = StrServer::Start(store.engine.get(), {});
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect((*server)->port());
  ASSERT_TRUE(client.ok());

  for (uint64_t i = 0; i < 8; ++i) {
    auto resp = client->Call(MsgType::kAccess, i + 1, 0,
                             Client::AccessPayload({i, i + 7, i + 200}));
    ASSERT_TRUE(resp.ok());
    PayloadReader r(nullptr, 0);
    ASSERT_EQ(StatusOf(*resp, &r), WireStatus::kOk);
  }

  wt::obs::MetricsSnapshot snap;
  ASSERT_TRUE(FetchMetrics(*client, 100, &snap));

  // Every lifecycle stage saw the access round trips. reply_flush is
  // recorded by the I/O thread AFTER flushing each completion, but that
  // same thread processed this kMetrics frame afterwards, so the ordering
  // is guaranteed, not racy.
  for (const char* stage :
       {"wt_serving_admit_wait_us", "wt_serving_coalesce_us",
        "wt_serving_engine_batch_us", "wt_serving_reply_flush_us",
        "wt_serving_batch_size", "wt_serving_total_us"}) {
    const wt::obs::HistogramSnapshot* h = snap.FindHistogram(stage);
    ASSERT_NE(h, nullptr) << stage;
    EXPECT_GT(h->count, 0u) << stage;
  }

  // The wire snapshot and an in-process read see the same counter; the
  // later read can only have grown past what the wire carried.
  const uint64_t* admitted = snap.FindCounter("wt_admission_admitted_total");
  ASSERT_NE(admitted, nullptr);
  EXPECT_GE(*admitted, 8u);
  EXPECT_GE(Count(*(*server)->metrics(), "wt_admission_admitted_total"),
            *admitted);

  // Engine instruments share the snapshot (one registry end to end).
  const int64_t* segs = snap.FindGauge("wt_engine_segments");
  ASSERT_NE(segs, nullptr);
  EXPECT_GE(*segs, 1);
  EXPECT_NE(snap.FindCounter("wt_engine_appends_total"), nullptr);

  ASSERT_TRUE((*server)->Stop().ok());
}

#endif  // __linux__

}  // namespace
}  // namespace wt::net
