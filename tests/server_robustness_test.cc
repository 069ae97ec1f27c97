// Serving-tier robustness: hostile or unlucky inputs — malformed and
// truncated frames, oversized payloads, unknown tenants, over-quota floods,
// mid-stream disconnects — must each be contained to exactly the blast
// radius the protocol promises (one request, one stream, or one rejection),
// with no blocking on the admission path and nothing leaked (ASan/TSan CI
// verifies the "nothing leaked / no race" half).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/oreo.h"
#include "layout/qdtree_layout.h"
#include "server/client.h"
#include "server/server.h"
#include "test_util.h"

namespace oreo {
namespace server {
namespace {

namespace fs = std::filesystem;

constexpr uint32_t kTenant = 1;

// Cheap engine: big window and generation cadence so robustness tests never
// pay for layout generation.
core::OreoOptions CheapOptions() {
  core::OreoOptions opts;
  opts.seed = 21;
  opts.num_threads = 1;
  opts.window_size = 100;
  opts.generate_every = 100000;
  opts.target_partitions = 4;
  opts.dataset_sample_rows = 200;
  return opts;
}

// A released-once gate for the dispatcher: on_batch_start blocks every batch
// until Release, so tests can deterministically fill queues and disconnect
// clients while a batch is provably in flight.
struct DispatcherGate {
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  int entered = 0;

  ServerTestHooks hooks() {
    ServerTestHooks h;
    h.on_batch_start = [this](uint32_t, size_t) {
      std::unique_lock<std::mutex> lock(mu);
      ++entered;
      cv.notify_all();
      cv.wait(lock, [this] { return released; });
    };
    return h;
  }

  void WaitEntered(int n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered >= n; });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  }
};

Query RangeQuery(int64_t id, int64_t lo, int64_t hi) {
  Query q;
  q.id = id;
  q.conjuncts = {Predicate::Between(0, Value(lo), Value(hi))};
  return q;
}

// Blocks for the next complete reply frame on a raw session and decodes it.
QueryReply WaitOneReply(ServerSession* session, uint64_t* request_id) {
  std::string buf;
  FrameHeader header;
  while (true) {
    if (buf.size() >= kHeaderBytes) {
      Status st = DecodeHeader(buf, kDefaultMaxPayload, &header);
      EXPECT_TRUE(st.ok()) << st.ToString();
      if (buf.size() >= kHeaderBytes + header.payload_len) break;
    }
    buf += session->WaitResponses();
  }
  QueryReply reply;
  Status st = DecodeReplyPayload(
      std::string_view(buf).substr(kHeaderBytes, header.payload_len), &reply);
  EXPECT_TRUE(st.ok()) << st.ToString();
  if (request_id != nullptr) *request_id = header.request_id;
  return reply;
}

class ServerRobustnessTest : public ::testing::Test {
 protected:
  void StartServer(BatchPolicy policy, ServerTestHooks hooks = {},
                   std::string physical_dir = "") {
    table_ = testutil::MakeEventTable(600, 21);
    srv_ = std::make_unique<OreoServer>();
    TenantConfig cfg;
    cfg.name = "t";
    cfg.table = &table_;
    cfg.generator = &generator_;
    cfg.time_column = 0;
    cfg.options = CheapOptions();
    cfg.batch = policy;
    cfg.physical_dir = std::move(physical_dir);
    ASSERT_TRUE(srv_->AddTenant(kTenant, cfg).ok());
    srv_->set_test_hooks(std::move(hooks));
    ASSERT_TRUE(srv_->Start().ok());
  }

  Table table_{testutil::EventSchema()};
  QdTreeGenerator generator_;
  std::unique_ptr<OreoServer> srv_;
};

// ------------------------------------------------------- wire round trip --

TEST(ServerWireTest, QueryFrameRoundTripsEveryPredicateShape) {
  Query q;
  q.id = 4242;
  q.template_id = 7;
  q.conjuncts = {
      Predicate::Between(0, Value(int64_t{-5}), Value(int64_t{1000})),
      Predicate::Eq(2, Value("collector_07")),
      Predicate::In(1, {Value(int64_t{1}), Value(0.25), Value("x")}),
  };
  std::string frame = EncodeQueryFrame(99, 3, q);

  FrameHeader header;
  ASSERT_TRUE(DecodeHeader(frame, kDefaultMaxPayload, &header).ok());
  EXPECT_EQ(header.magic, kWireMagic);
  EXPECT_EQ(header.version, kWireVersion);
  EXPECT_EQ(header.type, static_cast<uint16_t>(MsgType::kQuery));
  EXPECT_EQ(header.request_id, 99u);
  EXPECT_EQ(header.tenant_id, 3u);
  EXPECT_EQ(frame.size(), kHeaderBytes + header.payload_len);

  Query out;
  ASSERT_TRUE(
      DecodeQueryPayload(
          std::string_view(frame).substr(kHeaderBytes, header.payload_len),
          &out)
          .ok());
  EXPECT_EQ(out.id, q.id);
  EXPECT_EQ(out.template_id, q.template_id);
  ASSERT_EQ(out.conjuncts.size(), q.conjuncts.size());
  for (size_t i = 0; i < q.conjuncts.size(); ++i) {
    EXPECT_EQ(out.conjuncts[i].column, q.conjuncts[i].column);
    EXPECT_EQ(out.conjuncts[i].op, q.conjuncts[i].op);
  }
  EXPECT_TRUE(out.conjuncts[0].value == q.conjuncts[0].value);
  EXPECT_TRUE(out.conjuncts[0].value2 == q.conjuncts[0].value2);
  EXPECT_TRUE(out.conjuncts[1].value == q.conjuncts[1].value);
  ASSERT_EQ(out.conjuncts[2].in_list.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(out.conjuncts[2].in_list[i] == q.conjuncts[2].in_list[i]);
  }
}

TEST(ServerWireTest, ReplyFrameRoundTripsCostBitsExactly) {
  QueryReply reply;
  reply.status = ReplyStatus::kOk;
  reply.state = 3;
  reply.reorganized = true;
  reply.query_cost = 0.1 + 0.2;  // not representable: bits must survive
  reply.has_physical = true;
  reply.match_count = 12345678901234ull;
  std::string frame = EncodeReplyFrame(7, 2, reply);

  FrameHeader header;
  ASSERT_TRUE(DecodeHeader(frame, kDefaultMaxPayload, &header).ok());
  QueryReply out;
  ASSERT_TRUE(
      DecodeReplyPayload(
          std::string_view(frame).substr(kHeaderBytes, header.payload_len),
          &out)
          .ok());
  EXPECT_EQ(out.status, ReplyStatus::kOk);
  EXPECT_EQ(out.state, 3);
  EXPECT_TRUE(out.reorganized);
  EXPECT_EQ(out.query_cost, reply.query_cost);  // exact
  EXPECT_TRUE(out.has_physical);
  EXPECT_EQ(out.match_count, reply.match_count);
}

TEST(ServerWireTest, HeaderValidationRejectsUntrustedFrames) {
  Query q = RangeQuery(1, 0, 10);
  std::string good = EncodeQueryFrame(1, 1, q);
  FrameHeader header;

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeHeader(bad_magic, kDefaultMaxPayload, &header).ok());

  std::string bad_version = good;
  bad_version[4] = 9;
  EXPECT_FALSE(DecodeHeader(bad_version, kDefaultMaxPayload, &header).ok());
  // Even on failure the parsed fields are filled (best-effort id echo).
  EXPECT_EQ(header.request_id, 1u);

  std::string bad_type = good;
  bad_type[6] = 77;
  EXPECT_FALSE(DecodeHeader(bad_type, kDefaultMaxPayload, &header).ok());

  // Declared payload over the limit is rejected *before* any buffering.
  EXPECT_FALSE(DecodeHeader(good, /*max_payload=*/4, &header).ok());
}

TEST(ServerWireTest, ToStatusMapsEveryWireStatus) {
  EXPECT_TRUE(ToStatus(ReplyStatus::kOk, "").ok());
  EXPECT_EQ(ToStatus(ReplyStatus::kBackpressure, "m").code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(ToStatus(ReplyStatus::kShutdown, "m").code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(ToStatus(ReplyStatus::kBadRequest, "m").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ToStatus(ReplyStatus::kUnknownTenant, "m").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(ToStatus(ReplyStatus::kInternal, "m").code(),
            StatusCode::kInternal);
}

// ------------------------------------------------------- wire fuzzing ----

// Seeded PRNG: failures reproduce. The generators below cover every shape
// the v2 codec can carry, not just the handful the fixed tests use.
Value RandomValue(std::mt19937_64& rng) {
  switch (rng() % 3) {
    case 0:
      return Value(static_cast<int64_t>(rng()));
    case 1: {
      std::uniform_real_distribution<double> dist(-1e9, 1e9);
      return Value(dist(rng));
    }
    default: {
      std::string s(rng() % 12, '\0');
      for (char& c : s) c = static_cast<char>('a' + rng() % 26);
      return Value(std::move(s));
    }
  }
}

Predicate RandomPredicate(std::mt19937_64& rng) {
  const int col = static_cast<int>(rng() % 4);
  switch (rng() % 7) {
    case 0:
      return Predicate::Eq(col, RandomValue(rng));
    case 1:
      return Predicate::Lt(col, RandomValue(rng));
    case 2:
      return Predicate::Le(col, RandomValue(rng));
    case 3:
      return Predicate::Gt(col, RandomValue(rng));
    case 4:
      return Predicate::Ge(col, RandomValue(rng));
    case 5:
      return Predicate::Between(col, RandomValue(rng), RandomValue(rng));
    default: {
      std::vector<Value> in;
      const size_t n = 1 + rng() % 4;
      for (size_t i = 0; i < n; ++i) in.push_back(RandomValue(rng));
      return Predicate::In(col, std::move(in));
    }
  }
}

Query RandomQuery(std::mt19937_64& rng) {
  Query q;
  q.id = static_cast<int64_t>(rng());
  q.template_id = static_cast<int>(rng() % 16) - 1;
  const size_t n = rng() % 5;  // 0 conjuncts = full scan, also legal
  for (size_t i = 0; i < n; ++i) q.conjuncts.push_back(RandomPredicate(rng));
  return q;
}

void ExpectSameQuery(const Query& a, const Query& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.template_id, b.template_id);
  ASSERT_EQ(a.conjuncts.size(), b.conjuncts.size());
  for (size_t i = 0; i < a.conjuncts.size(); ++i) {
    EXPECT_EQ(a.conjuncts[i].column, b.conjuncts[i].column);
    EXPECT_EQ(a.conjuncts[i].op, b.conjuncts[i].op);
    EXPECT_TRUE(a.conjuncts[i].value == b.conjuncts[i].value);
    EXPECT_TRUE(a.conjuncts[i].value2 == b.conjuncts[i].value2);
    ASSERT_EQ(a.conjuncts[i].in_list.size(), b.conjuncts[i].in_list.size());
    for (size_t j = 0; j < a.conjuncts[i].in_list.size(); ++j) {
      EXPECT_TRUE(a.conjuncts[i].in_list[j] == b.conjuncts[i].in_list[j]);
    }
  }
}

TEST(ServerWireFuzzTest, RandomizedQueryFramesRoundTripWithDeadlines) {
  std::mt19937_64 rng(20240801);
  for (int iter = 0; iter < 200; ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    const Query q = RandomQuery(rng);
    const uint64_t deadline = (rng() % 3 == 0) ? 0 : rng();
    const std::string frame = EncodeQueryFrame(rng(), rng() % 100, q, deadline);

    FrameHeader header;
    ASSERT_TRUE(DecodeHeader(frame, kDefaultMaxPayload, &header).ok());
    ASSERT_EQ(frame.size(), kHeaderBytes + header.payload_len);
    Query out;
    uint64_t deadline_out = 1;  // poisoned: must be overwritten
    ASSERT_TRUE(DecodeQueryPayload(std::string_view(frame).substr(kHeaderBytes),
                                   &out, &deadline_out)
                    .ok());
    ExpectSameQuery(q, out);
    EXPECT_EQ(deadline_out, deadline);
  }
}

TEST(ServerWireFuzzTest, RandomizedReplyFramesRoundTripEveryStatus) {
  std::mt19937_64 rng(20240802);
  std::uniform_real_distribution<double> cost(-1e12, 1e12);
  for (int iter = 0; iter < 200; ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    QueryReply reply;
    reply.status = static_cast<ReplyStatus>(rng() % 7);  // kOk..kDeadline
    std::string msg(rng() % 40, '\0');
    for (char& c : msg) c = static_cast<char>(' ' + rng() % 90);
    reply.message = std::move(msg);
    reply.state = static_cast<int32_t>(rng() % 64) - 1;
    reply.reorganized = rng() % 2 == 0;
    reply.query_cost = cost(rng);
    reply.has_physical = rng() % 2 == 0;
    reply.executed = rng() % 2 == 0;
    reply.match_count = rng();
    const std::string frame = EncodeReplyFrame(rng(), rng() % 100, reply);

    FrameHeader header;
    ASSERT_TRUE(DecodeHeader(frame, kDefaultMaxPayload, &header).ok());
    QueryReply out;
    ASSERT_TRUE(
        DecodeReplyPayload(std::string_view(frame).substr(kHeaderBytes), &out)
            .ok());
    EXPECT_EQ(out.status, reply.status);
    EXPECT_EQ(out.message, reply.message);
    EXPECT_EQ(out.state, reply.state);
    EXPECT_EQ(out.reorganized, reply.reorganized);
    EXPECT_EQ(out.query_cost, reply.query_cost);  // exact bits
    EXPECT_EQ(out.has_physical, reply.has_physical);
    EXPECT_EQ(out.executed, reply.executed);
    EXPECT_EQ(out.match_count, reply.match_count);
  }
}

TEST(ServerWireFuzzTest, RandomizedStatsFramesRoundTrip) {
  std::mt19937_64 rng(20240803);
  for (int iter = 0; iter < 100; ++iter) {
    SCOPED_TRACE("iter=" + std::to_string(iter));
    StatsSnapshot snap;
    uint64_t* server_fields[] = {
        &snap.server.sessions_opened,       &snap.server.admitted,
        &snap.server.executed,              &snap.server.batches,
        &snap.server.max_batch_observed,    &snap.server.rejected_backpressure,
        &snap.server.rejected_shutdown,     &snap.server.rejected_unknown_tenant,
        &snap.server.rejected_malformed,    &snap.server.expired_admission,
        &snap.server.expired_formation,     &snap.server.expired_reply,
        &snap.server.ingest_batches,        &snap.server.ingest_rows,
    };
    for (uint64_t* f : server_fields) *f = rng();
    const size_t tenants = rng() % 6;  // 0 tenants is legal (pre-Start)
    for (size_t t = 0; t < tenants; ++t) {
      TenantStats ts;
      ts.tenant_id = static_cast<uint32_t>(rng());
      ts.weight = static_cast<uint32_t>(rng() % 1000 + 1);
      ts.deficit = static_cast<int64_t>(rng());  // may be negative
      ts.admitted = rng();
      ts.executed = rng();
      ts.batches = rng();
      ts.max_batch_observed = rng();
      ts.rejected_backpressure = rng();
      ts.rejected_shutdown = rng();
      ts.expired_admission = rng();
      ts.expired_formation = rng();
      ts.expired_reply = rng();
      ts.ingest_batches = rng();
      ts.ingest_rows = rng();
      snap.tenants.push_back(ts);
    }
    const std::string frame = EncodeStatsReplyFrame(rng(), snap);

    FrameHeader header;
    ASSERT_TRUE(DecodeHeader(frame, kDefaultMaxPayload, &header).ok());
    EXPECT_EQ(header.type, static_cast<uint16_t>(MsgType::kStatsReply));
    StatsSnapshot out;
    ASSERT_TRUE(
        DecodeStatsPayload(std::string_view(frame).substr(kHeaderBytes), &out)
            .ok());
    for (uint64_t* f : server_fields) {
      // Pointer arithmetic into `out.server` mirrors the field list above.
      const size_t off = reinterpret_cast<const char*>(f) -
                         reinterpret_cast<const char*>(&snap.server);
      EXPECT_EQ(*reinterpret_cast<const uint64_t*>(
                    reinterpret_cast<const char*>(&out.server) + off),
                *f);
    }
    ASSERT_EQ(out.tenants.size(), snap.tenants.size());
    for (size_t t = 0; t < tenants; ++t) {
      EXPECT_EQ(out.tenants[t].tenant_id, snap.tenants[t].tenant_id);
      EXPECT_EQ(out.tenants[t].weight, snap.tenants[t].weight);
      EXPECT_EQ(out.tenants[t].deficit, snap.tenants[t].deficit);
      EXPECT_EQ(out.tenants[t].admitted, snap.tenants[t].admitted);
      EXPECT_EQ(out.tenants[t].executed, snap.tenants[t].executed);
      EXPECT_EQ(out.tenants[t].expired_reply, snap.tenants[t].expired_reply);
      EXPECT_EQ(out.tenants[t].ingest_batches, snap.tenants[t].ingest_batches);
      EXPECT_EQ(out.tenants[t].ingest_rows, snap.tenants[t].ingest_rows);
    }
  }
}

// Byte-mutation corpus, codec level: flip random bytes in valid payloads and
// decode. The decoders may accept (the flip hit a value byte) or reject, but
// must never crash, over-read, or loop — ASan/UBSan CI checks the half a
// return code can't express.
TEST(ServerWireFuzzTest, MutatedPayloadsNeverCrashTheDecoders) {
  std::mt19937_64 rng(20240804);
  const Query q = RandomQuery(rng);
  QueryReply reply;
  reply.status = ReplyStatus::kOk;
  reply.message = "fine";
  reply.executed = true;
  StatsSnapshot snap;
  snap.tenants.resize(3);
  const std::string corpus[] = {
      EncodeQueryFrame(1, 1, q, 12345),
      EncodeReplyFrame(2, 1, reply),
      EncodeStatsReplyFrame(3, snap),
  };
  for (int iter = 0; iter < 600; ++iter) {
    std::string frame = corpus[iter % 3];
    const size_t payload_len = frame.size() - kHeaderBytes;
    if (payload_len == 0) continue;
    const size_t flips = 1 + rng() % 4;
    for (size_t f = 0; f < flips; ++f) {
      frame[kHeaderBytes + rng() % payload_len] ^=
          static_cast<char>(1 + rng() % 255);
    }
    const std::string_view payload =
        std::string_view(frame).substr(kHeaderBytes);
    // Outcomes are unconstrained; surviving the call is the contract.
    Query q_out;
    uint64_t deadline_out = 0;
    DecodeQueryPayload(payload, &q_out, &deadline_out).ok();
    QueryReply r_out;
    DecodeReplyPayload(payload, &r_out).ok();
    StatsSnapshot s_out;
    DecodeStatsPayload(payload, &s_out).ok();
  }
}

// Byte-mutation corpus, session level: a mutated frame fed to a live session
// poisons at most that stream — the server survives and keeps serving new
// connections. (Replies are not asserted per-mutation: a mutated length
// field legitimately leaves the session waiting for bytes that never come.)
TEST_F(ServerRobustnessTest, MutatedFramesPoisonAtMostTheirStream) {
  StartServer(BatchPolicy{});
  std::mt19937_64 rng(20240805);
  const std::string good = EncodeQueryFrame(7, kTenant, RangeQuery(7, 0, 10));
  const std::string stats = EncodeStatsRequestFrame(8);
  for (int iter = 0; iter < 300; ++iter) {
    std::string frame = (iter % 2 == 0) ? good : stats;
    const size_t flips = 1 + rng() % 4;
    for (size_t f = 0; f < flips; ++f) {
      frame[rng() % frame.size()] ^= static_cast<char>(1 + rng() % 255);
    }
    std::unique_ptr<ServerSession> session = srv_->OpenSession();
    session->Feed(frame);
    session->TakeResponses();  // drain whatever the server said, if anything
  }
  // Blast radius check: a fresh connection still serves normally.
  LoopbackClient client(srv_.get());
  Result<QueryReply> reply = client.Call(kTenant, RangeQuery(1, 0, 10));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->status, ReplyStatus::kOk) << reply->message;
  srv_->Shutdown();
}

// ---------------------------------------------------- protocol versioning --

TEST_F(ServerRobustnessTest, LegacyV1FramesGetUpgradeHintNotPoison) {
  StartServer(BatchPolicy{});
  std::unique_ptr<ServerSession> session = srv_->OpenSession();

  // A v1 frame has the identical header layout, so it is framed correctly
  // and must poison only itself: request-level reply, stream survives.
  std::string v1 = EncodeQueryFrame(41, kTenant, RangeQuery(41, 0, 10));
  v1[4] = 1;  // version byte: rewrite v2 -> v1
  session->Feed(v1);
  uint64_t request_id = 0;
  QueryReply reply = WaitOneReply(session.get(), &request_id);
  EXPECT_EQ(reply.status, ReplyStatus::kBadRequest);
  EXPECT_EQ(request_id, 41u);
  EXPECT_NE(reply.message.find("upgrade to version"), std::string::npos)
      << reply.message;
  EXPECT_FALSE(session->broken());

  // The same connection keeps serving v2 traffic.
  session->Feed(EncodeQueryFrame(42, kTenant, RangeQuery(42, 0, 10)));
  QueryReply good = WaitOneReply(session.get(), &request_id);
  EXPECT_EQ(good.status, ReplyStatus::kOk);
  EXPECT_EQ(request_id, 42u);

  srv_->Shutdown();
  EXPECT_EQ(srv_->stats().rejected_malformed, 1u);
  EXPECT_EQ(srv_->stats().executed, 1u);
}

TEST_F(ServerRobustnessTest, StatsRequestWithPayloadIsRequestLevelError) {
  StartServer(BatchPolicy{});
  std::unique_ptr<ServerSession> session = srv_->OpenSession();

  // kStats is defined payload-free; trailing bytes are a malformed request,
  // not a framing failure.
  FrameHeader header;
  header.type = static_cast<uint16_t>(MsgType::kStats);
  header.request_id = 51;
  header.tenant_id = 0;
  header.payload_len = 1;
  std::string frame;
  AppendHeader(header, &frame);
  frame += 'x';
  session->Feed(frame);
  uint64_t request_id = 0;
  QueryReply reply = WaitOneReply(session.get(), &request_id);
  EXPECT_EQ(reply.status, ReplyStatus::kBadRequest);
  EXPECT_EQ(request_id, 51u);
  EXPECT_FALSE(session->broken());

  // A well-formed query on the same stream still executes.
  session->Feed(EncodeQueryFrame(52, kTenant, RangeQuery(52, 0, 10)));
  QueryReply good = WaitOneReply(session.get(), &request_id);
  EXPECT_EQ(good.status, ReplyStatus::kOk);
  srv_->Shutdown();
}

// ------------------------------------------------- admission queue edges --

TEST(AdmissionQueueEdgeTest, CapacityZeroCoercesToOne) {
  // A zero quota would deadlock every tenant; the queue coerces it to the
  // smallest workable quota instead.
  AdmissionQueue queue(0);
  EXPECT_EQ(queue.capacity(), 1u);

  PendingRequest r1;
  r1.request_id = 1;
  EXPECT_EQ(queue.Push(&r1), AdmissionOutcome::kAdmitted);
  PendingRequest r2;
  r2.request_id = 2;
  EXPECT_EQ(queue.Push(&r2), AdmissionOutcome::kBackpressure);

  std::vector<PendingRequest> out;
  bool closed = false;
  EXPECT_EQ(queue.PopBatch(8, 0, &out, &closed), 1u);
  EXPECT_FALSE(closed);
  EXPECT_EQ(out[0].request_id, 1u);

  queue.Close();
  PendingRequest r3;
  EXPECT_EQ(queue.Push(&r3), AdmissionOutcome::kShutdown);
  EXPECT_TRUE(queue.DrainRemaining().empty());
}

TEST(AdmissionQueueEdgeTest, CapacityOneServesOneAtATime) {
  AdmissionQueue queue(1);
  EXPECT_EQ(queue.capacity(), 1u);
  // Admit/pop cycles at quota one: each pop frees exactly one slot.
  for (uint64_t i = 1; i <= 5; ++i) {
    PendingRequest r;
    r.request_id = i;
    ASSERT_EQ(queue.Push(&r), AdmissionOutcome::kAdmitted) << i;
    PendingRequest overflow;
    overflow.request_id = 100 + i;
    EXPECT_EQ(queue.Push(&overflow), AdmissionOutcome::kBackpressure) << i;
    std::vector<PendingRequest> out;
    bool closed = false;
    ASSERT_EQ(queue.PopBatch(4, 0, &out, &closed), 1u) << i;
    EXPECT_EQ(out[0].request_id, i);
  }
  queue.Close();
  std::vector<PendingRequest> out;
  bool closed = false;
  EXPECT_EQ(queue.PopBatch(4, 0, &out, &closed), 0u);
  EXPECT_TRUE(closed);
}

TEST(AdmissionQueueEdgeTest, ConcurrentPushShutdownRaceLosesNoRequest) {
  // Producers hammer Push while the owner closes the queue: every offered
  // request must get exactly one disposition, and exactly the admitted ones
  // must come back out of DrainRemaining (TSan checks the memory half).
  AdmissionQueue queue(64);
  constexpr int kProducers = 4;
  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> backpressure{0};
  std::atomic<int> saw_shutdown{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      uint64_t next = static_cast<uint64_t>(p) * 1000000;
      while (true) {
        PendingRequest r;
        r.request_id = ++next;
        const AdmissionOutcome outcome = queue.Push(&r);
        if (outcome == AdmissionOutcome::kAdmitted) {
          ++admitted;
        } else if (outcome == AdmissionOutcome::kBackpressure) {
          ++backpressure;
        } else {
          ++saw_shutdown;
          return;  // closed: the race completed for this producer
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  queue.Close();
  for (std::thread& t : producers) t.join();

  EXPECT_EQ(saw_shutdown.load(), kProducers);
  const std::vector<PendingRequest> drained = queue.DrainRemaining();
  EXPECT_EQ(drained.size(), admitted.load())
      << "admitted and drained must balance exactly";
  EXPECT_LE(drained.size(), queue.capacity());
  // Close is a point in time: nothing sneaks in afterwards.
  PendingRequest late;
  EXPECT_EQ(queue.Push(&late), AdmissionOutcome::kShutdown);
}

// ------------------------------------------------------ stream poisoning --

TEST_F(ServerRobustnessTest, MalformedHeaderPoisonsStreamWithOneReply) {
  StartServer(BatchPolicy{});
  std::unique_ptr<ServerSession> session = srv_->OpenSession();
  std::string garbage(64, 'Z');
  session->Feed(garbage);
  QueryReply reply = WaitOneReply(session.get(), nullptr);
  EXPECT_EQ(reply.status, ReplyStatus::kBadRequest);
  EXPECT_TRUE(session->broken());

  // The stream is dark now: even a well-formed frame is discarded.
  session->Feed(EncodeQueryFrame(5, kTenant, RangeQuery(5, 0, 10)));
  EXPECT_TRUE(session->TakeResponses().empty());
  srv_->Shutdown();
  EXPECT_EQ(srv_->stats().executed, 0u);
}

TEST_F(ServerRobustnessTest, OversizedDeclaredPayloadBreaksTheStream) {
  StartServer(BatchPolicy{});
  std::unique_ptr<ServerSession> session = srv_->OpenSession();
  FrameHeader header;
  header.type = static_cast<uint16_t>(MsgType::kQuery);
  header.request_id = 11;
  header.tenant_id = kTenant;
  header.payload_len = srv_->max_payload() + 1;
  std::string frame;
  AppendHeader(header, &frame);
  session->Feed(frame);  // header only: the payload must never be buffered
  uint64_t request_id = 0;
  QueryReply reply = WaitOneReply(session.get(), &request_id);
  EXPECT_EQ(reply.status, ReplyStatus::kBadRequest);
  EXPECT_EQ(request_id, 11u);  // best-effort id echo from the bad header
  EXPECT_TRUE(session->broken());
}

TEST_F(ServerRobustnessTest, MalformedPayloadPoisonsOnlyThatRequest) {
  StartServer(BatchPolicy{});
  std::unique_ptr<ServerSession> session = srv_->OpenSession();

  // Well-framed, garbage payload: request-level error...
  FrameHeader header;
  header.type = static_cast<uint16_t>(MsgType::kQuery);
  header.request_id = 21;
  header.tenant_id = kTenant;
  header.payload_len = 3;
  std::string frame;
  AppendHeader(header, &frame);
  frame += "abc";
  session->Feed(frame);
  uint64_t request_id = 0;
  QueryReply bad = WaitOneReply(session.get(), &request_id);
  EXPECT_EQ(bad.status, ReplyStatus::kBadRequest);
  EXPECT_EQ(request_id, 21u);
  EXPECT_FALSE(session->broken());

  // ... and the stream survives: the next query executes normally.
  session->Feed(EncodeQueryFrame(22, kTenant, RangeQuery(22, 0, 10)));
  QueryReply good = WaitOneReply(session.get(), &request_id);
  EXPECT_EQ(good.status, ReplyStatus::kOk);
  EXPECT_EQ(request_id, 22u);

  // A stray reply frame sent *to* the server is likewise request-level.
  session->Feed(EncodeReplyFrame(23, kTenant, QueryReply{}));
  QueryReply stray = WaitOneReply(session.get(), &request_id);
  EXPECT_EQ(stray.status, ReplyStatus::kBadRequest);
  EXPECT_FALSE(session->broken());

  srv_->Shutdown();
  EXPECT_EQ(srv_->stats().executed, 1u);
  EXPECT_EQ(srv_->stats().rejected_malformed, 2u);
}

TEST_F(ServerRobustnessTest, TruncatedFramesAreBufferedUntilComplete) {
  StartServer(BatchPolicy{});
  std::unique_ptr<ServerSession> session = srv_->OpenSession();
  std::string frame = EncodeQueryFrame(31, kTenant, RangeQuery(31, 5, 50));
  // Drip-feed byte by byte: nothing may dispatch or error early.
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    session->Feed(std::string_view(frame).substr(i, 1));
    EXPECT_FALSE(session->broken());
  }
  EXPECT_TRUE(session->TakeResponses().empty());
  session->Feed(std::string_view(frame).substr(frame.size() - 1));
  uint64_t request_id = 0;
  QueryReply reply = WaitOneReply(session.get(), &request_id);
  EXPECT_EQ(reply.status, ReplyStatus::kOk);
  EXPECT_EQ(request_id, 31u);
}

// ------------------------------------------------------ admission limits --

TEST_F(ServerRobustnessTest, UnknownTenantGetsCleanError) {
  StartServer(BatchPolicy{});
  LoopbackClient client(srv_.get());
  Result<QueryReply> reply = client.Call(99, RangeQuery(1, 0, 10));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->status, ReplyStatus::kUnknownTenant);
  EXPECT_EQ(ToStatus(reply->status, reply->message).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(srv_->stats().rejected_unknown_tenant, 1u);
}

TEST_F(ServerRobustnessTest, QueueFullAnswersBackpressureWithoutBlocking) {
  DispatcherGate gate;
  BatchPolicy policy;
  policy.max_batch = 1;
  policy.max_delay_us = 0;
  policy.max_queue = 2;
  StartServer(policy, gate.hooks());

  LoopbackClient client(srv_.get());
  // First request is popped into an in-flight batch and held at the gate.
  uint64_t id0 = client.Send(kTenant, RangeQuery(100, 0, 10));
  gate.WaitEntered(1);
  // Quota is 2: two more fit the queue...
  uint64_t id1 = client.Send(kTenant, RangeQuery(101, 0, 10));
  uint64_t id2 = client.Send(kTenant, RangeQuery(102, 0, 10));
  // ... and the rest must bounce immediately. Send returning at all proves
  // the admission path never blocks the connection reader.
  uint64_t id3 = client.Send(kTenant, RangeQuery(103, 0, 10));
  uint64_t id4 = client.Send(kTenant, RangeQuery(104, 0, 10));
  for (uint64_t rejected_id : {id3, id4}) {
    Result<QueryReply> reply = client.Wait(rejected_id);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->status, ReplyStatus::kBackpressure) << reply->message;
  }

  gate.Release();
  for (uint64_t admitted_id : {id0, id1, id2}) {
    Result<QueryReply> reply = client.Wait(admitted_id);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->status, ReplyStatus::kOk) << reply->message;
  }
  srv_->Shutdown();

  ServerStats stats = srv_->stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.executed, 3u);
  EXPECT_EQ(stats.rejected_backpressure, 2u);
  std::vector<int64_t> expected = {100, 101, 102};
  EXPECT_EQ(srv_->ExecutedIds(kTenant), expected)
      << "rejected queries must never reach the engine";
}

TEST_F(ServerRobustnessTest, MidStreamDisconnectDropsRepliesNotTheBatch) {
  DispatcherGate gate;
  BatchPolicy policy;
  policy.max_batch = 1;
  policy.max_delay_us = 0;
  policy.max_queue = 8;
  StartServer(policy, gate.hooks());

  auto client = std::make_unique<LoopbackClient>(srv_.get());
  uint64_t id0 = client->Send(kTenant, RangeQuery(200, 0, 10));
  gate.WaitEntered(1);
  client->Send(kTenant, RangeQuery(201, 0, 10));  // queued behind the gate

  // Client vanishes with one request in flight and one queued. The in-flight
  // batch must still run to completion; its reply bytes just have nowhere to
  // go (delivered into the closed outbox and dropped).
  client->Disconnect();
  EXPECT_FALSE(client->connected());
  Result<QueryReply> after = client->Wait(id0);
  EXPECT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kUnavailable);

  gate.Release();
  srv_->Shutdown();
  ServerStats stats = srv_->stats();
  EXPECT_EQ(stats.admitted, 2u);
  // The queued request raced Shutdown's close: it either executed or was
  // drained with a shutdown reply — both are clean ends.
  EXPECT_GE(stats.executed, 1u);
  EXPECT_EQ(stats.executed + stats.rejected_shutdown, 2u);
}

// ----------------------------------------------------- physical serving --

TEST_F(ServerRobustnessTest, PhysicalTenantServesExactMatchCounts) {
  std::string dir = testutil::ScratchDir("server_robust_phys");
  StartServer(BatchPolicy{}, {}, dir);
  LoopbackClient client(srv_.get());
  // ts is arrival order 0..599, so BETWEEN [lo, hi] matches hi-lo+1 rows.
  struct Case {
    int64_t lo, hi;
  } cases[] = {{100, 199}, {0, 0}, {550, 700}};
  uint64_t expected[] = {100, 1, 50};
  for (size_t i = 0; i < 3; ++i) {
    Result<QueryReply> reply = client.Call(
        kTenant, RangeQuery(static_cast<int64_t>(i), cases[i].lo, cases[i].hi));
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply->status, ReplyStatus::kOk) << reply->message;
    EXPECT_TRUE(reply->has_physical);
    EXPECT_EQ(reply->match_count, expected[i]) << "case " << i;
  }
  srv_->Shutdown();
  fs::remove_all(dir);
}

// ------------------------------------------- single-caller enforcement ---

// The reusable batch-submission hook must let many producer threads feed one
// engine without tripping the engines' single-caller contract (the debug
// guard aborts on violation, TSan checks the rest).
TEST(BatchSubmitterTest, SerializesConcurrentProducers) {
  Table table = testutil::MakeEventTable(600, 22);
  QdTreeGenerator generator;
  auto engine =
      core::MakeEngine(&table, &generator, /*time_column=*/0, CheapOptions());
  core::BatchSubmitter submitter(engine.get());

  constexpr int kProducers = 8;
  constexpr int kBatchesPerProducer = 20;
  constexpr size_t kBatchSize = 4;
  std::atomic<size_t> steps_seen{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int b = 0; b < kBatchesPerProducer; ++b) {
        QueryBatch batch;
        for (size_t i = 0; i < kBatchSize; ++i) {
          batch.queries.push_back(RangeQuery(p * 1000 + b * 10 + i, 0, 50));
        }
        core::BatchResult result = submitter.Run(batch);
        EXPECT_EQ(result.steps.size(), kBatchSize);
        steps_seen += result.steps.size();
      }
    });
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(steps_seen.load(),
            static_cast<size_t>(kProducers) * kBatchesPerProducer *
                kBatchSize);
}

}  // namespace
}  // namespace server
}  // namespace oreo
