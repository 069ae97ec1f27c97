// The deadline wall: per-request latency budgets expire at exactly three
// checkpoints — admission (rejected inline, nothing enqueued), batch
// formation (popped but answered without running) and reply time (expired
// *while the engine ran it*) — and the third never cancels: a query the
// engine started is always executed, keeping the executed audit stream
// bit-identical to a library replay even when every reply carries
// kDeadlineExceeded.
//
// All three checkpoints are pinned deterministically with an injected
// clock (ServerTestHooks::now_micros): an auto-advancing clock forces the
// admission check to see time pass, a manually-advanced clock plus the
// dispatcher gate isolates the formation check, and a clock advanced from
// inside on_batch_start (after formation, before the engine) isolates the
// reply-time check.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
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

core::OreoOptions CheapOptions() {
  core::OreoOptions opts;
  opts.seed = 41;
  opts.num_threads = 1;
  opts.window_size = 100;
  opts.generate_every = 100000;
  opts.target_partitions = 4;
  opts.dataset_sample_rows = 200;
  return opts;
}

// Same shape as the equivalence wall's fixture: small caps so the replay
// test actually admits, evicts and switches within 120 queries.
core::OreoOptions SwitchyOptions() {
  core::OreoOptions opts;
  opts.seed = 11;
  opts.num_threads = 2;
  opts.window_size = 60;
  opts.generate_every = 60;
  opts.max_states = 4;
  opts.target_partitions = 8;
  opts.dataset_sample_rows = 400;
  return opts;
}

Query RangeQuery(int64_t id, int64_t lo, int64_t hi) {
  Query q;
  q.id = id;
  q.conjuncts = {Predicate::Between(0, Value(lo), Value(hi))};
  return q;
}

// A released-once gate for the dispatcher (same sentinel as the shutdown
// and robustness walls): on_batch_start blocks every batch until Release.
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

constexpr uint32_t kTenant = 1;

class ServerDeadlineTest : public ::testing::Test {
 protected:
  void StartServer(ServerTestHooks hooks,
                   core::OreoOptions options = CheapOptions(),
                   size_t table_rows = 600, uint64_t table_seed = 41) {
    table_ = testutil::MakeEventTable(table_rows, table_seed);
    ServerOptions sopts;
    sopts.dispatchers = 1;  // serialized batches: checkpoints are ordered
    srv_ = std::make_unique<OreoServer>(sopts);
    TenantConfig cfg;
    cfg.name = "deadline";
    cfg.table = &table_;
    cfg.generator = &generator_;
    cfg.time_column = 0;
    cfg.options = options;
    cfg.batch.max_batch = 1;  // one query per batch: per-query checkpoints
    cfg.batch.max_delay_us = 0;
    ASSERT_TRUE(srv_->AddTenant(kTenant, cfg).ok());
    srv_->set_test_hooks(std::move(hooks));
    ASSERT_TRUE(srv_->Start().ok());
  }

  Table table_{testutil::EventSchema()};
  QdTreeGenerator generator_;
  std::unique_ptr<OreoServer> srv_;
};

// ------------------------------------------------ checkpoint: admission --

TEST_F(ServerDeadlineTest, ExpiredAtAdmissionRejectsInline) {
  // Every clock reading advances time by 10us, so a 5us budget is already
  // stale when the admission check re-reads the clock.
  auto clock = std::make_shared<std::atomic<uint64_t>>(1000);
  ServerTestHooks hooks;
  hooks.now_micros = [clock] { return clock->fetch_add(10) + 10; };
  StartServer(std::move(hooks));
  LoopbackClient client(srv_.get());

  Result<QueryReply> expired =
      client.Call(kTenant, RangeQuery(1, 0, 10), /*deadline_us=*/5);
  ASSERT_TRUE(expired.ok());
  EXPECT_EQ(expired->status, ReplyStatus::kDeadlineExceeded);
  EXPECT_FALSE(expired->executed) << "an admission-expired query never ran";
  EXPECT_NE(expired->message.find("admission"), std::string::npos)
      << expired->message;

  // deadline 0 = no deadline, and a generous budget survives the advancing
  // clock: both execute normally on the same connection.
  Result<QueryReply> no_deadline = client.Call(kTenant, RangeQuery(2, 0, 10));
  ASSERT_TRUE(no_deadline.ok());
  EXPECT_EQ(no_deadline->status, ReplyStatus::kOk);
  EXPECT_TRUE(no_deadline->executed);
  Result<QueryReply> generous = client.Call(kTenant, RangeQuery(3, 0, 10),
                                            /*deadline_us=*/1000000000ull);
  ASSERT_TRUE(generous.ok());
  EXPECT_EQ(generous->status, ReplyStatus::kOk);

  srv_->Shutdown();
  // Nothing of the expired request reached the engine or the audit log.
  EXPECT_EQ(srv_->ExecutedIds(kTenant), (std::vector<int64_t>{2, 3}));
  StatsSnapshot snap = srv_->stats_snapshot();
  EXPECT_EQ(snap.server.expired_admission, 1u);
  EXPECT_EQ(snap.server.expired_formation, 0u);
  EXPECT_EQ(snap.server.expired_reply, 0u);
  EXPECT_EQ(snap.server.executed, 2u);
  ASSERT_EQ(snap.tenants.size(), 1u);
  EXPECT_EQ(snap.tenants[0].expired_admission, 1u);
}

// ------------------------------------------ checkpoint: batch formation --

TEST_F(ServerDeadlineTest, ExpiredInQueueAnsweredAtFormation) {
  // Manual clock: time passes only when the test says so.
  auto clock = std::make_shared<std::atomic<uint64_t>>(1000);
  DispatcherGate gate;
  ServerTestHooks hooks = gate.hooks();
  hooks.now_micros = [clock] { return clock->load(); };
  StartServer(std::move(hooks));
  LoopbackClient client(srv_.get());

  // A fills the single dispatcher and blocks at the gate; B is admitted
  // with a 100us budget and waits in the queue behind it.
  const uint64_t id_a = client.Send(kTenant, RangeQuery(10, 0, 10));
  gate.WaitEntered(1);
  const uint64_t id_b =
      client.Send(kTenant, RangeQuery(11, 0, 10), /*deadline_us=*/100);

  // B's deadline passes while it is queued; when its batch forms it must be
  // answered without ever reaching the engine.
  clock->fetch_add(1000);
  gate.Release();

  Result<QueryReply> reply_a = client.Wait(id_a);
  ASSERT_TRUE(reply_a.ok());
  EXPECT_EQ(reply_a->status, ReplyStatus::kOk);
  EXPECT_TRUE(reply_a->executed);

  Result<QueryReply> reply_b = client.Wait(id_b);
  ASSERT_TRUE(reply_b.ok());
  EXPECT_EQ(reply_b->status, ReplyStatus::kDeadlineExceeded);
  EXPECT_FALSE(reply_b->executed) << "a formation-expired query never ran";
  EXPECT_NE(reply_b->message.find("before the batch formed"),
            std::string::npos)
      << reply_b->message;

  srv_->Shutdown();
  EXPECT_EQ(srv_->ExecutedIds(kTenant), (std::vector<int64_t>{10}));
  StatsSnapshot snap = srv_->stats_snapshot();
  EXPECT_EQ(snap.server.expired_admission, 0u);
  EXPECT_EQ(snap.server.expired_formation, 1u);
  EXPECT_EQ(snap.server.expired_reply, 0u);
  EXPECT_EQ(snap.server.executed, 1u);
}

// ----------------------------------------------- checkpoint: reply time --

TEST_F(ServerDeadlineTest, DeadlinePassingDuringExecutionNeverCancels) {
  // The clock jumps forward *inside* on_batch_start — after the formation
  // check passed, before the engine runs — modeling a slow batch.
  auto clock = std::make_shared<std::atomic<uint64_t>>(1000);
  ServerTestHooks hooks;
  hooks.now_micros = [clock] { return clock->load(); };
  hooks.on_batch_start = [clock](uint32_t, size_t) {
    clock->fetch_add(1000000);
  };
  StartServer(std::move(hooks));
  LoopbackClient client(srv_.get());

  Result<QueryReply> reply =
      client.Call(kTenant, RangeQuery(20, 0, 10), /*deadline_us=*/100);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->status, ReplyStatus::kDeadlineExceeded);
  // The contract under test: the engine ran it anyway, and the reply
  // carries the real outcome next to the deadline status.
  EXPECT_TRUE(reply->executed);
  EXPECT_GE(reply->state, 0);
  EXPECT_NE(reply->message.find("during execution"), std::string::npos)
      << reply->message;

  srv_->Shutdown();
  // The query is in the audit log, and its cost bits match a fresh library
  // run of the same stream — late, but never cancelled and never diverged.
  EXPECT_EQ(srv_->ExecutedIds(kTenant), (std::vector<int64_t>{20}));
  auto replay = core::MakeEngine(&table_, &generator_, /*time_column=*/0,
                                 CheapOptions());
  QueryBatch batch;
  batch.queries = {RangeQuery(20, 0, 10)};
  core::BatchResult result = replay->RunBatch(batch);
  ASSERT_EQ(result.steps.size(), 1u);
  EXPECT_EQ(result.steps[0].state, reply->state);
  EXPECT_EQ(result.steps[0].query_cost, reply->query_cost);

  StatsSnapshot snap = srv_->stats_snapshot();
  EXPECT_EQ(snap.server.expired_reply, 1u);
  EXPECT_EQ(snap.server.executed, 1u);
}

// --------------------------------------------------- replay bit-identity --

TEST_F(ServerDeadlineTest, ExecutedStreamWithExpiriesReplaysBitIdentical) {
  // A mixed stream: every third query carries a budget that expires during
  // execution (the per-batch hook advances the clock past it), the rest
  // have no deadline. Reply statuses differ — the executed stream must not.
  const size_t kQueries = 320;
  auto clock = std::make_shared<std::atomic<uint64_t>>(1000);
  ServerTestHooks hooks;
  hooks.now_micros = [clock] { return clock->load(); };
  hooks.on_batch_start = [clock](uint32_t, size_t) { clock->fetch_add(50); };
  StartServer(std::move(hooks), SwitchyOptions(), /*table_rows=*/3000,
              /*table_seed=*/500);
  LoopbackClient client(srv_.get());

  // The exact two-phase workload the equivalence wall proves switching on
  // (its single-tenant anchor config), so the replay engine admits, evicts
  // and switches.
  std::vector<Query> stream =
      testutil::MakeRangeWorkload(0, 3000, 150, kQueries / 2, 901);
  std::vector<Query> phase2 =
      testutil::MakeRangeWorkload(1, 1000, 50, kQueries / 2, 902);
  stream.insert(stream.end(), phase2.begin(), phase2.end());
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].id = static_cast<int64_t>(i + 1);
  }

  std::vector<QueryReply> replies;
  size_t expired_count = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    const bool with_deadline = (i % 3 == 2);
    Result<QueryReply> reply =
        client.Call(kTenant, stream[i], with_deadline ? 10 : 0);
    ASSERT_TRUE(reply.ok()) << "query " << i;
    // Synchronous stream + max_batch 1: the query was alone in its batch,
    // the formation check saw a fresh clock, the hook then expired it.
    if (with_deadline) {
      EXPECT_EQ(reply->status, ReplyStatus::kDeadlineExceeded) << i;
      ++expired_count;
    } else {
      EXPECT_EQ(reply->status, ReplyStatus::kOk) << i;
    }
    EXPECT_TRUE(reply->executed) << "query " << i << " was cancelled";
    replies.push_back(std::move(*reply));
  }
  srv_->Shutdown();

  // The audit log holds the full stream in order, expiries included.
  std::vector<int64_t> expected_order;
  for (const Query& q : stream) expected_order.push_back(q.id);
  EXPECT_EQ(srv_->ExecutedIds(kTenant), expected_order);

  // Replay through a fresh library engine with a batch size the server
  // never used; every reply — kOk and kDeadlineExceeded alike — must match
  // state, reorganization decision and raw cost bits.
  auto replay = core::MakeEngine(&table_, &generator_, /*time_column=*/0,
                                 SwitchyOptions());
  size_t pos = 0;
  for (const QueryBatch& b : MakeBatches(stream, 7)) {
    core::BatchResult result = replay->RunBatch(b);
    ASSERT_EQ(result.steps.size(), b.size());
    for (const core::StepResult& step : result.steps) {
      EXPECT_EQ(step.state, replies[pos].state) << "query #" << pos;
      EXPECT_EQ(step.reorganized, replies[pos].reorganized) << "#" << pos;
      EXPECT_EQ(step.query_cost, replies[pos].query_cost) << "#" << pos;
      ++pos;
    }
  }
  ASSERT_EQ(pos, stream.size());
  EXPECT_GT(replay->num_switches(), 0) << "fixture too tame to pin replay";

  StatsSnapshot snap = srv_->stats_snapshot();
  EXPECT_EQ(snap.server.executed, kQueries);
  EXPECT_EQ(snap.server.expired_reply, expired_count);
  EXPECT_EQ(snap.server.expired_formation, 0u);
  EXPECT_EQ(snap.server.expired_admission, 0u);
}

}  // namespace
}  // namespace server
}  // namespace oreo
