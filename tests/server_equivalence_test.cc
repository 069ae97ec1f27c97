// The serving-tier equivalence wall: concurrent loopback clients hammering
// the multi-tenant server through the full wire path must leave every
// tenant's engine in a state bit-identical to the library path.
//
// With many concurrent connections the *arrival order* at a tenant is
// nondeterministic, so bit-identity is defined against the server's
// executed order: the fair scheduler logs the query-id stream it actually
// ran (FairScheduler::executed_ids), and this wall replays exactly that
// stream through a fresh library engine via RunBatch — valid because
// batching is decision-invariant (pinned by batch_equivalence_test) — and
// compares per-query serving states, reorganization decisions and costs
// (doubles compared exactly: the wire transports raw IEEE-754 bits) plus
// the engines' total accounting.
//
// With a single synchronous connection per tenant the executed order equals
// the natural stream order, anchoring the wall to the canonical library run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
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

// Small caps so the manager admits, evicts and switches within a short
// stream (same shape as the RunBatch wall's fixture).
core::OreoOptions ServerEngineOptions(uint64_t seed) {
  core::OreoOptions opts;
  opts.seed = seed;
  opts.num_threads = 2;
  opts.window_size = 60;
  opts.generate_every = 60;
  opts.max_states = 4;
  opts.target_partitions = 8;
  opts.dataset_sample_rows = 400;
  return opts;
}

// Two workload phases (range scans on ts, then on qty) so layouts are
// generated and D-UMTS switches. Query ids are globally unique per client:
// the executed-order audit log identifies queries by id.
std::vector<Query> ClientStream(int client_index, size_t n, uint64_t seed) {
  std::vector<Query> stream =
      testutil::MakeRangeWorkload(0, 3000, 150, n / 2, seed + 1);
  std::vector<Query> phase2 =
      testutil::MakeRangeWorkload(1, 1000, 50, n - n / 2, seed + 2);
  stream.insert(stream.end(), phase2.begin(), phase2.end());
  for (size_t i = 0; i < stream.size(); ++i) {
    stream[i].id = static_cast<int64_t>(client_index + 1) * 1000000 +
                   static_cast<int64_t>(i);
  }
  return stream;
}

struct ReplyRecord {
  int32_t state = 0;
  bool reorganized = false;
  double query_cost = 0.0;
};

TEST(ServerEquivalenceTest, LoopbackWireStreamMatchesLibraryRunBatch) {
  const size_t kClientsPerTenant[] = {1, 8, 32};
  const size_t kTenantCounts[] = {1, 4};
  const size_t kQueriesPerTenant = 320;

  QdTreeGenerator generator;
  std::vector<Table> tables;
  for (int t = 0; t < 4; ++t) {
    tables.push_back(testutil::MakeEventTable(3000, 500 + t));
  }

  for (size_t tenants : kTenantCounts) {
    for (size_t clients_per_tenant : kClientsPerTenant) {
      SCOPED_TRACE("tenants=" + std::to_string(tenants) + " clients/tenant=" +
                   std::to_string(clients_per_tenant));
      const size_t per_client = kQueriesPerTenant / clients_per_tenant;

      // A multi-dispatcher pool: the wall must hold while several worker
      // threads pick batches from the shared scheduler concurrently.
      ServerOptions sopts;
      sopts.dispatchers = 4;
      OreoServer srv(sopts);
      for (uint32_t t = 0; t < tenants; ++t) {
        TenantConfig cfg;
        cfg.name = "tenant_" + std::to_string(t);
        cfg.table = &tables[t];
        cfg.generator = &generator;
        cfg.time_column = 0;
        cfg.options = ServerEngineOptions(11 + t);
        // One sharded tenant in the multi-tenant configs: the wall must hold
        // through the engine's multi-shard RunBatch fan-out too.
        if (tenants == 4 && t == 3) cfg.options.num_shards = 2;
        cfg.batch.max_batch = 16;
        cfg.batch.max_delay_us = 100;
        cfg.batch.max_queue = 1u << 16;  // generous: nothing may be rejected
        ASSERT_TRUE(srv.AddTenant(t + 1, cfg).ok());
      }
      ASSERT_TRUE(srv.Start().ok());

      // tenant id -> query id -> (sent query | server reply), merged from
      // every client thread after the hammer phase.
      std::mutex mu;
      std::map<uint32_t, std::map<int64_t, Query>> sent;
      std::map<uint32_t, std::map<int64_t, ReplyRecord>> replies;

      std::vector<std::thread> workers;
      int client_index = 0;
      for (uint32_t t = 1; t <= tenants; ++t) {
        for (size_t c = 0; c < clients_per_tenant; ++c, ++client_index) {
          workers.emplace_back([&srv, &mu, &sent, &replies, t, client_index,
                                per_client] {
            std::vector<Query> stream = ClientStream(
                client_index, per_client, 900 + client_index);
            LoopbackClient client(&srv);
            std::map<int64_t, Query> my_sent;
            std::map<int64_t, ReplyRecord> my_replies;
            for (const Query& q : stream) {
              Result<QueryReply> reply = client.Call(t, q);
              if (!reply.ok()) {
                ADD_FAILURE() << "transport failure: "
                              << reply.status().ToString();
                break;
              }
              EXPECT_EQ(reply->status, ReplyStatus::kOk) << reply->message;
              my_sent.emplace(q.id, q);
              my_replies.emplace(
                  q.id, ReplyRecord{reply->state, reply->reorganized,
                                    reply->query_cost});
            }
            std::lock_guard<std::mutex> lock(mu);
            sent[t].insert(my_sent.begin(), my_sent.end());
            replies[t].insert(my_replies.begin(), my_replies.end());
          });
        }
      }
      for (std::thread& w : workers) w.join();
      srv.Shutdown();  // quiesces the dispatchers: engine reads are exact now

      ServerStats stats = srv.stats();
      EXPECT_EQ(stats.executed, tenants * kQueriesPerTenant);
      EXPECT_EQ(stats.rejected_backpressure, 0u);
      EXPECT_EQ(stats.rejected_shutdown, 0u);
      EXPECT_EQ(stats.rejected_malformed, 0u);

      for (uint32_t t = 1; t <= tenants; ++t) {
        SCOPED_TRACE("tenant=" + std::to_string(t));
        const std::vector<int64_t> order = srv.ExecutedIds(t);
        const std::map<int64_t, Query>& tenant_sent = sent[t];
        const std::map<int64_t, ReplyRecord>& tenant_replies = replies[t];
        ASSERT_EQ(order.size(), kQueriesPerTenant);
        ASSERT_EQ(tenant_sent.size(), kQueriesPerTenant);
        ASSERT_EQ(tenant_replies.size(), kQueriesPerTenant);

        if (clients_per_tenant == 1) {
          // One synchronous connection: executed order must equal the
          // natural stream order (ids ascend within a client).
          EXPECT_TRUE(std::is_sorted(order.begin(), order.end()))
              << "single-connection stream was reordered";
        }

        // Replay the executed stream through a fresh library engine, with a
        // batch size the server never used — batching must not matter.
        std::vector<Query> executed_stream;
        executed_stream.reserve(order.size());
        for (int64_t id : order) {
          auto it = tenant_sent.find(id);
          ASSERT_NE(it, tenant_sent.end()) << "executed unknown id " << id;
          executed_stream.push_back(it->second);
        }
        core::OreoOptions replay_opts = ServerEngineOptions(11 + (t - 1));
        if (tenants == 4 && t == 4) replay_opts.num_shards = 2;
        auto replay = core::MakeEngine(&tables[t - 1], &generator,
                                       /*time_column=*/0, replay_opts);
        size_t pos = 0;
        for (const QueryBatch& b : MakeBatches(executed_stream, 7)) {
          core::BatchResult result = replay->RunBatch(b);
          ASSERT_EQ(result.steps.size(), b.size());
          for (const core::StepResult& step : result.steps) {
            const ReplyRecord& wire = tenant_replies.at(order[pos]);
            EXPECT_EQ(step.state, wire.state) << "query #" << pos;
            EXPECT_EQ(step.reorganized, wire.reorganized) << "query #" << pos;
            // Exact double equality: the cost crossed the wire as raw bits.
            EXPECT_EQ(step.query_cost, wire.query_cost) << "query #" << pos;
            ++pos;
          }
        }
        ASSERT_EQ(pos, order.size());

        core::OreoEngine* served = srv.engine(t);
        ASSERT_NE(served, nullptr);
        EXPECT_EQ(served->total_query_cost(), replay->total_query_cost());
        EXPECT_EQ(served->total_reorg_cost(), replay->total_reorg_cost());
        EXPECT_EQ(served->num_switches(), replay->num_switches());

        if (tenants == 1 && clients_per_tenant == 1) {
          // Anchor config must actually exercise switching, or the whole
          // wall is vacuous.
          EXPECT_GT(replay->num_switches(), 0)
              << "fixture too tame to test switches";
        }
      }
    }
  }
}

}  // namespace
}  // namespace server
}  // namespace oreo
