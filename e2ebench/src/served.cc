#include "served.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>

#include "common/logging.h"
#include "layout/qdtree_layout.h"
#include "server/client.h"
#include "server/server.h"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;
using oreo::server::ReplyStatus;

constexpr uint32_t kTenant = 1;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Millis(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// A started one-tenant server plus everything its engine borrows. The
// server is declared last, so it is destroyed (and drained) first.
class ServedTenant {
 public:
  struct BatchStart {
    Clock::time_point at;
    size_t size = 0;
  };

  ServedTenant(const WorkloadSpec& spec, uint64_t seed, bool traced) {
    const Clock::time_point start = Clock::now();
    dataset_ = MakeStartDataset(spec, seed);
    stack_ = MakeBackendStack(spec, traced);
    oreo::server::ServerOptions server_options;
    server_options.dispatchers = kDispatchers;
    server_ = std::make_unique<oreo::server::OreoServer>(server_options);
    oreo::server::TenantConfig config;
    config.name = spec.name;
    config.table = &dataset_.table;
    config.generator = &generator_;
    config.time_column = dataset_.time_column;
    config.options = spec.options;
    config.options.storage_backend = stack_.backend;
    config.options.shared_cache = stack_.cache;
    config.batch = spec.batch;
    if (spec.physical) {
      config.physical_dir = "e2e/" + spec.name;
      config.store_threads = spec.store_threads;
    }
    if (traced) {
      oreo::server::ServerTestHooks hooks;
      hooks.on_batch_start = [this](uint32_t, size_t size) {
        const Clock::time_point now = Clock::now();
        std::lock_guard<std::mutex> lock(batch_mu_);
        batch_starts_.push_back({now, size});
      };
      server_->set_test_hooks(std::move(hooks));
    }
    OREO_CHECK_OK(server_->AddTenant(kTenant, std::move(config)));
    OREO_CHECK_OK(server_->Start());
    setup_s_ = Seconds(start, Clock::now());
  }

  ServedTenant(const ServedTenant&) = delete;
  ServedTenant& operator=(const ServedTenant&) = delete;

  oreo::server::OreoServer* server() { return server_.get(); }
  oreo::core::OreoEngine* engine() { return server_->engine(kTenant); }
  const BackendStack& stack() const { return stack_; }
  double setup_s() const { return setup_s_; }

  std::vector<BatchStart> batch_starts() {
    std::lock_guard<std::mutex> lock(batch_mu_);
    return batch_starts_;
  }

 private:
  oreo::QdTreeGenerator generator_;
  oreo::workloads::WorkloadDataset dataset_;
  BackendStack stack_;
  std::mutex batch_mu_;
  std::vector<BatchStart> batch_starts_;  // guarded by batch_mu_
  double setup_s_ = 0.0;
  std::unique_ptr<oreo::server::OreoServer> server_;
};

}  // namespace

EngineCounters ReadEngineCounters(oreo::core::OreoEngine* engine,
                                  double alpha,
                                  std::vector<std::string>* errors) {
  EngineCounters c;
  c.total_cost = engine->total_cost();
  c.query_cost = engine->total_query_cost();
  c.switches = engine->num_switches();
  for (size_t s = 0; s < engine->num_shards(); ++s) {
    const oreo::core::Oreo& core = engine->core(s);
    c.cost_evals += core.manager().cost_evals_computed();
    c.cost_evals_reused += core.manager().cost_evals_reused();
    const oreo::mts::DumtsStats& dumts = core.strategy().dumts().stats();
    c.phases += dumts.num_phases;
    c.max_states = std::max<uint64_t>(c.max_states, dumts.max_state_space);
    c.folds += core.folds();
    c.visible_rows += core.visible_rows();
    if (engine->has_physical()) {
      c.stored_bytes += engine->store(s)->MaterializedBytes();
    }
    if (core.total_reorg_cost() !=
        alpha * static_cast<double>(core.num_switches())) {
      errors->push_back(
          "shard " + std::to_string(s) + ": reorganization cost " +
          std::to_string(core.total_reorg_cost()) + " != alpha x " +
          std::to_string(core.num_switches()) +
          " switches (does this binary see the library's class layout?)");
    }
  }
  return c;
}

ServedRun RunServed(const WorkloadSpec& spec, uint64_t seed, const Inputs& in,
                    const ServedOptions& options) {
  ServedRun run;
  ServedTenant tenant(spec, seed, options.traced);

  const size_t n = in.requests.size();
  // Self-test: one expected answer is off by one, so the check must fire.
  const size_t corrupt_query =
      options.corrupt_expected ? in.queries.size() / 2 : in.queries.size();
  std::vector<Clock::time_point> sent(n);
  std::vector<Clock::time_point> replied(n);
  double reply_cost = 0.0;
  auto fail = [&run](size_t request, const std::string& what) {
    run.errors.push_back("request " + std::to_string(request) + ": " + what);
  };
  {
    oreo::server::LoopbackClient client(tenant.server());
    // Closed loop over one connection: at most kWindow requests are in
    // flight, and replies are awaited oldest first.
    std::deque<std::pair<size_t, uint64_t>> in_flight;  // (request, wire id)
    auto await_oldest = [&] {
      const auto [i, id] = in_flight.front();
      in_flight.pop_front();
      const Request& r = in.requests[i];
      if (r.ingest) {
        oreo::Result<oreo::server::IngestReply> reply = client.WaitIngest(id);
        replied[i] = Clock::now();
        run.ingest_ms.push_back(Millis(sent[i], replied[i]));
        if (!reply.ok() || reply->status != ReplyStatus::kOk) {
          ++run.failed;
          fail(i, reply.ok() ? reply->message : reply.status().ToString());
          return;
        }
        const ExpectedIngest& want = in.expected_ingests[r.index];
        if (reply->rows_appended != want.appended ||
            reply->rows_deleted != want.deleted ||
            reply->visible_rows != want.visible) {
          fail(i, "ingest reply +" + std::to_string(reply->rows_appended) +
                      " -" + std::to_string(reply->rows_deleted) + " = " +
                      std::to_string(reply->visible_rows) + ", mirror +" +
                      std::to_string(want.appended) + " -" +
                      std::to_string(want.deleted) + " = " +
                      std::to_string(want.visible));
        }
        return;
      }
      oreo::Result<oreo::server::QueryReply> reply = client.Wait(id);
      replied[i] = Clock::now();
      run.query_ms.push_back(Millis(sent[i], replied[i]));
      if (!reply.ok() || reply->status != ReplyStatus::kOk) {
        ++run.failed;
        fail(i, reply.ok() ? reply->message : reply.status().ToString());
        return;
      }
      reply_cost += reply->query_cost;
      if (spec.physical) {
        const uint64_t want =
            in.expected_matches[r.index] + (r.index == corrupt_query ? 1 : 0);
        if (!reply->has_physical || reply->match_count != want) {
          fail(i, "match_count " + std::to_string(reply->match_count) +
                      " != expected " + std::to_string(want));
        }
      }
    };
    const Clock::time_point first_send = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      while (in_flight.size() >= kWindow) await_oldest();
      const Request& r = in.requests[i];
      sent[i] = Clock::now();
      const uint64_t id =
          r.ingest ? client.SendIngest(kTenant, in.ingests[r.index])
                   : client.Send(kTenant, in.queries[r.index]);
      in_flight.emplace_back(i, id);
    }
    while (!in_flight.empty()) await_oldest();
    // Rewrites still running after the last reply belong to the stream: the
    // paper's measure is query plus reorganization time.
    if (spec.physical) tenant.engine()->WaitForReorgs();
    run.wall_s = Seconds(first_send, Clock::now());
  }
  tenant.server()->Shutdown();
  run.queries = in.queries.size();
  run.attempted = n;

  std::vector<int64_t> sent_ids;
  for (const Request& r : in.requests) {
    if (!r.ingest) sent_ids.push_back(in.queries[r.index].id);
  }
  if (tenant.server()->ExecutedIds(kTenant) != sent_ids) {
    run.errors.push_back("the executed query-id stream differs from the sent "
                         "stream");
  }
  run.engine =
      ReadEngineCounters(tenant.engine(), spec.options.alpha, &run.errors);
  if (tenant.engine()->num_shards() != spec.options.num_shards) {
    run.errors.push_back("the engine has " +
                         std::to_string(tenant.engine()->num_shards()) +
                         " shards, the workload asks for " +
                         std::to_string(spec.options.num_shards));
  }
  // One engine charges exactly the costs its replies carried, summed in the
  // same order. (A sharded facade reweights shards after ingest, so its
  // total is not the plain sum of the per-query replies.)
  if (spec.options.num_shards == 1 && run.failed == 0 &&
      reply_cost != run.engine.query_cost) {
    run.errors.push_back("replies carried a total cost of " +
                         std::to_string(reply_cost) + ", the engine charged " +
                         std::to_string(run.engine.query_cost));
  }

  if (options.traced) {
    // One connection, FIFO admission: batch k holds the next `size`
    // requests in send order. A batch ends at its last reply as the client
    // sees it, or when the dispatcher starts the next batch (it serves one
    // batch of a tenant at a time), whichever comes first.
    const std::vector<ServedTenant::BatchStart> starts = tenant.batch_starts();
    size_t next = 0;
    for (size_t b = 0; b < starts.size(); ++b) {
      const ServedTenant::BatchStart& batch = starts[b];
      if (batch.size == 0 || next + batch.size > n) break;
      run.batch_sizes.push_back(batch.size);
      for (size_t k = next; k < next + batch.size; ++k) {
        run.queue_wait_ms.push_back(Millis(sent[k], batch.at));
      }
      Clock::time_point end = replied[next + batch.size - 1];
      if (b + 1 < starts.size()) end = std::min(end, starts[b + 1].at);
      run.batch_exec_s += Seconds(batch.at, end);
      next += batch.size;
    }
    if (next != n) {
      run.errors.push_back("server batches cover " + std::to_string(next) +
                           " of " + std::to_string(n) + " requests");
    }
    run.storage = ReadStorageCounters(tenant.stack());
  }
  return run;
}

double TimeSetup(const WorkloadSpec& spec, uint64_t seed) {
  ServedTenant tenant(spec, seed, /*traced=*/false);
  tenant.server()->Shutdown();
  return tenant.setup_s();
}

}  // namespace e2e
