#include "server/scheduler.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"

namespace oreo {
namespace server {

namespace {

QueryReply MakeErrorReply(ReplyStatus status, const char* message) {
  QueryReply reply;
  reply.status = status;
  reply.message = message;
  return reply;
}

// Answers whichever reply callback the request carries (query or ingest) —
// every rejection site must go through this, or an ingest rejected at
// admission/formation/drain would never resolve its client-side wait.
void AnswerError(PendingRequest* request, ReplyStatus status,
                 const char* message) {
  if (request->on_ingest_reply) {
    IngestReply reply;
    reply.status = status;
    reply.message = message;
    request->on_ingest_reply(reply);
  } else if (request->on_reply) {
    request->on_reply(MakeErrorReply(status, message));
  }
}

}  // namespace

FairScheduler::FairScheduler(const Options& options,
                             const ServerTestHooks* hooks)
    : options_(options), hooks_(hooks) {
  OREO_CHECK(options_.dispatchers > 0) << "need at least one dispatcher";
  OREO_CHECK(options_.quantum > 0) << "quantum must be positive";
}

FairScheduler::~FairScheduler() { Drain(); }

uint64_t FairScheduler::NowMicros() const {
  if (hooks_ != nullptr && hooks_->now_micros) return hooks_->now_micros();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t FairScheduler::ComputeExpiry(uint64_t deadline_us) const {
  return deadline_us == 0 ? 0 : NowMicros() + deadline_us;
}

void FairScheduler::AddTenant(uint32_t tenant_id, uint32_t weight,
                              core::OreoEngine* engine,
                              const BatchPolicy& policy) {
  OREO_CHECK(workers_.empty()) << "AddTenant after Start";
  OREO_CHECK(weight >= 1) << "tenant weight must be >= 1";
  auto [it, inserted] = tenants_.emplace(
      tenant_id,
      std::make_unique<TenantState>(tenant_id, weight, engine, policy));
  OREO_CHECK(inserted) << "tenant " << tenant_id << " already scheduled";
  // Push wakes the pool through the scheduler cv; the notifier runs outside
  // the queue lock, so the sched-mu -> queue-mu order PickNext uses (size()
  // under mu_) is never inverted.
  it->second->queue.set_ready_notifier([this] {
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_all();
  });
}

void FairScheduler::Start() {
  OREO_CHECK(workers_.empty()) << "scheduler already started";
  ring_.reserve(tenants_.size());
  for (auto& [id, tenant] : tenants_) ring_.push_back(tenant.get());
  workers_.reserve(options_.dispatchers);
  for (size_t i = 0; i < options_.dispatchers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AdmissionOutcome FairScheduler::Submit(uint32_t tenant_id,
                                       PendingRequest request) {
  auto it = tenants_.find(tenant_id);
  OREO_CHECK(it != tenants_.end()) << "submit to unknown tenant " << tenant_id;
  TenantState* tenant = it->second.get();

  // Admission checkpoint: a request whose deadline has already passed is
  // answered here, on the submitting thread, without touching the queue.
  if (request.expiry_us != 0 && request.expiry_us <= NowMicros()) {
    {
      std::lock_guard<std::mutex> lock(tenant->cmu);
      ++tenant->expired_admission;
    }
    AnswerError(&request, ReplyStatus::kDeadlineExceeded,
                "deadline expired at admission");
    // The request never entered the queue; report it like a shutdown-class
    // inline rejection so callers know nothing was enqueued.
    return AdmissionOutcome::kShutdown;
  }

  AdmissionOutcome outcome = tenant->queue.Push(&request);
  {
    std::lock_guard<std::mutex> lock(tenant->cmu);
    switch (outcome) {
      case AdmissionOutcome::kAdmitted: ++tenant->admitted; break;
      case AdmissionOutcome::kBackpressure:
        ++tenant->rejected_backpressure;
        break;
      case AdmissionOutcome::kShutdown: ++tenant->rejected_shutdown; break;
    }
  }
  if (outcome != AdmissionOutcome::kAdmitted) {
    // Rejected requests are answered inline so the connection reader gets
    // immediate pushback instead of silence.
    if (outcome == AdmissionOutcome::kBackpressure) {
      AnswerError(&request, ReplyStatus::kBackpressure,
                  "tenant queue full: retry later");
    } else {
      AnswerError(&request, ReplyStatus::kShutdown,
                  "server draining: request not accepted");
    }
  }
  return outcome;
}

FairScheduler::TenantState* FairScheduler::PickNext() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    if (draining_) return nullptr;
    const size_t n = ring_.size();
    // One DRR scan: first ready tenant (queued, not being served) with a
    // positive balance wins; the cursor moves past it so equal-weight
    // tenants interleave instead of the lowest id monopolizing the pool.
    bool any_ready = false;
    for (size_t i = 0; i < n; ++i) {
      const size_t pos = (cursor_ + i) % n;
      TenantState* t = ring_[pos];
      if (t->busy || t->queue.size() == 0) continue;
      any_ready = true;
      if (t->deficit >= 1) {
        t->busy = true;
        cursor_ = (pos + 1) % n;
        return t;
      }
    }
    if (any_ready) {
      // Refill round: every active tenant (queued, or mid-service — its
      // balance must survive the round) earns weight x quantum; idle
      // tenants are zeroed so unused share redistributes instead of
      // banking. Over-served tenants carry negative balances into the
      // grant, which is what makes long-run shares exact.
      for (TenantState* t : ring_) {
        if (t->busy || t->queue.size() > 0) {
          t->deficit +=
              static_cast<int64_t>(t->weight) * options_.quantum;
        } else {
          t->deficit = 0;
        }
      }
      continue;  // the scan above now finds a funded tenant
    }
    cv_.wait(lock);
  }
}

void FairScheduler::FinishServing(TenantState* tenant, size_t executed) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tenant->busy = false;
    tenant->deficit -= static_cast<int64_t>(executed);
  }
  // Wake peers: the tenant may be pickable again, or a worker may have been
  // waiting for the busy flag to clear.
  cv_.notify_all();
}

void FairScheduler::WorkerLoop() {
  while (true) {
    TenantState* tenant = PickNext();
    if (tenant == nullptr) return;
    ServeTenant(tenant);
  }
}

void FairScheduler::ServeTenant(TenantState* tenant) {
  std::vector<PendingRequest> popped;
  bool closed = false;
  // Cannot block indefinitely: this worker is the tenant's only consumer
  // (busy flag), so the non-empty queue PickNext observed is still
  // non-empty; only the max_delay_us fill window adds latency.
  tenant->queue.PopBatch(tenant->policy.max_batch, tenant->policy.max_delay_us,
                         &popped, &closed);
  if (closed) {
    // Drain hit between pick and pop; leftovers belong to DrainRemaining.
    FinishServing(tenant, 0);
    return;
  }

  // Formation checkpoint: requests whose deadline passed while they waited
  // in the queue are answered now and never reach the engine.
  std::vector<PendingRequest> batch;
  std::vector<PendingRequest> expired;
  const uint64_t formed_at = NowMicros();
  batch.reserve(popped.size());
  for (PendingRequest& r : popped) {
    if (r.expiry_us != 0 && r.expiry_us <= formed_at) {
      expired.push_back(std::move(r));
    } else {
      batch.push_back(std::move(r));
    }
  }
  if (!expired.empty()) {
    {
      std::lock_guard<std::mutex> lock(tenant->cmu);
      tenant->expired_formation += expired.size();
    }
    for (PendingRequest& r : expired) {
      AnswerError(&r, ReplyStatus::kDeadlineExceeded,
                  "deadline expired before the batch formed");
    }
  }
  if (batch.empty()) {
    FinishServing(tenant, 0);
    return;
  }

  if (hooks_ != nullptr && hooks_->on_batch_start) {
    hooks_->on_batch_start(tenant->id, batch.size());
  }

  {
    std::lock_guard<std::mutex> lock(tenant->cmu);
    ++tenant->batches;
    tenant->max_batch_observed =
        std::max<uint64_t>(tenant->max_batch_observed, batch.size());
  }

  // Arrival-order serving: contiguous query runs flush as one engine batch
  // (keeping the cross-query scan parallelism of the pure-query path), and
  // each ingest applies between the run before and the run after it — so
  // what data a query sees is fixed by the request stream alone, never by
  // scheduling.
  size_t expired_in_run = 0;
  std::vector<PendingRequest*> run;
  run.reserve(batch.size());
  for (PendingRequest& r : batch) {
    if (r.ingest != nullptr) {
      FlushQueryRun(tenant, &run, &expired_in_run);
      ServeIngest(tenant, &r, &expired_in_run);
    } else {
      run.push_back(&r);
    }
  }
  FlushQueryRun(tenant, &run, &expired_in_run);
  if (expired_in_run > 0) {
    std::lock_guard<std::mutex> lock(tenant->cmu);
    tenant->expired_reply += expired_in_run;
  }

  FinishServing(tenant, batch.size());
}

void FairScheduler::FlushQueryRun(TenantState* tenant,
                                  std::vector<PendingRequest*>* run,
                                  size_t* expired_in_run) {
  if (run->empty()) return;
  QueryBatch queries;
  queries.queries.reserve(run->size());
  for (const PendingRequest* r : *run) queries.queries.push_back(r->query);

  // Record the executed stream *before* running it: once handed to the
  // engine the run always completes, and the audit log must match what the
  // engine saw even if reply delivery fails downstream.
  {
    std::lock_guard<std::mutex> lock(tenant->cmu);
    for (const PendingRequest* r : *run) {
      tenant->executed_ids.push_back(r->query.id);
    }
    tenant->executed += run->size();
  }

  core::BatchResult logical;
  const bool physical = tenant->engine->has_physical();
  Status exec_status;
  std::vector<core::PhysicalStore::QueryExec> per_query;
  if (physical) {
    Result<core::PhysicalStore::BatchExec> exec =
        tenant->submitter.RunPhysical(queries, &logical);
    if (exec.ok()) {
      per_query = std::move(exec->per_query);
    } else {
      exec_status = exec.status();
    }
  } else {
    logical = tenant->submitter.Run(queries);
  }

  // Reply checkpoint: a deadline that passed during execution downgrades
  // the status but never the work — the query ran, stays in the audit log,
  // and its real outcome rides along (`executed = true`).
  const uint64_t replied_at = NowMicros();
  for (size_t i = 0; i < run->size(); ++i) {
    PendingRequest& request = *(*run)[i];
    QueryReply reply;
    if (i < logical.steps.size()) {
      const core::StepResult& step = logical.steps[i];
      reply.status = ReplyStatus::kOk;
      reply.executed = true;
      reply.state = step.state;
      reply.reorganized = step.reorganized;
      reply.query_cost = step.query_cost;
      if (physical) {
        if (exec_status.ok() && i < per_query.size()) {
          reply.has_physical = true;
          reply.match_count = per_query[i].matches;
        } else if (!exec_status.ok()) {
          // Decisions were made but the scan failed; surface the engine
          // error rather than pretending the rows were served.
          reply.status = ReplyStatus::kInternal;
          reply.message = exec_status.ToString();
        }
      }
      if (reply.status == ReplyStatus::kOk && request.expiry_us != 0 &&
          request.expiry_us <= replied_at) {
        reply.status = ReplyStatus::kDeadlineExceeded;
        reply.message = "deadline expired during execution";
        ++*expired_in_run;
      }
    } else {
      reply.status = ReplyStatus::kInternal;
      reply.message = "engine returned fewer steps than queries";
    }
    if (request.on_reply) request.on_reply(reply);
  }
  run->clear();
}

void FairScheduler::ServeIngest(TenantState* tenant, PendingRequest* request,
                                size_t* expired_in_run) {
  Result<core::IngestResult> result =
      tenant->submitter.RunIngest(std::move(*request->ingest));
  IngestReply reply;
  if (result.ok()) {
    reply.version = result->version;
    reply.rows_appended = result->rows_appended;
    reply.rows_deleted = result->rows_deleted;
    reply.visible_rows = result->visible_rows;
    reply.folded = result->folded;
    std::lock_guard<std::mutex> lock(tenant->cmu);
    ++tenant->ingest_batches;
    tenant->ingest_rows += result->rows_appended;
  } else {
    // Pre-validated at the server, so surviving InvalidArgument is rare —
    // but it is still the client's fault, not an engine failure.
    reply.status = result.status().code() == StatusCode::kInvalidArgument
                       ? ReplyStatus::kBadRequest
                       : ReplyStatus::kInternal;
    reply.message = result.status().ToString();
  }
  // Reply checkpoint, mirroring the query contract: a deadline that passed
  // while the engine was applying the batch downgrades the status but never
  // the commit — the non-zero version tells the client it landed.
  if (reply.status == ReplyStatus::kOk && request->expiry_us != 0 &&
      request->expiry_us <= NowMicros()) {
    reply.status = ReplyStatus::kDeadlineExceeded;
    reply.message = "deadline expired during ingest";
    ++*expired_in_run;
  }
  if (request->on_ingest_reply) request->on_ingest_reply(reply);
}

void FairScheduler::Drain() {
  // Serializes concurrent drainers: whoever arrives second blocks until the
  // first has finished, so "no callback outlives Drain" holds for every
  // caller; a repeat call is a no-op.
  std::lock_guard<std::mutex> drain_lock(drain_mu_);
  if (drained_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  cv_.notify_all();
  // Close before join: a worker parked in a PopBatch fill window wakes on
  // the queue close instead of sleeping out its max_delay_us.
  for (auto& [id, tenant] : tenants_) tenant->queue.Close();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  // The pool is gone: whatever is still queued never ran. Answer each
  // request with a shutdown status (the serving-tier analogue of ReorgPool
  // discarding queued jobs) on this thread, before Drain returns.
  for (auto& [id, tenant] : tenants_) {
    std::vector<PendingRequest> leftovers = tenant->queue.DrainRemaining();
    for (PendingRequest& r : leftovers) {
      AnswerError(&r, ReplyStatus::kShutdown,
                  "server draining: request was queued but never ran");
    }
    std::lock_guard<std::mutex> lock(tenant->cmu);
    tenant->rejected_shutdown += leftovers.size();
  }
  drained_ = true;
}

std::vector<int64_t> FairScheduler::executed_ids(uint32_t tenant_id) const {
  auto it = tenants_.find(tenant_id);
  if (it == tenants_.end()) return {};
  std::lock_guard<std::mutex> lock(it->second->cmu);
  return it->second->executed_ids;
}

std::vector<TenantStats> FairScheduler::tenant_stats() const {
  std::vector<TenantStats> out;
  out.reserve(tenants_.size());
  for (const auto& [id, tenant] : tenants_) {
    TenantStats s;
    s.tenant_id = id;
    s.weight = tenant->weight;
    {
      std::lock_guard<std::mutex> lock(mu_);
      s.deficit = tenant->deficit;
    }
    std::lock_guard<std::mutex> lock(tenant->cmu);
    s.admitted = tenant->admitted;
    s.executed = tenant->executed;
    s.batches = tenant->batches;
    s.max_batch_observed = tenant->max_batch_observed;
    s.rejected_backpressure = tenant->rejected_backpressure;
    s.rejected_shutdown = tenant->rejected_shutdown;
    s.expired_admission = tenant->expired_admission;
    s.expired_formation = tenant->expired_formation;
    s.expired_reply = tenant->expired_reply;
    s.ingest_batches = tenant->ingest_batches;
    s.ingest_rows = tenant->ingest_rows;
    out.push_back(s);
  }
  return out;
}

}  // namespace server
}  // namespace oreo
