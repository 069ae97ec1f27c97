#include "core/oreo.h"

#include "common/logging.h"

namespace oreo {
namespace core {
namespace internal {

#ifndef NDEBUG
SingleCallerGuard::Scope::Scope(SingleCallerGuard* guard) : guard_(guard) {
  int prev = guard_->depth_.fetch_add(1, std::memory_order_acq_rel);
  if (prev == 0) {
    guard_->owner_.store(std::this_thread::get_id(),
                         std::memory_order_release);
  } else {
    // Re-entry from the owning thread (RunBatch -> Step) is fine; a second
    // thread inside the engine is the silent-corruption bug this exists to
    // catch.
    OREO_CHECK(guard_->owner_.load(std::memory_order_acquire) ==
               std::this_thread::get_id())
        << "concurrent Step/RunBatch callers on one engine: the online "
           "algorithm is sequential and requires external synchronization "
           "(wrap the engine in a core::BatchSubmitter)";
  }
}

SingleCallerGuard::Scope::~Scope() {
  guard_->depth_.fetch_sub(1, std::memory_order_acq_rel);
}
#else
SingleCallerGuard::Scope::Scope(SingleCallerGuard*) {}
SingleCallerGuard::Scope::~Scope() = default;
#endif

}  // namespace internal

namespace {

LayoutManagerOptions ToManagerOptions(const OreoOptions& o) {
  LayoutManagerOptions m;
  m.window_size = o.window_size;
  m.generate_every = o.generate_every;
  m.epsilon = o.epsilon;
  m.admission_sample_size = o.admission_sample_size;
  m.max_states = o.max_states;
  m.source = o.source;
  m.target_partitions = o.target_partitions;
  m.dataset_sample_rows = o.dataset_sample_rows;
  m.prune_similar = o.prune_similar_states;
  m.incremental_cost_cache = o.incremental_cost_cache;
  m.num_threads = o.num_threads;
  m.seed = o.seed ^ 0x9e3779b9;
  return m;
}

mts::DumtsOptions ToDumtsOptions(const OreoOptions& o) {
  mts::DumtsOptions d;
  d.alpha = o.alpha;
  d.gamma = o.gamma;
  d.stay_at_phase_start = o.stay_at_phase_start;
  d.seed = o.seed;
  return d;
}

}  // namespace

Oreo::Oreo(const Table* table, const LayoutGenerator* generator,
           int time_column, const OreoOptions& options)
    : options_(options), live_(table) {
  // Process-wide by design (see OreoOptions::kernel_mode): kernels have no
  // per-engine state, and results are bit-identical in every mode.
  if (options.kernel_mode != simd::KernelMode::kAuto) {
    simd::SetGlobalKernelMode(options.kernel_mode);
  }
  manager_ = std::make_unique<LayoutManager>(table, generator, &registry_,
                                             ToManagerOptions(options));
  default_state_ = manager_->InitDefaultState(time_column);
  strategy_ = std::make_unique<OreoStrategy>(&registry_, default_state_,
                                             ToDumtsOptions(options),
                                             options.mid_phase_policy);
  // D-UMTS decides on the live cost matrix, so switch decisions account for
  // un-folded delta chunks; without pending mutations LiveCost returns the
  // registry cost exactly and nothing changes.
  strategy_->set_cost_fn(
      [this](int state, const Query& query) { return LiveCost(state, query); });
  physical_state_ = default_state_;
}

Oreo::~Oreo() = default;

StepResult Oreo::Step(const Query& query) {
  internal::SingleCallerGuard::Scope single_caller(&caller_guard_);
  std::vector<ManagerEvent> events =
      manager_->Observe(query, strategy_->current_state());
  int forced = strategy_->ApplyEvents(events);

  bool switched = false;
  int logical = strategy_->OnQuery(query, &switched);

  int switches_now = forced + (switched ? 1 : 0);
  if (switches_now > 0) {
    reorg_cost_ += options_.alpha * switches_now;
    num_switches_ += switches_now;
    pending_.emplace_back(queries_seen_ + options_.reorg_delay, logical);
  }
  while (!pending_.empty() && pending_.front().first <= queries_seen_) {
    physical_state_ = pending_.front().second;
    pending_.pop_front();
  }
  double cost = LiveCost(physical_state_, query);
  query_cost_ += cost;
  ++queries_seen_;
  return StepResult{physical_state_, switches_now > 0, cost};
}

BatchResult Oreo::RunBatch(const QueryBatch& batch) {
  internal::SingleCallerGuard::Scope single_caller(&caller_guard_);
  BatchResult result;
  result.steps.reserve(batch.size());
  // Decisions are sequential by construction (see the header); routing every
  // query through Step keeps the batched and one-at-a-time paths one code
  // path, so they cannot diverge.
  for (const Query& query : batch.queries) {
    StepResult step = Step(query);
    result.query_cost += step.query_cost;
    if (step.reorganized) ++result.num_switches;
    result.steps.push_back(step);
  }
  return result;
}

SimResult Oreo::Run(const std::vector<Query>& queries, bool record_trace) {
  internal::SingleCallerGuard::Scope single_caller(&caller_guard_);
  SimResult result;
  result.method = strategy_->name();
  if (record_trace) {
    result.cumulative.reserve(queries.size());
    result.serving_state.reserve(queries.size());
  }
  // Step is the one decision loop, as for RunBatch: Run charges the live
  // cost and advances the engine's pending swaps exactly as streaming does.
  for (size_t t = 0; t < queries.size(); ++t) {
    const int from = physical_state_;
    const int64_t switches_before = num_switches_;
    StepResult step = Step(queries[t]);
    const int64_t switches_now = num_switches_ - switches_before;
    if (switches_now > 0) {
      result.reorg_cost += options_.alpha * switches_now;
      result.num_switches += switches_now;
      result.switch_events.emplace_back(static_cast<int64_t>(t), from,
                                        strategy_->current_state());
    }
    result.query_cost += step.query_cost;
    if (record_trace) {
      result.cumulative.push_back(result.total_cost());
      result.serving_state.push_back(step.state);
    }
  }
  result.final_live_states = registry_.num_live();
  return result;
}

double Oreo::LiveCost(int state, const Query& query) const {
  const double base_cost = registry_.Cost(state, query);
  const uint64_t delta = live_.delta_rows();
  // Exact-equality fast path: with no delta rows the live cost IS the base
  // cost (tombstoned base rows are still physically scanned until the fold,
  // so the scanned fraction is unchanged), keeping pre-ingest runs
  // bit-identical.
  if (delta == 0) return base_cost;
  // Scanned fraction of the mutated store: the base contributes its usual
  // fraction of B rows; every zone-map-surviving delta chunk is scanned in
  // full (the delta term is state-independent, so it raises every state's
  // cost equally — but D-UMTS phase counters fill by absolute cost, so it
  // still belongs in the decision matrix). Stays in [0, 1]: D(q) <= Delta
  // and c_base <= 1.
  const double b = static_cast<double>(live_.base().num_rows());
  const double d = static_cast<double>(live_.DeltaScanRows(query));
  return (base_cost * b + d) / (b + static_cast<double>(delta));
}

Result<IngestResult> Oreo::Ingest(IngestBatch batch) {
  internal::SingleCallerGuard::Scope single_caller(&caller_guard_);
  const Schema& schema = live_.base().schema();
  if (batch.rows.num_rows() > 0 && !batch.rows.schema().Equals(schema)) {
    return Status::InvalidArgument(
        "ingest rows do not match the table schema: expected " +
        schema.ToString() + ", got " + batch.rows.schema().ToString());
  }
  for (const Query& q : batch.deletes) {
    for (const Predicate& p : q.conjuncts) {
      if (p.column < 0 ||
          static_cast<size_t>(p.column) >= schema.num_fields()) {
        return Status::InvalidArgument(
            "delete predicate references column " + std::to_string(p.column) +
            " of a " + std::to_string(schema.num_fields()) + "-column table");
      }
    }
  }

  // The scan overlay borrows pointers into live_, which Apply and Fold
  // invalidate: drop it until the engine rebuilds it against its snapshot.
  RebuildLiveView(nullptr);
  const bool appended = batch.rows.num_rows() > 0;
  ingest::LiveTable::ApplyStats stats = live_.Apply(
      std::move(batch.rows), batch.deletes, mutation_log_.version() + 1);
  ingest::MutationLog::BatchRecord rec =
      mutation_log_.Commit(stats.rows_appended, stats.rows_deleted);

  // Drift tracking: stamp the workload sample with the new data version and
  // merge the published chunk into the manager's dataset sample, so the next
  // generation cadence fits candidates to drifted data.
  if (appended) {
    manager_->NoteIngest(live_.deltas().back().rows, rec.version,
                         live_.visible_rows());
  } else {
    manager_->NoteIngest(Table(), rec.version, live_.visible_rows());
  }

  IngestResult result;
  result.version = rec.version;
  result.rows_appended = rec.rows_appended;
  result.rows_deleted = rec.rows_deleted;

  if (live_.has_mutations() &&
      live_.MutationFraction() >= options_.fold_threshold) {
    Fold();
    result.folded = true;
  }
  result.visible_rows = live_.visible_rows();
  return result;
}

void Oreo::Fold() {
  live_.Fold();
  const Table* folded = &live_.base();
  // Every state — live AND removed — rematerializes over the folded table:
  // recorded traces can replay removed states, and their partitionings must
  // cover the new row set exactly.
  registry_.RematerializeAll(*folded);
  manager_->OnDataFolded(folded);
  ++folds_;
}

void Oreo::RebuildLiveView(const LayoutInstance* instance) {
  live_view_ = PhysicalStore::LiveScanView{};
  live_view_active_ = instance != nullptr && live_.has_mutations();
  if (!live_view_active_) return;
  if (live_.has_base_tombstones()) {
    // Per-partition live masks in the snapshot's file row order: bit j of
    // partition pid covers the row stored at parts.partitions[pid][j].
    const Partitioning& parts = instance->partitioning();
    const BitVector& base_live = live_.base_live();
    live_view_.partition_masks.reserve(parts.partitions.size());
    for (const std::vector<uint32_t>& rows : parts.partitions) {
      BitVector mask(rows.size());
      for (size_t j = 0; j < rows.size(); ++j) {
        if (base_live.Get(rows[j])) mask.Set(j);
      }
      live_view_.partition_masks.push_back(std::move(mask));
    }
  }
  live_view_.deltas.reserve(live_.deltas().size());
  for (const ingest::LiveTable::DeltaChunk& chunk : live_.deltas()) {
    live_view_.deltas.push_back(
        PhysicalStore::LiveScanView::Delta{&chunk.rows, &chunk.zones,
                                           &chunk.live});
  }
}

}  // namespace core
}  // namespace oreo
