// End-to-end integration tests: the full OREO loop (layout manager +
// D-UMTS reorganizer + simulator) on the paper's workload shapes, at reduced
// scale. Verifies the headline qualitative results: OREO adapts to drift,
// beats the static layout on drifting workloads, stays between Greedy and
// Regret in reorganization aggressiveness, and physical replay agrees with
// the logical trace.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/oreo.h"
#include "core/background.h"
#include "core/physical.h"
#include "core/simulator.h"
#include "core/strategy.h"
#include "layout/qdtree_layout.h"
#include "test_util.h"
#include "workloads/dataset.h"
#include "workloads/workload_gen.h"

namespace oreo {
namespace core {
namespace {

struct Fixture {
  workloads::WorkloadDataset ds;
  workloads::Workload wl;
};

Fixture MakeFixture(const std::string& dataset, size_t rows, size_t queries,
                    size_t segments, uint64_t seed) {
  Fixture f{workloads::MakeDataset(dataset, rows, seed), {}};
  workloads::WorkloadOptions wopts;
  wopts.num_queries = queries;
  wopts.num_segments = segments;
  wopts.seed = seed + 1;
  f.wl = workloads::GenerateWorkload(f.ds.templates, wopts);
  return f;
}

OreoOptions SmallOpts(double alpha = 40.0) {
  OreoOptions o;
  o.alpha = alpha;
  o.window_size = 100;
  o.generate_every = 100;
  o.target_partitions = 16;
  o.dataset_sample_rows = 800;
  o.max_states = 8;
  o.seed = 5;
  return o;
}

SimResult RunStatic(const Fixture& f, const LayoutGenerator& gen,
                    const OreoOptions& opts) {
  StateRegistry reg;
  Rng rng(17);
  Table sample = f.ds.table.SampleRows(opts.dataset_sample_rows, &rng);
  std::vector<Query> wl_sample;
  for (size_t i = 0; i < f.wl.queries.size(); i += 10) {
    wl_sample.push_back(f.wl.queries[i]);
  }
  auto layout = gen.Generate(sample, wl_sample, opts.target_partitions);
  int id = reg.Add(Materialize(
      "static", std::shared_ptr<const Layout>(std::move(layout)), f.ds.table));
  StaticStrategy strategy(id);
  SimOptions sim;
  sim.alpha = opts.alpha;
  return RunSimulation(&strategy, nullptr, &reg, f.wl.queries, sim);
}

TEST(IntegrationTest, OreoBeatsStaticOnDriftingTpch) {
  // Segment lengths relative to alpha mirror the paper's regime (30k queries
  // over 21 segments at alpha=80): switches must have room to amortize.
  Fixture f = MakeFixture("tpch", 20000, 6000, 10, 11);
  QdTreeGenerator gen;
  OreoOptions opts = SmallOpts();

  Oreo oreo(&f.ds.table, &gen, f.ds.time_column, opts);
  SimResult oreo_result = oreo.Run(f.wl.queries);
  SimResult static_result = RunStatic(f, gen, opts);

  EXPECT_LT(oreo_result.total_cost(), static_result.total_cost());
  EXPECT_GE(oreo_result.num_switches, 1);
}

TEST(IntegrationTest, OreoAdaptsOnTelemetry) {
  Fixture f = MakeFixture("telemetry", 20000, 3000, 6, 13);
  QdTreeGenerator gen;
  OreoOptions opts = SmallOpts();
  Oreo oreo(&f.ds.table, &gen, f.ds.time_column, opts);
  SimResult r = oreo.Run(f.wl.queries);
  // Sanity: costs are positive and bounded by a full scan per query.
  EXPECT_GT(r.query_cost, 0.0);
  EXPECT_LT(r.query_cost, static_cast<double>(f.wl.queries.size()));
}

TEST(IntegrationTest, GreedySwitchesAtLeastAsOftenAsOreoWhichBeatsRegret) {
  // Paper SVI-B: Greedy is the most aggressive reorganizer, Regret the most
  // conservative, OREO in between.
  Fixture f = MakeFixture("tpch", 15000, 2500, 5, 17);
  QdTreeGenerator gen;
  OreoOptions opts = SmallOpts(60.0);

  auto run_with_manager = [&](auto make_strategy) {
    StateRegistry reg;
    LayoutManagerOptions mopts;
    mopts.window_size = opts.window_size;
    mopts.generate_every = opts.generate_every;
    mopts.epsilon = opts.epsilon;
    mopts.max_states = opts.max_states;
    mopts.target_partitions = opts.target_partitions;
    mopts.dataset_sample_rows = opts.dataset_sample_rows;
    mopts.seed = opts.seed;
    LayoutManager mgr(&f.ds.table, &gen, &reg, mopts);
    int def = mgr.InitDefaultState(f.ds.time_column);
    auto strategy = make_strategy(&reg, &mgr, def);
    SimOptions sim;
    sim.alpha = opts.alpha;
    return RunSimulation(strategy.get(), &mgr, &reg, f.wl.queries, sim);
  };

  SimResult greedy = run_with_manager(
      [&](StateRegistry* reg, LayoutManager* mgr, int def) {
        return std::make_unique<GreedyStrategy>(reg, mgr, def);
      });
  SimResult regret = run_with_manager(
      [&](StateRegistry* reg, LayoutManager* /*mgr*/, int def) {
        return std::make_unique<RegretStrategy>(reg, opts.alpha, def);
      });
  Oreo oreo(&f.ds.table, &gen, f.ds.time_column, opts);
  SimResult oreo_result = oreo.Run(f.wl.queries);

  EXPECT_GE(greedy.num_switches, oreo_result.num_switches);
  EXPECT_LE(regret.query_cost, regret.total_cost());
  // Greedy pays the least query cost among strategies sharing candidates.
  EXPECT_LE(greedy.query_cost, regret.query_cost * 1.2);
}

TEST(IntegrationTest, MtsOptimalAndOfflineOptimalOrdering) {
  // Offline Optimal (full workload knowledge, instant switches) lower-bounds
  // the query cost of MTS-Optimal over the same per-template state space.
  Fixture f = MakeFixture("tpch", 15000, 2000, 5, 19);
  QdTreeGenerator gen;
  Rng rng(23);
  Table sample = f.ds.table.SampleRows(800, &rng);

  StateRegistry reg;
  std::vector<int> tpl_states = BuildPerTemplateStates(
      f.ds.table, sample, f.ds.templates, gen, 16, 100, 29, &reg);

  SimOptions sim;
  sim.alpha = 40.0;

  OfflineOptimalStrategy offline(tpl_states, &f.wl);
  SimResult off = RunSimulation(&offline, nullptr, &reg, f.wl.queries, sim);

  mts::DumtsOptions dopts;
  dopts.alpha = sim.alpha;
  dopts.gamma = 1.0;
  dopts.seed = 31;
  MtsOptimalStrategy mts_opt(&reg, tpl_states,
                             tpl_states[static_cast<size_t>(
                                 f.wl.queries.front().template_id)],
                             dopts);
  SimResult mts_result =
      RunSimulation(&mts_opt, nullptr, &reg, f.wl.queries, sim);

  EXPECT_LE(off.query_cost, mts_result.query_cost * 1.05);
  // Offline switches exactly at template changes: segments - 1.
  EXPECT_EQ(off.num_switches,
            static_cast<int64_t>(f.wl.segment_starts.size()) - 1);
}

TEST(IntegrationTest, PhysicalReplayAgreesWithLogicalTrace) {
  namespace fs = std::filesystem;
  Fixture f = MakeFixture("telemetry", 8000, 1200, 4, 37);
  QdTreeGenerator gen;
  OreoOptions opts = SmallOpts();
  opts.max_states = 6;
  Oreo oreo(&f.ds.table, &gen, f.ds.time_column, opts);
  SimResult sim = oreo.Run(f.wl.queries, /*record_trace=*/true);

  std::string dir = testutil::ScratchDir("integration_replay");
  auto replay = ReplayPhysical(f.ds.table, oreo.registry(), sim, f.wl.queries,
                               /*stride=*/50, dir);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->num_switches, sim.num_switches);
  EXPECT_GT(replay->query_seconds, 0.0);
  fs::remove_all(dir);
}

TEST(IntegrationTest, StreamingWithBackgroundPhysicalReorganization) {
  // The full production loop: OREO makes decisions online; a background
  // worker rewrites the table into each adopted layout while queries keep
  // being served (correctly) from a snapshot of whatever is on disk.
  namespace fs = std::filesystem;
  Fixture f = MakeFixture("telemetry", 6000, 900, 3, 47);
  QdTreeGenerator gen;
  OreoOptions opts = SmallOpts();
  opts.max_states = 6;
  Oreo oreo(&f.ds.table, &gen, f.ds.time_column, opts);

  std::string dir = testutil::ScratchDir("integration_bg");
  PhysicalStore store(dir);
  ASSERT_TRUE(store
                  .MaterializeLayout(f.ds.table,
                                     oreo.registry().Get(oreo.default_state()))
                  .ok());
  ReorgPool bg;

  int64_t reorgs_submitted = 0;
  for (const Query& q : f.wl.queries) {
    StepResult step = oreo.Step(q);
    if (step.reorganized) {
      // One background rewrite at a time: drain the previous one first.
      bg.Wait(0);
      store.Vacuum();
      ASSERT_TRUE(bg.Submit(testutil::RewriteJob(
          &store, &f.ds.table, &oreo.registry().Get(step.state))));
      ++reorgs_submitted;
    }
    if (q.id % 60 == 0) {
      // Queries are served from the current on-disk snapshot, which may lag
      // the logical decision — results must be exact either way.
      PhysicalStore::Snapshot snap = store.GetSnapshot();
      auto exec = testutil::ScanSnapshot(store, snap, q);
      ASSERT_TRUE(exec.ok()) << exec.status().ToString();
      EXPECT_EQ(exec->matches, CountMatches(f.ds.table, q));
    }
  }
  bg.Wait(0);
  store.Vacuum();
  EXPECT_TRUE(bg.last_status(0).ok() || reorgs_submitted == 0);
  EXPECT_EQ(bg.stats().completed, reorgs_submitted);
  fs::remove_all(dir);
}

TEST(IntegrationTest, HigherAlphaNeverIncreasesSwitchCount) {
  // Figure 5's monotone trend: more expensive reorganization -> fewer (or
  // equal) layout changes.
  Fixture f = MakeFixture("tpch", 12000, 2000, 5, 41);
  QdTreeGenerator gen;
  auto switches_at = [&](double alpha) {
    OreoOptions opts = SmallOpts(alpha);
    Oreo oreo(&f.ds.table, &gen, f.ds.time_column, opts);
    return oreo.Run(f.wl.queries).num_switches;
  };
  int64_t low = switches_at(10.0);
  int64_t high = switches_at(400.0);
  EXPECT_GE(low, high);
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  Fixture f = MakeFixture("tpcds", 10000, 1500, 4, 43);
  QdTreeGenerator gen;
  OreoOptions opts = SmallOpts();
  Oreo a(&f.ds.table, &gen, f.ds.time_column, opts);
  Oreo b(&f.ds.table, &gen, f.ds.time_column, opts);
  SimResult ra = a.Run(f.wl.queries);
  SimResult rb = b.Run(f.wl.queries);
  EXPECT_DOUBLE_EQ(ra.query_cost, rb.query_cost);
  EXPECT_EQ(ra.num_switches, rb.num_switches);
}

}  // namespace
}  // namespace core
}  // namespace oreo
