#include "common.h"

#include <cstdio>
#include <filesystem>

#include "common/logging.h"

namespace oreo {
namespace bench {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "1";
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : std::stoll(it->second);
}

double Flags::GetDouble(const std::string& name, double def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : std::stod(it->second);
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

Scale Scale::FromFlags(const Flags& flags) {
  Scale s;
  if (flags.Has("full")) {
    s.rows = 200000;  // queries already default to the paper's 30k
  }
  if (flags.Has("quick")) {
    s.rows = 20000;
    s.queries = 6000;
    s.segments = 10;
  }
  s.rows = static_cast<size_t>(flags.GetInt("rows", static_cast<int64_t>(s.rows)));
  s.queries =
      static_cast<size_t>(flags.GetInt("queries", static_cast<int64_t>(s.queries)));
  s.segments = static_cast<size_t>(
      flags.GetInt("segments", static_cast<int64_t>(s.segments)));
  s.seed = static_cast<uint64_t>(flags.GetInt("seed", static_cast<int64_t>(s.seed)));
  s.segment_pool = static_cast<size_t>(
      flags.GetInt("pool", static_cast<int64_t>(s.segment_pool)));
  return s;
}

Fixture MakeFixture(const std::string& dataset, const Scale& scale) {
  Fixture f{workloads::MakeDataset(dataset, scale.rows, scale.seed), {}};
  workloads::WorkloadOptions wopts;
  // The paper's telemetry workload is 24k queries vs 30k for TPC-H/DS; keep
  // the proportion when running at full scale.
  wopts.num_queries =
      (dataset == "telemetry") ? scale.queries * 4 / 5 : scale.queries;
  wopts.num_segments = scale.segments;
  wopts.segment_pool_size = scale.segment_pool;
  wopts.seed = scale.seed + 1;
  f.wl = workloads::GenerateWorkload(f.ds.templates, wopts);
  return f;
}

core::OreoOptions DefaultOreoOptions(const Scale& scale) {
  core::OreoOptions o;
  o.alpha = 80.0;
  o.epsilon = 0.08;
  o.gamma = 1.0;
  o.window_size = 200;
  o.generate_every = 200;
  o.target_partitions = 24;
  o.max_states = 16;
  o.dataset_sample_rows = std::min<size_t>(2000, scale.rows / 10 + 1);
  o.seed = scale.seed + 5;
  return o;
}

namespace {

Table DatasetSample(const Fixture& f, const core::OreoOptions& opts,
                    uint64_t seed) {
  Rng rng(seed);
  return f.ds.table.SampleRows(opts.dataset_sample_rows, &rng);
}

std::vector<Query> SubsampledWorkload(const Fixture& f, size_t max_queries) {
  std::vector<Query> out;
  size_t stride = std::max<size_t>(1, f.wl.queries.size() / max_queries);
  for (size_t i = 0; i < f.wl.queries.size(); i += stride) {
    out.push_back(f.wl.queries[i]);
  }
  return out;
}

}  // namespace

core::SimResult RunStatic(const Fixture& f, const LayoutGenerator& gen,
                          const core::OreoOptions& opts, bool record_trace) {
  core::StateRegistry reg;
  Table sample = DatasetSample(f, opts, opts.seed + 17);
  // Static sees the entire workload; build from a uniform subsample to keep
  // construction tractable (the paper builds from query predicates likewise).
  std::vector<Query> wl_sample = SubsampledWorkload(f, 1500);
  auto layout = gen.Generate(sample, wl_sample, opts.target_partitions);
  int id = reg.Add(Materialize(
      "static:" + gen.name(), std::shared_ptr<const Layout>(std::move(layout)),
      f.ds.table));
  core::StaticStrategy strategy(id);
  core::SimOptions sim;
  sim.alpha = opts.alpha;
  sim.record_trace = record_trace;
  return core::RunSimulation(&strategy, nullptr, &reg, f.wl.queries, sim);
}

core::SimResult RunOreo(const Fixture& f, const LayoutGenerator& gen,
                        const core::OreoOptions& opts, bool record_trace,
                        core::StateRegistry* out_registry) {
  (void)out_registry;
  core::Oreo oreo(&f.ds.table, &gen, f.ds.time_column, opts);
  return oreo.Run(f.wl.queries, record_trace);
}

namespace {

struct TemplateStates {
  core::StateRegistry registry;
  std::vector<int> states;
};

std::unique_ptr<TemplateStates> BuildTemplateStates(
    const Fixture& f, const LayoutGenerator& gen,
    const core::OreoOptions& opts) {
  auto ts = std::make_unique<TemplateStates>();
  Table sample = DatasetSample(f, opts, opts.seed + 23);
  ts->states = core::BuildPerTemplateStates(
      f.ds.table, sample, f.ds.templates, gen, opts.target_partitions,
      /*queries_per_template=*/200, opts.seed + 29, &ts->registry);
  return ts;
}

}  // namespace

core::SimResult RunMtsOptimal(const Fixture& f, const LayoutGenerator& gen,
                              const core::OreoOptions& opts,
                              bool record_trace) {
  auto ts = BuildTemplateStates(f, gen, opts);
  mts::DumtsOptions dopts;
  dopts.alpha = opts.alpha;
  dopts.gamma = opts.gamma;
  dopts.seed = opts.seed;
  int initial = ts->states[static_cast<size_t>(
      f.wl.queries.front().template_id)];
  core::MtsOptimalStrategy strategy(&ts->registry, ts->states, initial, dopts);
  core::SimOptions sim;
  sim.alpha = opts.alpha;
  sim.record_trace = record_trace;
  return core::RunSimulation(&strategy, nullptr, &ts->registry, f.wl.queries,
                             sim);
}

core::SimResult RunOfflineOptimal(const Fixture& f, const LayoutGenerator& gen,
                                  const core::OreoOptions& opts,
                                  bool record_trace) {
  auto ts = BuildTemplateStates(f, gen, opts);
  core::OfflineOptimalStrategy strategy(ts->states, &f.wl);
  core::SimOptions sim;
  sim.alpha = opts.alpha;
  sim.record_trace = record_trace;
  return core::RunSimulation(&strategy, nullptr, &ts->registry, f.wl.queries,
                             sim);
}

void PrintRow(const std::string& label, const core::SimResult& r) {
  std::printf("%-16s query=%10.1f  reorg=%9.1f  total=%10.1f  switches=%4lld\n",
              label.c_str(), r.query_cost, r.reorg_cost, r.total_cost(),
              static_cast<long long>(r.num_switches));
}

std::string DefaultScratchDir(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("oreo_" + name)).string();
}

void EmitBenchJson(const Flags& flags, const std::string& name,
                   const std::string& json) {
  std::fputs(json.c_str(), stdout);
  const std::string out = flags.GetString("out", "BENCH_" + name + ".json");
  if (out.empty()) return;
  std::FILE* f = std::fopen(out.c_str(), "w");
  OREO_CHECK(f != nullptr) << "cannot open " << out;
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", out.c_str());
}

}  // namespace bench
}  // namespace oreo
