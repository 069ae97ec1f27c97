// The end-to-end benchmark binary. It runs one named workload through the
// served path (LoopbackClient -> OreoServer admission, FairScheduler and
// batch formation -> OreoEngine decide -> PhysicalStore scan and
// reorganize, ingest -> storage tier), checks every reply, and prints one
// JSON report as the last line of standard output.
//
//   e2e_bench --workload tpch_scan --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with no probe installed. The
// run serves whole rounds of a fixed number of independent streams drawn
// from its seed, each stream once per round, while the time budget lasts.
// A repeat sees identical inputs, so it must decide identically too.
// --trace 1 measures the per-layer breakdown:
// one plain served pass, one traced served pass (backend decorator and
// batch-start hook), and a direct replay of the traced pass's batches (see
// tracing.h). --scale tiny shrinks every size for the self-test, and
// --corrupt-expected makes one expected answer wrong so the self-test can
// prove that the output check fires.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/simd.h"
#include "inputs.h"
#include "served.h"
#include "tracing.h"

namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

// Set-ups a measured run times just before each stream of its first round.
// Each costs tens of milliseconds. On a shared host set-up runs about 40%
// slower through spells that last seconds, so set-ups timed back to back
// all land in one spell, and their median flips between the two speeds
// from run to run. setup_s is therefore the median of each group, averaged
// over the groups: like queries_per_s, it averages over the whole run.
constexpr size_t kSetupsPerStream = 5;

// Seed of a run's k-th stream; runs at different seeds share no stream.
uint64_t StreamSeed(const WorkloadSpec& spec, uint64_t seed, size_t stream) {
  return seed * spec.streams + stream;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt_expected = false;
};

bool ParseUnsigned(const std::string& text, uint64_t* out) {
  if (text.empty() || text.size() > 18 ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

// Accepts "--key value" and "--key=value".
bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--corrupt-expected") {
      args->corrupt_expected = true;
      continue;
    }
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *error = "missing value for " + key;
      return false;
    }
    uint64_t number = 0;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed" && ParseUnsigned(value, &number)) {
      args->seed = number;
    } else if (key == "--seconds" && ParseUnsigned(value, &number) &&
               number > 0) {
      args->seconds = static_cast<double>(number);
    } else if (key == "--trace" && (value == "0" || value == "1")) {
      args->trace = value == "1";
    } else if (key == "--scale" && (value == "full" || value == "tiny")) {
      args->tiny = value == "tiny";
    } else {
      *error = "bad argument: " + key + " " + value;
      return false;
    }
  }
  if (args->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, p in (0, 1].
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<size_t>(rank, 1)) - 1];
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// The report: the four keys every run prints, plus run metadata.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Quote(name) + ": {\"value\": " +
                       Number(value) + ", \"unit\": " + Quote(unit) + "}");
  }
  void Meta(const std::string& key, double value) {
    meta_.push_back(Quote(key) + ": " + Number(value));
  }
  void Meta(const std::string& key, const std::string& value) {
    meta_.push_back(Quote(key) + ": " + Quote(value));
  }
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Errors(const std::vector<std::string>& errors) {
    errors_.insert(errors_.end(), errors.begin(), errors.end());
  }
  void Error(std::string error) { errors_.push_back(std::move(error)); }
  bool correct() const { return errors_.empty() && attempted_ > 0; }

  // Errors go to stderr (the first few); the report is one stdout line.
  void Print() const {
    for (size_t i = 0; i < errors_.size() && i < 10; ++i) {
      std::fprintf(stderr, "e2e_bench: check failed: %s\n",
                   errors_[i].c_str());
    }
    if (errors_.size() > 10) {
      std::fprintf(stderr, "e2e_bench: ... %zu checks failed in total\n",
                   errors_.size());
    }
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_) +
           ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      out += (i == 0 ? "" : ", ") + metrics_[i];
    }
    out += "}, \"meta\": {";
    for (size_t i = 0; i < meta_.size(); ++i) {
      out += (i == 0 ? "" : ", ") + meta_[i];
    }
    out += "}}\n";
    std::fputs(out.c_str(), stdout);
    std::fflush(stdout);
  }

 private:
  std::vector<std::string> metrics_;
  std::vector<std::string> meta_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

void RecordConfig(const WorkloadSpec& spec, const Args& args,
                  Report* report) {
  report->Meta("workload", spec.name);
  report->Meta("seed", static_cast<double>(args.seed));
  report->Meta("trace", args.trace ? 1.0 : 0.0);
  report->Meta("scale", args.tiny ? "tiny" : "full");
  report->Meta("build_type", E2E_BUILD_TYPE);
#ifdef NDEBUG
  report->Meta("ndebug", 1.0);
#else
  report->Meta("ndebug", 0.0);
#endif
  report->Meta("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report->Meta("kernel_dispatch", oreo::simd::DispatchDescription());
  report->Meta("threads.load", 1.0);
  report->Meta("threads.dispatchers", static_cast<double>(kDispatchers));
  report->Meta("threads.engine", static_cast<double>(spec.options.num_threads));
  report->Meta("threads.store_per_shard",
               static_cast<double>(spec.physical ? spec.store_threads : 0));
  report->Meta("threads.prefetch", static_cast<double>(spec.prefetch_threads));
  report->Meta("shards", static_cast<double>(spec.options.num_shards));
  report->Meta("rows", static_cast<double>(spec.rows));
  report->Meta("queries", static_cast<double>(spec.queries));
  report->Meta("ingest_frames", static_cast<double>(spec.ingest_frames));
  report->Meta("window", static_cast<double>(kWindow));
  report->Meta("max_batch", static_cast<double>(spec.batch.max_batch));
}

// --trace 0: the end-to-end metrics, no probes installed. One round serves
// each of the spec.streams streams once, so every stream weighs the same in
// the pooled figures. After the first round, another starts only if the
// last one's time predicts it fits the budget.
void Measure(const WorkloadSpec& spec, const Args& args, Report* report) {
  ServedOptions options;
  options.corrupt_expected = args.corrupt_expected;
  std::vector<Inputs> streams;
  for (size_t k = 0; k < spec.streams; ++k) {
    streams.push_back(MakeInputs(spec, StreamSeed(spec, args.seed, k)));
  }
  std::vector<EngineCounters> decided;  // per stream, from the first round
  double setup_s = 0.0;
  std::vector<double> query_ms;
  double queries = 0.0;
  double served_s = 0.0;
  size_t rounds = 0;
  double round_s = 0.0;
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point round_start = Clock::now();
    for (size_t k = 0; k < spec.streams; ++k) {
      if (rounds == 0) {
        std::vector<double> group;
        for (size_t i = 0; i < kSetupsPerStream; ++i) {
          group.push_back(TimeSetup(spec, StreamSeed(spec, args.seed, k)));
        }
        setup_s += Median(group) / static_cast<double>(spec.streams);
      }
      const ServedRun run =
          RunServed(spec, StreamSeed(spec, args.seed, k), streams[k], options);
      query_ms.insert(query_ms.end(), run.query_ms.begin(), run.query_ms.end());
      queries += static_cast<double>(run.queries);
      served_s += run.wall_s;
      report->Count(run.attempted, run.failed);
      report->Errors(run.errors);
      if (rounds == 0) {
        decided.push_back(run.engine);
      } else if (run.engine.total_cost != decided[k].total_cost ||
                 run.engine.switches != decided[k].switches) {
        report->Error("stream " + std::to_string(k) +
                      " decided differently on a repeat of the same inputs");
      }
    }
    ++rounds;
    round_s = Seconds(round_start, Clock::now());
  } while (Seconds(start, Clock::now()) + round_s <= args.seconds);
  const double measured_s = Seconds(start, Clock::now());
  double total_cost = 0.0;
  int64_t switches = 0;
  for (const EngineCounters& e : decided) {
    total_cost += e.total_cost;
    switches += e.switches;
  }

  report->Metric("setup_s", setup_s, "s");
  report->Metric("queries_per_s", Ratio(queries, served_s), "1/s");
  report->Metric("query_p50_ms", Percentile(query_ms, 0.50), "ms");
  report->Metric("query_p99_ms", Percentile(query_ms, 0.99), "ms");
  report->Metric("total_cost", total_cost, "cost");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
  report->Meta("streams", static_cast<double>(spec.streams));
  report->Meta("rounds", static_cast<double>(rounds));
  report->Meta("setups",
               static_cast<double>(spec.streams * kSetupsPerStream));
  report->Meta("query_samples", static_cast<double>(query_ms.size()));
  report->Meta("measured_s", measured_s);
  report->Meta("switches", static_cast<double>(switches));
}

// --trace 1: the per-layer breakdown, on the run's first stream.
void Trace(const WorkloadSpec& spec, const Args& args, Report* report) {
  const uint64_t seed = StreamSeed(spec, args.seed, 0);
  const Inputs in = MakeInputs(spec, seed);
  ServedOptions plain_options;
  plain_options.corrupt_expected = args.corrupt_expected;
  ServedOptions traced_options = plain_options;
  traced_options.traced = true;
  const ServedRun plain = RunServed(spec, seed, in, plain_options);
  const ServedRun traced = RunServed(spec, seed, in, traced_options);
  std::vector<std::string> replay_errors;
  const ReplayResult replay =
      RunReplay(spec, seed, in, traced.batch_sizes, &replay_errors);
  report->Count(plain.attempted + traced.attempted,
                plain.failed + traced.failed);
  report->Errors(plain.errors);
  report->Errors(traced.errors);
  report->Errors(replay_errors);
  // All three passes see the same inputs, so they must decide the same.
  if (traced.engine.total_cost != plain.engine.total_cost ||
      replay.total_cost != plain.engine.total_cost ||
      traced.engine.switches != plain.engine.switches ||
      replay.switches != plain.engine.switches) {
    report->Error("plain, traced and replayed passes decided differently");
  }
  const EngineCounters& e = plain.engine;
  const double queries = static_cast<double>(plain.queries);
  const StorageCounters& io = traced.storage;
  const auto d = [](uint64_t v) { return static_cast<double>(v); };

  report->Metric("server.batches", d(traced.batch_sizes.size()), "count");
  report->Metric("server.queries_per_batch",
                 Ratio(d(traced.attempted), d(traced.batch_sizes.size())),
                 "req/batch");
  report->Metric("server.queue_wait_p50_ms",
                 Percentile(traced.queue_wait_ms, 0.50), "ms");
  report->Metric("server.batch_exec_s", traced.batch_exec_s, "s");
  report->Metric("server.failed_frac", Ratio(d(plain.failed), d(plain.attempted)),
                 "frac");

  report->Metric("core.decide_s", replay.decide_s, "s");
  report->Metric("core.switches", d(e.switches), "count");
  report->Metric("core.cost_evals", d(e.cost_evals), "count");
  report->Metric("core.cost_evals_reused", d(e.cost_evals_reused), "count");
  report->Metric("core.cost_reuse_frac",
                 Ratio(d(e.cost_evals_reused), d(e.cost_evals + e.cost_evals_reused)),
                 "frac");
  report->Metric("mts.phases", d(e.phases), "count");
  report->Metric("mts.max_states", d(e.max_states), "count");
  report->Metric("layout.generate_calls", d(replay.generate_calls), "count");
  report->Metric("layout.generate_s", replay.generate_s, "s");

  report->Metric("physical.scan_s", replay.scan_s, "s");
  report->Metric("physical.partitions_read", d(replay.partitions_read), "count");
  report->Metric("physical.rows_scanned", d(replay.rows_scanned), "count");
  report->Metric("physical.bytes_read", d(replay.bytes_read), "B");
  report->Metric("physical.match_frac",
                 Ratio(d(replay.matches), d(replay.rows_scanned)), "frac");
  report->Metric("physical.rows_scanned_per_s",
                 Ratio(d(replay.rows_scanned), replay.scan_s), "rows/s");
  report->Metric("physical.reorgs", d(replay.reorgs), "count");
  report->Metric("physical.reorg_s", replay.reorg_s, "s");
  report->Metric("physical.stored_bytes_per_row",
                 Ratio(d(e.stored_bytes), d(e.visible_rows)), "B/row");

  report->Metric("ingest.batches", d(replay.ingest_batches), "count");
  report->Metric("ingest.rows_appended", d(replay.rows_appended), "count");
  report->Metric("ingest.rows_deleted", d(replay.rows_deleted), "count");
  report->Metric("ingest.folds", d(replay.folds), "count");
  report->Metric("ingest.apply_s", replay.ingest_apply_s, "s");
  report->Metric("ingest.fold_s", replay.ingest_fold_s, "s");
  report->Metric("ingest.frame_p50_ms", Percentile(plain.ingest_ms, 0.50), "ms");
  report->Metric("ingest.frame_p90_ms", Percentile(plain.ingest_ms, 0.90), "ms");

  report->Metric("storage.reads", d(io.io.reads), "count");
  report->Metric("storage.read_bytes", d(io.io.read_bytes), "B");
  report->Metric("storage.read_s", io.io.read_s, "s");
  report->Metric("storage.writes", d(io.io.writes), "count");
  report->Metric("storage.write_bytes", d(io.io.write_bytes), "B");
  report->Metric("storage.write_s", io.io.write_s, "s");
  report->Metric("storage.read_bytes_per_query",
                 Ratio(d(io.io.read_bytes), queries), "B/query");
  report->Metric("storage.cache_hit_frac",
                 Ratio(d(io.cache_hits), d(io.cache_hits + io.cache_misses)),
                 "frac");
  report->Metric("storage.cache_evictions", d(io.cache_evictions), "count");
  report->Metric("storage.cache_invalidations", d(io.cache_invalidations),
                 "count");
  report->Metric("storage.prefetch_fetches", d(io.prefetch_fetches), "count");
  report->Metric("storage.remote_sleep_s", io.remote_sleep_s, "s");

  // The replay's spans are disjoint on one thread, so their share of its
  // wall time is at most 1; the rest is the replay loop itself.
  const double attributed = replay.decide_s + replay.scan_s + replay.reorg_s +
                            replay.ingest_apply_s + replay.ingest_fold_s;
  report->Metric("trace.untraced_wall_s", plain.wall_s, "s");
  report->Metric("trace.served_wall_s", traced.wall_s, "s");
  report->Metric("trace.overhead_frac", Ratio(traced.wall_s, plain.wall_s) - 1.0,
                 "frac");
  report->Metric("trace.replay_wall_s", replay.wall_s, "s");
  report->Metric("trace.attributed_frac", Ratio(attributed, replay.wall_s),
                 "frac");
  report->Meta("query_samples", static_cast<double>(plain.query_ms.size()));
  report->Meta("ingest_samples", static_cast<double>(plain.ingest_ms.size()));
  report->Meta("queue_wait_samples",
               static_cast<double>(traced.queue_wait_ms.size()));
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Args args;
  std::string error;
  if (!e2e::ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "e2e_bench: %s\n", error.c_str());
    return 2;
  }
  e2e::WorkloadSpec spec;
  if (!e2e::MakeSpec(args.workload, args.tiny, &spec)) {
    std::string known;
    for (const std::string& name : e2e::WorkloadNames()) known += " " + name;
    std::fprintf(stderr, "e2e_bench: unknown workload '%s' (known:%s)\n",
                 args.workload.c_str(), known.c_str());
    return 2;
  }
  e2e::Report report;
  e2e::RecordConfig(spec, args, &report);
  if (args.trace) {
    e2e::Trace(spec, args, &report);
  } else {
    e2e::Measure(spec, args, &report);
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
