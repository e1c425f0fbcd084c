// perfbench: the end-to-end valuation benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--quick] [--write-reference] [--git-sha <sha>]
//             [--source-digest <hex>]
//
// Untraced (--trace 0): times the set-up (input generation from the seed
// plus context creation) for a second, then repeats the workload for about
// --seconds seconds, each repetition a run on one thread and a run on all
// cores, and reports the end-to-end metrics as medians. Traced
// (--trace 1): repeats an untraced run, the same run under the tracing
// decorators, and a call-by-call breakdown of the same trajectory, and
// reports the per-layer metrics.
//
// Every run checks its outputs: identical values on 1 and all threads,
// across repetitions, with and without the decorators, between a log
// replay and the live run, and within the stored tolerance of the
// reference values at the reference seed. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The exit code is 1 when any check failed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Relative to the repository root, where the benchmark runs: the
// directory for run records and the working directories of runs, and the
// stored reference values.
constexpr char kOutDir[] = ".bench_out";
constexpr char kReferencePath[] = "perfbench/reference.txt";

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;
  bool write_reference = false;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Options* o) {
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--quick") {
      o->quick = true;
    } else if (arg == "--write-reference") {
      o->write_reference = true;
    } else if (!has_value) {
      return false;
    } else if (arg == "--workload") {
      o->workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed") {
      o->seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      o->seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      o->trace = std::atoi(argv[++i]) != 0;
    } else if (arg == "--git-sha") {
      o->git_sha = argv[++i];
    } else if (arg == "--source-digest") {
      o->source_digest = argv[++i];
    } else {
      return false;
    }
  }
  return have_workload && have_seed && o->seconds > 0;
}

// ---------------------------------------------------------------------------
// Statistics

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

struct ProcessTimes {
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};

ProcessTimes ReadProcess() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(usage.ru_utime) + secs(usage.ru_stime),
          static_cast<double>(usage.ru_maxrss) / 1024.0};
}

// CPU time the hypervisor gave to other guests while this machine's CPUs
// wanted to run (the "steal" column of /proc/stat), summed over all CPUs;
// 0 where it is not reported.
double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double field = 0.0, steal = 0.0;
  stat >> cpu;
  for (int i = 0; i < 8 && stat >> field; ++i) steal = field;
  return cpu == "cpu" ? steal / static_cast<double>(sysconf(_SC_CLK_TCK))
                      : 0.0;
}

// ---------------------------------------------------------------------------
// Metadata

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Isa() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  std::string isa;
  if (__builtin_cpu_supports("avx2")) isa += " avx2";
  if (__builtin_cpu_supports("avx512f")) isa += " avx512f";
  return isa.empty() ? "none" : isa.substr(1);
#else
  return "unknown";
#endif
}

std::string MetadataJson(const Options& o, int threads) {
  std::ostringstream out;
  out << "{\"workload\": " << JsonString(o.workload)
      << ", \"seed\": " << o.seed << ", \"threads\": " << threads
      << ", \"trace\": " << (o.trace ? 1 : 0)
      << ", \"quick\": " << (o.quick ? "true" : "false")
      << ", \"seconds\": " << o.seconds
      << ", \"git_sha\": " << JsonString(o.git_sha)
      << ", \"source_digest\": " << JsonString(o.source_digest)
      << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
      << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
      << ", \"cxx_flags\": " << JsonString(PERFBENCH_CXX_FLAGS)
      << ", \"cpu_model\": " << JsonString(CpuModel())
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"isa\": " << JsonString(Isa()) << "}";
  return out.str();
}

// ---------------------------------------------------------------------------
// Reference values
//
// Text file, one record per line (lines starting with # are comments):
//   tolerance <relative>
//   seed <reference seed>
//   <workload>[/quick] <fedsv|comfedsv> <count> <value>...

struct Reference {
  double tolerance = 0.0;
  uint64_t seed = 0;
  std::map<std::string, comfedsv::Vector> vectors;
};

bool LoadReference(const std::string& path, Reference* ref) {
  std::ifstream in(path);
  if (!in) return false;
  std::string key;
  while (in >> key) {
    if (key[0] == '#') {
      std::getline(in, key);
      continue;
    }
    if (key == "tolerance") {
      in >> ref->tolerance;
    } else if (key == "seed") {
      in >> ref->seed;
    } else {
      std::string which;
      size_t count = 0;
      in >> which >> count;
      comfedsv::Vector v(count);
      for (size_t i = 0; i < count; ++i) in >> v[i];
      ref->vectors[key + " " + which] = std::move(v);
    }
    if (!in) return false;
  }
  return ref->tolerance > 0.0;
}

// Largest |v_i - r_i| as a share of max_i |r_i|; infinite on a length
// mismatch.
double RelativeError(const comfedsv::Vector& v, const comfedsv::Vector& r) {
  if (v.size() != r.size() || r.size() == 0) return INFINITY;
  double diff = 0.0, scale = 0.0;
  for (size_t i = 0; i < r.size(); ++i) {
    diff = std::max(diff, std::fabs(v[i] - r[i]));
    scale = std::max(scale, std::fabs(r[i]));
  }
  return scale > 0.0 ? diff / scale : diff;
}

void AppendReference(const std::string& path, const std::string& key,
                     const Values& values) {
  std::ofstream out(path, std::ios::app);
  auto write = [&](const char* which, const comfedsv::Vector& v) {
    out << key << " " << which << " " << v.size();
    char buf[40];
    for (size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), " %.17g", v[i]);
      out << buf;
    }
    out << "\n";
  };
  write("fedsv", values.fedsv);
  write("comfedsv", values.comfedsv);
}

// ---------------------------------------------------------------------------
// Runs

class Bench {
 public:
  // Set-up takes milliseconds: it is repeated for at least this long (and
  // at least kMinSetups times) and reported as the median.
  static constexpr double kSetupSeconds = 1.0;
  static constexpr int kMinSetups = 25;

  Bench(Options options, const Workload* workload, int threads)
      : o_(std::move(options)), workload_(workload), threads_(threads) {
    workdir_ = std::string(kOutDir) + "/work-" + workload_->name() + "-" +
               std::to_string(getpid());
  }
  ~Bench() {
    std::error_code ignored;
    std::filesystem::remove_all(workdir_, ignored);
  }

  Tally& tally() { return tally_; }

  // A fresh, empty working directory for one run.
  void CleanWorkdir() {
    std::error_code ignored;
    std::filesystem::remove_all(workdir_, ignored);
    std::filesystem::create_directories(workdir_);
  }

  // Runs the workload once in a fresh working directory and returns its
  // wall time. A traced run is wrapped in a root span, whose id is
  // stored in `*root`.
  double RunOnce(const Inputs& in, const comfedsv::Model* model,
                 comfedsv::ExecutionContext* ctx, RunOutput* out,
                 comfedsv::FileEnv* env = nullptr, Tracer* tracer = nullptr,
                 int* root = nullptr) {
    CleanWorkdir();
    const RunEnv run_env{model, ctx, env, tracer, workdir_, &tally_};
    const Clock::time_point start = Clock::now();
    if (tracer != nullptr) {
      *root = tracer->Begin("workload:" + workload_->name());
    }
    *out = workload_->Run(in, run_env);
    if (tracer != nullptr) tracer->End(*root);
    return Seconds(start, Clock::now());
  }

  // Runs the workload at the reference seed and compares its values with
  // the stored ones (or stores them with --write-reference).
  void CheckReference() {
    const std::string key =
        workload_->name() + (o_.quick ? std::string("/quick") : "");
    Reference ref;
    const bool loaded = LoadReference(kReferencePath, &ref);
    if (!o_.write_reference &&
        !tally_.Check(loaded, std::string("reference file ") + kReferencePath +
                                  " loads")) {
      return;
    }
    const Inputs in = workload_->Setup(ref.seed, o_.quick);
    comfedsv::ExecutionContext ctx(threads_);
    RunOutput out;
    RunOnce(in, in.model.get(), &ctx, &out);
    if (o_.write_reference) {
      AppendReference(kReferencePath, key, out.values);
      return;
    }
    for (const auto& [which, values] :
         {std::pair<std::string, const comfedsv::Vector*>{"fedsv",
                                                          &out.values.fedsv},
          {"comfedsv", &out.values.comfedsv}}) {
      auto it = ref.vectors.find(key + " " + which);
      const double err = it == ref.vectors.end()
                             ? INFINITY
                             : RelativeError(*values, it->second);
      char what[160];
      std::snprintf(what, sizeof(what),
                    "%s %s values within %.0e of the reference (error %.3g)",
                    key.c_str(), which.c_str(), ref.tolerance, err);
      tally_.Check(err <= ref.tolerance, what);
    }
  }

  bool KeepGoing(int done, int min_iterations, Clock::time_point start,
                 double last_iteration_s) const {
    if (done < min_iterations) return true;
    return Seconds(start, Clock::now()) + last_iteration_s <= o_.seconds;
  }

  // End-to-end metrics from untraced runs.
  std::map<std::string, std::pair<double, std::string>> Untraced() {
    std::vector<double> setup_s;
    Inputs in;
    std::unique_ptr<comfedsv::ExecutionContext> ctx;
    const Clock::time_point setup_start = Clock::now();
    while (static_cast<int>(setup_s.size()) < kMinSetups ||
           Seconds(setup_start, Clock::now()) < kSetupSeconds) {
      ctx.reset();
      in = Inputs();
      const Clock::time_point t = Clock::now();
      in = workload_->Setup(o_.seed, o_.quick);
      ctx = std::make_unique<comfedsv::ExecutionContext>(threads_);
      setup_s.push_back(Seconds(t, Clock::now()));
    }

    std::vector<double> wall_s, wall_1t_s, speedup, steal_s;
    int64_t loss_calls = 0;
    double peak_rss_mb = 0.0;
    Values first;
    const Clock::time_point start = Clock::now();
    double last = 0.0;
    for (int it = 0; KeepGoing(it, o_.quick ? 1 : 3, start, last); ++it) {
      const Clock::time_point begin = Clock::now();
      const double steal_before = StealSeconds();
      RunOutput many, one;
      comfedsv::ExecutionContext inline_ctx(1);
      wall_1t_s.push_back(RunOnce(in, in.model.get(), &inline_ctx, &one));
      // The first workload run of the process is on one thread, so the
      // peak is not inflated by allocator arenas of worker threads, whose
      // size depends on scheduling.
      if (it == 0) peak_rss_mb = ReadProcess().peak_rss_mb;
      wall_s.push_back(RunOnce(in, in.model.get(), ctx.get(), &many));
      // Each repetition's two runs are back to back: their ratio cancels
      // load that drifts between repetitions.
      speedup.push_back(wall_1t_s.back() / wall_s.back());
      steal_s.push_back(StealSeconds() - steal_before);

      tally_.Check(BitIdentical(many.values, one.values) &&
                       many.loss_calls == one.loss_calls,
                   "values identical on 1 and " + std::to_string(threads_) +
                       " threads");
      if (it == 0) {
        first = many.values;
        loss_calls = many.loss_calls;
      } else {
        tally_.Check(BitIdentical(many.values, first) &&
                         many.loss_calls == loss_calls,
                     "values repeat across repetitions");
      }
      last = Seconds(begin, Clock::now());
    }
    samples_ = "\"setup_s\": " + List(setup_s) + ", \"wall_s\": " +
               List(wall_s) + ", \"wall_1t_s\": " + List(wall_1t_s) +
               ", \"thread_speedup\": " + List(speedup) +
               ", \"host_steal_s\": " + List(steal_s);
    return {
        {"setup_s", {Median(setup_s), "s"}},
        {"wall_s", {Median(wall_s), "s"}},
        {"wall_1t_s", {Median(wall_1t_s), "s"}},
        {"thread_speedup", {Median(speedup), "x"}},
        {"loss_calls", {static_cast<double>(loss_calls), "count"}},
        {"peak_rss_mb", {peak_rss_mb, "MB"}},
    };
  }

  // Per-layer metrics from traced runs.
  std::map<std::string, std::pair<double, std::string>> Traced() {
    const Inputs in = workload_->Setup(o_.seed, o_.quick);
    comfedsv::ExecutionContext ctx(threads_);
    Meters meters;
    TracingModel model(in.model.get(), &meters);
    TracingFileEnv env(&meters, workdir_ + "/ckpt");

    std::map<std::string, std::vector<double>> per_iteration;
    std::map<std::string, std::string> units;
    auto put = [&](const std::string& name, double value, const char* unit) {
      per_iteration[name].push_back(value);
      units[name] = unit;
    };

    const Clock::time_point start = Clock::now();
    double last = 0.0;
    for (int it = 0; KeepGoing(it, o_.quick ? 1 : 2, start, last); ++it) {
      const Clock::time_point begin = Clock::now();
      RunOutput plain, traced;
      const double untraced_s = RunOnce(in, in.model.get(), &ctx, &plain);

      Tracer tracer(&meters);
      int run_root = -1;
      const ProcessTimes cpu_before = ReadProcess();
      RunOnce(in, &model, &ctx, &traced, &env, &tracer, &run_root);
      const double cpu_s = ReadProcess().cpu_s - cpu_before.cpu_s;
      tally_.Check(BitIdentical(plain.values, traced.values) &&
                       plain.loss_calls == traced.loss_calls,
                   "tracing decorators leave values bit-identical");

      CompletionProbe probe;
      const int breakdown_root = tracer.Begin("breakdown");
      const Values lifecycle = Breakdown(
          in, RunEnv{&model, &ctx, nullptr, &tracer, workdir_, &tally_},
          &probe);
      tracer.End(breakdown_root);
      tally_.Check(BitIdentical(lifecycle, traced.values),
                   "call-by-call lifecycle reproduces the workload's values");

      const std::vector<Span>& spans = tracer.spans();
      const Span& run = spans[static_cast<size_t>(run_root)];
      const Span& lifecycle_span = spans[static_cast<size_t>(breakdown_root)];
      auto delta = [&](int meter) {
        const MeterReading& a = run.at_start[static_cast<size_t>(meter)];
        const MeterReading& b = run.at_end[static_cast<size_t>(meter)];
        return MeterReading{b.calls - a.calls, b.amount - a.amount,
                            b.busy_s - a.busy_s};
      };
      // Sum of durations (or self times) of spans named `name` under
      // the root `root`'s subtree (spans are recorded in preorder).
      auto sum = [&](int root, const std::string& name, bool self) {
        double total = 0.0;
        const Span& r = spans[static_cast<size_t>(root)];
        for (const Span& s : spans) {
          if (s.id <= root || s.start_s > r.end_s || s.name != name) continue;
          total += self ? tracer.SelfSeconds(s.id) : s.duration();
        }
        return total;
      };
      auto children = [&](int root) {
        double total = 0.0;
        for (const Span& s : spans) {
          if (s.parent == root) total += s.duration();
        }
        return total;
      };

      const MeterReading batch = delta(kBatchLoss);
      const MeterReading loss = delta(kLoss);
      const MeterReading grad = delta(kGrad);
      put("models.batch_loss_s", batch.busy_s, "s");
      put("models.batch_loss_calls", static_cast<double>(batch.calls), "count");
      put("models.batch_loss_rows", static_cast<double>(batch.amount), "count");
      put("models.us_per_row",
          batch.amount > 0 ? batch.busy_s * 1e6 / batch.amount : 0.0, "us");
      put("models.loss_s", loss.busy_s, "s");
      put("models.loss_calls", static_cast<double>(loss.calls), "count");
      put("models.grad_s", grad.busy_s, "s");
      put("models.grad_calls", static_cast<double>(grad.calls), "count");

      const char* kStep = "FedAvgTrainer::Step";
      const char* kFedSv = "FedSvEvaluator::OnRound";
      const char* kRecord = "ComFedSvEvaluator::OnRound";
      put("fl.step_s", sum(breakdown_root, kStep, false), "s");
      put("fl.step_self_s", sum(breakdown_root, kStep, true), "s");
      put("shapley.fedsv_round_s", sum(breakdown_root, kFedSv, false), "s");
      put("shapley.fedsv_self_s", sum(breakdown_root, kFedSv, true), "s");
      put("shapley.memo_hits", static_cast<double>(traced.memo_hits), "count");
      const double lookups =
          static_cast<double>(traced.memo_hits + traced.loss_calls);
      put("shapley.memo_hit_ratio",
          lookups > 0 ? static_cast<double>(traced.memo_hits) / lookups : 0.0,
          "ratio");
      put("core.record_round_s", sum(breakdown_root, kRecord, false), "s");
      put("core.record_self_s", sum(breakdown_root, kRecord, true), "s");
      put("core.finalize_s",
          sum(breakdown_root, "ComFedSvEvaluator::Finalize", false), "s");
      put("core.snapshot_s",
          sum(run_root, "StreamingValuationEngine::Snapshot", false), "s");
      put("core.snapshot_sweeps", static_cast<double>(traced.snapshot_sweeps),
          "count");
      put("core.update_ms_p50", Quantile(traced.update_ms, 0.5), "ms");
      put("core.update_ms_p90", Quantile(traced.update_ms, 0.9), "ms");
      put("core.replay_s", sum(run_root, "RunValuationFromLog", false), "s");

      put("completion.solve_s", probe.solve_s, "s");
      put("completion.sweeps", probe.sweeps, "count");
      put("completion.observed_entries",
          static_cast<double>(probe.observed_entries), "count");
      const double entry_sweeps =
          static_cast<double>(probe.observed_entries) * probe.sweeps;
      put("completion.us_per_entry_sweep",
          entry_sweeps > 0 ? probe.solve_s * 1e6 / entry_sweeps : 0.0, "us");

      const MeterReading write = delta(kIoWrite);
      const MeterReading sync = delta(kIoSync);
      const MeterReading read = delta(kIoRead);
      put("io.write_bytes", static_cast<double>(write.amount), "bytes");
      put("io.write_s", write.busy_s, "s");
      put("io.sync_count", static_cast<double>(sync.calls), "count");
      put("io.sync_s", sync.busy_s, "s");
      put("io.read_bytes", static_cast<double>(read.amount), "bytes");
      put("io.read_s", read.busy_s, "s");
      put("io.checkpoint_save_s", delta(kIoCheckpoint).busy_s, "s");

      put("process.cpu_s", cpu_s, "s");
      put("process.parallel_efficiency",
          cpu_s / (run.duration() * threads_), "ratio");
      put("trace.coverage",
          (children(run_root) + children(breakdown_root)) /
              (run.duration() + lifecycle_span.duration()),
          "ratio");
      put("trace.overhead", run.duration() / untraced_s, "ratio");

      spans_json_ = tracer.ToJson();
      last = Seconds(begin, Clock::now());
    }

    std::map<std::string, std::pair<double, std::string>> metrics;
    std::string samples;
    for (const auto& [name, values] : per_iteration) {
      metrics[name] = {Median(values), units[name]};
      samples += (samples.empty() ? "" : ", ") + JsonString(name) + ": " +
                 List(values);
    }
    samples_ = samples;
    return metrics;
  }

  const std::string& samples() const { return samples_; }
  const std::string& spans_json() const { return spans_json_; }

  static std::string List(const std::vector<double>& v) {
    std::string out = "[";
    char buf[40];
    for (size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.9g", i ? ", " : "", v[i]);
      out += buf;
    }
    return out + "]";
  }

 private:
  Options o_;
  const Workload* workload_;
  int threads_;
  std::string workdir_;
  Tally tally_;
  std::string samples_;
  std::string spans_json_;
};

std::string FormatValue(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--quick] "
                 "[--write-reference] [--git-sha <sha>] "
                 "[--source-digest <hex>]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(o.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  const int threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const std::string meta = MetadataJson(o, threads);
  std::printf("perfbench meta %s\n", meta.c_str());
  std::fflush(stdout);

  Bench bench(o, workload.get(), threads);
  const auto metrics = o.trace ? bench.Traced() : bench.Untraced();
  bench.CheckReference();

  const Tally& tally = bench.tally();
  for (const auto& [name, value] : metrics) {
    std::printf("perfbench %-32s %.6g %s\n", name.c_str(), value.first,
                value.second.c_str());
  }
  std::printf("perfbench error_rate %.6g (%lld failed of %lld attempted)\n",
              tally.attempted() > 0
                  ? static_cast<double>(tally.failed()) / tally.attempted()
                  : 0.0,
              static_cast<long long>(tally.failed()),
              static_cast<long long>(tally.attempted()));

  std::string metrics_json;
  for (const auto& [name, value] : metrics) {
    metrics_json += (metrics_json.empty() ? "" : ", ") + JsonString(name) +
                    ": {\"value\": " + FormatValue(value.first) +
                    ", \"unit\": " + JsonString(value.second) + "}";
  }
  const bool correct = tally.failed() == 0;
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, ",
                correct ? "true" : "false",
                static_cast<long long>(tally.attempted()),
                static_cast<long long>(tally.failed()));
  const std::string result =
      std::string(head) + "\"metrics\": {" + metrics_json + "}}";

  // The record of this run: metadata, every sample, and (traced) the
  // spans of the last repetition.
  std::filesystem::create_directories(kOutDir);
  const std::string record_path = std::string(kOutDir) + "/" + o.workload +
                                  "-seed" + std::to_string(o.seed) +
                                  (o.trace ? "-trace.json" : ".json");
  std::ofstream record(record_path);
  record << "{\"meta\": " << meta << ",\n \"result\": " << result
         << ",\n \"samples\": {" << bench.samples() << "}";
  if (o.trace) record << ",\n \"spans\": " << bench.spans_json();
  record << "}\n";

  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
