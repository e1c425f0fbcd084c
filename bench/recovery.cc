// Crash-recovery bench: what the durable checkpoint pipeline costs and
// what it buys.
//
// Three sections, all on the same streaming-valuation workload:
//
//   * write_overhead — per-save wall cost of the PR-5 single-file path
//     (WriteCheckpointFile straight to one destination) vs the
//     CheckpointManager keeping one generation (keep_generations=1,
//     rotation) and three (keep_generations=3, rotation + pruning). The
//     claim: rotation's durability upgrade costs a small constant factor
//     per save, not a new asymptotic.
//   * salvage — corrupt the newest of >= 2 retained generations in a
//     different byte each trial and recover. The claim: salvage success
//     rate is 100% — the corrupt generation is quarantined and the run
//     resumes from the next-newest, every time.
//   * recovery — kill the "process" mid-save at each instrumented I/O
//     operation (failpoint kCrash), then measure the reboot path:
//     orphan sweep + salvage load + engine restore, in wall seconds.
//
// Writes BENCH_recovery.json (schema documented in README.md).
#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "core/streaming.h"
#include "io/checkpoint_manager.h"
#include "io/file_env.h"

namespace comfedsv {
namespace bench {
namespace {

struct Scenario {
  Workload w;
  FedAvgConfig fed;
  StreamingConfig streaming;
  int num_clients = 0;
};

Scenario MakeScenario(bool full_scale) {
  Scenario s;
  WorkloadOptions opt;
  opt.num_clients = full_scale ? 10 : 6;
  opt.samples_per_client = full_scale ? 120 : 60;
  opt.seed = 5;
  s.w = MakeWorkload(PaperDataset::kSynthetic, opt);
  s.num_clients = opt.num_clients;

  s.fed.num_rounds = full_scale ? 16 : 8;
  s.fed.clients_per_round = std::max(2, opt.num_clients / 3);
  s.fed.select_all_first_round = true;
  s.fed.lr = LearningRateSchedule::Constant(0.1);
  s.fed.seed = 11;

  s.streaming.request.compute_fedsv = true;
  s.streaming.request.fedsv.mode = FedSvConfig::Mode::kMonteCarlo;
  s.streaming.request.fedsv.permutations_per_round = 6;
  s.streaming.request.fedsv.seed = 12;
  s.streaming.request.compute_comfedsv = true;
  s.streaming.request.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
  s.streaming.request.comfedsv.num_permutations = full_scale ? 16 : 8;
  s.streaming.request.comfedsv.completion.rank = 3;
  s.streaming.request.comfedsv.completion.lambda = 1e-2;
  s.streaming.request.comfedsv.completion.max_iters = 200;
  s.streaming.request.comfedsv.seed = 13;
  s.streaming.resolve_cadence = 1;
  return s;
}

std::unique_ptr<StreamingValuationEngine> NewEngine(const Scenario& s) {
  return std::make_unique<StreamingValuationEngine>(
      s.w.model.get(), &s.w.test, s.num_clients, s.streaming);
}

CheckpointManagerOptions Options(int keep, FileEnv* env = nullptr) {
  CheckpointManagerOptions options;
  options.keep_generations = keep;
  options.max_retries = 1;
  options.retry_backoff_ms = 0;
  options.env = env;
  return options;
}

/// Feeds every round >= `first_round` into the engine, calling `save`
/// after each; returns false if `stop_when_crashed` saw the environment
/// die (the forward run "was killed").
template <typename SaveFn>
bool Drive(const Scenario& s, StreamingValuationEngine* engine,
           int first_round, const SaveFn& save,
           FaultInjectingFileEnv* fault = nullptr) {
  FedAvgTrainer trainer(s.w.model.get(), s.w.clients, s.w.test, s.fed);
  COMFEDSV_CHECK_OK(trainer.Begin());
  while (!trainer.Done()) {
    const RoundRecord& record = trainer.Step();
    if (record.round < first_round) continue;
    engine->OnRound(record);
    save(engine, record.round);
    if (fault != nullptr && fault->crashed()) return false;
  }
  return true;
}

// -- write_overhead ----------------------------------------------------

struct WritePath {
  const char* name;
  int keep;  ///< 0 = raw WriteCheckpointFile, no manager (the PR-5 path)
};

void WriteOverhead(const Scenario& s, const std::string& dir,
                   BenchJsonWriter* json) {
  const WritePath paths[] = {
      {"pr5_single_file", 0},
      {"manager_keep1", 1},
      {"manager_rotated", 3},
  };
  double pr5_avg_ms = 0.0;
  for (const WritePath& path : paths) {
    const std::string stem = dir + "/" + path.name + ".ckpt";
    CheckpointManager manager(stem, Options(std::max(path.keep, 1)));
    auto engine = NewEngine(s);
    double save_seconds = 0.0;
    double bytes = 0.0;
    int saves = 0;
    Drive(s, engine.get(), 0,
          [&](StreamingValuationEngine* e, int /*round*/) {
            Stopwatch timer;
            if (path.keep == 0) {
              BinaryWriter payload;
              e->SaveState(&payload);
              bytes = static_cast<double>(payload.buffer().size());
              COMFEDSV_CHECK_OK(WriteCheckpointFile(
                  stem, ChunkTag::kStreamingEngineState, payload.buffer()));
            } else {
              COMFEDSV_CHECK_OK(e->SaveCheckpoint(&manager));
            }
            save_seconds += timer.ElapsedSeconds();
            ++saves;
          });
    const double avg_ms = 1e3 * save_seconds / std::max(saves, 1);
    if (path.keep == 0) pr5_avg_ms = avg_ms;
    json->BeginRecord();
    json->Field("section", "write_overhead");
    json->Field("path", path.name);
    json->Field("keep_generations", static_cast<double>(path.keep));
    json->Field("saves", static_cast<double>(saves));
    json->Field("total_save_seconds", save_seconds);
    json->Field("avg_save_ms", avg_ms);
    json->Field("payload_bytes_final", bytes);
    json->Field("overhead_vs_pr5",
                pr5_avg_ms > 0.0 ? avg_ms / pr5_avg_ms : 1.0);
    std::printf("write  %-16s keep=%d  %2d saves  avg %.3f ms/save  "
                "(%.2fx vs pr5)\n",
                path.name, path.keep, saves, avg_ms,
                pr5_avg_ms > 0.0 ? avg_ms / pr5_avg_ms : 1.0);
  }
}

// -- salvage -----------------------------------------------------------

void SalvageRate(const Scenario& s, const std::string& root,
                 bool full_scale, BenchJsonWriter* json) {
  namespace fs = std::filesystem;
  const int trials = full_scale ? 16 : 8;
  const int keep = 3;
  int successes = 0;
  double retained_min = keep;
  for (int trial = 0; trial < trials; ++trial) {
    const std::string dir = root + "/salvage_" + std::to_string(trial);
    fs::create_directories(dir);
    const std::string stem = dir + "/stream.ckpt";
    {
      CheckpointManager manager(stem, Options(keep));
      auto engine = NewEngine(s);
      Drive(s, engine.get(), 0,
            [&](StreamingValuationEngine* e, int /*round*/) {
              COMFEDSV_CHECK_OK(e->SaveCheckpoint(&manager));
            });
    }
    // Corrupt a different byte of the newest generation each trial —
    // header, sequence field, payload head, payload tail all get hit
    // across the sweep of trials.
    CheckpointManager manager(stem, Options(keep));
    auto generations = manager.ListGenerations();
    retained_min =
        std::min(retained_min, static_cast<double>(generations.size()));
    const std::string newest = generations.back().second;
    Result<std::string> bytes = FileEnv::Real()->ReadFile(newest);
    COMFEDSV_CHECK_OK(bytes.status());
    std::string corrupted = bytes.value();
    const size_t pos =
        (corrupted.size() / trials) * trial % corrupted.size();
    corrupted[pos] ^= 0x5A;
    COMFEDSV_CHECK_OK(FileEnv::Real()->WriteFile(newest, corrupted));

    Stopwatch timer;
    auto engine = NewEngine(s);
    const bool recovered = engine->RestoreCheckpoint(&manager).ok();
    if (recovered) ++successes;
    json->BeginRecord();
    json->Field("section", "salvage");
    json->Field("trial", static_cast<double>(trial));
    json->Field("corrupted_byte", static_cast<double>(pos));
    json->Field("recovered", recovered);
    json->Field("quarantined",
                static_cast<double>(manager.quarantined_total()));
    json->Field("resumed_round",
                static_cast<double>(engine->rounds_consumed()));
    json->Field("recovery_seconds", timer.ElapsedSeconds());
  }
  const double rate = static_cast<double>(successes) / trials;
  json->BeginRecord();
  json->Field("section", "salvage");
  json->Field("summary", true);
  json->Field("trials", static_cast<double>(trials));
  json->Field("retained_generations", retained_min);
  json->Field("salvage_success_rate", rate);
  std::printf("salvage  %d/%d trials recovered (rate %.2f, >= %.0f "
              "generations retained)\n",
              successes, trials, rate, retained_min);
}

// -- recovery ----------------------------------------------------------

void RecoveryLatency(const Scenario& s, const std::string& root,
                     BenchJsonWriter* json) {
  namespace fs = std::filesystem;
  struct CrashPoint {
    const char* label;
    const char* failpoint;
    FaultAction action;
    int64_t arg;
    int kill_round;
  };
  const int mid = s.fed.num_rounds / 2;
  // The torn rename strikes the *last* save: no later clean save papers
  // over it, so recovery must quarantine the husk and salvage.
  const CrashPoint points[] = {
      {"write_file", failpoints::kWriteFile, FaultAction::kCrash, 9, mid},
      {"sync_file", failpoints::kSyncFile, FaultAction::kCrash, 0, mid},
      {"rename", failpoints::kRename, FaultAction::kCrash, 0, mid},
      {"sync_dir", failpoints::kSyncDir, FaultAction::kCrash, 0, mid},
      {"torn_rename", failpoints::kRename, FaultAction::kTornRename, 11,
       s.fed.num_rounds - 1},
  };
  int recovered_count = 0;
  double total_ms = 0.0, max_ms = 0.0;
  for (const CrashPoint& point : points) {
    const std::string dir = root + "/crash_" + point.label;
    fs::create_directories(dir);
    const std::string stem = dir + "/stream.ckpt";
    FaultInjectingFileEnv fault;
    {
      CheckpointManager manager(stem, Options(3, &fault));
      auto doomed = NewEngine(s);
      Drive(s, doomed.get(), 0,
            [&](StreamingValuationEngine* e, int round) {
              if (round == point.kill_round) {
                FailpointRegistry::Global().Arm(
                    point.failpoint, FailpointTrigger::OnHit(1),
                    static_cast<int>(point.action), point.arg);
              }
              (void)e->SaveCheckpoint(&manager);
            },
            &fault);
    }
    FailpointRegistry::Global().ClearAll();
    fault.ClearCrash();

    // The reboot path, timed end to end: sweep + salvage load + restore.
    Stopwatch timer;
    CheckpointManager manager(stem, Options(3, &fault));
    Result<int> swept = manager.SweepOrphans();
    auto engine = NewEngine(s);
    const bool recovered = engine->RestoreCheckpoint(&manager).ok();
    const double ms = 1e3 * timer.ElapsedSeconds();
    if (recovered) ++recovered_count;
    total_ms += ms;
    max_ms = std::max(max_ms, ms);
    json->BeginRecord();
    json->Field("section", "recovery");
    json->Field("crash_point", point.label);
    json->Field("recovered", recovered);
    json->Field("recovery_ms", ms);
    json->Field("resumed_round",
                static_cast<double>(engine->rounds_consumed()));
    json->Field("orphans_swept", static_cast<double>(swept.value_or(0)));
    json->Field("quarantined",
                static_cast<double>(manager.quarantined_total()));
    std::printf("crash @ %-12s recovered=%d  resumed at round %2d  "
                "%.3f ms  (%d orphans, %lld quarantined)\n",
                point.label, recovered ? 1 : 0, engine->rounds_consumed(),
                ms, swept.value_or(0),
                static_cast<long long>(manager.quarantined_total()));
  }
  const int num_points = static_cast<int>(std::size(points));
  json->BeginRecord();
  json->Field("section", "recovery");
  json->Field("summary", true);
  json->Field("crash_points", static_cast<double>(num_points));
  json->Field("salvage_success_rate",
              static_cast<double>(recovered_count) / num_points);
  json->Field("mean_recovery_ms", total_ms / num_points);
  json->Field("max_recovery_ms", max_ms);
  std::printf("recovery  %d/%d crash points recovered, mean %.3f ms, "
              "max %.3f ms\n",
              recovered_count, num_points, total_ms / num_points, max_ms);
}

}  // namespace
}  // namespace bench
}  // namespace comfedsv

int main(int argc, char** argv) {
  using namespace comfedsv::bench;
  namespace fs = std::filesystem;
  const bool full = FullScale(argc, argv);
  PrintHeader("crash recovery",
              "checkpoint write overhead vs the single-file path, salvage "
              "success under per-trial corruption, and crash-to-recovered "
              "latency at every instrumented I/O operation",
              full);
  const Scenario s = MakeScenario(full);
  const std::string root = "bench_recovery_scratch";
  fs::remove_all(root);
  fs::create_directories(root);

  BenchJsonWriter json("recovery");
  json.Meta("scale", full ? "full" : "reduced");
  json.Meta("rounds", static_cast<double>(s.fed.num_rounds));
  json.Meta("clients", static_cast<double>(s.num_clients));
  WriteOverhead(s, root, &json);
  SalvageRate(s, root, full, &json);
  RecoveryLatency(s, root, &json);

  fs::remove_all(root);
  return json.WriteFile() ? 0 : 1;
}
