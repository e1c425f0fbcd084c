#include "workloads.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

namespace perfbench {

using namespace comfedsv;

bool Tally::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
  }
  return ok;
}

bool Tally::Check(const Status& status, const std::string& what) {
  return Check(status.ok(), what + (status.ok() ? "" : ": " +
                                                       status.ToString()));
}

namespace {

bool BitIdentical(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

bool BitIdentical(const Values& a, const Values& b) {
  return BitIdentical(a.fedsv, b.fedsv) &&
         BitIdentical(a.comfedsv, b.comfedsv);
}

namespace {

// Runs `fn` inside a span when the run is traced.
template <typename F>
decltype(auto) Call(const RunEnv& env, const char* name, F&& fn) {
  if (env.tracer != nullptr) return env.tracer->Trace(name, fn);
  return fn();
}

// FedSV Monte-Carlo plus sampled ComFedSV on one trajectory, with the
// O(K log K) / O(N log N) permutation budgets of the paper's Sec. VI-E
// and VII-D, completing the utility matrix at rank 3.
ValuationRequest MakeRequest(uint64_t seed) {
  ValuationRequest req;
  req.compute_fedsv = true;
  req.fedsv.mode = FedSvConfig::Mode::kMonteCarlo;
  req.fedsv.permutations_per_round = 0;
  req.fedsv.seed = seed + 2;
  req.compute_comfedsv = true;
  req.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
  req.comfedsv.num_permutations = 0;
  req.comfedsv.completion.rank = 3;
  req.comfedsv.completion.lambda = 1e-4;
  // The paper's problem (9) without temporal smoothing, whose ALS
  // objective only decreases; with a zero tolerance every solve then runs
  // all 60 sweeps, so the work of a run does not depend on how fast one
  // seed's data happens to converge.
  req.comfedsv.completion.temporal_smoothing = 0.0;
  req.comfedsv.completion.tolerance = 0.0;
  req.comfedsv.completion.max_iters = 60;
  req.comfedsv.seed = seed + 3;
  return req;
}

FedAvgConfig MakeFedAvg(uint64_t seed, int rounds, int per_round,
                        double lr) {
  FedAvgConfig fed;
  fed.num_rounds = rounds;
  fed.clients_per_round = per_round;
  fed.select_all_first_round = true;  // Assumption 1
  fed.lr = LearningRateSchedule::Constant(lr);
  fed.seed = seed + 1;
  return fed;
}

// Simulated images split IID over `clients`, plus a fresh test draw.
void MakeImageData(ImageFamily family, int clients, int per_client,
                   int test_samples, uint64_t seed, Inputs* in) {
  SimulatedImageConfig cfg;
  cfg.family = family;
  cfg.image_side = 8;
  cfg.num_samples = clients * per_client;
  cfg.seed = seed;
  Dataset pool = GenerateSimulatedImages(cfg);
  cfg.num_samples = test_samples;
  cfg.seed = seed ^ 0x7E57ULL;
  in->test = GenerateSimulatedImages(cfg);
  Rng rng(seed ^ 0xBE4C4ULL);
  in->clients = PartitionIid(pool, clients, &rng);
}

RunOutput FromOutcome(const ValuationOutcome& out, Tally* tally) {
  RunOutput run;
  if (!tally->Check(out.fedsv_values.has_value() && out.comfedsv.has_value(),
                    "outcome carries FedSV and ComFedSV values")) {
    return run;
  }
  run.values = {*out.fedsv_values, out.comfedsv->values};
  run.loss_calls =
      out.fedsv_stats.loss_calls + out.comfedsv->stats.loss_calls;
  run.memo_hits = out.fedsv_stats.memo_hits + out.comfedsv->stats.memo_hits;
  return run;
}

// Re-values the spilled round log and checks it reproduces the live
// values bit for bit.
void Replay(const Inputs& in, const RunEnv& env, const std::string& log_path,
            const Values& live) {
  RoundLogReadOptions read;
  read.env = env.env;
  Result<ValuationOutcome> replayed = Call(env, "RunValuationFromLog", [&] {
    return RunValuationFromLog(*env.model, in.test,
                               static_cast<int>(in.clients.size()), log_path,
                               in.request, read, env.ctx);
  });
  if (!env.tally->Check(replayed.status(), "RunValuationFromLog")) return;
  Tally ignore;
  RunOutput values = FromOutcome(replayed.value(), &ignore);
  env.tally->Check(BitIdentical(values.values, live),
                   "replayed values equal live values bit for bit");
}

std::string MakeDir(const std::string& path) {
  std::filesystem::create_directories(path);
  return path;
}

class Fig8Mlp : public Workload {
 public:
  std::string name() const override { return "fig8-mlp"; }

  Inputs Setup(uint64_t seed, bool quick) const override {
    Inputs in;
    MakeImageData(ImageFamily::kMnist, 60, 30, 100, seed, &in);
    in.model = std::make_unique<Mlp>(std::vector<size_t>{64, 32, 10}, 1e-4);
    in.fed = MakeFedAvg(seed, quick ? 2 : 6, 18, 0.3);
    in.request = MakeRequest(seed);
    return in;
  }

  RunOutput Run(const Inputs& in, const RunEnv& env) const override {
    std::vector<Dataset> clients = in.clients;
    Dataset test = in.test;
    Result<ValuationOutcome> out = Call(env, "RunValuation", [&] {
      return RunValuation(*env.model, std::move(clients), std::move(test),
                          in.fed, in.request, env.ctx);
    });
    if (!env.tally->Check(out.status(), "RunValuation")) return {};
    return FromOutcome(out.value(), env.tally);
  }
};

class StreamLogistic : public Workload {
 public:
  static constexpr int kCheckpointEvery = 5;

  std::string name() const override { return "stream-logistic"; }

  Inputs Setup(uint64_t seed, bool quick) const override {
    Inputs in;
    const int clients = 30;
    const int per_client = 60;
    const int holdout = 5;  // per client, pooled into the test set
    SyntheticConfig cfg;
    cfg.num_clients = clients;
    cfg.samples_per_client = per_client + holdout;
    cfg.dim = 60;
    cfg.num_classes = 10;
    cfg.alpha = 1.0;
    cfg.beta = 1.0;
    cfg.seed = seed;
    Rng rng(seed ^ 0xBE4C4ULL);
    std::vector<Dataset> tests;
    for (Dataset& d : GenerateSyntheticFederated(cfg)) {
      auto [train, test] = d.RandomSplit(
          static_cast<double>(holdout) / cfg.samples_per_client, &rng);
      in.clients.push_back(std::move(train));
      tests.push_back(std::move(test));
    }
    std::vector<const Dataset*> parts;
    for (const Dataset& t : tests) parts.push_back(&t);
    in.test = Dataset::Concat(parts);
    in.model = std::make_unique<LogisticRegression>(60, 10, 1e-3);
    in.fed = MakeFedAvg(seed, quick ? 12 : 60, 9, 0.3);
    in.request = MakeRequest(seed);
    return in;
  }

  RunOutput Run(const Inputs& in, const RunEnv& env) const override {
    Tally& tally = *env.tally;
    const int n = static_cast<int>(in.clients.size());
    FedAvgTrainer trainer(env.model, in.clients, in.test, in.fed, env.ctx);

    StreamingConfig config;
    config.request = in.request;
    config.resolve_cadence = 1;
    config.warm_start = true;
    config.spill.enabled = true;
    config.spill.path = MakeDir(env.workdir + "/log") + "/rounds.log";
    config.spill.env = env.env;
    StreamingValuationEngine engine(env.model, &trainer.test_data(), n,
                                    config, env.ctx);
    CheckpointManagerOptions options;
    options.keep_generations = 2;
    options.env = env.env;
    CheckpointManager manager(MakeDir(env.workdir + "/ckpt") + "/engine",
                              options);

    if (!tally.Check(Call(env, "FedAvgTrainer::Begin",
                          [&] { return trainer.Begin(); }),
                     "FedAvgTrainer::Begin")) {
      return {};
    }
    std::vector<double> update_ms;
    int64_t snapshot_sweeps = 0;
    while (!trainer.Done()) {
      const RoundRecord& record = Call(
          env, "FedAvgTrainer::Step",
          [&]() -> const RoundRecord& { return trainer.Step(); });
      const Clock::time_point handed = Clock::now();
      Call(env, "StreamingValuationEngine::OnRound",
           [&] { engine.OnRound(record); });
      const int64_t stale = engine.health().stale_snapshots;
      Result<ValuationOutcome> snapshot =
          Call(env, "StreamingValuationEngine::Snapshot",
               [&] { return engine.Snapshot(); });
      if (tally.Check(snapshot.status(),
                      "StreamingValuationEngine::Snapshot") &&
          snapshot.value().comfedsv.has_value()) {
        snapshot_sweeps += snapshot.value().comfedsv->completion.iterations;
      }
      tally.Check(engine.health().stale_snapshots == stale,
                  "snapshot served from a fresh solve");
      if (trainer.next_round() % kCheckpointEvery == 0) {
        tally.Check(Call(env, "StreamingValuationEngine::SaveCheckpoint",
                         [&] { return engine.SaveCheckpoint(&manager); }),
                    "StreamingValuationEngine::SaveCheckpoint");
      }
      update_ms.push_back(Seconds(handed, Clock::now()) * 1e3);
    }
    tally.Check(Call(env, "StreamingValuationEngine::SyncSpill",
                     [&] { return engine.SyncSpill(); }),
                "StreamingValuationEngine::SyncSpill");
    tally.Check(Call(env, "FedAvgTrainer::Finish",
                     [&] { return trainer.Finish(); })
                    .status(),
                "FedAvgTrainer::Finish");
    Result<ValuationOutcome> final_outcome =
        Call(env, "StreamingValuationEngine::Finalize",
             [&] { return engine.Finalize(); });
    if (!tally.Check(final_outcome.status(),
                     "StreamingValuationEngine::Finalize")) {
      return {};
    }
    const StreamingHealth& health = engine.health();
    tally.Check(health.checkpoint_failures == 0 &&
                    health.spill_failures == 0 &&
                    health.stale_snapshots == 0 && !health.degraded,
                "engine health reports no failures");

    RunOutput run = FromOutcome(final_outcome.value(), &tally);
    run.update_ms = std::move(update_ms);
    run.snapshot_sweeps = snapshot_sweeps;
    Replay(in, env, config.spill.path, run.values);
    return run;
  }
};

class DurableCnn : public Workload {
 public:
  std::string name() const override { return "durable-cnn"; }

  Inputs Setup(uint64_t seed, bool quick) const override {
    Inputs in;
    MakeImageData(ImageFamily::kCifar10, 20, 30, 40, seed, &in);
    CnnConfig cnn;
    cnn.image_side = 8;
    cnn.channels = 3;
    cnn.num_filters = 6;
    cnn.num_classes = 10;
    cnn.l2_penalty = 1e-4;
    in.model = std::make_unique<Cnn>(cnn);
    in.fed = MakeFedAvg(seed, quick ? 4 : 20, 6, 0.1);
    in.request = MakeRequest(seed);
    return in;
  }

  RunOutput Run(const Inputs& in, const RunEnv& env) const override {
    CheckpointConfig checkpoint;
    checkpoint.path = MakeDir(env.workdir + "/ckpt") + "/run";
    checkpoint.every_rounds = 1;
    checkpoint.resume = false;
    checkpoint.keep_generations = 2;
    checkpoint.env = env.env;
    checkpoint.round_log_path =
        MakeDir(env.workdir + "/log") + "/rounds.log";

    std::vector<Dataset> clients = in.clients;
    Dataset test = in.test;
    Result<ValuationOutcome> out =
        Call(env, "RunValuationCheckpointed", [&] {
          return RunValuationCheckpointed(*env.model, std::move(clients),
                                          std::move(test), in.fed,
                                          in.request, checkpoint, env.ctx);
        });
    if (!env.tally->Check(out.status(), "RunValuationCheckpointed")) {
      return {};
    }
    const std::optional<CheckpointHealth>& health =
        out.value().checkpoint_health;
    env.tally->Check(health.has_value() && !health->degraded &&
                         health->write_failures == 0 &&
                         health->round_log_failures == 0 &&
                         health->round_log_rounds == in.fed.num_rounds,
                     "checkpoint health reports every round durable");
    RunOutput run = FromOutcome(out.value(), env.tally);
    Replay(in, env, checkpoint.round_log_path, run.values);
    return run;
  }
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "fig8-mlp") return std::make_unique<Fig8Mlp>();
  if (name == "stream-logistic") return std::make_unique<StreamLogistic>();
  if (name == "durable-cnn") return std::make_unique<DurableCnn>();
  return nullptr;
}

Values Breakdown(const Inputs& in, const RunEnv& env,
                 CompletionProbe* probe) {
  Tally& tally = *env.tally;
  const int n = static_cast<int>(in.clients.size());
  FedAvgTrainer trainer(env.model, in.clients, in.test, in.fed, env.ctx);
  FedSvEvaluator fedsv(env.model, &trainer.test_data(), n, in.request.fedsv,
                       env.ctx);
  ComFedSvEvaluator comfedsv(env.model, &trainer.test_data(), n,
                             in.request.comfedsv, env.ctx);
  if (!tally.Check(Call(env, "FedAvgTrainer::Begin",
                        [&] { return trainer.Begin(); }),
                   "FedAvgTrainer::Begin")) {
    return {};
  }
  while (!trainer.Done()) {
    const RoundRecord& record =
        Call(env, "FedAvgTrainer::Step",
             [&]() -> const RoundRecord& { return trainer.Step(); });
    Call(env, "FedSvEvaluator::OnRound", [&] { fedsv.OnRound(record); });
    Call(env, "ComFedSvEvaluator::OnRound",
         [&] { comfedsv.OnRound(record); });
  }
  tally.Check(
      Call(env, "FedAvgTrainer::Finish", [&] { return trainer.Finish(); })
          .status(),
      "FedAvgTrainer::Finish");
  Result<ComFedSvOutput> finalized = Call(
      env, "ComFedSvEvaluator::Finalize", [&] { return comfedsv.Finalize(); });
  if (!tally.Check(finalized.status(), "ComFedSvEvaluator::Finalize")) {
    return {};
  }

  ObservationSet observations =
      Call(env, "SampledUtilityRecorder::BuildObservations",
           [&] { return comfedsv.sampled_recorder()->BuildObservations(); });
  const Clock::time_point start = Clock::now();
  Result<CompletionResult> solved = Call(env, "CompleteMatrix", [&] {
    return CompleteMatrix(observations, in.request.comfedsv.completion,
                          env.ctx);
  });
  probe->solve_s = Seconds(start, Clock::now());
  if (tally.Check(solved.status(), "CompleteMatrix")) {
    probe->sweeps = solved.value().iterations;
    probe->observed_entries = static_cast<int64_t>(observations.size());
    tally.Check(solved.value().objective ==
                    finalized.value().completion.objective,
                "CompleteMatrix objective equals the one Finalize reported");
  }
  return {fedsv.values(), finalized.value().values};
}

}  // namespace perfbench
