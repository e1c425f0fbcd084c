// End-to-end RunValuation pipeline tests.
#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/checkpointing.h"
#include "data/image_sim.h"
#include "data/noise.h"
#include "data/partition.h"
#include "metrics/metrics.h"
#include "models/logistic.h"

namespace comfedsv {
namespace {

struct Workload {
  std::vector<Dataset> clients;
  Dataset test;
};

Workload MakeWorkload(int num_clients, uint64_t seed) {
  SimulatedImageConfig cfg;
  cfg.num_samples = 60 * num_clients + 100;
  cfg.seed = seed;
  Dataset pool = GenerateSimulatedImages(cfg);
  Rng rng(seed + 1);
  auto [train_pool, test] = pool.RandomSplit(0.25, &rng);
  return {PartitionIid(train_pool, num_clients, &rng), std::move(test)};
}

ValuationRequest DefaultRequest() {
  ValuationRequest req;
  req.compute_fedsv = true;
  req.compute_comfedsv = true;
  req.comfedsv.completion.rank = 4;
  req.comfedsv.completion.lambda = 1e-4;
  req.compute_ground_truth = true;
  return req;
}

FedAvgConfig FedConfig(int rounds, int per_round, uint64_t seed) {
  FedAvgConfig cfg;
  cfg.num_rounds = rounds;
  cfg.clients_per_round = per_round;
  cfg.lr = LearningRateSchedule::Constant(0.3);
  cfg.seed = seed;
  return cfg;
}

TEST(PipelineTest, ComputesAllRequestedMetrics) {
  Workload w = MakeWorkload(5, 71);
  LogisticRegression model(w.test.dim(), 10);
  Result<ValuationOutcome> outcome =
      RunValuation(model, w.clients, w.test, FedConfig(5, 2, 73),
                   DefaultRequest());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const ValuationOutcome& o = outcome.value();
  ASSERT_TRUE(o.fedsv_values.has_value());
  ASSERT_TRUE(o.comfedsv.has_value());
  ASSERT_TRUE(o.ground_truth_values.has_value());
  EXPECT_EQ(o.fedsv_values->size(), 5u);
  EXPECT_EQ(o.comfedsv->values.size(), 5u);
  EXPECT_EQ(o.ground_truth_values->size(), 5u);
  EXPECT_GT(o.fedsv_stats.loss_calls, 0);
  EXPECT_GT(o.comfedsv->stats.loss_calls, 0);
  EXPECT_GT(o.ground_truth_loss_calls, o.comfedsv->stats.loss_calls);
  EXPECT_EQ(o.training.rounds_run, 5);
}

TEST(PipelineTest, SubsetsOfMetricsCanBeRequested) {
  Workload w = MakeWorkload(4, 75);
  LogisticRegression model(w.test.dim(), 10);
  ValuationRequest req;
  req.compute_fedsv = true;
  req.compute_comfedsv = false;
  req.compute_ground_truth = false;
  Result<ValuationOutcome> outcome = RunValuation(
      model, w.clients, w.test, FedConfig(3, 2, 77), req);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome.value().fedsv_values.has_value());
  EXPECT_FALSE(outcome.value().comfedsv.has_value());
  EXPECT_FALSE(outcome.value().ground_truth_values.has_value());
}

TEST(PipelineTest, RequiresAssumption1ForFullComFedSv) {
  Workload w = MakeWorkload(4, 79);
  LogisticRegression model(w.test.dim(), 10);
  FedAvgConfig cfg = FedConfig(3, 2, 81);
  cfg.select_all_first_round = false;
  Result<ValuationOutcome> outcome =
      RunValuation(model, w.clients, w.test, cfg, DefaultRequest());
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition);
}

TEST(PipelineTest, SampledModeWorksWithoutAssumption1Requirement) {
  Workload w = MakeWorkload(5, 83);
  LogisticRegression model(w.test.dim(), 10);
  FedAvgConfig cfg = FedConfig(4, 2, 85);
  // Keep Assumption 1 on (Algorithm 1 requires it for observability),
  // but use the sampled pipeline and no ground truth.
  ValuationRequest req;
  req.compute_fedsv = false;
  req.compute_comfedsv = true;
  req.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
  req.comfedsv.num_permutations = 50;
  req.comfedsv.completion.rank = 3;
  req.comfedsv.completion.lambda = 1e-4;
  req.compute_ground_truth = false;
  Result<ValuationOutcome> outcome =
      RunValuation(model, w.clients, w.test, cfg, req);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome.value().comfedsv.has_value());
  EXPECT_GT(outcome.value().comfedsv->num_columns, 0);
  EXPECT_LT(outcome.value().comfedsv->observed_density, 1.0);
}

TEST(PipelineTest, RejectsEmptyClientList) {
  Workload w = MakeWorkload(3, 87);
  LogisticRegression model(w.test.dim(), 10);
  Result<ValuationOutcome> outcome = RunValuation(
      model, {}, w.test, FedConfig(3, 2, 89), DefaultRequest());
  EXPECT_FALSE(outcome.ok());
}

TEST(PipelineTest, DeterministicAcrossRuns) {
  Workload w = MakeWorkload(4, 91);
  LogisticRegression model(w.test.dim(), 10);
  ValuationRequest req = DefaultRequest();
  req.compute_ground_truth = false;
  Result<ValuationOutcome> a = RunValuation(
      model, w.clients, w.test, FedConfig(4, 2, 93), req);
  Result<ValuationOutcome> b = RunValuation(
      model, w.clients, w.test, FedConfig(4, 2, 93), req);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(*a.value().fedsv_values == *b.value().fedsv_values);
  EXPECT_TRUE(a.value().comfedsv->values == b.value().comfedsv->values);
}

TEST(PipelineTest, NoisyClientRanksLowInGroundTruth) {
  // Quality-detection smoke test: corrupt one client's labels heavily;
  // the ground-truth valuation should rank it at (or near) the bottom.
  Workload w = MakeWorkload(5, 95);
  Rng rng(97);
  FlipLabels(&w.clients[2], 0.9, &rng);
  LogisticRegression model(w.test.dim(), 10);
  ValuationRequest req;
  req.compute_fedsv = false;
  req.compute_comfedsv = false;
  req.compute_ground_truth = true;
  Result<ValuationOutcome> outcome = RunValuation(
      model, w.clients, w.test, FedConfig(8, 3, 99), req);
  ASSERT_TRUE(outcome.ok());
  const Vector& values = *outcome.value().ground_truth_values;
  std::vector<int> bottom = BottomKIndices(values, 2);
  EXPECT_TRUE(bottom[0] == 2 || bottom[1] == 2)
      << "noisy client not in bottom 2";
}

// A resume under a changed config is refused, field by field. Every
// CompletionConfig field that shapes the solve feeds RequestFingerprint,
// so a checkpoint saved under the old value fails with
// FailedPrecondition. verify_fused_objective is excluded by design: it
// only cross-checks the objective and never changes a value. A changed
// round-log encoding is refused through the engine fingerprint.
TEST(PipelineTest, ResumeRefusesEveryChangedCompletionFieldAndEncoding) {
  struct Case {
    const char* field;
    void (*perturb)(CompletionConfig*);
  };
  const Case cases[] = {
      {"rank", [](CompletionConfig* c) { c->rank += 1; }},
      {"lambda", [](CompletionConfig* c) { c->lambda *= 2.0; }},
      {"max_iters", [](CompletionConfig* c) { c->max_iters += 1; }},
      {"tolerance", [](CompletionConfig* c) { c->tolerance *= 10.0; }},
      {"solver",
       [](CompletionConfig* c) { c->solver = CompletionSolver::kCcd; }},
      {"init_scale", [](CompletionConfig* c) { c->init_scale = 0.5; }},
      {"temporal_smoothing",
       [](CompletionConfig* c) { c->temporal_smoothing = 0.1; }},
      {"seed", [](CompletionConfig* c) { c->seed += 1; }},
  };

  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "core_pipeline_resume_refusal";
  fs::remove_all(dir);
  fs::create_directories(dir);
  Workload w = MakeWorkload(3, 101);
  LogisticRegression model(w.test.dim(), 10);
  const FedAvgConfig fed = FedConfig(3, 2, 103);
  ValuationRequest request = DefaultRequest();
  request.compute_ground_truth = false;
  request.comfedsv.completion.max_iters = 20;
  CheckpointConfig ckpt;
  ckpt.path = (dir / "run.ckpt").string();
  ckpt.round_log_path = (dir / "run.log").string();
  ckpt.inject_crash_after_round = 2;
  ASSERT_EQ(RunValuationCheckpointed(model, w.clients, w.test, fed, request,
                                     ckpt)
                .status()
                .code(),
            StatusCode::kInternal);
  ckpt.inject_crash_after_round = -1;

  const uint64_t base = RequestFingerprint(request);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.field);
    ValuationRequest changed = request;
    c.perturb(&changed.comfedsv.completion);
    EXPECT_NE(RequestFingerprint(changed), base);
    EXPECT_EQ(RunValuationCheckpointed(model, w.clients, w.test, fed,
                                       changed, ckpt)
                  .status()
                  .code(),
              StatusCode::kFailedPrecondition);
  }
  CheckpointConfig recoded = ckpt;
  recoded.round_log_compression = RoundLogCompression::kQuant16;
  EXPECT_EQ(RunValuationCheckpointed(model, w.clients, w.test, fed, request,
                                     recoded)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  ValuationRequest verified = request;
  verified.comfedsv.completion.verify_fused_objective = true;
  EXPECT_EQ(RequestFingerprint(verified), base);
  Result<ValuationOutcome> resumed = RunValuationCheckpointed(
      model, w.clients, w.test, fed, verified, ckpt);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed.value().checkpoint_health->resumed_sequence, 2u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace comfedsv
