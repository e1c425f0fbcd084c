// Google-benchmark microbenchmarks for the kernels the experiments
// stress: dense linear algebra, model gradients, coalition utilities,
// Shapley enumeration, and completion sweeps.
//
// After the registered benchmarks run, main() times the paper hot paths —
// Monte-Carlo permutation sampling, the ALS completion solve and one
// round of the coalition-utility engine (RoundUtility::EvaluateBatch) —
// at 1 thread and at --threads (default 4) on a shared ExecutionContext,
// and writes machine-readable BENCH_micro_kernels.json.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>

#include "bench_common.h"
#include "shapley/utility.h"

namespace comfedsv {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m(i, j) = rng.NextGaussian();
  }
  return m;
}

Dataset RandomData(int samples, int dim, int classes, uint64_t seed) {
  Rng rng(seed);
  Matrix feats(samples, dim);
  std::vector<int> labels(samples);
  for (int i = 0; i < samples; ++i) {
    for (int j = 0; j < dim; ++j) feats(i, j) = rng.NextGaussian();
    labels[i] = static_cast<int>(rng.NextUint64(classes));
  }
  return Dataset(std::move(feats), std::move(labels), classes);
}

void BM_MatrixMultiply(benchmark::State& state) {
  const size_t n = state.range(0);
  Matrix a = RandomMatrix(n, n, 1);
  Matrix b = RandomMatrix(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Matrix::Multiply(a, b));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_MatrixMultiply)->Arg(32)->Arg(64)->Arg(128)->Complexity();

void BM_GramRows(benchmark::State& state) {
  Matrix a = RandomMatrix(state.range(0), 1024, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.GramRows());
  }
}
BENCHMARK(BM_GramRows)->Arg(20)->Arg(50)->Arg(100);

void BM_SingularValues(benchmark::State& state) {
  Matrix a = RandomMatrix(state.range(0), 1024, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SingularValues(a));
  }
}
BENCHMARK(BM_SingularValues)->Arg(20)->Arg(50)->Arg(100);

void BM_LogisticGradient(benchmark::State& state) {
  const int dim = 64;
  LogisticRegression model(dim, 10, 1e-3);
  Dataset data = RandomData(state.range(0), dim, 10, 5);
  Rng rng(6);
  Vector params;
  model.InitializeParams(&params, &rng);
  Vector grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.LossAndGradient(params, data, &grad));
  }
}
BENCHMARK(BM_LogisticGradient)->Arg(100)->Arg(400);

void BM_MlpGradient(benchmark::State& state) {
  Mlp model({64, 32, 10});
  Dataset data = RandomData(state.range(0), 64, 10, 7);
  Rng rng(8);
  Vector params;
  model.InitializeParams(&params, &rng);
  Vector grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.LossAndGradient(params, data, &grad));
  }
}
BENCHMARK(BM_MlpGradient)->Arg(100)->Arg(400);

void BM_CnnGradient(benchmark::State& state) {
  CnnConfig cfg;
  cfg.image_side = 8;
  cfg.channels = 3;
  cfg.num_filters = 6;
  Cnn model(cfg);
  Dataset data = RandomData(state.range(0), 192, 10, 9);
  Rng rng(10);
  Vector params;
  model.InitializeParams(&params, &rng);
  Vector grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.LossAndGradient(params, data, &grad));
  }
}
BENCHMARK(BM_CnnGradient)->Arg(50)->Arg(200);

void BM_MatrixMultiplyTransposedB(benchmark::State& state) {
  const size_t n = state.range(0);
  Matrix a = RandomMatrix(n, 512, 41);
  Matrix b = RandomMatrix(n, 512, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Matrix::MultiplyTransposedB(a, b));
  }
}
BENCHMARK(BM_MatrixMultiplyTransposedB)->Arg(32)->Arg(128);

void BM_PackRowSlices(benchmark::State& state) {
  const size_t batch = state.range(0);
  Matrix params = RandomMatrix(batch, 64 * 10 + 10, 43);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Matrix::PackRowSlices(params, 0, batch, 0, 10, 64));
  }
}
BENCHMARK(BM_PackRowSlices)->Arg(8)->Arg(64);

Matrix StackedParams(const Model& model, int batch, uint64_t seed) {
  Rng rng(seed);
  Matrix rows(batch, model.num_params());
  Vector params;
  for (int b = 0; b < batch; ++b) {
    model.InitializeParams(&params, &rng);
    rows.SetRow(b, params);
  }
  return rows;
}

void BM_BatchLossLogistic(benchmark::State& state) {
  const int batch = state.range(0);
  const int dim = 64;
  LogisticRegression model(dim, 10, 1e-3);
  Dataset data = RandomData(256, dim, 10, 44);
  Matrix rows = StackedParams(model, batch, 45);
  std::vector<double> out;
  for (auto _ : state) {
    model.BatchLoss(rows, data, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BatchLossLogistic)->Arg(1)->Arg(8)->Arg(64);

void BM_ScalarLossLoopLogistic(benchmark::State& state) {
  const int batch = state.range(0);
  const int dim = 64;
  LogisticRegression model(dim, 10, 1e-3);
  Dataset data = RandomData(256, dim, 10, 44);
  Matrix rows = StackedParams(model, batch, 45);
  std::vector<double> out(batch);
  for (auto _ : state) {
    for (int b = 0; b < batch; ++b) out[b] = model.Loss(rows.Row(b), data);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ScalarLossLoopLogistic)->Arg(1)->Arg(8)->Arg(64);

void BM_ExactShapley(benchmark::State& state) {
  const int m = state.range(0);
  std::vector<int> players(m);
  for (int i = 0; i < m; ++i) players[i] = i;
  UtilityFn game = [](const Coalition& c) {
    return static_cast<double>(c.Count() * c.Count());
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactShapley(m, players, game));
  }
}
BENCHMARK(BM_ExactShapley)->Arg(5)->Arg(10)->Arg(15);

void BM_MonteCarloShapley(benchmark::State& state) {
  const int n = state.range(0);
  std::vector<int> players(n);
  for (int i = 0; i < n; ++i) players[i] = i;
  UtilityFn game = [](const Coalition& c) {
    return static_cast<double>(c.Count());
  };
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MonteCarloShapley(n, players, game, 50, &rng));
  }
}
BENCHMARK(BM_MonteCarloShapley)->Arg(20)->Arg(100);

void BM_CompletionAls(benchmark::State& state) {
  // 40 x 512 rank-3 matrix, 20% observed.
  Rng rng(12);
  Matrix a = RandomMatrix(40, 3, 13);
  Matrix b = RandomMatrix(3, 512, 14);
  Matrix truth = Matrix::Multiply(a, b);
  ObservationSet obs(40, 512);
  for (size_t i = 0; i < truth.rows(); ++i) {
    for (size_t j = 0; j < truth.cols(); ++j) {
      if (rng.NextBernoulli(0.2)) {
        obs.Add(static_cast<int>(i), static_cast<int>(j), truth(i, j));
      }
    }
  }
  obs.Finalize();
  CompletionConfig cfg;
  cfg.rank = 3;
  cfg.lambda = 1e-2;
  cfg.max_iters = state.range(0);
  cfg.tolerance = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompleteMatrix(obs, cfg));
  }
}
BENCHMARK(BM_CompletionAls)->Arg(10)->Arg(50);

void BM_CoalitionHashing(benchmark::State& state) {
  const int n = state.range(0);
  Rng rng(15);
  std::vector<Coalition> coalitions;
  for (int i = 0; i < 1000; ++i) {
    Coalition c(n);
    for (int j = 0; j < n; ++j) {
      if (rng.NextBernoulli(0.3)) c.Add(j);
    }
    coalitions.push_back(c);
  }
  for (auto _ : state) {
    size_t acc = 0;
    for (const Coalition& c : coalitions) acc ^= c.Hash();
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_CoalitionHashing)->Arg(10)->Arg(100);

void BM_FedAvgRound(benchmark::State& state) {
  const int n = state.range(0);
  SimulatedImageConfig icfg;
  icfg.num_samples = 40 * n;
  icfg.seed = 16;
  Dataset pool = GenerateSimulatedImages(icfg);
  Rng rng(17);
  auto clients = PartitionIid(pool, n, &rng);
  icfg.num_samples = 100;
  icfg.seed = 18;
  Dataset test = GenerateSimulatedImages(icfg);
  LogisticRegression model(pool.dim(), 10, 1e-3);
  FedAvgConfig cfg;
  cfg.num_rounds = 1;
  cfg.clients_per_round = std::max(2, n / 3);
  cfg.seed = 19;
  for (auto _ : state) {
    FedAvgTrainer trainer(&model, clients, test, cfg);
    benchmark::DoNotOptimize(trainer.Train());
  }
}
BENCHMARK(BM_FedAvgRound)->Arg(10)->Arg(50);

// ---------------------------------------------------------------------
// Thread-scaling section: wall time of the paper's hot paths at 1 and N
// threads, reduced to machine-readable JSON.

// A loss-backed utility game of fig8-like cost: each coalition utility
// evaluates one logistic test loss, as RoundUtility does.
double TimeMonteCarlo(int players, int permutations, ExecutionContext* ctx) {
  const int dim = 64;
  LogisticRegression model(dim, 10, 1e-3);
  Dataset test = RandomData(400, dim, 10, 21);
  Rng rng(22);
  Vector params;
  model.InitializeParams(&params, &rng);

  std::vector<int> ids(players);
  for (int i = 0; i < players; ++i) ids[i] = i;
  UtilityFn game = [&](const Coalition& c) {
    // Perturb one parameter per coalition so evaluations are distinct.
    Vector p = params;
    p[c.Count() % p.size()] += 1e-3;
    return model.Loss(p, test);
  };

  Rng sample_rng(23);
  Stopwatch timer;
  Result<Vector> values =
      MonteCarloShapley(players, ids, game, permutations, &sample_rng,
                        ctx != nullptr ? &ctx->pool() : nullptr);
  COMFEDSV_CHECK_OK(values.status());
  return timer.ElapsedSeconds();
}

double TimeAlsCompletion(int rows, int cols, int iters,
                         ExecutionContext* ctx) {
  Rng rng(24);
  Matrix a = RandomMatrix(rows, 3, 25);
  Matrix b = RandomMatrix(3, cols, 26);
  Matrix truth = Matrix::Multiply(a, b);
  ObservationSet obs(rows, cols);
  for (size_t i = 0; i < truth.rows(); ++i) {
    for (size_t j = 0; j < truth.cols(); ++j) {
      if (rng.NextBernoulli(0.2)) {
        obs.Add(static_cast<int>(i), static_cast<int>(j), truth(i, j));
      }
    }
  }
  obs.Finalize();
  CompletionConfig cfg;
  cfg.rank = 3;
  cfg.lambda = 1e-2;
  cfg.max_iters = iters;
  cfg.tolerance = 0.0;
  Stopwatch timer;
  Result<CompletionResult> result = CompleteMatrix(obs, cfg, ctx);
  COMFEDSV_CHECK_OK(result.status());
  return timer.ElapsedSeconds();
}

// One round of the coalition-utility engine at fig8 scale: MLP
// {64, 32, 10}, 100 test samples, m = 60 selected clients, and the
// distinct prefixes of 10 Monte-Carlo permutations submitted to
// RoundUtility::EvaluateBatch, which aggregates and evaluates them in
// parallel blocks. Best of 3 fresh rounds. `utilities` receives the
// evaluated values so callers can check thread-count invariance.
struct EvaluateBatchTiming {
  double seconds = 0.0;
  int coalitions = 0;
  std::vector<double> utilities;
};

EvaluateBatchTiming TimeEvaluateBatchMlp(ExecutionContext* ctx) {
  const int clients = 60;
  const int permutations = 10;
  Mlp model({64, 32, 10}, 1e-4);
  Dataset test = RandomData(100, 64, 10, 81);
  Rng rng(82);
  RoundRecord record;
  model.InitializeParams(&record.global_before, &rng);
  for (int k = 0; k < clients; ++k) {
    Vector local;
    model.InitializeParams(&local, &rng);
    record.local_models.push_back(std::move(local));
    record.selected.push_back(k);
  }
  record.test_loss_before = model.Loss(record.global_before, test);

  std::vector<Coalition> batch;
  for (int m = 0; m < permutations; ++m) {
    Coalition prefix(clients);
    for (int member : rng.Permutation(clients)) {
      prefix.Add(member);
      batch.push_back(prefix);
    }
  }

  EvaluateBatchTiming timing;
  timing.seconds = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    UtilityStats stats;
    RoundUtility utility(&model, &test, &record, ctx, &stats);
    Stopwatch timer;
    utility.EvaluateBatch(batch);
    timing.seconds = std::min(timing.seconds, timer.ElapsedSeconds());
    timing.coalitions = static_cast<int>(stats.loss_calls);
    timing.utilities.clear();
    for (const Coalition& c : batch) {
      timing.utilities.push_back(utility.Utility(c));
    }
  }
  return timing;
}

// ---------------------------------------------------------------------
// Batched coalition-loss engine: amortized per-coalition cost of
// Model::BatchLoss vs the pre-batching scalar loop (one Model::Loss per
// coalition), single-threaded — the Fig. 8 unit cost. Emitted as
// batch_loss_* records in BENCH_micro_kernels.json.

struct BatchLossResult {
  double seconds_scalar = 0.0;
  double seconds_batched = 0.0;
  bool bit_identical = true;
};

BatchLossResult TimeBatchLoss(const Model& model, const Dataset& data,
                              int batch, uint64_t seed) {
  Matrix rows = StackedParams(model, batch, seed);
  std::vector<double> scalar_out(batch);
  std::vector<double> batched_out;
  auto scalar_pass = [&] {
    for (int b = 0; b < batch; ++b) {
      scalar_out[b] = model.Loss(rows.Row(b), data);
    }
  };
  auto batched_pass = [&] { model.BatchLoss(rows, data, &batched_out); };

  BatchLossResult result;
  result.seconds_scalar = 1e30;
  result.seconds_batched = 1e30;
  scalar_pass();
  batched_pass();  // warm both paths
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch scalar_timer;
    scalar_pass();
    result.seconds_scalar =
        std::min(result.seconds_scalar, scalar_timer.ElapsedSeconds());
    Stopwatch batched_timer;
    batched_pass();
    result.seconds_batched =
        std::min(result.seconds_batched, batched_timer.ElapsedSeconds());
  }
  for (int b = 0; b < batch; ++b) {
    if (batched_out[b] != scalar_out[b]) result.bit_identical = false;
  }
  return result;
}

// Returns false if any batched result diverged from the scalar loop —
// the bit-identity contract; the bench exits nonzero so CI fails.
bool AppendBatchLossRecords(bench::BenchJsonWriter* json) {
  struct Config {
    const char* kernel;
    const char* model;
    int dim;
    int samples;
    int batch;
  };
  // Logistic and MLP: d >= 64 throughout; the large-d rows are where the
  // GEMM dominates the (identical-by-contract) softmax tail. CNN: the
  // CIFAR shape of perfbench's durable-cnn (8x8x3 images, 6 filters, 40
  // test samples), at the block sizes EvaluateBatch hands it.
  const Config configs[] = {
      {"batch_loss_logistic_d64_b64", "logistic", 64, 256, 64},
      {"batch_loss_logistic_d256_b64", "logistic", 256, 256, 64},
      {"batch_loss_logistic_d1024_b64", "logistic", 1024, 256, 64},
      {"batch_loss_logistic_d256_b8", "logistic", 256, 256, 8},
      {"batch_loss_mlp_d192_b64", "mlp", 192, 256, 64},
      {"batch_loss_cnn_8x8x3_f6_b4", "cnn", 192, 40, 4},
      {"batch_loss_cnn_8x8x3_f6_b8", "cnn", 192, 40, 8},
  };
  const int classes = 10;
  bool all_identical = true;
  for (const Config& cfg : configs) {
    Dataset data = RandomData(cfg.samples, cfg.dim, classes, 51);
    std::unique_ptr<Model> model;
    if (std::string(cfg.model) == "logistic") {
      model = std::make_unique<LogisticRegression>(cfg.dim, classes, 1e-3);
    } else if (std::string(cfg.model) == "mlp") {
      model = std::make_unique<Mlp>(
          std::vector<size_t>{static_cast<size_t>(cfg.dim), 32,
                              static_cast<size_t>(classes)},
          1e-4);
    } else {
      CnnConfig cnn;
      cnn.image_side = 8;
      cnn.channels = 3;
      cnn.num_filters = 6;
      cnn.num_classes = classes;
      cnn.l2_penalty = 1e-4;
      model = std::make_unique<Cnn>(cnn);
    }
    BatchLossResult r = TimeBatchLoss(*model, data, cfg.batch, 52);
    json->BeginRecord();
    json->Field("kernel", cfg.kernel);
    json->Field("model", cfg.model);
    json->Field("dim", static_cast<double>(cfg.dim));
    json->Field("classes", static_cast<double>(classes));
    json->Field("samples", static_cast<double>(cfg.samples));
    json->Field("batch", static_cast<double>(cfg.batch));
    json->Field("threads", 1.0);
    json->Field("seconds_scalar_loop", r.seconds_scalar);
    json->Field("seconds_batched", r.seconds_batched);
    json->Field("speedup", r.seconds_scalar / r.seconds_batched);
    json->Field("us_per_coalition_scalar",
                r.seconds_scalar / cfg.batch * 1e6);
    json->Field("us_per_coalition_batched",
                r.seconds_batched / cfg.batch * 1e6);
    json->Field("bit_identical", r.bit_identical);
    std::printf(
        "batch_loss %-32s scalar %8.3f ms  batched %8.3f ms  "
        "speedup %5.2fx  identical=%s\n",
        cfg.kernel, r.seconds_scalar * 1e3, r.seconds_batched * 1e3,
        r.seconds_scalar / r.seconds_batched,
        r.bit_identical ? "yes" : "NO");
    all_identical = all_identical && r.bit_identical;
  }
  return all_identical;
}

void WriteThreadScalingJson(int threads) {
  bench::BenchJsonWriter json("micro_kernels");
  json.Meta("threads_compared", static_cast<double>(threads));
  ExecutionContext ctx(threads);

  struct Kernel {
    const char* name;
    double seconds_1t;
    double seconds_nt;
  };
  const Kernel kernels[] = {
      {"monte_carlo_shapley_30p_60perm",
       TimeMonteCarlo(30, 60, nullptr), TimeMonteCarlo(30, 60, &ctx)},
      {"als_completion_40x512_r3_50it",
       TimeAlsCompletion(40, 512, 50, nullptr),
       TimeAlsCompletion(40, 512, 50, &ctx)},
  };
  for (const Kernel& k : kernels) {
    json.BeginRecord();
    json.Field("kernel", k.name);
    json.Field("seconds_1_thread", k.seconds_1t);
    json.Field("seconds_n_threads", k.seconds_nt);
    json.Field("speedup", k.seconds_1t / k.seconds_nt);
  }

  const EvaluateBatchTiming eval_1t = TimeEvaluateBatchMlp(nullptr);
  const EvaluateBatchTiming eval_nt = TimeEvaluateBatchMlp(&ctx);
  const bool eval_identical = eval_1t.utilities == eval_nt.utilities;
  json.BeginRecord();
  json.Field("kernel", "evaluate_batch_mlp");
  json.Field("coalitions", static_cast<double>(eval_1t.coalitions));
  json.Field("seconds_1_thread", eval_1t.seconds);
  json.Field("seconds_n_threads", eval_nt.seconds);
  json.Field("speedup", eval_1t.seconds / eval_nt.seconds);
  json.Field("us_per_coalition_1_thread",
             eval_1t.seconds / eval_1t.coalitions * 1e6);
  json.Field("us_per_coalition_n_threads",
             eval_nt.seconds / eval_nt.coalitions * 1e6);
  json.Field("bit_identical", eval_identical);
  std::printf(
      "evaluate_batch_mlp %d coalitions  1 thread %7.2f us/coalition  "
      "%d threads %7.2f us/coalition  identical=%s\n",
      eval_1t.coalitions, eval_1t.seconds / eval_1t.coalitions * 1e6,
      threads, eval_nt.seconds / eval_nt.coalitions * 1e6,
      eval_identical ? "yes" : "NO");

  const bool identical = AppendBatchLossRecords(&json);
  json.WriteFile();
  if (!identical) {
    std::fprintf(stderr,
                 "FATAL: batched loss diverged from the scalar loop\n");
    std::exit(1);
  }
  if (!eval_identical) {
    std::fprintf(stderr,
                 "FATAL: EvaluateBatch diverged across thread counts\n");
    std::exit(1);
  }
}

}  // namespace
}  // namespace comfedsv

int main(int argc, char** argv) {
  const int threads = comfedsv::bench::BenchThreads(argc, argv);
  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  comfedsv::WriteThreadScalingJson(threads);
  return 0;
}
