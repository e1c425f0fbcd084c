// BatchLoss equivalence: the batched coalition-loss engine must return
// exactly the doubles the sequential Loss path returns — bit-identical,
// not approximately — for every model, batch size, and thread count
// (the model.h BatchLoss contract). The same holds one level up for
// RoundUtility::EvaluateBatch vs the unbatched Utility path.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/execution_context.h"
#include "core/pipeline.h"
#include "data/image_sim.h"
#include "data/partition.h"
#include "models/batch_kernels.h"
#include "models/cnn.h"
#include "models/logistic.h"
#include "models/mlp.h"
#include "shapley/utility.h"

namespace comfedsv {
namespace {

Dataset MakeData(int samples, int dim, int classes, uint64_t seed,
                 bool with_zeros) {
  Rng rng(seed);
  Matrix feats(samples, dim);
  std::vector<int> labels(samples);
  for (int i = 0; i < samples; ++i) {
    for (int j = 0; j < dim; ++j) {
      // Exact zeros exercise the skip-zero branch both paths share.
      const bool zero = with_zeros && rng.NextBernoulli(0.3);
      feats(i, j) = zero ? 0.0 : rng.NextGaussian();
    }
    labels[i] = static_cast<int>(rng.NextUint64(classes));
  }
  return Dataset(std::move(feats), std::move(labels), classes);
}

Matrix RandomParams(const Model& model, int batch, uint64_t seed) {
  Rng rng(seed);
  Matrix rows(batch, model.num_params());
  Vector params;
  for (int b = 0; b < batch; ++b) {
    model.InitializeParams(&params, &rng, 0.2);
    rows.SetRow(b, params);
  }
  return rows;
}

void ExpectBatchMatchesLoss(const Model& model, const Dataset& data,
                            uint64_t seed,
                            const std::vector<int>& batches = {1, 7, 64}) {
  for (int batch : batches) {
    const Matrix rows = RandomParams(model, batch, seed + batch);
    std::vector<double> sequential(batch);
    for (int b = 0; b < batch; ++b) {
      sequential[b] = model.Loss(rows.Row(b), data);
    }
    for (int threads : {1, 4}) {
      ExecutionContext ctx(threads);
      std::vector<double> batched;
      model.BatchLoss(rows, data, &batched, threads == 1 ? nullptr : &ctx);
      ASSERT_EQ(batched.size(), sequential.size());
      for (int b = 0; b < batch; ++b) {
        EXPECT_EQ(batched[b], sequential[b])
            << model.name() << " batch=" << batch << " threads=" << threads
            << " row=" << b;
      }
    }
  }
}

TEST(BatchLossTest, LogisticBitIdenticalToSequentialLoss) {
  const int dim = 67;  // awkward size: exercises tile remainder columns
  LogisticRegression model(dim, 10, 1e-3);
  ExpectBatchMatchesLoss(model, MakeData(101, dim, 10, 5, true), 11);
}

TEST(BatchLossTest, LogisticDenseNoRegularizer) {
  LogisticRegression model(64, 3, 0.0);
  ExpectBatchMatchesLoss(model, MakeData(64, 64, 3, 6, false), 12);
}

TEST(BatchLossTest, MlpBitIdenticalToSequentialLoss) {
  Mlp model({33, 17, 10}, 1e-4);  // odd widths: remainder paths
  ExpectBatchMatchesLoss(model, MakeData(75, 33, 10, 7, true), 13);
}

TEST(BatchLossTest, DeepMlpBitIdenticalToSequentialLoss) {
  Mlp model({24, 16, 8, 5}, 0.0);
  ExpectBatchMatchesLoss(model, MakeData(49, 24, 5, 8, true), 14);
}

TEST(BatchLossTest, SingleLayerMlpIsPureSoftmax) {
  Mlp model({20, 4}, 1e-3);  // no hidden layer: tail is softmax only
  ExpectBatchMatchesLoss(model, MakeData(31, 20, 4, 9, true), 15);
}

// Forwards everything to a wrapped model except BatchLoss, so BatchLoss
// runs Model's default per-row loop over the wrapped Loss.
class PerRowModel : public Model {
 public:
  explicit PerRowModel(const Model& inner) : inner_(inner) {}
  size_t num_params() const override { return inner_.num_params(); }
  size_t input_dim() const override { return inner_.input_dim(); }
  int num_classes() const override { return inner_.num_classes(); }
  std::string name() const override { return inner_.name(); }
  double Loss(const Vector& params, const Dataset& data) const override {
    return inner_.Loss(params, data);
  }
  double LossAndGradient(const Vector& params, const Dataset& data,
                         Vector* grad) const override {
    return inner_.LossAndGradient(params, data, grad);
  }
  int Predict(const Vector& params, const double* x) const override {
    return inner_.Predict(params, x);
  }
  void InitializeParams(Vector* params, Rng* rng,
                        double scale) const override {
    inner_.InitializeParams(params, rng, scale);
  }
  void MixFingerprint(uint64_t* hash) const override {
    inner_.MixFingerprint(hash);
  }

 private:
  const Model& inner_;
};

TEST(BatchLossTest, DefaultImplementationLoopsLoss) {
  LogisticRegression logistic(19, 4, 1e-3);
  ExpectBatchMatchesLoss(PerRowModel(logistic),
                         MakeData(23, 19, 4, 10, true), 16);
}

// Every exact zero of `data` at an odd flat index becomes -0.0.
Dataset WithNegativeZeros(Dataset data) {
  Matrix& feats = data.mutable_features();
  for (size_t i = 0; i < feats.rows(); ++i) {
    for (size_t j = 0; j < feats.cols(); ++j) {
      if (feats(i, j) == 0.0 && (i * feats.cols() + j) % 2 == 1) {
        feats(i, j) = -0.0;
      }
    }
  }
  return data;
}

// Cnn::BatchLoss packs every member's filters as the columns of one
// batched convolution; each (members x filters) column count below
// pads differently to the tile widths, and batches 1-17 cross the
// kCoalitionBlock edges. Inputs carry exact zeros and -0.0, and the
// first image is all zeros (every conv output is its bias).
TEST(BatchLossTest, CnnBitIdenticalToSequentialLoss) {
  struct Shape {
    int side;
    int channels;
    int filters;
  };
  std::vector<int> batches;
  for (int b = 1; b <= 17; ++b) batches.push_back(b);
  for (const Shape& shape : {Shape{8, 3, 6}, Shape{7, 1, 5}, Shape{7, 3, 7},
                             Shape{6, 1, 3}, Shape{9, 2, 1}}) {
    SCOPED_TRACE("side=" + std::to_string(shape.side) +
                 " channels=" + std::to_string(shape.channels) +
                 " filters=" + std::to_string(shape.filters));
    CnnConfig cfg;
    cfg.image_side = shape.side;
    cfg.channels = shape.channels;
    cfg.num_filters = shape.filters;
    cfg.num_classes = 4;
    cfg.l2_penalty = 1e-3;
    Cnn model(cfg);
    const int dim = static_cast<int>(model.input_dim());
    Dataset data =
        WithNegativeZeros(MakeData(13, dim, 4, 20 + shape.side, true));
    for (int j = 0; j < dim; ++j) {
      data.mutable_features()(0, j) = j % 2 == 0 ? 0.0 : -0.0;
    }
    ExpectBatchMatchesLoss(model, data, 30 + shape.filters, batches);
  }
}

TEST(BatchLossTest, EmptyDatasetYieldsRegularizerOnly) {
  CnnConfig cnn_cfg;
  cnn_cfg.l2_penalty = 1e-2;
  const LogisticRegression logistic(16, 3, 1e-2);
  const Cnn cnn(cnn_cfg);
  for (const Model* model : {static_cast<const Model*>(&logistic),
                             static_cast<const Model*>(&cnn)}) {
    const Dataset empty(Matrix(0, model->input_dim()), {},
                        model->num_classes());
    const Matrix rows = RandomParams(*model, 9, 17);
    std::vector<double> batched;
    model->BatchLoss(rows, empty, &batched);
    for (int b = 0; b < 9; ++b) {
      EXPECT_EQ(batched[b], model->Loss(rows.Row(b), empty))
          << model->name() << " row=" << b;
    }
  }
}

// --- Tile kernels: every compiled width must agree with the scalar
// reference (the widths available depend on the build/CPU) ---

TEST(BatchLossTest, AllTileWidthsMatchScalarAffine) {
  const size_t dim = 37, width = 10, members = 8;
  const size_t pcols = dim * width + width;
  Rng rng(71);
  Matrix rows(members, pcols);
  for (size_t b = 0; b < members; ++b) {
    for (size_t k = 0; k < pcols; ++k) {
      rows(b, k) = rng.NextBernoulli(0.1) ? 0.0 : rng.NextGaussian();
    }
  }
  std::vector<double> x0(dim), x1(dim);
  for (size_t j = 0; j < dim; ++j) {
    x0[j] = rng.NextBernoulli(0.2) ? 0.0 : rng.NextGaussian();
    x1[j] = rng.NextBernoulli(0.2) ? 0.0 : rng.NextGaussian();
  }

  // Scalar reference: bias + ascending-j accumulation with zero skips.
  const size_t cols = members * width;
  auto reference = [&](const std::vector<double>& x) {
    std::vector<double> z(cols);
    for (size_t m = 0; m < members; ++m) {
      for (size_t u = 0; u < width; ++u) {
        double acc = rows(m, dim * width + u);
        for (size_t j = 0; j < dim; ++j) {
          const double xj = x[j];
          if (xj == 0.0) continue;
          acc += xj * rows(m, j * width + u);
        }
        z[m * width + u] = acc;
      }
    }
    return z;
  };
  const std::vector<double> ref0 = reference(x0);
  const std::vector<double> ref1 = reference(x1);

  for (size_t tile_cols : internal::SupportedTileCols()) {
    const internal::PackedAffineBlock pack = internal::PackAffineBlock(
        rows, 0, members, 0, dim * width, dim, width, tile_cols);
    ASSERT_EQ(pack.tile_cols, tile_cols);
    std::vector<double> z0(cols, -1.0), z1(cols, -1.0);
    internal::BatchedAffinePair(pack, x0.data(), x1.data(), z0.data(),
                                z1.data());
    for (size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(z0[c], ref0[c]) << "tile_cols=" << tile_cols << " col=" << c;
      EXPECT_EQ(z1[c], ref1[c]) << "tile_cols=" << tile_cols << " col=" << c;
    }
    // Odd tail: x1 == nullptr writes only z0.
    std::vector<double> z0_only(cols, -1.0);
    internal::BatchedAffinePair(pack, x0.data(), nullptr, z0_only.data(),
                                nullptr);
    for (size_t c = 0; c < cols; ++c) {
      EXPECT_EQ(z0_only[c], ref0[c]) << "tile_cols=" << tile_cols;
    }
  }
}

// The conv tile pass at every compiled width must agree with a scalar
// reference written in Cnn::ForwardSample's order: bias, then
// (w0*x0 + w1*x1) + w2*x2 per (channel, kernel row).
TEST(BatchLossTest, AllTileWidthsMatchScalarConv) {
  const size_t side = 7, channels = 2, filters = 5, members = 3;
  const size_t taps = channels * 9;
  const size_t bias_offset = filters * taps;
  const size_t cs = side - 2;
  Rng rng(72);
  Matrix rows(members, bias_offset + filters + 4);
  for (size_t b = 0; b < members; ++b) {
    for (size_t k = 0; k < rows.cols(); ++k) {
      rows(b, k) = rng.NextBernoulli(0.1) ? -0.0 : rng.NextGaussian();
    }
  }
  std::vector<double> x(channels * side * side);
  for (double& v : x) {
    v = rng.NextBernoulli(0.2) ? 0.0 : rng.NextGaussian();
  }

  const size_t cols = members * filters;
  std::vector<double> ref(cs * cs * cols);
  for (size_t col = 0; col < cols; ++col) {
    const size_t m = col / filters;
    const size_t f = col % filters;
    for (size_t r = 0; r < cs; ++r) {
      for (size_t c = 0; c < cs; ++c) {
        double acc = rows(m, bias_offset + f);
        for (size_t ch = 0; ch < channels; ++ch) {
          for (size_t dr = 0; dr < 3; ++dr) {
            const double* img = &x[(ch * side + r + dr) * side + c];
            const double* w = rows.RowPtr(m) + f * taps + (ch * 3 + dr) * 3;
            acc += w[0] * img[0] + w[1] * img[1] + w[2] * img[2];
          }
        }
        ref[(r * cs + c) * cols + col] = acc;
      }
    }
  }

  for (size_t tile_cols : internal::SupportedTileCols()) {
    const internal::PackedConvBlock pack = internal::PackConvBlock(
        rows, 0, members, 0, bias_offset, channels, filters, side,
        tile_cols);
    ASSERT_EQ(pack.tile_cols, tile_cols);
    ASSERT_GE(pack.stride(), cols);
    std::vector<double> z(cs * cs * pack.stride(), -1.0);
    internal::BatchedConv3x3(pack, x.data(), z.data());
    for (size_t p = 0; p < cs * cs; ++p) {
      for (size_t col = 0; col < cols; ++col) {
        EXPECT_EQ(z[p * pack.stride() + col], ref[p * cols + col])
            << "tile_cols=" << tile_cols << " pixel=" << p << " col=" << col;
      }
    }
  }
}

// End to end: a CNN valuation gives the same values bit for bit whether
// coalition losses run through the Cnn::BatchLoss override or through
// the default per-row loop, at any thread count.
TEST(BatchLossTest, CnnValuationMatchesPerRowPath) {
  SimulatedImageConfig images;
  images.family = ImageFamily::kCifar10;
  images.num_samples = 150;
  images.seed = 81;
  Dataset pool = GenerateSimulatedImages(images);
  Rng rng(82);
  auto [train_pool, test] = pool.RandomSplit(0.2, &rng);
  const std::vector<Dataset> clients = PartitionIid(train_pool, 5, &rng);

  CnnConfig cfg;
  cfg.channels = 3;
  cfg.num_filters = 4;
  cfg.l2_penalty = 1e-4;
  Cnn cnn(cfg);
  PerRowModel per_row(cnn);
  FedAvgConfig fed;
  fed.num_rounds = 3;
  fed.clients_per_round = 4;
  fed.seed = 83;
  ValuationRequest request;
  request.fedsv.mode = FedSvConfig::Mode::kExact;
  request.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
  request.comfedsv.num_permutations = 6;
  request.comfedsv.completion.rank = 2;
  request.comfedsv.seed = 84;

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecutionContext ctx(threads);
    ExecutionContext* run_ctx = threads == 1 ? nullptr : &ctx;
    Result<ValuationOutcome> batched =
        RunValuation(cnn, clients, test, fed, request, run_ctx);
    Result<ValuationOutcome> looped =
        RunValuation(per_row, clients, test, fed, request, run_ctx);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    ASSERT_TRUE(looped.ok()) << looped.status().ToString();
    const Vector& fedsv = *batched.value().fedsv_values;
    const Vector& comfedsv = batched.value().comfedsv->values;
    ASSERT_EQ(fedsv.size(), clients.size());
    for (size_t k = 0; k < clients.size(); ++k) {
      EXPECT_EQ(fedsv[k], (*looped.value().fedsv_values)[k]) << k;
      EXPECT_EQ(comfedsv[k], looped.value().comfedsv->values[k]) << k;
    }
    EXPECT_EQ(batched.value().fedsv_stats.loss_calls,
              looped.value().fedsv_stats.loss_calls);
  }
}

// --- RoundUtility: batched engine vs the unbatched single path ---

RoundRecord MakeRoundRecord(const Model& model, const Dataset& test,
                            int num_clients, uint64_t seed) {
  RoundRecord rec;
  rec.round = 0;
  Rng rng(seed);
  Vector params;
  model.InitializeParams(&params, &rng, 0.2);
  rec.global_before = params;
  for (int k = 0; k < num_clients; ++k) {
    Vector local;
    model.InitializeParams(&local, &rng, 0.2);
    rec.local_models.push_back(std::move(local));
    rec.selected.push_back(k);
  }
  rec.test_loss_before = model.Loss(rec.global_before, test);
  return rec;
}

TEST(BatchLossTest, EvaluateBatchMatchesUnbatchedUtility) {
  const int n = 6;
  const int dim = 23;
  LogisticRegression model(dim, 5, 1e-3);
  Dataset test = MakeData(40, dim, 5, 21, true);
  RoundRecord rec = MakeRoundRecord(model, test, n, 22);

  // All non-empty coalitions of 6 clients, in mask order.
  std::vector<Coalition> coalitions;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    Coalition c(n);
    for (int k = 0; k < n; ++k) {
      if (mask & (1u << k)) c.Add(k);
    }
    coalitions.push_back(c);
  }

  UtilityStats unbatched_stats;
  RoundUtility unbatched(&model, &test, &rec, nullptr, &unbatched_stats);
  for (int threads : {1, 4}) {
    ExecutionContext ctx(threads);
    UtilityStats batched_stats;
    RoundUtility batched(&model, &test, &rec,
                         threads == 1 ? nullptr : &ctx, &batched_stats);
    batched.EvaluateBatch(coalitions);
    for (const Coalition& c : coalitions) {
      EXPECT_EQ(batched.Utility(c), unbatched.Utility(c)) << "threads="
                                                          << threads;
    }
    // One loss call per distinct coalition, exactly like the single path.
    EXPECT_EQ(batched_stats.loss_calls,
              static_cast<int64_t>(coalitions.size()));
    EXPECT_EQ(batched.distinct_evaluations(),
              static_cast<int64_t>(coalitions.size()));
  }
  EXPECT_EQ(unbatched_stats.loss_calls,
            static_cast<int64_t>(coalitions.size()));
}

// Monte-Carlo style submission: the prefixes of random permutations of
// `n` clients, until `distinct` different coalitions are collected, plus
// one repeated and one empty entry (which resolve as a hit and a skip).
std::vector<Coalition> PermutationPrefixBatch(int n, int distinct,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<Coalition> batch;
  std::unordered_set<Coalition, CoalitionHash> seen;
  while (static_cast<int>(seen.size()) < distinct) {
    Coalition prefix(n);
    for (int member : rng.Permutation(n)) {
      prefix.Add(member);
      if (static_cast<int>(seen.size()) == distinct) break;
      if (seen.insert(prefix).second) batch.push_back(prefix);
    }
  }
  batch.push_back(batch.front());
  batch.push_back(Coalition(n));
  return batch;
}

// EvaluateBatch splits its pending coalitions into blocks of up to
// kCoalitionBlock (smaller for batches under 16 full blocks), each
// aggregated and evaluated with one BatchLoss call by a pool task. Batch
// sizes on both sides of the block edges must give the unbatched
// Utility() values bit for bit, and identical UtilityStats for any
// thread count — batched_calls included (one per block).
void ExpectEvaluateBatchMatchesAcrossBlocks(const Model& model,
                                            const Dataset& test) {
  const int n = 12;
  const RoundRecord rec = MakeRoundRecord(model, test, n, 61);
  for (int distinct : {1, 7, 8, 9, 67, 128, 129}) {
    const std::vector<Coalition> batch =
        PermutationPrefixBatch(n, distinct, 62 + distinct);
    RoundUtility unbatched(&model, &test, &rec);
    UtilityStats stats_1t;
    for (int threads : {1, 4}) {
      ExecutionContext ctx(threads);
      UtilityStats stats;
      RoundUtility batched(&model, &test, &rec, &ctx, &stats);
      batched.EvaluateBatch(batch);
      for (const Coalition& c : batch) {
        EXPECT_EQ(batched.Utility(c), unbatched.Utility(c))
            << model.name() << " distinct=" << distinct
            << " threads=" << threads;
      }
      const int64_t block = std::clamp<int64_t>(
          (distinct + 15) / 16, 1,
          static_cast<int64_t>(internal::kCoalitionBlock));
      const int64_t blocks = (distinct + block - 1) / block;
      EXPECT_EQ(stats.loss_calls, distinct);
      EXPECT_EQ(stats.distinct_coalitions, distinct);
      EXPECT_EQ(stats.batched_calls, blocks);
      // One in-batch duplicate, then every non-empty readback is a hit.
      EXPECT_EQ(stats.memo_hits, 1 + distinct + 1);
      if (threads == 1) {
        stats_1t = stats;
        continue;
      }
      EXPECT_EQ(stats.loss_calls, stats_1t.loss_calls);
      EXPECT_EQ(stats.batched_calls, stats_1t.batched_calls);
      EXPECT_EQ(stats.memo_hits, stats_1t.memo_hits);
      EXPECT_EQ(stats.distinct_coalitions, stats_1t.distinct_coalitions);
      EXPECT_EQ(stats.surrogate_skips, stats_1t.surrogate_skips);
      EXPECT_EQ(stats.surrogate_bias_bound, stats_1t.surrogate_bias_bound);
    }
  }
}

TEST(BatchLossTest, EvaluateBatchBitIdenticalAcrossBlockEdgesLogistic) {
  const int dim = 29;
  LogisticRegression model(dim, 6, 1e-3);
  ExpectEvaluateBatchMatchesAcrossBlocks(model,
                                         MakeData(37, dim, 6, 63, true));
}

TEST(BatchLossTest, EvaluateBatchBitIdenticalAcrossBlockEdgesMlp) {
  const int dim = 21;
  Mlp model({static_cast<size_t>(dim), 32, 10}, 1e-4);
  ExpectEvaluateBatchMatchesAcrossBlocks(model,
                                         MakeData(33, dim, 10, 64, true));
}

TEST(BatchLossTest, EvaluateBatchBitIdenticalAcrossBlockEdgesCnn) {
  CnnConfig cfg;  // the Cnn::BatchLoss override
  cfg.image_side = 6;
  cfg.channels = 1;
  cfg.num_filters = 3;
  cfg.num_classes = 4;
  Cnn model(cfg);
  ExpectEvaluateBatchMatchesAcrossBlocks(model,
                                         MakeData(15, 36, 4, 65, false));
}

// Every non-empty submission — whether through Utility() or a batch —
// must land in exactly one UtilityStats counter: a loss call, a memo
// hit, or a surrogate skip. Duplicates inside one submitted batch and
// entries already cached before the batch resolve as memo hits, so
// loss_calls + memo_hits always equals the number of non-empty
// submissions, with loss_calls == distinct coalitions.
TEST(BatchLossTest, EvaluateBatchStatsAccountEverySubmissionOnce) {
  const int n = 4;
  LogisticRegression model(8, 3, 0.0);
  Dataset test = MakeData(20, 8, 3, 41, false);
  RoundRecord rec = MakeRoundRecord(model, test, n, 42);

  Coalition a = Coalition::FromMembers(n, {0, 2});
  Coalition b = Coalition::FromMembers(n, {1, 3});
  Coalition c = Coalition::FromMembers(n, {0, 1, 2});

  UtilityStats stats;
  RoundUtility utility(&model, &test, &rec, nullptr, &stats);
  utility.Utility(a);  // pre-cache one entry before the batch
  EXPECT_EQ(stats.loss_calls, 1);
  EXPECT_EQ(stats.memo_hits, 0);

  // Batch: {a (cached), b, b (in-batch duplicate), c, empty}.
  std::vector<Coalition> batch = {a, b, b, c, Coalition(n)};
  utility.EvaluateBatch(batch);
  EXPECT_EQ(stats.loss_calls, 3);           // a, b, c each measured once
  EXPECT_EQ(stats.distinct_coalitions, 3);
  EXPECT_EQ(stats.memo_hits, 2);            // cached a + duplicate b
  EXPECT_EQ(stats.batched_calls, 2);        // b and c: blocks of one

  // Resubmitting the whole batch resolves every non-empty entry as a
  // hit: the submission count and the counter total stay in lockstep.
  utility.EvaluateBatch(batch);
  EXPECT_EQ(stats.loss_calls, 3);
  EXPECT_EQ(stats.memo_hits, 6);
  EXPECT_EQ(stats.batched_calls, 2);        // nothing left to evaluate
}

// Racing EvaluateBatch against concurrent Utility() queries for the
// same coalitions must keep the accounting deterministic: no matter
// which thread wins each cache fill, loss_calls equals the distinct
// coalition count and loss_calls + memo_hits equals the total number
// of non-empty submissions. (Regression: a batch chunk losing the
// fill race to Utility() used to count that submission nowhere,
// making the totals scheduling-dependent.)
TEST(BatchLossTest, EvaluateBatchRacingUtilityKeepsCountsDeterministic) {
  const int n = 5;
  LogisticRegression model(12, 3, 0.0);
  Dataset test = MakeData(24, 12, 3, 51, false);
  RoundRecord rec = MakeRoundRecord(model, test, n, 52);

  std::vector<Coalition> coalitions;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    Coalition c(n);
    for (int k = 0; k < n; ++k) {
      if (mask & (1u << k)) c.Add(k);
    }
    coalitions.push_back(c);
  }
  const int64_t distinct = static_cast<int64_t>(coalitions.size());

  ExecutionContext ctx(4);
  const int kQueryTasks = 3;
  for (int iter = 0; iter < 20; ++iter) {
    UtilityStats stats;
    RoundUtility utility(&model, &test, &rec, nullptr, &stats);
    ctx.ParallelFor(kQueryTasks + 1, [&](int task) {
      if (task == 0) {
        utility.EvaluateBatch(coalitions);
      } else {
        for (const Coalition& c : coalitions) (void)utility.Utility(c);
      }
    });
    const int64_t submissions = distinct * (kQueryTasks + 1);
    EXPECT_EQ(stats.loss_calls, distinct) << "iter=" << iter;
    EXPECT_EQ(stats.distinct_coalitions, distinct) << "iter=" << iter;
    EXPECT_EQ(stats.loss_calls + stats.memo_hits, submissions)
        << "iter=" << iter;
    EXPECT_EQ(utility.distinct_evaluations(), distinct) << "iter=" << iter;
  }
}

TEST(BatchLossTest, EvaluateBatchDedupsResubmissions) {
  const int n = 4;
  LogisticRegression model(8, 3, 0.0);
  Dataset test = MakeData(20, 8, 3, 31, false);
  RoundRecord rec = MakeRoundRecord(model, test, n, 32);

  std::vector<Coalition> batch;
  Coalition a = Coalition::FromMembers(n, {0, 2});
  Coalition b = Coalition::FromMembers(n, {1, 2, 3});
  batch.push_back(a);
  batch.push_back(b);
  batch.push_back(a);               // duplicate within the batch
  batch.push_back(Coalition(n));    // empty: skipped, utility 0
  UtilityStats stats;
  RoundUtility utility(&model, &test, &rec, nullptr, &stats);
  utility.EvaluateBatch(batch);
  EXPECT_EQ(stats.loss_calls, 2);
  utility.EvaluateBatch(batch);     // fully cached: no new calls
  EXPECT_EQ(stats.loss_calls, 2);
  EXPECT_EQ(utility.Utility(Coalition(n)), 0.0);
}

}  // namespace
}  // namespace comfedsv
