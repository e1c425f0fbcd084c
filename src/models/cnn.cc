#include "models/cnn.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/fingerprint.h"
#include "models/batch_kernels.h"

namespace comfedsv {
namespace {
constexpr int kKernel = 3;
}  // namespace

Cnn::Cnn(const CnnConfig& config) : config_(config) {
  COMFEDSV_CHECK_GE(config_.image_side, kKernel + 1);
  COMFEDSV_CHECK_GT(config_.channels, 0);
  COMFEDSV_CHECK_GT(config_.num_filters, 0);
  COMFEDSV_CHECK_GT(config_.num_classes, 1);
  COMFEDSV_CHECK_GE(config_.l2_penalty, 0.0);
  conv_side_ = config_.image_side - kKernel + 1;
  pool_side_ = conv_side_ / 2;
  COMFEDSV_CHECK_GT(pool_side_, 0);
  pooled_dim_ = static_cast<size_t>(config_.num_filters) * pool_side_ *
                pool_side_;

  const size_t conv_w =
      static_cast<size_t>(config_.num_filters) * config_.channels * kKernel *
      kKernel;
  conv_weights_offset_ = 0;
  conv_bias_offset_ = conv_w;
  fc_weights_offset_ = conv_bias_offset_ + config_.num_filters;
  fc_bias_offset_ =
      fc_weights_offset_ + pooled_dim_ * config_.num_classes;
  total_params_ = fc_bias_offset_ + config_.num_classes;
}

double Cnn::ForwardSample(const double* params, const double* x, int label,
                          ForwardState* state) const {
  const int side = config_.image_side;
  const int cs = conv_side_;
  const int filters = config_.num_filters;
  const int channels = config_.channels;

  const double* conv_w = params + conv_weights_offset_;
  const double* conv_b = params + conv_bias_offset_;

  state->conv.assign(static_cast<size_t>(filters) * cs * cs, 0.0);

  // Convolution (valid) + ReLU.
  for (int f = 0; f < filters; ++f) {
    const double* wf =
        conv_w + static_cast<size_t>(f) * channels * kKernel * kKernel;
    double* out = state->conv.data() + static_cast<size_t>(f) * cs * cs;
    for (int r = 0; r < cs; ++r) {
      for (int c = 0; c < cs; ++c) {
        double acc = conv_b[f];
        for (int ch = 0; ch < channels; ++ch) {
          const double* img = x + static_cast<size_t>(ch) * side * side;
          const double* wch = wf + static_cast<size_t>(ch) * kKernel * kKernel;
          for (int dr = 0; dr < kKernel; ++dr) {
            const double* img_row = img + (r + dr) * side + c;
            const double* w_row = wch + dr * kKernel;
            acc += w_row[0] * img_row[0] + w_row[1] * img_row[1] +
                   w_row[2] * img_row[2];
          }
        }
        out[r * cs + c] = std::max(0.0, acc);
      }
    }
  }
  return ForwardTail(params, label, state);
}

double Cnn::ForwardTail(const double* params, int label,
                        ForwardState* state) const {
  const int cs = conv_side_;
  const int ps = pool_side_;
  const int filters = config_.num_filters;
  const int classes = config_.num_classes;
  const double* fc_w = params + fc_weights_offset_;
  const double* fc_b = params + fc_bias_offset_;

  state->pooled.assign(pooled_dim_, 0.0);
  state->argmax.assign(pooled_dim_, 0);
  state->probs.assign(classes, 0.0);

  // 2x2 max pooling (stride 2; trailing row/col dropped when cs is odd).
  for (int f = 0; f < filters; ++f) {
    const double* conv = state->conv.data() + static_cast<size_t>(f) * cs * cs;
    for (int pr = 0; pr < ps; ++pr) {
      for (int pc = 0; pc < ps; ++pc) {
        int best_idx = (2 * pr) * cs + (2 * pc);
        double best = conv[best_idx];
        for (int dr = 0; dr < 2; ++dr) {
          for (int dc = 0; dc < 2; ++dc) {
            // Strict > keeps the first maximum. Written as selects, not
            // a branch: post-ReLU windows make the branch unpredictable.
            const int idx = (2 * pr + dr) * cs + (2 * pc + dc);
            const bool better = conv[idx] > best;
            best = better ? conv[idx] : best;
            best_idx = better ? idx : best_idx;
          }
        }
        const size_t pool_idx =
            static_cast<size_t>(f) * ps * ps + pr * ps + pc;
        state->pooled[pool_idx] = best;
        state->argmax[pool_idx] = static_cast<int>(f) * cs * cs + best_idx;
      }
    }
  }

  // Fully connected + softmax.
  for (int k = 0; k < classes; ++k) state->probs[k] = fc_b[k];
  for (size_t i = 0; i < pooled_dim_; ++i) {
    const double v = state->pooled[i];
    if (v == 0.0) continue;
    const double* w_row = fc_w + i * classes;
    for (int k = 0; k < classes; ++k) state->probs[k] += v * w_row[k];
  }
  double max_logit =
      *std::max_element(state->probs.begin(), state->probs.end());
  double sum = 0.0;
  for (double& v : state->probs) {
    v = std::exp(v - max_logit);
    sum += v;
  }
  for (double& v : state->probs) v /= sum;

  if (label < 0) return 0.0;
  return -std::log(std::max(state->probs[label], 1e-300));
}

void Cnn::MixFingerprint(uint64_t* hash) const {
  Model::MixFingerprint(hash);
  FingerprintMix(hash, static_cast<uint64_t>(config_.image_side));
  FingerprintMix(hash, static_cast<uint64_t>(config_.channels));
  FingerprintMix(hash, static_cast<uint64_t>(config_.num_filters));
  FingerprintMix(hash, config_.l2_penalty);
}

double Cnn::Loss(const Vector& params, const Dataset& data) const {
  COMFEDSV_CHECK_EQ(params.size(), num_params());
  COMFEDSV_CHECK_EQ(data.dim(), input_dim());
  ForwardState state;
  double total = 0.0;
  for (size_t i = 0; i < data.num_samples(); ++i) {
    total +=
        ForwardSample(params.data(), data.sample(i), data.label(i), &state);
  }
  double mean = data.empty() ? 0.0
                             : total / static_cast<double>(data.num_samples());
  return mean + 0.5 * config_.l2_penalty * params.Dot(params);
}

void Cnn::BatchLoss(const Matrix& param_rows, const Dataset& data,
                    std::vector<double>* out, ExecutionContext* ctx) const {
  COMFEDSV_CHECK(out != nullptr);
  COMFEDSV_CHECK_EQ(param_rows.cols(), num_params());
  COMFEDSV_CHECK_EQ(data.dim(), input_dim());
  const size_t batch = param_rows.rows();
  out->assign(batch, 0.0);
  if (batch == 0) return;

  const size_t block = internal::kCoalitionBlock;
  const size_t num_blocks = (batch + block - 1) / block;
  const size_t filters = static_cast<size_t>(config_.num_filters);
  const size_t pixels = static_cast<size_t>(conv_side_) * conv_side_;
  // Sub-blocks write disjoint out-slots; identical for any thread count.
  ParallelFor(ctx, static_cast<int>(num_blocks), [&](int blk) {
    const size_t b0 = static_cast<size_t>(blk) * block;
    const size_t nb = std::min(b0 + block, batch) - b0;
    const internal::PackedConvBlock pack = internal::PackConvBlock(
        param_rows, b0, nb, conv_weights_offset_, conv_bias_offset_,
        config_.channels, filters, config_.image_side);
    const size_t stride = pack.stride();

    std::vector<double> z(pixels * stride);
    ForwardState state;
    state.conv.resize(filters * pixels);
    std::vector<double> totals(nb, 0.0);
    for (size_t i = 0; i < data.num_samples(); ++i) {
      internal::BatchedConv3x3(pack, data.sample(i), z.data());
      for (size_t b = 0; b < nb; ++b) {
        // ReLU into ForwardSample's [filter][pixel] layout.
        for (size_t f = 0; f < filters; ++f) {
          const double* zf = z.data() + b * filters + f;
          double* conv = state.conv.data() + f * pixels;
          for (size_t p = 0; p < pixels; ++p) {
            conv[p] = std::max(0.0, zf[p * stride]);
          }
        }
        totals[b] +=
            ForwardTail(param_rows.RowPtr(b0 + b), data.label(i), &state);
      }
    }
    for (size_t b = 0; b < nb; ++b) {
      (*out)[b0 + b] = internal::MeanLossPlusL2(
          totals[b], data.num_samples(), param_rows.RowPtr(b0 + b),
          param_rows.cols(), config_.l2_penalty);
    }
  });
}

double Cnn::LossAndGradient(const Vector& params, const Dataset& data,
                            Vector* grad) const {
  COMFEDSV_CHECK_EQ(params.size(), num_params());
  COMFEDSV_CHECK_EQ(data.dim(), input_dim());
  COMFEDSV_CHECK(grad != nullptr);
  grad->Resize(num_params());
  grad->Fill(0.0);

  const int side = config_.image_side;
  const int cs = conv_side_;
  const int channels = config_.channels;
  const int classes = config_.num_classes;

  double* g_conv_w = grad->data() + conv_weights_offset_;
  double* g_conv_b = grad->data() + conv_bias_offset_;
  double* g_fc_w = grad->data() + fc_weights_offset_;
  double* g_fc_b = grad->data() + fc_bias_offset_;
  const double* fc_w = params.data() + fc_weights_offset_;

  ForwardState state;
  std::vector<double> dlogit(classes);
  double total = 0.0;
  for (size_t i = 0; i < data.num_samples(); ++i) {
    const double* x = data.sample(i);
    const int y = data.label(i);
    total += ForwardSample(params.data(), x, y, &state);

    for (int k = 0; k < classes; ++k) dlogit[k] = state.probs[k];
    dlogit[y] -= 1.0;

    // FC gradients and pooled-layer deltas.
    for (int k = 0; k < classes; ++k) g_fc_b[k] += dlogit[k];
    for (size_t p = 0; p < pooled_dim_; ++p) {
      const double pooled = state.pooled[p];
      const double* w_row = fc_w + p * classes;
      double* gw_row = g_fc_w + p * classes;
      double dpool = 0.0;
      for (int k = 0; k < classes; ++k) {
        gw_row[k] += pooled * dlogit[k];
        dpool += w_row[k] * dlogit[k];
      }
      // Route the delta through the pooling argmax; ReLU passes gradient
      // only where the activation was strictly positive.
      if (pooled <= 0.0) continue;
      const int conv_idx = state.argmax[p];
      const int f = conv_idx / (cs * cs);
      const int rc = conv_idx % (cs * cs);
      const int r = rc / cs;
      const int c = rc % cs;
      g_conv_b[f] += dpool;
      double* gwf =
          g_conv_w + static_cast<size_t>(f) * channels * kKernel * kKernel;
      for (int ch = 0; ch < channels; ++ch) {
        const double* img = x + static_cast<size_t>(ch) * side * side;
        double* gw_ch = gwf + static_cast<size_t>(ch) * kKernel * kKernel;
        for (int dr = 0; dr < kKernel; ++dr) {
          const double* img_row = img + (r + dr) * side + c;
          double* gw_row2 = gw_ch + dr * kKernel;
          gw_row2[0] += dpool * img_row[0];
          gw_row2[1] += dpool * img_row[1];
          gw_row2[2] += dpool * img_row[2];
        }
      }
    }
  }

  const double inv_n =
      data.empty() ? 0.0 : 1.0 / static_cast<double>(data.num_samples());
  grad->Scale(inv_n);
  grad->Axpy(config_.l2_penalty, params);
  return total * inv_n + 0.5 * config_.l2_penalty * params.Dot(params);
}

int Cnn::Predict(const Vector& params, const double* x) const {
  ForwardState state;
  ForwardSample(params.data(), x, /*label=*/-1, &state);
  return static_cast<int>(
      std::max_element(state.probs.begin(), state.probs.end()) -
      state.probs.begin());
}

}  // namespace comfedsv
