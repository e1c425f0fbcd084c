#include "models/mlp.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/fingerprint.h"
#include "models/batch_kernels.h"

namespace comfedsv {

Mlp::Mlp(std::vector<size_t> layer_sizes, double l2_penalty)
    : layer_sizes_(std::move(layer_sizes)), l2_penalty_(l2_penalty) {
  COMFEDSV_CHECK_GE(layer_sizes_.size(), 2u);
  COMFEDSV_CHECK_GE(l2_penalty_, 0.0);
  size_t cursor = 0;
  for (size_t l = 0; l + 1 < layer_sizes_.size(); ++l) {
    LayerOffsets off;
    off.in = layer_sizes_[l];
    off.out = layer_sizes_[l + 1];
    off.weights = cursor;
    cursor += off.in * off.out;
    off.bias = cursor;
    cursor += off.out;
    offsets_.push_back(off);
  }
  total_params_ = cursor;
}

double Mlp::ForwardSample(
    const Vector& params, const double* x, int label,
    std::vector<std::vector<double>>* activations) const {
  activations->resize(num_layers());
  // Layer-0 pre-activation; the shared tail applies its activation and
  // runs the remaining layers.
  const LayerOffsets& off0 = offsets_[0];
  std::vector<double>& out0 = (*activations)[0];
  out0.assign(off0.out, 0.0);
  const double* w = params.data() + off0.weights;  // in x out, row-major
  const double* b = params.data() + off0.bias;
  for (size_t c = 0; c < off0.out; ++c) out0[c] = b[c];
  for (size_t j = 0; j < off0.in; ++j) {
    const double xj = x[j];
    if (xj == 0.0) continue;
    const double* wrow = w + j * off0.out;
    for (size_t c = 0; c < off0.out; ++c) out0[c] += xj * wrow[c];
  }
  return ForwardTail(params.data(), label, activations);
}

double Mlp::ForwardTail(const double* params, int label,
                        std::vector<std::vector<double>>* activations) const {
  const int layers = num_layers();
  const double* input = nullptr;
  size_t input_len = 0;
  for (int l = 0; l < layers; ++l) {
    const LayerOffsets& off = offsets_[l];
    std::vector<double>& out = (*activations)[l];
    if (l == 0) {
      // (*activations)[0] already holds the pre-activation.
      COMFEDSV_CHECK_EQ(out.size(), off.out);
    } else {
      COMFEDSV_CHECK_EQ(input_len, off.in);
      out.assign(off.out, 0.0);
      const double* w = params + off.weights;  // in x out, row-major
      const double* b = params + off.bias;
      for (size_t c = 0; c < off.out; ++c) out[c] = b[c];
      for (size_t j = 0; j < off.in; ++j) {
        const double xj = input[j];
        if (xj == 0.0) continue;
        const double* wrow = w + j * off.out;
        for (size_t c = 0; c < off.out; ++c) out[c] += xj * wrow[c];
      }
    }
    if (l + 1 < layers) {
      for (double& v : out) v = std::max(0.0, v);  // ReLU
    } else {
      // Softmax on the output layer.
      double max_logit = *std::max_element(out.begin(), out.end());
      double sum = 0.0;
      for (double& v : out) {
        v = std::exp(v - max_logit);
        sum += v;
      }
      for (double& v : out) v /= sum;
    }
    input = out.data();
    input_len = off.out;
  }
  if (label < 0) return 0.0;
  const double p = (*activations)[layers - 1][label];
  return -std::log(std::max(p, 1e-300));
}

void Mlp::MixFingerprint(uint64_t* hash) const {
  Model::MixFingerprint(hash);
  for (size_t width : layer_sizes_) {
    FingerprintMix(hash, static_cast<uint64_t>(width));
  }
  FingerprintMix(hash, l2_penalty_);
}

double Mlp::Loss(const Vector& params, const Dataset& data) const {
  COMFEDSV_CHECK_EQ(params.size(), num_params());
  COMFEDSV_CHECK_EQ(data.dim(), input_dim());
  std::vector<std::vector<double>> acts;
  double total = 0.0;
  for (size_t i = 0; i < data.num_samples(); ++i) {
    total += ForwardSample(params, data.sample(i), data.label(i), &acts);
  }
  double mean = data.empty() ? 0.0
                             : total / static_cast<double>(data.num_samples());
  return mean + 0.5 * l2_penalty_ * params.Dot(params);
}

void Mlp::BatchLoss(const Matrix& param_rows, const Dataset& data,
                    std::vector<double>* out, ExecutionContext* ctx) const {
  COMFEDSV_CHECK(out != nullptr);
  COMFEDSV_CHECK_EQ(param_rows.cols(), num_params());
  COMFEDSV_CHECK_EQ(data.dim(), input_dim());
  const size_t batch = param_rows.rows();
  out->assign(batch, 0.0);
  if (batch == 0) return;

  const size_t block = internal::kCoalitionBlock;
  const size_t num_blocks = (batch + block - 1) / block;
  const LayerOffsets& off0 = offsets_[0];
  // Sub-blocks write disjoint out-slots; identical for any thread count.
  ParallelFor(ctx, static_cast<int>(num_blocks), [&](int blk) {
    const size_t b0 = static_cast<size_t>(blk) * block;
    const size_t nb = std::min(b0 + block, batch) - b0;
    const internal::PackedAffineBlock pack = internal::PackAffineBlock(
        param_rows, b0, nb, off0.weights, off0.bias, off0.in, off0.out);
    const size_t cols = pack.cols;

    std::vector<std::vector<std::vector<double>>> acts(
        nb, std::vector<std::vector<double>>(num_layers()));
    std::vector<double> z(2 * cols);
    std::vector<double> totals(nb, 0.0);
    for (size_t i = 0; i < data.num_samples(); i += 2) {
      const bool pair = i + 1 < data.num_samples();
      internal::BatchedAffinePair(pack, data.sample(i),
                                  pair ? data.sample(i + 1) : nullptr,
                                  z.data(), z.data() + cols);
      const size_t ns = pair ? 2 : 1;
      for (size_t s = 0; s < ns; ++s) {
        const int label = data.label(i + s);
        const double* zs = z.data() + s * cols;
        for (size_t b = 0; b < nb; ++b) {
          acts[b][0].assign(zs + b * off0.out, zs + (b + 1) * off0.out);
          totals[b] +=
              ForwardTail(param_rows.RowPtr(b0 + b), label, &acts[b]);
        }
      }
    }
    for (size_t b = 0; b < nb; ++b) {
      (*out)[b0 + b] = internal::MeanLossPlusL2(
          totals[b], data.num_samples(), param_rows.RowPtr(b0 + b),
          param_rows.cols(), l2_penalty_);
    }
  });
}

double Mlp::LossAndGradient(const Vector& params, const Dataset& data,
                            Vector* grad) const {
  COMFEDSV_CHECK_EQ(params.size(), num_params());
  COMFEDSV_CHECK_EQ(data.dim(), input_dim());
  COMFEDSV_CHECK(grad != nullptr);
  grad->Resize(num_params());
  grad->Fill(0.0);

  const int layers = num_layers();
  std::vector<std::vector<double>> acts;
  std::vector<double> delta, delta_prev;
  double total = 0.0;
  for (size_t i = 0; i < data.num_samples(); ++i) {
    const double* x = data.sample(i);
    const int y = data.label(i);
    total += ForwardSample(params, x, y, &acts);

    // Output delta: softmax-CE gives p - onehot(y).
    delta = acts[layers - 1];
    delta[y] -= 1.0;

    for (int l = layers - 1; l >= 0; --l) {
      const LayerOffsets& off = offsets_[l];
      const double* input = (l == 0) ? x : acts[l - 1].data();
      double* gw = grad->data() + off.weights;
      double* gb = grad->data() + off.bias;
      for (size_t j = 0; j < off.in; ++j) {
        const double xj = input[j];
        if (xj != 0.0) {
          double* gw_row = gw + j * off.out;
          for (size_t c = 0; c < off.out; ++c) gw_row[c] += xj * delta[c];
        }
      }
      for (size_t c = 0; c < off.out; ++c) gb[c] += delta[c];

      if (l > 0) {
        // delta_prev = W delta, masked by ReLU' of layer l-1 activations.
        const double* w = params.data() + off.weights;
        delta_prev.assign(off.in, 0.0);
        for (size_t j = 0; j < off.in; ++j) {
          if (acts[l - 1][j] <= 0.0) continue;  // ReLU gradient is 0
          const double* wrow = w + j * off.out;
          double acc = 0.0;
          for (size_t c = 0; c < off.out; ++c) acc += wrow[c] * delta[c];
          delta_prev[j] = acc;
        }
        delta.swap(delta_prev);
      }
    }
  }
  const double inv_n =
      data.empty() ? 0.0 : 1.0 / static_cast<double>(data.num_samples());
  grad->Scale(inv_n);
  grad->Axpy(l2_penalty_, params);
  return total * inv_n + 0.5 * l2_penalty_ * params.Dot(params);
}

int Mlp::Predict(const Vector& params, const double* x) const {
  std::vector<std::vector<double>> acts;
  ForwardSample(params, x, /*label=*/-1, &acts);
  const std::vector<double>& probs = acts[num_layers() - 1];
  return static_cast<int>(std::max_element(probs.begin(), probs.end()) -
                          probs.begin());
}

}  // namespace comfedsv
