#include "models/logistic.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"
#include "common/fingerprint.h"
#include "models/batch_kernels.h"

namespace comfedsv {

LogisticRegression::LogisticRegression(size_t input_dim, int num_classes,
                                       double l2_penalty)
    : dim_(input_dim), classes_(num_classes), l2_penalty_(l2_penalty) {
  COMFEDSV_CHECK_GT(dim_, 0u);
  COMFEDSV_CHECK_GT(classes_, 1);
  COMFEDSV_CHECK_GE(l2_penalty_, 0.0);
}

size_t LogisticRegression::num_params() const {
  return dim_ * static_cast<size_t>(classes_) +
         static_cast<size_t>(classes_);
}

double LogisticRegression::ForwardSample(const Vector& params,
                                         const double* x, int label,
                                         double* probs) const {
  const double* w = params.data();                  // dim x classes
  const double* b = params.data() + dim_ * classes_;  // classes
  for (int c = 0; c < classes_; ++c) probs[c] = b[c];
  for (size_t j = 0; j < dim_; ++j) {
    const double xj = x[j];
    if (xj == 0.0) continue;
    const double* wrow = w + j * classes_;
    for (int c = 0; c < classes_; ++c) probs[c] += xj * wrow[c];
  }
  double max_logit = probs[0];
  for (int c = 1; c < classes_; ++c) max_logit = std::max(max_logit, probs[c]);
  double sum = 0.0;
  for (int c = 0; c < classes_; ++c) {
    probs[c] = std::exp(probs[c] - max_logit);
    sum += probs[c];
  }
  double loss = 0.0;
  if (label >= 0) loss = -std::log(std::max(probs[label] / sum, 1e-300));
  for (int c = 0; c < classes_; ++c) probs[c] /= sum;
  return loss;
}

void LogisticRegression::MixFingerprint(uint64_t* hash) const {
  Model::MixFingerprint(hash);
  FingerprintMix(hash, l2_penalty_);
}

double LogisticRegression::Loss(const Vector& params,
                                const Dataset& data) const {
  COMFEDSV_CHECK_EQ(params.size(), num_params());
  COMFEDSV_CHECK_EQ(data.dim(), dim_);
  std::vector<double> probs(classes_);
  double total = 0.0;
  for (size_t i = 0; i < data.num_samples(); ++i) {
    total += ForwardSample(params, data.sample(i), data.label(i),
                           probs.data());
  }
  double mean = data.empty() ? 0.0
                             : total / static_cast<double>(data.num_samples());
  return mean + 0.5 * l2_penalty_ * params.Dot(params);
}

void LogisticRegression::BatchLoss(const Matrix& param_rows,
                                   const Dataset& data,
                                   std::vector<double>* out,
                                   ExecutionContext* ctx) const {
  COMFEDSV_CHECK(out != nullptr);
  COMFEDSV_CHECK_EQ(param_rows.cols(), num_params());
  COMFEDSV_CHECK_EQ(data.dim(), dim_);
  const size_t batch = param_rows.rows();
  out->assign(batch, 0.0);
  if (batch == 0) return;

  const size_t block = internal::kCoalitionBlock;
  const size_t num_blocks = (batch + block - 1) / block;
  const size_t classes = static_cast<size_t>(classes_);
  // Sub-blocks write disjoint out-slots; identical for any thread count.
  ParallelFor(ctx, static_cast<int>(num_blocks), [&](int blk) {
    const size_t b0 = static_cast<size_t>(blk) * block;
    const size_t nb = std::min(b0 + block, batch) - b0;
    const internal::PackedAffineBlock pack = internal::PackAffineBlock(
        param_rows, b0, nb, /*weight_offset=*/0,
        /*bias_offset=*/dim_ * classes, dim_, classes);

    const size_t cols = pack.cols;
    std::vector<double> logits(2 * cols);
    std::vector<double> totals(nb, 0.0);
    std::vector<double> probs(classes);
    for (size_t i = 0; i < data.num_samples(); i += 2) {
      const bool pair = i + 1 < data.num_samples();
      internal::BatchedAffinePair(pack, data.sample(i),
                                  pair ? data.sample(i + 1) : nullptr,
                                  logits.data(), logits.data() + cols);
      const size_t ns = pair ? 2 : 1;
      for (size_t s = 0; s < ns; ++s) {
        const int label = data.label(i + s);
        for (size_t b = 0; b < nb; ++b) {
          // Same softmax-loss arithmetic as ForwardSample, fed by the
          // batched logits: identical accumulation, identical result.
          const double* lg = logits.data() + s * cols + b * classes;
          double max_logit = lg[0];
          for (size_t c = 1; c < classes; ++c) {
            max_logit = std::max(max_logit, lg[c]);
          }
          double sum = 0.0;
          for (size_t c = 0; c < classes; ++c) {
            probs[c] = std::exp(lg[c] - max_logit);
            sum += probs[c];
          }
          totals[b] +=
              -std::log(std::max(probs[static_cast<size_t>(label)] / sum,
                                 1e-300));
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

double LogisticRegression::LossAndGradient(const Vector& params,
                                           const Dataset& data,
                                           Vector* grad) const {
  COMFEDSV_CHECK_EQ(params.size(), num_params());
  COMFEDSV_CHECK_EQ(data.dim(), dim_);
  COMFEDSV_CHECK(grad != nullptr);
  grad->Resize(num_params());
  grad->Fill(0.0);

  std::vector<double> probs(classes_);
  double total = 0.0;
  double* gw = grad->data();
  double* gb = grad->data() + dim_ * classes_;
  for (size_t i = 0; i < data.num_samples(); ++i) {
    const double* x = data.sample(i);
    const int y = data.label(i);
    total += ForwardSample(params, x, y, probs.data());
    // dL/dlogit_c = p_c - 1{c == y}
    probs[y] -= 1.0;
    for (size_t j = 0; j < dim_; ++j) {
      const double xj = x[j];
      if (xj == 0.0) continue;
      double* gw_row = gw + j * classes_;
      for (int c = 0; c < classes_; ++c) gw_row[c] += xj * probs[c];
    }
    for (int c = 0; c < classes_; ++c) gb[c] += probs[c];
  }
  const double inv_n =
      data.empty() ? 0.0 : 1.0 / static_cast<double>(data.num_samples());
  grad->Scale(inv_n);
  grad->Axpy(l2_penalty_, params);
  return total * inv_n + 0.5 * l2_penalty_ * params.Dot(params);
}

int LogisticRegression::Predict(const Vector& params, const double* x) const {
  std::vector<double> probs(classes_);
  ForwardSample(params, x, /*label=*/-1, probs.data());
  return static_cast<int>(std::max_element(probs.begin(), probs.end()) -
                          probs.begin());
}

}  // namespace comfedsv
