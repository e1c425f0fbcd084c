#include "shapley/utility.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>

#include "common/check.h"
#include "linalg/matrix.h"
#include "models/batch_kernels.h"

namespace comfedsv {

CoalitionAggregator::CoalitionAggregator(const RoundRecord* record)
    : record_(record), dim_(record->global_before.size()) {
  COMFEDSV_CHECK(record_ != nullptr);
}

void CoalitionAggregator::MeanInto(const Coalition& coalition, double* out) {
  members_scratch_.clear();
  coalition.ForEachMember([this](int member) {
    COMFEDSV_CHECK_LT(static_cast<size_t>(member),
                      record_->local_models.size());
    members_scratch_.push_back(member);
  });
  const size_t count = members_scratch_.size();
  COMFEDSV_CHECK_GT(count, 0u);

  // Longest shared ascending prefix with the previous coalition's chain.
  size_t keep = 0;
  while (keep < depth_ && keep < count &&
         chain_[keep] == members_scratch_[keep]) {
    ++keep;
  }
  depth_ = keep;
  chain_.resize(std::max(chain_.size(), count));
  // Extend the chain: one Axpy per member beyond the shared prefix.
  for (size_t k = depth_; k < count; ++k) {
    if (partials_.size() <= k) partials_.emplace_back(dim_);
    std::vector<double>& dst = partials_[k];
    const int member = members_scratch_[k];
    const Vector& local = record_->local_models[member];
    COMFEDSV_CHECK_EQ(local.size(), dim_);
    if (k == 0) {
      // 0.0 + x, not x: the sequential path Axpys into a zero vector,
      // which flips -0.0 inputs to +0.0 — reproduce that exactly.
      const double* lp = local.data();
      for (size_t i = 0; i < dim_; ++i) dst[i] = 0.0 + lp[i];
    } else {
      const std::vector<double>& prev = partials_[k - 1];
      const double* lp = local.data();
      for (size_t i = 0; i < dim_; ++i) dst[i] = prev[i] + lp[i];
    }
    chain_[k] = member;
    ++depth_;
  }

  const double inv = 1.0 / static_cast<double>(count);
  const std::vector<double>& sum = partials_[count - 1];
  for (size_t i = 0; i < dim_; ++i) out[i] = sum[i] * inv;
}

RoundUtility::RoundUtility(const Model* model, const Dataset* test_data,
                           const RoundRecord* record, ExecutionContext* ctx,
                           UtilityStats* stats)
    : model_(model),
      test_data_(test_data),
      record_(record),
      ctx_(ctx),
      stats_(stats) {
  COMFEDSV_CHECK(model_ != nullptr);
  COMFEDSV_CHECK(test_data_ != nullptr);
  COMFEDSV_CHECK(record_ != nullptr);
}

double RoundUtility::Utility(const Coalition& coalition) {
  if (coalition.IsEmpty()) return 0.0;
  {
    MutexLock lock(mu_);
    auto it = cache_.find(coalition);
    if (it != cache_.end()) {
      if (stats_ != nullptr) ++stats_->memo_hits;
      return it->second;
    }
  }

  // Average the coalition members' local models. Computed outside the
  // lock: the test-set loss below dominates every caller's runtime.
  Vector aggregate(record_->global_before.size());
  int count = 0;
  coalition.ForEachMember([this, &aggregate, &count](int k) {
    COMFEDSV_CHECK_LT(static_cast<size_t>(k), record_->local_models.size());
    aggregate.Axpy(1.0, record_->local_models[k]);
    ++count;
  });
  aggregate.Scale(1.0 / static_cast<double>(count));

  const double loss = model_->Loss(aggregate, *test_data_);
  const double utility = record_->test_loss_before - loss;

  MutexLock lock(mu_);
  auto [it, inserted] = cache_.emplace(coalition, utility);
  if (inserted) {
    ++distinct_evaluations_;
    if (stats_ != nullptr) {
      ++stats_->loss_calls;
      ++stats_->distinct_coalitions;
    }
  } else if (stats_ != nullptr) {
    // Lost a compute race: the value was already cached by another
    // thread, so this thread's work resolved as a hit.
    ++stats_->memo_hits;
  }
  return it->second;
}

void RoundUtility::RecordPredicted(const Coalition& coalition, double value,
                                   double bias_bound) {
  if (coalition.IsEmpty()) return;
  MutexLock lock(mu_);
  auto [it, inserted] = cache_.emplace(coalition, value);
  (void)it;
  if (!inserted) return;
  ++distinct_evaluations_;
  if (stats_ != nullptr) {
    ++stats_->distinct_coalitions;
    ++stats_->surrogate_skips;
    stats_->surrogate_bias_bound += bias_bound;
  }
}

void RoundUtility::EvaluateBatch(const std::vector<Coalition>& coalitions) {
  // Dedup against the cache and within the batch, preserving submission
  // order so counters and cache fills are deterministic.
  std::vector<Coalition> pending;
  {
    MutexLock lock(mu_);
    std::unordered_set<Coalition, CoalitionHash> seen;
    seen.reserve(coalitions.size());
    for (const Coalition& c : coalitions) {
      if (c.IsEmpty()) continue;
      if (cache_.find(c) != cache_.end()) {
        if (stats_ != nullptr) ++stats_->memo_hits;
        continue;
      }
      if (seen.insert(c).second) {
        pending.push_back(c);
      } else if (stats_ != nullptr) {
        ++stats_->memo_hits;
      }
    }
  }
  if (pending.empty()) return;

  // Blocks of kCoalitionBlock coalitions, or fewer when the batch is
  // small, so it still splits into about kMinBlocks tasks: with only a
  // few blocks per worker, workers that start late leave others idle at
  // the end (measured on CNN batches of ~63 coalitions when the CNN ran
  // one Loss per row; Cnn::BatchLoss costs about the same per row at
  // blocks of 4 and 8, so the rule holds there too). The block size
  // depends only on the batch, never on the thread count.
  //
  // One task per worker pulls blocks in turn, forms each block's means
  // with its own aggregator and runs the block's BatchLoss inline, so
  // aggregation runs in parallel with the loss passes. A task keeps its
  // aggregator and buffers across blocks: allocating them per block made
  // the 1-thread evaluate_batch_mlp micro-bench ~1.4x slower (page-fault
  // churn). Each mean is a left fold from zero, so which blocks a task
  // saw before never changes a result.
  constexpr size_t kMinBlocks = 16;
  const size_t params = record_->global_before.size();
  const size_t block = std::clamp<size_t>(
      (pending.size() + kMinBlocks - 1) / kMinBlocks, 1,
      internal::kCoalitionBlock);
  const size_t num_blocks = (pending.size() + block - 1) / block;
  const int tasks = static_cast<int>(std::min<size_t>(
      num_blocks, ctx_ != nullptr ? ctx_->parallelism() : 1));
  std::vector<double> losses(pending.size());
  std::atomic<size_t> next_block{0};
  ParallelFor(ctx_, tasks, [&](int) {
    CoalitionAggregator aggregator(record_);
    Matrix stacked;
    std::vector<double> out;
    for (size_t blk = next_block.fetch_add(1); blk < num_blocks;
         blk = next_block.fetch_add(1)) {
      const size_t b0 = blk * block;
      const size_t n = std::min(b0 + block, pending.size()) - b0;
      if (stacked.rows() != n) stacked = Matrix(n, params);
      for (size_t r = 0; r < n; ++r) {
        aggregator.MeanInto(pending[b0 + r], stacked.RowPtr(r));
      }
      model_->BatchLoss(stacked, *test_data_, &out, /*ctx=*/nullptr);
      std::copy(out.begin(), out.end(), losses.begin() + b0);
    }
  });

  // Fill the cache in submission order, once the whole batch is done.
  MutexLock lock(mu_);
  if (stats_ != nullptr) {
    stats_->batched_calls += static_cast<int64_t>(num_blocks);
  }
  for (size_t r = 0; r < pending.size(); ++r) {
    auto [it, inserted] =
        cache_.emplace(pending[r], record_->test_loss_before - losses[r]);
    if (inserted) {
      ++distinct_evaluations_;
      if (stats_ != nullptr) {
        ++stats_->loss_calls;
        ++stats_->distinct_coalitions;
      }
    } else if (stats_ != nullptr) {
      // Lost a fill race with a concurrent Utility() for the same
      // coalition: resolve this submission as a hit, mirroring the
      // race-loser branch in Utility(). Every submitted coalition
      // thereby lands in exactly one counter, so loss_calls +
      // memo_hits + surrogate_skips equals total submissions no
      // matter how the race interleaves.
      ++stats_->memo_hits;
    }
  }
}

}  // namespace comfedsv
