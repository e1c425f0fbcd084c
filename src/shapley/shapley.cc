#include "shapley/shapley.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"
#include "common/combinatorics.h"

namespace comfedsv {

namespace {

// Chunk size for prefetch submissions: bounds transient Coalition
// storage while giving the batched engine many blocks per submission.
constexpr size_t kPrefetchChunk = 8192;

}  // namespace

Result<Vector> ExactShapley(int universe_size,
                            const std::vector<int>& players,
                            const UtilityFn& utility, int max_players,
                            ThreadPool* pool,
                            const UtilityPrefetchFn& prefetch) {
  const int m = static_cast<int>(players.size());
  if (m == 0) return Status::InvalidArgument("no players");
  if (m > max_players) {
    return Status::InvalidArgument(
        "too many players for exact enumeration");
  }

  // Evaluate the utility of every subset of `players`, indexed by the
  // local bitmask over positions in `players`. Each subset writes its own
  // slot, so the parallel and sequential evaluations agree bit for bit.
  const uint32_t num_subsets = 1u << m;
  auto subset_coalition = [&](uint32_t mask) {
    Coalition c(universe_size);
    for (int p = 0; p < m; ++p) {
      if (mask & (1u << p)) c.Add(players[p]);
    }
    return c;
  };

  // Hand the whole subset lattice to the batched evaluator first (in
  // ascending-mask chunks): consecutive masks share ascending prefixes,
  // which is exactly the access pattern the incremental aggregator and
  // the BatchLoss engine amortize best.
  if (prefetch != nullptr) {
    std::vector<Coalition> batch;
    batch.reserve(std::min<size_t>(num_subsets - 1, kPrefetchChunk));
    for (uint32_t mask = 1; mask < num_subsets; ++mask) {
      batch.push_back(subset_coalition(mask));
      if (batch.size() == kPrefetchChunk) {
        prefetch(batch);
        batch.clear();
      }
    }
    if (!batch.empty()) prefetch(batch);
  }

  std::vector<double> subset_utility(num_subsets);
  auto eval_subset = [&](int mask_index) {
    const uint32_t mask = static_cast<uint32_t>(mask_index);
    subset_utility[mask] = utility(subset_coalition(mask));
  };
  if (pool != nullptr) {
    pool->ParallelFor(static_cast<int>(num_subsets), eval_subset);
  } else {
    for (uint32_t mask = 0; mask < num_subsets; ++mask) {
      eval_subset(static_cast<int>(mask));
    }
  }

  // phi_i = (1/m) sum_{S not containing i} [1 / C(m-1, |S|)]
  //         * [U(S + i) - U(S)].
  // The weight depends only on |S|: hoist the divisions out of the
  // 2^m * m mask loop (as comfedsv_values.cc::ExactSumOverCoalitions
  // does). Same operations per term, so the output is bit-identical.
  std::vector<double> size_weight(m);
  for (int s = 0; s < m; ++s) size_weight[s] = 1.0 / Binomial(m - 1, s);
  Vector values(universe_size);
  for (int p = 0; p < m; ++p) {
    const uint32_t bit = 1u << p;
    double acc = 0.0;
    for (uint32_t mask = 0; mask < num_subsets; ++mask) {
      if (mask & bit) continue;
      const int s = std::popcount(mask);
      acc += size_weight[s] *
             (subset_utility[mask | bit] - subset_utility[mask]);
    }
    values[players[p]] = acc / static_cast<double>(m);
  }
  return values;
}

namespace {

// TMC-style truncated walks (SamplerKind::kTruncated). The scan proceeds
// position-by-position in lockstep across all permutations: each wave
// collects the next prefix of every still-active walk, submits the whole
// wave to the batched evaluator, then reads the utilities back in
// permutation order and applies the truncation rule. Tail prefixes of
// truncated walks are never evaluated — that is the loss-call saving —
// and every decision depends only on utilities, so the result is
// identical for any thread count.
Vector TruncatedWalkEstimate(int universe_size,
                             const std::vector<int>& players,
                             const UtilityFn& utility,
                             const std::vector<std::vector<int>>& orders,
                             double tolerance,
                             const UtilityPrefetchFn& prefetch) {
  const int m = static_cast<int>(players.size());
  const int num_permutations = static_cast<int>(orders.size());

  // The truncation reference U(grand): every permutation's final prefix,
  // so in the untruncated estimator it is evaluated anyway.
  Coalition grand = Coalition::FromMembers(universe_size, players);
  if (prefetch != nullptr) prefetch({grand});
  const double grand_utility = utility(grand);

  struct WalkState {
    Coalition prefix;
    double prev_utility = 0.0;  // U(empty) = 0 by convention
    bool active = true;
  };
  std::vector<WalkState> walks(num_permutations);
  for (WalkState& w : walks) w.prefix = Coalition(universe_size);

  std::vector<Vector> deltas(num_permutations,
                             Vector(universe_size));  // zero-initialized
  std::vector<Coalition> wave;
  for (int pos = 0; pos < m; ++pos) {
    wave.clear();
    for (int sample = 0; sample < num_permutations; ++sample) {
      if (!walks[sample].active) continue;
      walks[sample].prefix.Add(orders[sample][pos]);
      wave.push_back(walks[sample].prefix);
    }
    if (wave.empty()) break;
    if (prefetch != nullptr) prefetch(wave);
    for (int sample = 0; sample < num_permutations; ++sample) {
      WalkState& w = walks[sample];
      if (!w.active) continue;
      const double cur_utility = utility(w.prefix);
      deltas[sample][orders[sample][pos]] = cur_utility - w.prev_utility;
      w.prev_utility = cur_utility;
      // Within tolerance of the grand coalition: the remaining tail's
      // marginals stay 0 (their deltas were zero-initialized) and its
      // prefixes are never submitted.
      if (std::abs(grand_utility - cur_utility) <= tolerance) {
        w.active = false;
      }
    }
  }

  Vector values(universe_size);
  for (int sample = 0; sample < num_permutations; ++sample) {
    values += deltas[sample];
  }
  values.Scale(1.0 / static_cast<double>(num_permutations));
  return values;
}

// Adaptive stratified estimator (SamplerConfig::adaptive). Cells are
// (player index p, coalition size s) -> p * m + s; a cell sample is the
// marginal U(S + p) - U(S) for a uniform size-s subset S of the other
// players, so phi_{players[p]} = (1/m) sum_s E[cell(p, s)] and the
// estimate from cell means is unbiased as long as every cell holds at
// least one sample (the coverage pass guarantees that). Pilot walks are
// full permutation walks — position pos of a walk is a valid uniform
// sample of cell (ord[pos], pos) — so pilot marginals seed the whole
// grid at m samples per walk. Waves then draw per-cell subsets in cell
// index order, submit each wave as one batched prefetch, and read the
// utilities back in the same order; every Rng draw and Welford update is
// on the calling thread, so the result is thread-count invariant.
Vector AdaptiveStratifiedEstimate(
    int universe_size, const std::vector<int>& players,
    const UtilityFn& utility,
    const std::vector<std::vector<int>>& pilot_orders, int64_t wave_marginals,
    const AdaptiveBudgetConfig& cfg, Rng* rng,
    const UtilityPrefetchFn& prefetch) {
  const int m = static_cast<int>(players.size());
  AdaptiveBudgetAllocator allocator(m * m, cfg.min_cell_samples);

  std::vector<int> index_of;  // player id -> position in `players`
  {
    int max_id = 0;
    for (int p : players) max_id = std::max(max_id, p);
    index_of.assign(static_cast<size_t>(max_id) + 1, -1);
    for (int p = 0; p < m; ++p) index_of[players[p]] = p;
  }

  // Pilot phase: plain permutation walks, batched through the prefetch
  // hook, read back sequentially so every marginal lands in its cell in
  // a fixed order.
  if (prefetch != nullptr && !pilot_orders.empty()) {
    std::vector<Coalition> batch;
    batch.reserve(std::min(pilot_orders.size() * m, kPrefetchChunk));
    for (const std::vector<int>& ord : pilot_orders) {
      Coalition prefix(universe_size);
      for (int member : ord) {
        prefix.Add(member);
        batch.push_back(prefix);
        if (batch.size() == kPrefetchChunk) {
          prefetch(batch);
          batch.clear();
        }
      }
    }
    if (!batch.empty()) prefetch(batch);
  }
  for (const std::vector<int>& ord : pilot_orders) {
    Coalition prefix(universe_size);
    double prev_utility = 0.0;  // U(empty) = 0 by convention
    for (int pos = 0; pos < m; ++pos) {
      prefix.Add(ord[pos]);
      const double cur_utility = utility(prefix);
      allocator.Record(index_of[ord[pos]] * m + pos,
                       cur_utility - prev_utility);
      prev_utility = cur_utility;
    }
  }

  // One planned cell draw: subset + its superset, evaluated after the
  // wave's batch submission.
  struct CellDraw {
    int cell;
    Coalition without;  // S (may be empty at s = 0)
    Coalition with;     // S + players[p]
  };
  std::vector<int> others(static_cast<size_t>(m > 1 ? m - 1 : 0));
  auto make_draw = [&](int cell) {
    const int p = cell / m;
    const int s = cell % m;
    others.clear();
    for (int q = 0; q < m; ++q) {
      if (q != p) others.push_back(players[q]);
    }
    rng->Shuffle(&others);
    CellDraw draw;
    draw.cell = cell;
    draw.without = Coalition(universe_size);
    for (int k = 0; k < s; ++k) draw.without.Add(others[k]);
    draw.with = draw.without;
    draw.with.Add(players[p]);
    return draw;
  };
  // Executes a wave plan with mirror-paired shared-subset draws. One
  // uniform size-s coalition S (over all m players) serves every
  // still-needy player p outside it twice: stratum s through (S, S+p)
  // and the mirrored stratum m-1-s through (S^c \ p, S^c). Both sides
  // are distribution-correct — S conditioned on p not being a member is
  // a uniform size-s subset of the others, and S^c \ p is then a
  // uniform size-(m-1-s) one — so every cell keeps its stratified
  // sampling law. The sharing amortizes the subset's loss call over
  // every player it serves (just over one call per marginal sample
  // instead of two), and the mirroring is the antithetic cancellation
  // inside the cell grid: for any other player q, q is in exactly one
  // of S and S^c \ p, so pairwise-synergy contributions sum to a
  // constant across the mirrored pair of samples. Draw order is fixed
  // — stratum pairs ascending, players in index order within a shared
  // subset — so the sample stream, and with it the estimate, is
  // thread-count invariant.
  std::vector<int> scratch(players);
  std::vector<char> in_subset(static_cast<size_t>(m), 0);
  auto run_draws = [&](const std::vector<int>& plan) {
    std::vector<CellDraw> draws;
    std::vector<int> need(plan);
    for (int s = 0; s + s <= m - 1; ++s) {
      const int mirror = m - 1 - s;
      int64_t total = 0;
      for (int p = 0; p < m; ++p) {
        total += need[p * m + s];
        if (mirror != s) total += need[p * m + mirror];
      }
      if (total == 0) continue;
      // The rejection loop (a needy player may keep landing inside S)
      // is capped; stragglers fall back to direct per-cell draws.
      int64_t attempts = 8 * total + 16 * m;
      while (total > 0 && attempts-- > 0) {
        rng->Shuffle(&scratch);
        std::fill(in_subset.begin(), in_subset.end(), 0);
        Coalition without(universe_size);
        for (int k = 0; k < s; ++k) {
          without.Add(scratch[k]);
          in_subset[index_of[scratch[k]]] = 1;
        }
        Coalition complement(universe_size);  // S^c, size m - s
        for (int k = s; k < m; ++k) complement.Add(scratch[k]);
        for (int p = 0; p < m && total > 0; ++p) {
          if (in_subset[p] != 0) continue;
          if (need[p * m + s] > 0) {
            CellDraw draw;
            draw.cell = p * m + s;
            draw.without = without;
            draw.with = without;
            draw.with.Add(players[p]);
            draws.push_back(std::move(draw));
            --need[p * m + s];
            --total;
          }
          if (mirror != s && need[p * m + mirror] > 0) {
            CellDraw draw;
            draw.cell = p * m + mirror;
            draw.with = complement;
            draw.without = complement;
            draw.without.Remove(players[p]);
            draws.push_back(std::move(draw));
            --need[p * m + mirror];
            --total;
          }
        }
      }
      for (int p = 0; p < m; ++p) {
        for (int k = 0; k < need[p * m + s]; ++k) {
          draws.push_back(make_draw(p * m + s));
        }
        need[p * m + s] = 0;
        if (mirror != s) {
          for (int k = 0; k < need[p * m + mirror]; ++k) {
            draws.push_back(make_draw(p * m + mirror));
          }
          need[p * m + mirror] = 0;
        }
      }
    }
    if (draws.empty()) return;
    if (prefetch != nullptr) {
      std::vector<Coalition> batch;
      batch.reserve(std::min(draws.size() * 2, kPrefetchChunk));
      for (const CellDraw& d : draws) {
        if (!d.without.IsEmpty()) batch.push_back(d.without);
        batch.push_back(d.with);
        if (batch.size() >= kPrefetchChunk) {
          prefetch(batch);
          batch.clear();
        }
      }
      if (!batch.empty()) prefetch(batch);
    }
    for (const CellDraw& d : draws) {
      const double base = d.without.IsEmpty() ? 0.0 : utility(d.without);
      allocator.Record(d.cell, utility(d.with) - base);
    }
  };

  // Reallocation waves over the post-pilot budget, remainder spread over
  // the leading waves.
  const int num_waves = std::max(cfg.waves, 1);
  for (int w = 0; w < num_waves; ++w) {
    const int64_t share = wave_marginals / num_waves +
                          (w < wave_marginals % num_waves ? 1 : 0);
    if (share <= 0) continue;
    run_draws(allocator.PlanWave(static_cast<int>(share)));
  }

  // Coverage pass: a cell left empty (budget smaller than the grid minus
  // what the pilot covered) would silently drop its stratum from the
  // estimate — force one sample each instead. At most m*m extra draws,
  // and only when the budget was near the fallback threshold anyway.
  std::vector<int> uncovered(static_cast<size_t>(allocator.num_cells()), 0);
  bool any_uncovered = false;
  for (int cell = 0; cell < allocator.num_cells(); ++cell) {
    if (allocator.cell(cell).count == 0) {
      uncovered[cell] = 1;
      any_uncovered = true;
    }
  }
  if (any_uncovered) run_draws(uncovered);

  Vector values(universe_size);
  for (int p = 0; p < m; ++p) {
    double acc = 0.0;
    for (int s = 0; s < m; ++s) acc += allocator.cell(p * m + s).mean;
    values[players[p]] = acc / static_cast<double>(m);
  }
  return values;
}

}  // namespace

Result<Vector> MonteCarloShapley(int universe_size,
                                 const std::vector<int>& players,
                                 const UtilityFn& utility,
                                 int num_permutations, Rng* rng,
                                 ThreadPool* pool,
                                 const UtilityPrefetchFn& prefetch,
                                 const SamplerConfig& sampler) {
  if (players.empty()) return Status::InvalidArgument("no players");
  if (num_permutations <= 0) {
    return Status::InvalidArgument("num_permutations must be positive");
  }
  if (sampler.kind == SamplerKind::kTruncated &&
      sampler.truncation_tolerance < 0.0) {
    return Status::InvalidArgument(
        "truncation_tolerance must be non-negative");
  }
  COMFEDSV_CHECK(rng != nullptr);

  const int m = static_cast<int>(players.size());

  if (sampler.adaptive.enabled) {
    const AdaptiveBudgetConfig& cfg = sampler.adaptive;
    if (cfg.pilot_permutations < 0) {
      return Status::InvalidArgument("pilot_permutations must be >= 0");
    }
    if (cfg.waves <= 0) {
      return Status::InvalidArgument("adaptive waves must be positive");
    }
    if (cfg.min_cell_samples < 1) {
      return Status::InvalidArgument("min_cell_samples must be >= 1");
    }
    // Only run adaptively when the budget can plausibly cover the m*m
    // cell grid; below that the plain sampler is both safer and cheaper.
    if (num_permutations >= 2 * m) {
      int pilot = cfg.pilot_permutations > 0 ? cfg.pilot_permutations
                                             : std::max(2, num_permutations / 8);
      pilot = std::min(pilot, num_permutations);
      const std::vector<std::vector<int>> pilot_orders = DrawOrderings(
          sampler, players, pilot, rng, /*reset_between_draws=*/false);
      const int64_t wave_marginals =
          static_cast<int64_t>(num_permutations - pilot) * m;
      return AdaptiveStratifiedEstimate(universe_size, players, utility,
                                        pilot_orders, wave_marginals, cfg,
                                        rng, prefetch);
    }
  }

  // Draw every ordering sequentially first: the sampled orderings (and
  // so the estimate) depend only on `rng`, never on thread scheduling.
  // The chained draw convention (reset_between_draws = false) reproduces
  // the pre-sampler uniform sequence bit for bit.
  std::vector<std::vector<int>> orders = DrawOrderings(
      sampler, players, num_permutations, rng,
      /*reset_between_draws=*/false);

  if (sampler.kind == SamplerKind::kTruncated) {
    return TruncatedWalkEstimate(universe_size, players, utility, orders,
                                 sampler.truncation_tolerance, prefetch);
  }

  // Submit every permutation prefix to the batched evaluator up front
  // (deduping happens there); the marginal-contribution walks below then
  // read utilities from its cache.
  if (prefetch != nullptr) {
    std::vector<Coalition> batch;
    batch.reserve(std::min(static_cast<size_t>(num_permutations) * m,
                           kPrefetchChunk));
    for (const std::vector<int>& ord : orders) {
      Coalition prefix(universe_size);
      for (int member : ord) {
        prefix.Add(member);
        batch.push_back(prefix);
        if (batch.size() == kPrefetchChunk) {
          prefetch(batch);
          batch.clear();
        }
      }
    }
    if (!batch.empty()) prefetch(batch);
  }

  // Each permutation's marginal-contribution walk fills its own delta
  // vector (one entry per player); the deltas are then reduced in
  // permutation order, which reproduces the single-threaded accumulation
  // order exactly.
  std::vector<Vector> deltas(num_permutations);
  auto walk = [&](int sample) {
    const std::vector<int>& ord = orders[sample];
    Vector delta(universe_size);
    Coalition prefix(universe_size);
    double prev_utility = 0.0;  // U(empty) = 0 by convention
    for (int pos = 0; pos < m; ++pos) {
      prefix.Add(ord[pos]);
      const double cur_utility = utility(prefix);
      delta[ord[pos]] = cur_utility - prev_utility;
      prev_utility = cur_utility;
    }
    deltas[sample] = std::move(delta);
  };
  if (pool != nullptr) {
    pool->ParallelFor(num_permutations, walk);
  } else {
    for (int sample = 0; sample < num_permutations; ++sample) walk(sample);
  }

  Vector values(universe_size);
  for (int sample = 0; sample < num_permutations; ++sample) {
    values += deltas[sample];
  }
  values.Scale(1.0 / static_cast<double>(num_permutations));
  return values;
}

int DefaultPermutationBudget(int num_players) {
  COMFEDSV_CHECK_GT(num_players, 0);
  const double suggested =
      std::ceil(static_cast<double>(num_players) *
                std::log(static_cast<double>(num_players) + 1.0));
  return std::max(8, static_cast<int>(suggested));
}

}  // namespace comfedsv
