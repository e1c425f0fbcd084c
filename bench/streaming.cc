// Streaming valuation bench: warm-started re-solves vs cold re-solves
// along a streaming round sequence.
//
// The StreamingValuationEngine re-solves the completion every
// `resolve_cadence` rounds, warm-starting from the previous factors. At
// every re-solve point this bench runs both paths on the identical
// observation prefix — the engine's warm Snapshot() and the cold
// batch-equivalent Finalize() — and records sweep counts, wall seconds,
// and final objectives. The acceptance claim is that warm start reaches
// an equal final objective (same solver, same convergence tolerance) in
// measurably fewer sweeps and seconds.
//
// Writes BENCH_streaming.json (schema documented in README.md).
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "core/streaming.h"

namespace comfedsv {
namespace bench {
namespace {

struct SolverCase {
  const char* name;
  CompletionSolver solver;
};

void RunStreamingBench(bool full_scale, BenchJsonWriter* json) {
  WorkloadOptions opt;
  opt.num_clients = full_scale ? 20 : 10;
  opt.samples_per_client = full_scale ? 200 : 80;
  opt.seed = 7;
  Workload w = MakeWorkload(PaperDataset::kSynthetic, opt);

  FedAvgConfig fed;
  fed.num_rounds = full_scale ? 60 : 24;
  fed.clients_per_round = std::max(2, opt.num_clients / 3);
  fed.select_all_first_round = true;
  fed.lr = LearningRateSchedule::Constant(0.1);
  fed.seed = 17;

  const int cadence = full_scale ? 6 : 4;
  const SolverCase solvers[] = {
      {"als", CompletionSolver::kAls},
      {"ccd++", CompletionSolver::kCcd},
  };

  for (const SolverCase& sc : solvers) {
    ValuationRequest request;
    request.compute_fedsv = false;
    request.compute_comfedsv = true;
    request.comfedsv.mode = ComFedSvConfig::Mode::kSampled;
    // Keep the completion problem determined enough that every solver
    // converges inside the sweep budget (rows quickly exceed the rank,
    // lambda regularizes the early underdetermined prefixes): the bench
    // compares sweeps-to-convergence, so capped solves would measure
    // nothing.
    request.comfedsv.num_permutations = full_scale ? 24 : 10;
    request.comfedsv.completion.rank = 3;
    request.comfedsv.completion.lambda = 1e-2;
    request.comfedsv.completion.max_iters = 2000;
    request.comfedsv.completion.tolerance = 1e-9;
    request.comfedsv.completion.solver = sc.solver;
    request.comfedsv.completion.seed = 23;
    request.comfedsv.seed = 29;

    StreamingConfig streaming;
    streaming.request = request;
    streaming.resolve_cadence = cadence;
    streaming.warm_start = true;

    StreamingValuationEngine engine(w.model.get(), &w.test,
                                    opt.num_clients, streaming);
    FedAvgTrainer trainer(w.model.get(), w.clients, w.test, fed);
    COMFEDSV_CHECK_OK(trainer.Begin());

    double warm_sweeps_total = 0.0, cold_sweeps_total = 0.0;
    double warm_seconds_total = 0.0, cold_seconds_total = 0.0;
    while (!trainer.Done()) {
      engine.OnRound(trainer.Step());
      if (engine.rounds_consumed() % cadence != 0) continue;

      // Warm path: the engine's snapshot solve (first one is cold — the
      // engine has no factors yet — so the cadence-point records below
      // start from the second re-solve point).
      Stopwatch warm_timer;
      Result<ValuationOutcome> warm = engine.Snapshot();
      const double warm_seconds = warm_timer.ElapsedSeconds();
      COMFEDSV_CHECK_OK(warm.status());

      // Cold path: identical observation prefix, fresh random init and
      // (for ALS) the staged rank-growth pre-phase.
      Stopwatch cold_timer;
      Result<ValuationOutcome> cold = engine.Finalize();
      const double cold_seconds = cold_timer.ElapsedSeconds();
      COMFEDSV_CHECK_OK(cold.status());

      const ComFedSvOutput& wout = *warm.value().comfedsv;
      const ComFedSvOutput& cout_ = *cold.value().comfedsv;
      const bool first_solve = engine.rounds_consumed() == cadence;
      if (!first_solve) {
        warm_sweeps_total += wout.completion.iterations;
        cold_sweeps_total += cout_.completion.iterations;
        warm_seconds_total += warm_seconds;
        cold_seconds_total += cold_seconds;
      }

      json->BeginRecord();
      json->Field("solver", sc.name);
      json->Field("rounds", static_cast<double>(engine.rounds_consumed()));
      json->Field("first_solve", first_solve);
      json->Field("warm_sweeps",
                  static_cast<double>(wout.completion.iterations));
      json->Field("cold_sweeps",
                  static_cast<double>(cout_.completion.iterations));
      json->Field("warm_seconds", warm_seconds);
      json->Field("cold_seconds", cold_seconds);
      json->Field("warm_objective", wout.completion.objective);
      json->Field("cold_objective", cout_.completion.objective);
      json->Field("warm_observed_rmse", wout.completion.observed_rmse);
      json->Field("cold_observed_rmse", cout_.completion.observed_rmse);
      const double obj_gap =
          std::fabs(wout.completion.objective -
                    cout_.completion.objective) /
          std::max(1e-300, std::fabs(cout_.completion.objective));
      json->Field("objective_rel_gap", obj_gap);
      std::printf(
          "%-6s rounds=%3d  warm %3d sweeps %.4fs  cold %3d sweeps %.4fs"
          "  obj gap %.2e%s\n",
          sc.name, engine.rounds_consumed(), wout.completion.iterations,
          warm_seconds, cout_.completion.iterations, cold_seconds,
          obj_gap, first_solve ? "  (first solve: warm==cold)" : "");
    }

    json->BeginRecord();
    json->Field("solver", sc.name);
    json->Field("summary", true);
    json->Field("warm_sweeps_total", warm_sweeps_total);
    json->Field("cold_sweeps_total", cold_sweeps_total);
    json->Field("warm_seconds_total", warm_seconds_total);
    json->Field("cold_seconds_total", cold_seconds_total);
    json->Field("sweep_ratio_warm_over_cold",
                cold_sweeps_total > 0 ? warm_sweeps_total / cold_sweeps_total
                                      : 1.0);
    json->Field("seconds_ratio_warm_over_cold",
                cold_seconds_total > 0
                    ? warm_seconds_total / cold_seconds_total
                    : 1.0);
    std::printf(
        "%-6s TOTAL (post-first re-solves): warm %.0f sweeps %.4fs vs "
        "cold %.0f sweeps %.4fs  (ratios %.2f sweeps, %.2f seconds)\n\n",
        sc.name, warm_sweeps_total, warm_seconds_total, cold_sweeps_total,
        cold_seconds_total,
        cold_sweeps_total > 0 ? warm_sweeps_total / cold_sweeps_total : 1.0,
        cold_seconds_total > 0 ? warm_seconds_total / cold_seconds_total
                               : 1.0);
  }
}

}  // namespace
}  // namespace bench
}  // namespace comfedsv

int main(int argc, char** argv) {
  using namespace comfedsv::bench;
  const bool full = FullScale(argc, argv);
  PrintHeader("streaming valuation",
              "warm-started completion re-solves vs cold re-solves along "
              "a streaming round sequence (equal tolerance => equal final "
              "objective)",
              full);
  BenchJsonWriter json("streaming");
  json.Meta("scale", full ? "full" : "reduced");
  RunStreamingBench(full, &json);
  return json.WriteFile() ? 0 : 1;
}
