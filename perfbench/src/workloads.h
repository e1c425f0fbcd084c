// The benchmark's three workloads. Each one builds its inputs from a seed
// and runs them through the library's public API, exactly as a user
// would; a traced run additionally opens a span around every call.
//
//   fig8-mlp         one RunValuation (FedSV + sampled ComFedSV) on
//                    MNIST-sim with the MLP — the paper's Fig. 8 cost case
//   stream-logistic  StreamingValuationEngine on synthetic/logistic with a
//                    snapshot per round, spill, and engine checkpoints
//                    every fifth round, then a replay of the spilled log
//   durable-cnn      RunValuationCheckpointed on CIFAR10-sim with the CNN,
//                    checkpointing every round with round-log spill, then
//                    RunValuationFromLog over that log
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/comfedsv_api.h"
#include "trace.h"

namespace perfbench {

/// Counts attempted and failed operations; a failure is reported on
/// stderr with what failed.
class Tally {
 public:
  /// Records one operation; returns `ok`.
  bool Check(bool ok, const std::string& what);
  bool Check(const comfedsv::Status& status, const std::string& what);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// The per-client values a run produced.
struct Values {
  comfedsv::Vector fedsv;
  comfedsv::Vector comfedsv;
};

/// True when both vectors hold the same doubles, bit for bit.
bool BitIdentical(const Values& a, const Values& b);

/// Everything a workload's run is built from.
struct Inputs {
  std::vector<comfedsv::Dataset> clients;
  comfedsv::Dataset test;
  std::unique_ptr<comfedsv::Model> model;
  comfedsv::FedAvgConfig fed;
  comfedsv::ValuationRequest request;
};

/// Where and how one run executes. `model` is the inputs' model or its
/// tracing decorator; `env` is null (the real file system) or the
/// tracing decorator; `tracer` is null in untraced runs.
struct RunEnv {
  const comfedsv::Model* model = nullptr;
  comfedsv::ExecutionContext* ctx = nullptr;
  comfedsv::FileEnv* env = nullptr;
  Tracer* tracer = nullptr;
  /// Empty directory for checkpoint and log files.
  std::string workdir;
  Tally* tally = nullptr;
};

/// What a run reports besides its values.
struct RunOutput {
  Values values;
  /// FedSV plus ComFedSV UtilityStats::loss_calls.
  int64_t loss_calls = 0;
  /// FedSV plus ComFedSV UtilityStats::memo_hits.
  int64_t memo_hits = 0;
  /// Streaming only: ms from handing a round to the engine until its
  /// snapshot is served (OnRound + Snapshot + SaveCheckpoint when due).
  std::vector<double> update_ms;
  /// Streaming only: completion sweeps summed over every snapshot.
  int64_t snapshot_sweeps = 0;
};

/// Completion statistics of one CompleteMatrix call on a recorder's
/// observations.
struct CompletionProbe {
  double solve_s = 0.0;
  int sweeps = 0;
  int64_t observed_entries = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string name() const = 0;
  /// Builds the inputs for `seed`. `quick` shortens the run (fewer
  /// rounds) for the benchmark's smoke test.
  virtual Inputs Setup(uint64_t seed, bool quick) const = 0;
  /// The workload's own calls into the library, including a replay of
  /// the round log on workloads that spill one.
  virtual RunOutput Run(const Inputs& in, const RunEnv& env) const = 0;
};

/// The workload named `name`, or null.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

/// The same trajectory as Run, driven call by call through the public
/// lifecycle — FedAvgTrainer Begin/Step/Finish feeding FedSvEvaluator and
/// ComFedSvEvaluator, then Finalize — so a traced run can time each
/// layer. Also times CompleteMatrix on the recorder's observations and
/// checks that its objective equals the one Finalize reported. Returns
/// the values, which must equal Run's bit for bit.
Values Breakdown(const Inputs& in, const RunEnv& env,
                 CompletionProbe* probe);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
