// Checkpoint building blocks of a valuation run: the CheckpointConfig /
// CheckpointHealth records of RunValuationCheckpointed, the fingerprints
// a resume must match, and the evaluator-state chunk serializers.
//
// The composite checkpoint itself is written and restored by
// StreamingValuationEngine::SaveCheckpoint / RestoreCheckpoint (one
// code path for the pipeline and the streaming engine). With a trainer
// attached, its file (io/serialize.h container: magic "CFSV", version
// 4, checksum) holds one kValuationCheckpoint chunk:
//
//   u64 ValuationFingerprint (trainer config/data/model + request)
//   kTrainerState chunk
//   kStreamingEngineState chunk (engine fingerprint, consumed rounds,
//     per-round test losses, the evaluator states below, warm-start
//     factors, and — spill mode only — the round-log position)
//
// Every evaluator state chunk carries its UtilityStats, so a run killed
// after round t resumes with bit-identical values and the accounting of
// the whole trajectory (tests/determinism_test.cc enforces both). See
// README.md "The checkpoint file format".
#ifndef COMFEDSV_CORE_CHECKPOINTING_H_
#define COMFEDSV_CORE_CHECKPOINTING_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/evaluator.h"
#include "fl/fedavg.h"
#include "io/checkpoint.h"
#include "io/checkpoint_manager.h"
#include "io/round_log.h"
#include "io/serialize.h"
#include "shapley/fedsv.h"

namespace comfedsv {

struct ValuationRequest;  // core/pipeline.h

/// Where and how often RunValuationCheckpointed persists its state.
struct CheckpointConfig {
  /// Stem of the checkpoint generation files `path.<seq>`. Each save is
  /// atomic (write to a `.tmp`, fsync, rename), so a crash never
  /// corrupts the last good checkpoint.
  std::string path;
  /// Save after every k-th completed round (and always after the last).
  int every_rounds = 1;
  /// Load the newest resumable checkpoint before round 0 when one
  /// exists. A checkpoint written under a different config/data/model is
  /// an error, not a silent restart.
  bool resume = true;
  /// Test-only crash injection: abort the run (error Status) once this
  /// many rounds have completed, *after* the cadence save for that
  /// round. Negative disables. Lets tests exercise kill-at-round-t →
  /// resume without actually killing the process.
  int inject_crash_after_round = -1;

  // Durability policy, forwarded to the CheckpointManager (see
  // io/checkpoint_manager.h for the rotation / retry / salvage
  // contract).

  /// Generations to retain; >= 2 leaves an older one for salvage
  /// fallback on resume when the newest is corrupt.
  int keep_generations = 1;
  /// Retries per transient (Unavailable) I/O failure.
  int max_retries = 2;
  /// Base of the deterministic exponential retry backoff, ms.
  int retry_backoff_ms = 5;
  /// When true, the first failed spill append, round-log sync or
  /// cadence save (after retries) aborts the run with that operation's
  /// status. Default: the run degrades — it keeps training on the last
  /// good in-memory state and reports the failures in
  /// ValuationOutcome::checkpoint_health. A permanent failure
  /// (Status::IsPermanent, e.g. resuming over an intact round log in a
  /// retired encoding) aborts the run either way.
  bool require_durable = false;
  /// File system override for fault injection; nullptr = real.
  FileEnv* env = nullptr;

  // Spill-to-log (io/round_log.h): when round_log_path is non-empty,
  // every RoundRecord the run consumes is appended to a round log
  // there, fsynced before each cadence checkpoint (a failed sync fails
  // that save). Spill mode and the encoding are part of the resume
  // fingerprint. A resumed run
  // truncates the log back to the checkpointed round before appending,
  // so the final log is byte-identical to an uninterrupted run's —
  // RunValuationFromLog can then re-value the whole trajectory with
  // bounded resident memory.

  /// Round-log data file; `<path>.idx` holds the footer index. Empty =
  /// spill off.
  std::string round_log_path;
  /// On-disk encoding; kNone replays bit-identically, kQuant16 trades
  /// bounded valuation drift for space (see BENCH_roundlog.json).
  RoundLogCompression round_log_compression = RoundLogCompression::kNone;
  /// Persist the footer index every k-th append.
  int round_log_index_every = 1;
};

/// How checkpoint I/O fared over a RunValuationCheckpointed call —
/// returned in ValuationOutcome::checkpoint_health so callers can tell
/// "completed, fully durable" from "completed, but the last k saves
/// failed and a crash would lose those rounds". Filled in one place
/// from the engine's StreamingHealth (write_failures =
/// checkpoint_failures, round_log_failures = spill_failures) and the
/// CheckpointManager (orphan sweep, salvage, resumed sequence).
struct CheckpointHealth {
  /// True when the most recent save attempt failed (the engine is
  /// running on borrowed time; a crash loses rounds_since_durable
  /// rounds of progress).
  bool degraded = false;
  /// Cadence saves that failed after exhausting retries, including
  /// saves failed by the round-log sync ahead of them.
  int64_t write_failures = 0;
  /// Failed operations (spill, saves) since the last successful save
  /// (0 when healthy).
  int64_t consecutive_failures = 0;
  /// Last I/O error observed, empty when none.
  std::string last_error;
  /// Completed rounds not yet covered by a durable checkpoint.
  int rounds_since_durable = 0;
  /// Corrupt generations quarantined to `*.corrupt` during resume.
  int quarantined_on_resume = 0;
  /// Orphaned `.tmp` files removed by the startup sweep.
  int orphans_swept = 0;
  /// Header sequence of the generation the run resumed from (0 when the
  /// run started fresh).
  uint64_t resumed_sequence = 0;
  /// Round-log opens/appends/syncs that failed (spill mode only; the
  /// run kept training — replaying the log would miss those rounds
  /// until a resume truncates back past the gap).
  int64_t round_log_failures = 0;
  /// Rounds in the round log when the call finished (spill mode only;
  /// after a resume this includes the rounds logged before it).
  int round_log_rounds = 0;
  /// Bytes of the round log when the call finished (spill mode only).
  uint64_t round_log_bytes = 0;
};

/// Fingerprint of everything a checkpoint must agree on to be resumable:
/// the trainer's (config, full data contents, model identity)
/// fingerprint mixed with every field of the valuation request. Two
/// runs with equal fingerprints record identical per-round state.
uint64_t ValuationFingerprint(const FedAvgTrainer& trainer,
                              const ValuationRequest& request);

/// The request-only contribution to ValuationFingerprint — also the
/// compatibility key of StreamingValuationEngine state, which has no
/// trainer attached.
uint64_t RequestFingerprint(const ValuationRequest& request);

// State-chunk serializers for the evaluator states (io/checkpoint.h
// covers the lower-level types). Same contract: Save* writes one chunk,
// Load* validates tag/length/invariants and returns Status.
void SaveFedSvState(const FedSvEvaluatorState& s, BinaryWriter* out);
Status LoadFedSvState(BinaryReader* in, FedSvEvaluatorState* s);

void SaveFullRecorderState(const FullRecorderState& s, BinaryWriter* out);
Status LoadFullRecorderState(BinaryReader* in, FullRecorderState* s);

void SaveObservedRecorderState(const ObservedRecorderState& s,
                               BinaryWriter* out);
Status LoadObservedRecorderState(BinaryReader* in,
                                 ObservedRecorderState* s);

void SaveSampledRecorderState(const SampledRecorderState& s,
                              BinaryWriter* out);
Status LoadSampledRecorderState(BinaryReader* in, SampledRecorderState* s);

/// Presence-flagged state sequence for the three optional evaluators —
/// the middle section of the streaming engine's kStreamingEngineState
/// chunk. Save records each evaluator as
/// present/absent (plus the ComFedSV full-vs-sampled mode flag); Load
/// requires the flags to match the evaluators passed in, parses every
/// state chunk, and only then applies the restores. If an apply-phase
/// restore fails (a checksum-valid but structurally inconsistent
/// state), the evaluators may be left partially restored — callers must
/// treat any error as fatal and discard the components.
void SaveEvaluatorStates(const FedSvEvaluator* fedsv,
                         const ComFedSvEvaluator* comfedsv,
                         const GroundTruthEvaluator* ground_truth,
                         BinaryWriter* out);
Status LoadEvaluatorStates(BinaryReader* in, FedSvEvaluator* fedsv,
                           ComFedSvEvaluator* comfedsv,
                           GroundTruthEvaluator* ground_truth);

}  // namespace comfedsv

#endif  // COMFEDSV_CORE_CHECKPOINTING_H_
