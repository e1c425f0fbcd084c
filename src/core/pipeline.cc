#include "core/pipeline.h"

#include <memory>
#include <string>

#include "core/streaming.h"

namespace comfedsv {
namespace {

// The one loop behind RunValuation and RunValuationCheckpointed: the
// trainer's streaming lifecycle (Begin / Step / Finish) feeding one
// StreamingValuationEngine, which owns the evaluators, the round-log
// spill, the sync-then-save order, degraded-mode health and the outcome.
// The plain variant is the same loop with `checkpoint` null.
Result<ValuationOutcome> RunValuationImpl(const Model& model,
                                          std::vector<Dataset> client_data,
                                          Dataset test_data,
                                          const FedAvgConfig& fed_config,
                                          const ValuationRequest& request,
                                          const CheckpointConfig* checkpoint,
                                          ExecutionContext* ctx) {
  const int n = static_cast<int>(client_data.size());
  if (n == 0) return Status::InvalidArgument("no clients");

  const bool needs_assumption1 =
      request.compute_ground_truth ||
      (request.compute_comfedsv &&
       request.comfedsv.mode == ComFedSvConfig::Mode::kFull);
  if (needs_assumption1 && !fed_config.select_all_first_round) {
    return Status::FailedPrecondition(
        "full ComFedSV / ground truth require select_all_first_round "
        "(Assumption 1)");
  }
  if (checkpoint != nullptr) {
    if (checkpoint->path.empty()) {
      return Status::InvalidArgument("checkpoint path must be non-empty");
    }
    if (checkpoint->every_rounds <= 0) {
      return Status::InvalidArgument(
          "checkpoint every_rounds must be positive");
    }
    if (checkpoint->round_log_index_every <= 0) {
      return Status::InvalidArgument(
          "checkpoint round_log_index_every must be positive");
    }
  }

  FedAvgTrainer trainer(&model, std::move(client_data),
                        std::move(test_data), fed_config, ctx);
  StreamingConfig config;
  config.request = request;
  if (checkpoint != nullptr && !checkpoint->round_log_path.empty()) {
    config.spill.enabled = true;
    config.spill.path = checkpoint->round_log_path;
    config.spill.compression = checkpoint->round_log_compression;
    config.spill.index_every = checkpoint->round_log_index_every;
    config.spill.env = checkpoint->env;
  }
  StreamingValuationEngine engine(&model, &trainer.test_data(), n,
                                  std::move(config), ctx);
  COMFEDSV_RETURN_IF_ERROR(trainer.Begin());

  std::unique_ptr<CheckpointManager> manager;
  int orphans_swept = 0;
  if (checkpoint != nullptr) {
    CheckpointManagerOptions mgr_options;
    mgr_options.keep_generations = checkpoint->keep_generations;
    mgr_options.max_retries = checkpoint->max_retries;
    mgr_options.retry_backoff_ms = checkpoint->retry_backoff_ms;
    mgr_options.env = checkpoint->env;
    manager = std::make_unique<CheckpointManager>(checkpoint->path,
                                                  std::move(mgr_options));
    // Startup sweep: clear `.tmp` debris a previous crash left behind.
    // A failed sweep is not fatal — stale temps are inert.
    orphans_swept = manager->SweepOrphans().value_or(0);
    if (checkpoint->resume) {
      // No checkpoint at all means a fresh run; anything else — every
      // generation corrupt (DataLoss), fingerprint mismatch or version
      // skew (FailedPrecondition), environment down — must not silently
      // recompute T rounds.
      Status restored = engine.RestoreCheckpoint(manager.get(), &trainer);
      if (!restored.ok() && restored.code() != StatusCode::kNotFound) {
        return restored;
      }
    }
  }

  while (!trainer.Done()) {
    Status spilled = engine.Consume(trainer.Step());
    if (checkpoint == nullptr) continue;
    // A permanent error (an intact log or checkpoint this run can never
    // extend) fails the run even when durability is optional: a retry
    // would fail the same way every round.
    if (!spilled.ok() &&
        (checkpoint->require_durable || spilled.IsPermanent())) {
      return spilled;
    }
    const int completed = trainer.next_round();
    if (completed % checkpoint->every_rounds == 0 || trainer.Done()) {
      // Graceful degradation: a failed save costs durability, not
      // correctness (the in-memory state is intact), so the run keeps
      // training and the engine's health reports the gap — unless the
      // caller demanded durability.
      Status saved = engine.SaveCheckpoint(manager.get(), &trainer);
      if (!saved.ok() &&
          (checkpoint->require_durable || saved.IsPermanent())) {
        return saved;
      }
    }
    if (checkpoint->inject_crash_after_round >= 0 &&
        completed >= checkpoint->inject_crash_after_round) {
      return Status::Internal("injected crash after round " +
                              std::to_string(completed));
    }
  }

  Result<TrainingResult> training = trainer.Finish();
  if (!training.ok()) return training.status();
  Result<ValuationOutcome> outcome = engine.Finalize();
  if (!outcome.ok()) return outcome.status();
  outcome.value().training = std::move(training).value();
  if (checkpoint != nullptr) {
    const StreamingHealth& engine_health = engine.health();
    CheckpointHealth& health = outcome.value().checkpoint_health.emplace();
    health.degraded = engine_health.degraded;
    health.write_failures = engine_health.checkpoint_failures;
    health.consecutive_failures = engine_health.consecutive_failures;
    health.last_error = engine_health.last_error;
    health.rounds_since_durable =
        static_cast<int>(engine_health.rounds_since_durable);
    health.quarantined_on_resume =
        static_cast<int>(manager->quarantined_total());
    health.orphans_swept = orphans_swept;
    health.resumed_sequence = manager->restored_sequence();
    health.round_log_failures = engine_health.spill_failures;
    if (const RoundLogWriter* log = engine.spill_writer(); log != nullptr) {
      health.round_log_rounds = log->rounds();
      health.round_log_bytes = log->data_size();
    }
  }
  return outcome;
}

}  // namespace

Result<ValuationOutcome> RunValuation(const Model& model,
                                      std::vector<Dataset> client_data,
                                      Dataset test_data,
                                      const FedAvgConfig& fed_config,
                                      const ValuationRequest& request,
                                      ExecutionContext* ctx) {
  return RunValuationImpl(model, std::move(client_data),
                          std::move(test_data), fed_config, request,
                          nullptr, ctx);
}

Result<ValuationOutcome> RunValuationCheckpointed(
    const Model& model, std::vector<Dataset> client_data, Dataset test_data,
    const FedAvgConfig& fed_config, const ValuationRequest& request,
    const CheckpointConfig& checkpoint, ExecutionContext* ctx) {
  return RunValuationImpl(model, std::move(client_data),
                          std::move(test_data), fed_config, request,
                          &checkpoint, ctx);
}

Result<ValuationOutcome> RunValuationFromLog(
    const Model& model, const Dataset& test_data, int num_clients,
    const std::string& log_path, const ValuationRequest& request,
    const RoundLogReadOptions& read_options, ExecutionContext* ctx) {
  if (num_clients <= 0) {
    return Status::InvalidArgument("num_clients must be positive");
  }
  Result<std::unique_ptr<RoundLogReader>> reader =
      RoundLogReader::Open(log_path, read_options);
  if (!reader.ok()) return reader.status();

  // A streaming engine with no snapshots is exactly the batch pipeline
  // fed from disk: OnRound accumulates per record, Finalize() is the
  // cold batch-equivalent solve. Resident memory stays at one decoded
  // record plus the reader's window, whatever the trajectory length.
  StreamingConfig config;
  config.request = request;
  StreamingValuationEngine engine(&model, &test_data, num_clients, config,
                                  ctx);
  RoundRecord record;
  for (int pos = 0; pos < reader.value()->rounds(); ++pos) {
    COMFEDSV_RETURN_IF_ERROR(reader.value()->Read(pos, &record));
    engine.OnRound(record);
  }
  return engine.Finalize();
}

}  // namespace comfedsv
