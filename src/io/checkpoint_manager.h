// CheckpointManager: durable, self-healing checkpoint storage.
//
//   * Rotated generations — each Write() lands in its own file
//     `path.<seq>` (zero-padded, monotonic sequence also recorded in the
//     file header) and the oldest files beyond the keep_generations
//     retention window are pruned. A new generation is durable before
//     the old one is removed, so even keep_generations == 1 never has a
//     moment with no checkpoint on disk. Nothing is ever written at the
//     bare `path`.
//   * Transient-error retry — writes and reads that fail Unavailable
//     (EIO, ENOSPC, interrupted) are retried up to max_retries times
//     with deterministic exponential backoff through an injectable
//     sleeper, so tests replay retry schedules without wall-clock time.
//   * Startup sweep — SweepOrphans() removes `.tmp` debris left by a
//     crash mid-write.
//   * Salvage on load — Load() walks generations newest-first; a file
//     failing checksum/validation (DataLoss) is quarantined (renamed
//     `*.corrupt`, never deleted — it is evidence) and the next-older
//     generation is tried, so "newest generation that actually restores"
//     wins. Only DataLoss salvages: FailedPrecondition (version skew,
//     fingerprint mismatch) and InvalidArgument (wrong root tag) mean an
//     intact file from a different run or build, and propagate — never a
//     silent restart under the wrong inputs.
//
// All I/O goes through a FileEnv, so the crash-sweep harness drives the
// whole stack with injected faults (see io/file_env.h).
#ifndef COMFEDSV_IO_CHECKPOINT_MANAGER_H_
#define COMFEDSV_IO_CHECKPOINT_MANAGER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "io/serialize.h"

namespace comfedsv {

class FileEnv;

struct CheckpointManagerOptions {
  /// How many checkpoint generations (`path.<8-digit seq>` files) to
  /// retain; the oldest beyond it are pruned after each write.
  int keep_generations = 1;
  /// Extra attempts after a transient (Unavailable) failure, per
  /// operation. 0 disables retry.
  int max_retries = 2;
  /// Backoff before retry k (1-based) is `retry_backoff_ms << (k-1)`
  /// milliseconds — deterministic, no jitter, reproducible.
  int retry_backoff_ms = 5;
  /// Receives each backoff in ms. Defaults to sleeping; tests inject a
  /// recorder to assert the schedule without waiting it out.
  std::function<void(int)> sleeper;
  /// File system to operate on. nullptr = the real one.
  FileEnv* env = nullptr;
};

class CheckpointManager {
 public:
  /// Validates a candidate payload during Load salvage. Returning
  /// DataLoss (corrupt stored state) quarantines the generation and
  /// falls back to an older one; any other non-OK status (fingerprint
  /// mismatch, version skew, environment failure) aborts the load. The
  /// callback may be invoked multiple times (once per candidate); a
  /// later successful candidate must fully overwrite any partial state
  /// a failed one left behind.
  using Restorer = std::function<Status(std::string_view payload,
                                        uint64_t sequence)>;

  struct LoadInfo {
    std::string payload;   ///< root chunk body of the loaded generation
    uint64_t sequence = 0; ///< its header sequence number
    std::string file;      ///< which file it came from
    int quarantined = 0;   ///< corrupt generations moved aside on the way
  };

  explicit CheckpointManager(std::string path,
                             CheckpointManagerOptions options = {});

  /// Writes the next generation (retrying transient failures), then
  /// prunes generations beyond the retention window. On success the
  /// sequence number advances; on failure on-disk state is unchanged
  /// except possibly a freshly-pruned tail.
  Status Write(ChunkTag root_tag, std::string_view payload);

  /// Loads the newest generation that passes the file checksum and (if
  /// given) `restore`. Corrupt generations encountered on the way are
  /// quarantined to `<file>.corrupt`. Returns NotFound when no
  /// checkpoint exists at all, DataLoss when generations existed but
  /// every one was corrupt.
  Result<LoadInfo> Load(ChunkTag root_tag, const Restorer& restore = {});

  /// Removes orphaned `path.<seq>.tmp` files belonging to this
  /// checkpoint family (a crash mid-write leaves at most one). Returns how many were
  /// swept. Call at startup, before Load.
  Result<int> SweepOrphans();

  /// Existing `path.<seq>` generation files, oldest first (sequence,
  /// full path) — listed regardless of the current keep_generations, so
  /// state written by a previous higher-keep run stays visible after the
  /// knob is lowered.
  std::vector<std::pair<uint64_t, std::string>> ListGenerations() const;

  const std::string& path() const { return path_; }
  uint64_t next_sequence() const { return next_sequence_; }

  /// Lifetime counters, for health reporting and the recovery bench.
  int64_t write_retries() const { return write_retries_; }
  int64_t quarantined_total() const { return quarantined_total_; }
  /// Header sequence of the generation the last successful Load
  /// restored (0 when nothing was loaded).
  uint64_t restored_sequence() const { return restored_sequence_; }

 private:
  std::string GenerationPath(uint64_t sequence) const;
  /// Scans existing generations so the next Write continues the
  /// sequence instead of restarting at 1. Idempotent.
  void InitSequenceFromDisk();
  Status Quarantine(const std::string& file);
  void Backoff(int attempt);
  Status Prune();

  std::string path_;
  CheckpointManagerOptions options_;
  FileEnv* env_;
  uint64_t next_sequence_ = 1;
  bool sequence_initialized_ = false;
  int64_t write_retries_ = 0;
  int64_t quarantined_total_ = 0;
  /// The file the last successful Load restored from. Prune never
  /// removes it: after a salvage fell back to an older generation,
  /// rotation (especially with a freshly-lowered keep_generations)
  /// must not delete the only state the run is built on.
  std::string restored_file_;
  uint64_t restored_sequence_ = 0;
};

}  // namespace comfedsv

#endif  // COMFEDSV_IO_CHECKPOINT_MANAGER_H_
