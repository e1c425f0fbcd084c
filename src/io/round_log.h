// RoundLog: an append-only, crash-consistent store of RoundRecords.
//
// Valuation over a T-round trajectory normally holds per-round state in
// memory; for long runs the records themselves dominate (every client's
// local model, every round). The round log spills them to disk as
// training streams and serves them back with bounded resident memory:
//
//   * RoundLogWriter appends one self-checksummed frame per record and
//     periodically persists a footer index as an atomic side file
//     (`<path>.idx`, the io/serialize.h container around one
//     kRoundLogIndex chunk), fsynced via the usual tmp+rename path.
//   * RoundLogReader serves records by position through a windowed mmap
//     (a budget-bounded sliding window over the data file), falling back
//     to FileEnv::ReadFileRange when mapping is unavailable — so the
//     fault-injecting environment covers both paths.
//   * A stale or missing index is never fatal: Open() scans forward from
//     the last indexed byte (or from the header) and a torn tail frame —
//     a crash mid-append — is cleanly ignored.
//   * OpenForAppend(keep_rounds) truncates the log to exactly
//     `keep_rounds` frames before continuing, so a run resumed from a
//     round-k checkpoint re-appends rounds k.. and the final file is
//     byte-identical to an uninterrupted run's.
//
// Optional compression (per log, recorded in the data header):
//   * kQuant16 — lossy: local-model deltas uniformly quantized to u16 on
//     a per-vector [min,max] grid. Valuation drift is bounded by the
//     grid step; bench/roundlog.cc measures ratio-vs-drift.
// Encoding value 1 belonged to a retired lossless XOR-delta encoding; a
// header or frame naming it is refused with FailedPrecondition.
//
// File layout (all little-endian):
//   data file:  header (24 B): u32 magic "CFRL", u32 version, u32
//               compression, u32 reserved, u64 FNV-1a of the first 16 B.
//               Then frames: u32 round, u32 encoding, u64 payload_len,
//               payload, u64 FNV-1a(frame header + payload).
//   index file: `<path>.idx` — WriteCheckpointFile container, root chunk
//               kRoundLogIndex: u64 indexed data size, u64 count, then
//               (u32 round, u64 offset, u64 length) per frame.
#ifndef COMFEDSV_IO_ROUND_LOG_H_
#define COMFEDSV_IO_ROUND_LOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "fl/round_record.h"
#include "io/file_env.h"

namespace comfedsv {

/// First four bytes of a round-log data file: "CFRL".
inline constexpr uint32_t kRoundLogMagic = 0x4C524643u;
inline constexpr uint32_t kRoundLogVersion = 1;
/// Bytes before the first frame.
inline constexpr uint64_t kRoundLogHeaderSize = 24;

/// How record payloads are encoded on disk. Stable on disk — append,
/// never renumber. Value 1 is reserved (the retired XOR-delta encoding).
enum class RoundLogCompression : uint32_t {
  /// The plain SaveRoundRecord chunk bytes. Lossless.
  kNone = 0,
  /// Local-model deltas quantized to u16 on a per-vector [min,max]
  /// grid. Lossy; everything else in the record stays exact.
  kQuant16 = 2,
};

struct RoundLogOptions {
  RoundLogCompression compression = RoundLogCompression::kNone;
  /// Persist the footer index every k-th append (and on every Sync()).
  /// Larger values amortize the index write; recovery scans the
  /// unindexed tail either way.
  int index_every = 1;
  /// File system to operate on. nullptr = the real one.
  FileEnv* env = nullptr;
};

struct RoundLogReadOptions {
  /// Serve reads through a windowed mmap; off = always pread
  /// (ReadFileRange).
  bool use_mmap = true;
  /// Resident-memory budget for the mmap window. A frame larger than
  /// the budget gets a window of exactly its size.
  uint64_t window_bytes = 1 << 20;
  /// File system to operate on. nullptr = the real one.
  FileEnv* env = nullptr;
};

/// Appends RoundRecords to a round log. Not thread-safe (one writer per
/// log; the trainer's round loop is sequential).
class RoundLogWriter {
 public:
  /// Creates (truncates) a fresh log at `path`.
  static Result<std::unique_ptr<RoundLogWriter>> Create(
      const std::string& path, RoundLogOptions options = {});

  /// Opens an existing log for appending after exactly `keep_rounds`
  /// frames, truncating any frames beyond (a crash may have appended
  /// rounds the resumed checkpoint never saw; dropping them keeps
  /// replay byte-identical). The truncation happens even when the log
  /// already ends at the boundary, so the io/truncate failpoint is
  /// exercised on every resume. DataLoss when fewer than `keep_rounds`
  /// intact frames exist, FailedPrecondition when the header's
  /// compression disagrees with `options` or names the retired
  /// encoding 1.
  static Result<std::unique_ptr<RoundLogWriter>> OpenForAppend(
      const std::string& path, int keep_rounds, RoundLogOptions options = {});

  /// Appends one record: frame bytes go through FileEnv::AppendFile and
  /// SyncFile, then the footer index per `index_every`. On failure the
  /// in-memory position is unchanged and the on-disk tail (possibly
  /// torn) is beyond the index — the next OpenForAppend truncates it.
  Status Append(const RoundRecord& record);

  /// fsyncs the data file and persists the footer index for everything
  /// appended so far.
  Status Sync();

  int rounds() const { return static_cast<int>(index_.size()); }
  uint64_t data_size() const { return data_size_; }
  /// Bytes the payloads appended through this writer would occupy under
  /// kNone encoding — the denominator of the compression ratio. Resets
  /// on OpenForAppend (pre-existing frames are not re-measured).
  uint64_t uncompressed_bytes() const { return uncompressed_bytes_; }
  const std::string& path() const { return path_; }

 private:
  struct Entry {
    uint32_t round = 0;
    uint64_t offset = 0;
    uint64_t length = 0;  // whole frame, header through checksum
  };

  RoundLogWriter(std::string path, RoundLogOptions options);
  Status WriteIndex();

  std::string path_;
  RoundLogOptions options_;
  FileEnv* env_;
  std::vector<Entry> index_;
  uint64_t data_size_ = kRoundLogHeaderSize;
  uint64_t uncompressed_bytes_ = 0;
  int appends_since_index_ = 0;
  /// A failed append may have left torn frame bytes past data_size_;
  /// the next append truncates them off first.
  bool dirty_tail_ = false;
};

/// Random-access reader over a round log. Records are addressed by
/// position (0-based append order). Not thread-safe; give each thread
/// its own reader (they share the page cache).
class RoundLogReader {
 public:
  /// Opens the log: validates the data header, loads the footer index
  /// when present and intact (a corrupt index is ignored, not fatal —
  /// the data frames are self-checksummed), then scans forward from the
  /// last indexed byte to pick up frames appended since. A torn tail
  /// frame ends the scan cleanly.
  static Result<std::unique_ptr<RoundLogReader>> Open(
      const std::string& path, RoundLogReadOptions options = {});

  /// Number of intact records.
  int rounds() const { return static_cast<int>(index_.size()); }
  RoundLogCompression compression() const { return compression_; }

  /// Decodes record `pos` (0-based append order) into `*out`,
  /// validating the frame checksum. Reads go through the mmap window
  /// when enabled (remapping as the window slides), else ReadFileRange.
  Status Read(int pos, RoundRecord* out);

  /// Observability for tests and the bench.
  int64_t remaps() const { return remaps_; }
  int64_t fallback_reads() const { return fallback_reads_; }
  uint64_t window_resident_bytes() const { return window_.size(); }
  uint64_t data_size() const { return data_size_; }

 private:
  struct Entry {
    uint32_t round = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
  };

  RoundLogReader(std::string path, RoundLogReadOptions options);
  /// Returns the frame bytes for `entry`, via the window or pread.
  Result<std::string_view> FrameBytes(const Entry& entry,
                                      std::string* scratch);

  std::string path_;
  RoundLogReadOptions options_;
  FileEnv* env_;
  RoundLogCompression compression_ = RoundLogCompression::kNone;
  std::vector<Entry> index_;
  uint64_t data_size_ = 0;

  MappedRegion window_;
  uint64_t window_offset_ = 0;
  bool mmap_broken_ = false;  // MapRange failed once; stay on pread
  int64_t remaps_ = 0;
  int64_t fallback_reads_ = 0;
};

/// Encodes `record` under `compression` (the frame payload bytes).
/// Exposed for tests and the bench; Append/Read use it internally.
std::string EncodeRoundRecordPayload(const RoundRecord& record,
                                     RoundLogCompression compression);
/// Decodes an EncodeRoundRecordPayload buffer. For kNone the result is
/// bit-identical to the encoded record.
Status DecodeRoundRecordPayload(std::string_view payload,
                                RoundLogCompression compression,
                                RoundRecord* out);

}  // namespace comfedsv

#endif  // COMFEDSV_IO_ROUND_LOG_H_
