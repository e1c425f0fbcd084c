#include "io/round_log.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "io/checkpoint.h"
#include "io/serialize.h"

namespace comfedsv {
namespace {

/// Frame header: u32 round, u32 encoding, u64 payload length.
constexpr uint64_t kFrameHeaderSize = 16;
/// Trailing FNV-1a over the frame header + payload.
constexpr uint64_t kFrameTrailerSize = 8;

/// On-disk encoding value 1 named the retired lossless XOR-delta
/// encoding. A file that uses it is intact, so it is refused as a
/// precondition failure (never salvaged as corrupt), and the value is
/// never reused.
constexpr uint32_t kRetiredXorDelta = 1;

void PutU32(std::string* out, uint32_t v) {
  for (int k = 0; k < 4; ++k) {
    out->push_back(static_cast<char>((v >> (8 * k)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int k = 0; k < 8; ++k) {
    out->push_back(static_cast<char>((v >> (8 * k)) & 0xFF));
  }
}

uint32_t GetU32(std::string_view bytes, size_t at) {
  uint32_t v = 0;
  for (int k = 3; k >= 0; --k) {
    v = (v << 8) | static_cast<uint8_t>(bytes[at + static_cast<size_t>(k)]);
  }
  return v;
}

uint64_t GetU64(std::string_view bytes, size_t at) {
  uint64_t v = 0;
  for (int k = 7; k >= 0; --k) {
    v = (v << 8) | static_cast<uint8_t>(bytes[at + static_cast<size_t>(k)]);
  }
  return v;
}

std::string RoundLogHeaderBytes(RoundLogCompression compression) {
  std::string header;
  PutU32(&header, kRoundLogMagic);
  PutU32(&header, kRoundLogVersion);
  PutU32(&header, static_cast<uint32_t>(compression));
  PutU32(&header, 0);  // reserved
  PutU64(&header, Fnv1a64(header));
  return header;
}

Status CheckEncoding(uint32_t value, const std::string& where) {
  if (value == kRetiredXorDelta) {
    return Status::FailedPrecondition(
        where + " uses the retired xor-delta encoding (1)");
  }
  if (value != static_cast<uint32_t>(RoundLogCompression::kNone) &&
      value != static_cast<uint32_t>(RoundLogCompression::kQuant16)) {
    return Status::DataLoss(where + " has unknown encoding " +
                            std::to_string(value));
  }
  return Status::Ok();
}

Status ParseRoundLogHeader(std::string_view bytes,
                           RoundLogCompression* compression) {
  if (bytes.size() < kRoundLogHeaderSize) {
    return Status::DataLoss("round log truncated inside the header");
  }
  if (GetU32(bytes, 0) != kRoundLogMagic) {
    return Status::DataLoss("round log has wrong magic");
  }
  if (GetU32(bytes, 4) != kRoundLogVersion) {
    return Status::FailedPrecondition("round log format version skew");
  }
  if (GetU64(bytes, 16) != Fnv1a64(bytes.substr(0, 16))) {
    return Status::DataLoss("round log header checksum mismatch");
  }
  const uint32_t mode = GetU32(bytes, 8);
  COMFEDSV_RETURN_IF_ERROR(CheckEncoding(mode, "round log header"));
  *compression = static_cast<RoundLogCompression>(mode);
  return Status::Ok();
}

std::string BuildFrame(const RoundRecord& record, std::string_view payload,
                       RoundLogCompression enc) {
  std::string frame;
  frame.reserve(kFrameHeaderSize + payload.size() + kFrameTrailerSize);
  PutU32(&frame, static_cast<uint32_t>(record.round));
  PutU32(&frame, static_cast<uint32_t>(enc));
  PutU64(&frame, payload.size());
  frame.append(payload);
  PutU64(&frame, Fnv1a64(frame));
  return frame;
}

void SaveIntList(const std::vector<int>& list, BinaryWriter* out) {
  out->U64(list.size());
  for (int v : list) out->I32(v);
}

Status LoadIntList(BinaryReader* in, std::vector<int>* list) {
  uint64_t count = 0;
  COMFEDSV_RETURN_IF_ERROR(in->Count(4, &count));
  list->resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    int32_t v = 0;
    COMFEDSV_RETURN_IF_ERROR(in->I32(&v));
    (*list)[static_cast<size_t>(i)] = v;
  }
  return Status::Ok();
}

/// Prelude of the kQuant16 encoding: everything in the record except
/// the local models, with global_before stored exact.
void SavePrelude(const RoundRecord& record, BinaryWriter* out) {
  out->I32(record.round);
  out->F64(record.test_loss_before);
  SaveVector(record.global_before, out);
  SaveIntList(record.selected, out);
  SaveIntList(record.rejected, out);
  SaveIntList(record.dropped, out);
  out->U64(record.local_models.size());
}

Status LoadPrelude(BinaryReader* in, RoundRecord* out, uint64_t* num_models) {
  COMFEDSV_RETURN_IF_ERROR(in->I32(&out->round));
  COMFEDSV_RETURN_IF_ERROR(in->F64(&out->test_loss_before));
  COMFEDSV_RETURN_IF_ERROR(LoadVector(in, &out->global_before));
  COMFEDSV_RETURN_IF_ERROR(LoadIntList(in, &out->selected));
  COMFEDSV_RETURN_IF_ERROR(LoadIntList(in, &out->rejected));
  COMFEDSV_RETURN_IF_ERROR(LoadIntList(in, &out->dropped));
  return in->Count(1, num_models);
}

std::string EncodeQuant16(const RoundRecord& record) {
  BinaryWriter out;
  SavePrelude(record, &out);
  const Vector& global = record.global_before;
  for (const Vector& local : record.local_models) {
    out.U64(local.size());
    double lo = 0.0, hi = 0.0;
    for (size_t j = 0; j < local.size(); ++j) {
      const double d = local[j] - (j < global.size() ? global[j] : 0.0);
      if (j == 0 || d < lo) lo = d;
      if (j == 0 || d > hi) hi = d;
    }
    out.F64(lo);
    out.F64(hi);
    const double span = hi - lo;
    for (size_t j = 0; j < local.size(); ++j) {
      const double d = local[j] - (j < global.size() ? global[j] : 0.0);
      uint32_t q = 0;
      if (span > 0.0) {
        const double scaled = (d - lo) / span * 65535.0;
        q = static_cast<uint32_t>(
            std::min(65535.0, std::max(0.0, scaled + 0.5)));
      }
      out.U8(static_cast<uint8_t>(q & 0xFF));
      out.U8(static_cast<uint8_t>((q >> 8) & 0xFF));
    }
  }
  return out.buffer();
}

Status DecodeQuant16(std::string_view payload, RoundRecord* out) {
  BinaryReader in(payload);
  uint64_t num_models = 0;
  COMFEDSV_RETURN_IF_ERROR(LoadPrelude(&in, out, &num_models));
  out->local_models.assign(static_cast<size_t>(num_models), Vector());
  const Vector& global = out->global_before;
  for (uint64_t m = 0; m < num_models; ++m) {
    uint64_t dim = 0;
    COMFEDSV_RETURN_IF_ERROR(in.Count(2, &dim));
    double lo = 0.0, hi = 0.0;
    COMFEDSV_RETURN_IF_ERROR(in.F64(&lo));
    COMFEDSV_RETURN_IF_ERROR(in.F64(&hi));
    const double span = hi - lo;
    Vector& local = out->local_models[static_cast<size_t>(m)];
    local.Resize(static_cast<size_t>(dim));
    for (uint64_t j = 0; j < dim; ++j) {
      uint8_t b0 = 0, b1 = 0;
      COMFEDSV_RETURN_IF_ERROR(in.U8(&b0));
      COMFEDSV_RETURN_IF_ERROR(in.U8(&b1));
      const uint32_t q = static_cast<uint32_t>(b0) |
                         (static_cast<uint32_t>(b1) << 8);
      const double d =
          span > 0.0 ? lo + static_cast<double>(q) / 65535.0 * span : lo;
      const size_t idx = static_cast<size_t>(j);
      local[idx] = (idx < global.size() ? global[idx] : 0.0) + d;
    }
  }
  if (in.remaining() != 0) {
    return Status::DataLoss("round log payload has trailing bytes");
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeRoundRecordPayload(const RoundRecord& record,
                                     RoundLogCompression compression) {
  switch (compression) {
    case RoundLogCompression::kNone: {
      BinaryWriter out;
      SaveRoundRecord(record, &out);
      return out.buffer();
    }
    case RoundLogCompression::kQuant16:
      return EncodeQuant16(record);
  }
  COMFEDSV_CHECK(false);
  return {};
}

Status DecodeRoundRecordPayload(std::string_view payload,
                                RoundLogCompression compression,
                                RoundRecord* out) {
  *out = RoundRecord();
  switch (compression) {
    case RoundLogCompression::kNone: {
      BinaryReader in(payload);
      COMFEDSV_RETURN_IF_ERROR(LoadRoundRecord(&in, out));
      if (in.remaining() != 0) {
        return Status::DataLoss("round log payload has trailing bytes");
      }
      return Status::Ok();
    }
    case RoundLogCompression::kQuant16:
      return DecodeQuant16(payload, out);
  }
  return Status::DataLoss("round log payload has unknown encoding");
}

// ---------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------

RoundLogWriter::RoundLogWriter(std::string path, RoundLogOptions options)
    : path_(std::move(path)), options_(std::move(options)) {
  COMFEDSV_CHECK_GE(options_.index_every, 1);
  env_ = options_.env != nullptr ? options_.env : FileEnv::Real();
}

Result<std::unique_ptr<RoundLogWriter>> RoundLogWriter::Create(
    const std::string& path, RoundLogOptions options) {
  std::unique_ptr<RoundLogWriter> writer(
      new RoundLogWriter(path, std::move(options)));
  COMFEDSV_RETURN_IF_ERROR(writer->env_->WriteFile(
      path, RoundLogHeaderBytes(writer->options_.compression)));
  COMFEDSV_RETURN_IF_ERROR(writer->env_->SyncFile(path));
  COMFEDSV_RETURN_IF_ERROR(writer->WriteIndex());
  return writer;
}

Result<std::unique_ptr<RoundLogWriter>> RoundLogWriter::OpenForAppend(
    const std::string& path, int keep_rounds, RoundLogOptions options) {
  COMFEDSV_CHECK_GE(keep_rounds, 0);
  std::unique_ptr<RoundLogWriter> writer(
      new RoundLogWriter(path, std::move(options)));
  FileEnv* env = writer->env_;

  Result<std::string> header =
      env->ReadFileRange(path, 0, kRoundLogHeaderSize);
  if (!header.ok()) return header.status();
  RoundLogCompression stored = RoundLogCompression::kNone;
  COMFEDSV_RETURN_IF_ERROR(ParseRoundLogHeader(header.value(), &stored));
  if (stored != writer->options_.compression) {
    return Status::FailedPrecondition(
        "round log was written with a different compression mode");
  }

  // Walk the frames by checksum, not by index — the index may be stale
  // or torn, the frames are the truth.
  Result<uint64_t> file_size = env->FileSize(path);
  if (!file_size.ok()) return file_size.status();
  uint64_t offset = kRoundLogHeaderSize;
  while (static_cast<int>(writer->index_.size()) < keep_rounds) {
    Result<std::string> head =
        env->ReadFileRange(path, offset, kFrameHeaderSize);
    if (!head.ok()) return head.status();
    if (head.value().size() < kFrameHeaderSize) break;
    const uint64_t payload_len = GetU64(head.value(), 8);
    const uint64_t frame_len =
        kFrameHeaderSize + payload_len + kFrameTrailerSize;
    if (offset + frame_len > file_size.value()) break;
    Result<std::string> rest = env->ReadFileRange(
        path, offset + kFrameHeaderSize, payload_len + kFrameTrailerSize);
    if (!rest.ok()) return rest.status();
    if (rest.value().size() < payload_len + kFrameTrailerSize) break;
    const uint64_t want = GetU64(rest.value(), payload_len);
    const uint64_t got =
        Fnv1a64(std::string_view(rest.value()).substr(0, payload_len),
                Fnv1a64(head.value()));
    if (want != got) break;
    Entry entry;
    entry.round = GetU32(head.value(), 0);
    entry.offset = offset;
    entry.length = frame_len;
    writer->index_.push_back(entry);
    offset += frame_len;
  }
  if (static_cast<int>(writer->index_.size()) < keep_rounds) {
    return Status::DataLoss(
        "round log at " + path + " has only " +
        std::to_string(writer->index_.size()) + " intact frames, needed " +
        std::to_string(keep_rounds));
  }

  // Drop everything past the resume boundary — frames a crashed run
  // appended beyond its last durable checkpoint, or a torn tail. Done
  // unconditionally so resume-after-clean-shutdown exercises the same
  // path as resume-after-crash.
  COMFEDSV_RETURN_IF_ERROR(env->Truncate(path, offset));
  COMFEDSV_RETURN_IF_ERROR(env->SyncFile(path));
  writer->data_size_ = offset;
  COMFEDSV_RETURN_IF_ERROR(writer->WriteIndex());
  return writer;
}

Status RoundLogWriter::Append(const RoundRecord& record) {
  if (dirty_tail_) {
    // A failed append may have left a torn frame; cut it off before
    // appending again so the frame stream stays parseable.
    COMFEDSV_RETURN_IF_ERROR(env_->Truncate(path_, data_size_));
    dirty_tail_ = false;
  }
  const std::string payload =
      EncodeRoundRecordPayload(record, options_.compression);
  const std::string frame =
      BuildFrame(record, payload, options_.compression);

  Status appended = env_->AppendFile(path_, frame);
  if (!appended.ok()) {
    dirty_tail_ = true;
    return appended;
  }
  Status synced = env_->SyncFile(path_);
  if (!synced.ok()) {
    dirty_tail_ = true;
    return synced;
  }

  Entry entry;
  entry.round = static_cast<uint32_t>(record.round);
  entry.offset = data_size_;
  entry.length = frame.size();
  index_.push_back(entry);
  data_size_ += frame.size();
  uncompressed_bytes_ +=
      options_.compression == RoundLogCompression::kNone
          ? payload.size()
          : EncodeRoundRecordPayload(record, RoundLogCompression::kNone)
                .size();

  if (++appends_since_index_ >= options_.index_every) {
    return WriteIndex();
  }
  return Status::Ok();
}

Status RoundLogWriter::Sync() {
  if (dirty_tail_) {
    COMFEDSV_RETURN_IF_ERROR(env_->Truncate(path_, data_size_));
    dirty_tail_ = false;
  }
  COMFEDSV_RETURN_IF_ERROR(env_->SyncFile(path_));
  return WriteIndex();
}

Status RoundLogWriter::WriteIndex() {
  BinaryWriter out;
  out.U64(data_size_);
  out.U64(index_.size());
  for (const Entry& entry : index_) {
    out.U32(entry.round);
    out.U64(entry.offset);
    out.U64(entry.length);
  }
  Status written =
      WriteCheckpointFile(path_ + ".idx", ChunkTag::kRoundLogIndex,
                          out.buffer(), index_.size(), env_);
  if (written.ok()) appends_since_index_ = 0;
  return written;
}

// ---------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------

RoundLogReader::RoundLogReader(std::string path, RoundLogReadOptions options)
    : path_(std::move(path)), options_(std::move(options)) {
  env_ = options_.env != nullptr ? options_.env : FileEnv::Real();
}

Result<std::unique_ptr<RoundLogReader>> RoundLogReader::Open(
    const std::string& path, RoundLogReadOptions options) {
  std::unique_ptr<RoundLogReader> reader(
      new RoundLogReader(path, std::move(options)));
  FileEnv* env = reader->env_;

  Result<uint64_t> file_size = env->FileSize(path);
  if (!file_size.ok()) return file_size.status();
  reader->data_size_ = file_size.value();
  Result<std::string> header =
      env->ReadFileRange(path, 0, kRoundLogHeaderSize);
  if (!header.ok()) return header.status();
  COMFEDSV_RETURN_IF_ERROR(
      ParseRoundLogHeader(header.value(), &reader->compression_));

  // The footer index is an accelerator, not the truth: a missing or
  // corrupt one falls back to a full scan, a stale one is extended by
  // scanning the unindexed tail.
  uint64_t scan_from = kRoundLogHeaderSize;
  Result<std::string> idx =
      ReadCheckpointFile(path + ".idx", ChunkTag::kRoundLogIndex, env);
  if (idx.ok()) {
    BinaryReader in(idx.value());
    uint64_t indexed_size = 0;
    uint64_t count = 0;
    bool valid = in.U64(&indexed_size).ok() && in.Count(20, &count).ok() &&
                 indexed_size <= reader->data_size_;
    uint64_t expect_offset = kRoundLogHeaderSize;
    std::vector<Entry> entries;
    for (uint64_t i = 0; valid && i < count; ++i) {
      Entry entry;
      valid = in.U32(&entry.round).ok() && in.U64(&entry.offset).ok() &&
              in.U64(&entry.length).ok() && entry.offset == expect_offset &&
              entry.length >= kFrameHeaderSize + kFrameTrailerSize &&
              entry.offset + entry.length <= indexed_size;
      if (valid) {
        expect_offset = entry.offset + entry.length;
        entries.push_back(entry);
      }
    }
    if (valid) {
      reader->index_ = std::move(entries);
      scan_from = expect_offset;
    }
  } else if (idx.status().code() == StatusCode::kUnavailable) {
    // A transient environment failure is not "no index"; surface it
    // rather than silently rescanning the whole log.
    return idx.status();
  }

  // Scan the unindexed tail frame by frame; stop at the first torn or
  // corrupt frame (a crash mid-append).
  uint64_t offset = scan_from;
  while (offset + kFrameHeaderSize + kFrameTrailerSize <=
         reader->data_size_) {
    Result<std::string> head =
        env->ReadFileRange(path, offset, kFrameHeaderSize);
    if (!head.ok()) return head.status();
    if (head.value().size() < kFrameHeaderSize) break;
    const uint64_t payload_len = GetU64(head.value(), 8);
    const uint64_t frame_len =
        kFrameHeaderSize + payload_len + kFrameTrailerSize;
    if (offset + frame_len > reader->data_size_) break;
    Result<std::string> rest = env->ReadFileRange(
        path, offset + kFrameHeaderSize, payload_len + kFrameTrailerSize);
    if (!rest.ok()) return rest.status();
    if (rest.value().size() < payload_len + kFrameTrailerSize) break;
    const uint64_t want = GetU64(rest.value(), payload_len);
    const uint64_t got =
        Fnv1a64(std::string_view(rest.value()).substr(0, payload_len),
                Fnv1a64(head.value()));
    if (want != got) break;
    Entry entry;
    entry.round = GetU32(head.value(), 0);
    entry.offset = offset;
    entry.length = frame_len;
    reader->index_.push_back(entry);
    offset += frame_len;
  }
  return reader;
}

Result<std::string_view> RoundLogReader::FrameBytes(const Entry& entry,
                                                    std::string* scratch) {
  if (options_.use_mmap && !mmap_broken_) {
    const bool covered =
        window_.data() != nullptr && entry.offset >= window_offset_ &&
        entry.offset + entry.length <= window_offset_ + window_.size();
    if (!covered) {
      const uint64_t len = std::min<uint64_t>(
          std::max<uint64_t>(options_.window_bytes, entry.length),
          data_size_ - entry.offset);
      Result<MappedRegion> mapped =
          env_->MapRange(path_, entry.offset, len);
      if (mapped.ok()) {
        window_ = std::move(mapped).value();
        window_offset_ = entry.offset;
        ++remaps_;
      } else if (mapped.status().code() == StatusCode::kNotImplemented) {
        mmap_broken_ = true;
      }
      // Any mapping failure falls through to the pread path below for
      // this read; unless mapping is structurally unsupported we try
      // again next time the window slides.
    }
    if (window_.data() != nullptr && entry.offset >= window_offset_ &&
        entry.offset + entry.length <= window_offset_ + window_.size()) {
      return window_.view().substr(
          static_cast<size_t>(entry.offset - window_offset_),
          static_cast<size_t>(entry.length));
    }
  }
  Result<std::string> bytes =
      env_->ReadFileRange(path_, entry.offset, entry.length);
  if (!bytes.ok()) return bytes.status();
  if (bytes.value().size() < entry.length) {
    return Status::DataLoss("round log frame truncated under the reader");
  }
  ++fallback_reads_;
  *scratch = std::move(bytes).value();
  return std::string_view(*scratch);
}

Status RoundLogReader::Read(int pos, RoundRecord* out) {
  if (pos < 0 || pos >= rounds()) {
    return Status::OutOfRange("round log position " + std::to_string(pos) +
                              " not in [0, " + std::to_string(rounds()) +
                              ")");
  }
  const Entry& entry = index_[static_cast<size_t>(pos)];
  std::string scratch;
  Result<std::string_view> frame = FrameBytes(entry, &scratch);
  if (!frame.ok()) return frame.status();
  const std::string_view bytes = frame.value();
  const uint64_t payload_len = GetU64(bytes, 8);
  if (kFrameHeaderSize + payload_len + kFrameTrailerSize != bytes.size()) {
    return Status::DataLoss("round log frame length mismatch");
  }
  const uint64_t want = GetU64(bytes, kFrameHeaderSize + payload_len);
  const uint64_t got =
      Fnv1a64(bytes.substr(0, kFrameHeaderSize + payload_len));
  if (want != got) {
    return Status::DataLoss("round log frame checksum mismatch");
  }
  const uint32_t enc = GetU32(bytes, 4);
  COMFEDSV_RETURN_IF_ERROR(CheckEncoding(enc, "round log frame"));
  return DecodeRoundRecordPayload(
      bytes.substr(kFrameHeaderSize, payload_len),
      static_cast<RoundLogCompression>(enc), out);
}

}  // namespace comfedsv
