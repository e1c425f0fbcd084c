#include "trace.h"

#include <cstdio>
#include <optional>
#include <sstream>
#include <type_traits>

namespace perfbench {

void Meter::Enter() {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  if (inflight_++ == 0) busy_since_ = now;
}

void Meter::Exit(int64_t amount) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  ++total_.calls;
  total_.amount += amount;
  if (--inflight_ == 0) total_.busy_s += Seconds(busy_since_, now);
}

MeterReading Meter::Read() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

const char* MeterName(int id) {
  static const char* const kNames[kNumMeters] = {
      "batch_loss", "loss",     "grad",     "io_write",
      "io_sync",    "io_read",  "io_other", "io_checkpoint"};
  return kNames[id];
}

MeterSnapshot Meters::Snapshot() const {
  MeterSnapshot out;
  for (int i = 0; i < kNumMeters; ++i) {
    out[static_cast<size_t>(i)] = meters_[static_cast<size_t>(i)].Read();
  }
  return out;
}

// ---------------------------------------------------------------------------
// TracingModel

double TracingModel::Loss(const comfedsv::Vector& params,
                          const comfedsv::Dataset& data) const {
  MeterScope scope(&(*meters_)[kLoss], 1);
  return inner_->Loss(params, data);
}

void TracingModel::BatchLoss(const comfedsv::Matrix& param_rows,
                             const comfedsv::Dataset& data,
                             std::vector<double>* out,
                             comfedsv::ExecutionContext* ctx) const {
  MeterScope scope(&(*meters_)[kBatchLoss],
                   static_cast<int64_t>(param_rows.rows()));
  inner_->BatchLoss(param_rows, data, out, ctx);
}

double TracingModel::LossAndGradient(const comfedsv::Vector& params,
                                     const comfedsv::Dataset& data,
                                     comfedsv::Vector* grad) const {
  MeterScope scope(&(*meters_)[kGrad], 1);
  return inner_->LossAndGradient(params, data, grad);
}

// ---------------------------------------------------------------------------
// TracingFileEnv

template <typename F>
auto TracingFileEnv::Timed(int id, const std::string& path, int64_t amount,
                           F&& call) {
  const bool checkpoint =
      !checkpoint_prefix_.empty() &&
      path.compare(0, checkpoint_prefix_.size(), checkpoint_prefix_) == 0;
  MeterScope scope(&(*meters_)[id], amount);
  std::optional<MeterScope> checkpoint_scope;
  if (checkpoint) checkpoint_scope.emplace(&(*meters_)[kIoCheckpoint], amount);
  auto result = call();
  if constexpr (std::is_same_v<decltype(result),
                               comfedsv::Result<std::string>>) {
    // Whole-file and range reads count the bytes actually returned.
    const int64_t bytes =
        result.ok() ? static_cast<int64_t>(result.value().size()) : 0;
    scope.set_amount(bytes);
    if (checkpoint_scope) checkpoint_scope->set_amount(bytes);
  }
  return result;
}

namespace {
int64_t Size(std::string_view data) {
  return static_cast<int64_t>(data.size());
}
}  // namespace

comfedsv::Status TracingFileEnv::WriteFile(const std::string& path,
                                           std::string_view data) {
  return Timed(kIoWrite, path, Size(data),
               [&] { return real_->WriteFile(path, data); });
}

comfedsv::Status TracingFileEnv::AppendFile(const std::string& path,
                                            std::string_view data) {
  return Timed(kIoWrite, path, Size(data),
               [&] { return real_->AppendFile(path, data); });
}

comfedsv::Status TracingFileEnv::SyncFile(const std::string& path) {
  return Timed(kIoSync, path, 0, [&] { return real_->SyncFile(path); });
}

comfedsv::Status TracingFileEnv::SyncDir(const std::string& dir) {
  return Timed(kIoSync, dir, 0, [&] { return real_->SyncDir(dir); });
}

comfedsv::Result<std::string> TracingFileEnv::ReadFile(
    const std::string& path) {
  return Timed(kIoRead, path, 0, [&] { return real_->ReadFile(path); });
}

comfedsv::Result<std::string> TracingFileEnv::ReadFileRange(
    const std::string& path, uint64_t offset, uint64_t length) {
  return Timed(kIoRead, path, 0, [&] {
    return real_->ReadFileRange(path, offset, length);
  });
}

// Mapped bytes count as read when mapped; the page faults that later
// bring them in land in the caller's time, not here.
comfedsv::Result<comfedsv::MappedRegion> TracingFileEnv::MapRange(
    const std::string& path, uint64_t offset, uint64_t length) {
  MeterScope scope(&(*meters_)[kIoRead], 0);
  comfedsv::Result<comfedsv::MappedRegion> region =
      real_->MapRange(path, offset, length);
  if (region.ok()) {
    scope.set_amount(static_cast<int64_t>(region.value().size()));
  }
  return region;
}

comfedsv::Status TracingFileEnv::Rename(const std::string& from,
                                        const std::string& to) {
  return Timed(kIoOther, to, 0, [&] { return real_->Rename(from, to); });
}

comfedsv::Status TracingFileEnv::Remove(const std::string& path) {
  return Timed(kIoOther, path, 0, [&] { return real_->Remove(path); });
}

comfedsv::Result<std::vector<std::string>> TracingFileEnv::ListDir(
    const std::string& dir) {
  return Timed(kIoOther, dir, 0, [&] { return real_->ListDir(dir); });
}

bool TracingFileEnv::Exists(const std::string& path) {
  return Timed(kIoOther, path, 0, [&] { return real_->Exists(path); });
}

comfedsv::Result<uint64_t> TracingFileEnv::FileSize(const std::string& path) {
  return Timed(kIoOther, path, 0, [&] { return real_->FileSize(path); });
}

comfedsv::Status TracingFileEnv::Truncate(const std::string& path,
                                          uint64_t size) {
  return Timed(kIoOther, path, 0,
               [&] { return real_->Truncate(path, size); });
}

// ---------------------------------------------------------------------------
// Tracer

int Tracer::Begin(const std::string& name) {
  Span span;
  span.id = static_cast<int>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.name = name;
  span.at_start = meters_->Snapshot();
  span.start_s = Seconds(origin_, Clock::now());
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::End(int id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_s = Seconds(origin_, Clock::now());
  span.at_end = meters_->Snapshot();
  open_.pop_back();
}

namespace {
// Busy time of the meters that never overlap each other: model calls and
// file-system operations (the checkpoint meter re-counts a subset of the
// file-system time, so it is left out).
double DisjointBusy(const MeterSnapshot& s) {
  double total = 0.0;
  for (int i = 0; i < kNumMeters; ++i) {
    if (i != kIoCheckpoint) total += s[static_cast<size_t>(i)].busy_s;
  }
  return total;
}
}  // namespace

double Tracer::MeterSecondsIn(int id) const {
  const Span& span = spans_[static_cast<size_t>(id)];
  return DisjointBusy(span.at_end) - DisjointBusy(span.at_start);
}

double Tracer::SelfSeconds(int id) const {
  double children = 0.0;
  double child_meters = 0.0;
  for (const Span& s : spans_) {
    if (s.parent != id) continue;
    children += s.duration();
    child_meters += MeterSecondsIn(s.id);
  }
  const Span& span = spans_[static_cast<size_t>(id)];
  return span.duration() - children - (MeterSecondsIn(id) - child_meters);
}

std::string Tracer::ToJson() const {
  std::ostringstream out;
  char buf[64];
  auto num = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return std::string(buf);
  };
  auto counters = [&](const MeterSnapshot& s) {
    std::ostringstream c;
    c << "{";
    for (int i = 0; i < kNumMeters; ++i) {
      const MeterReading& r = s[static_cast<size_t>(i)];
      c << (i ? ", " : "") << "\"" << MeterName(i) << "\": [" << r.calls
        << ", " << r.amount << ", " << num(r.busy_s) << "]";
    }
    c << "}";
    return c.str();
  };
  out << "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n " : "\n ") << "{\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
        << "\", \"start\": " << num(s.start_s)
        << ", \"end\": " << num(s.end_s)
        << ", \"counts_start\": " << counters(s.at_start)
        << ", \"counts_end\": " << counters(s.at_end) << "}";
  }
  out << "\n]";
  return out.str();
}

}  // namespace perfbench
