// Tracing for the benchmark's traced runs, recorded entirely from
// outside the library:
//
//   * Spans: the benchmark opens a span around each call it makes into a
//     public library function (FedAvgTrainer::Step, CompleteMatrix,
//     RunValuationCheckpointed, ...). Each span knows its parent.
//   * Meters: forwarding decorators of the library's two seams — a Model
//     (Loss / BatchLoss / LossAndGradient) and a FileEnv (writes,
//     appends, syncs, reads, mmaps) — count the calls that happen inside
//     those spans, on any thread.
//
// Every span stores a snapshot of all meters at its start and its end, so
// a span's self time is its duration minus its child spans and minus the
// meter time that fell inside it but outside those children.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "io/file_env.h"
#include "models/model.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// What a meter has seen so far.
struct MeterReading {
  int64_t calls = 0;
  /// Rows (BatchLoss) or bytes (I/O) the calls covered.
  int64_t amount = 0;
  /// Wall time during which at least one call was in flight: the union
  /// of the call intervals, so concurrent calls on several threads are
  /// not counted twice. This is the time subtracted for self time.
  double busy_s = 0.0;
};

/// Thread-safe accumulator for one kind of call.
class Meter {
 public:
  void Enter();
  void Exit(int64_t amount);
  MeterReading Read() const;

 private:
  mutable std::mutex mu_;
  int inflight_ = 0;
  Clock::time_point busy_since_;
  MeterReading total_;
};

/// The meters one traced run keeps, in a fixed order.
enum MeterId : int {
  kBatchLoss = 0,
  kLoss,
  kGrad,
  kIoWrite,     // WriteFile, AppendFile
  kIoSync,      // SyncFile, SyncDir
  kIoRead,      // ReadFile, ReadFileRange, MapRange
  kIoOther,     // Rename, Remove, ListDir, Exists, FileSize, Truncate
  kIoCheckpoint,  // every operation on a checkpoint file or directory
  kNumMeters
};

const char* MeterName(int id);

using MeterSnapshot = std::array<MeterReading, kNumMeters>;

class Meters {
 public:
  Meter& operator[](int id) { return meters_[static_cast<size_t>(id)]; }
  MeterSnapshot Snapshot() const;

 private:
  std::array<Meter, kNumMeters> meters_;
};

/// Times one call into a meter (RAII).
class MeterScope {
 public:
  MeterScope(Meter* meter, int64_t amount) : meter_(meter), amount_(amount) {
    meter_->Enter();
  }
  ~MeterScope() { meter_->Exit(amount_); }
  MeterScope(const MeterScope&) = delete;
  MeterScope& operator=(const MeterScope&) = delete;
  void set_amount(int64_t amount) { amount_ = amount; }

 private:
  Meter* meter_;
  int64_t amount_;
};

/// Forwards every Model call to `inner`, timing Loss, BatchLoss and
/// LossAndGradient. Outputs are the inner model's, bit for bit.
class TracingModel : public comfedsv::Model {
 public:
  TracingModel(const comfedsv::Model* inner, Meters* meters)
      : inner_(inner), meters_(meters) {}

  size_t num_params() const override { return inner_->num_params(); }
  size_t input_dim() const override { return inner_->input_dim(); }
  int num_classes() const override { return inner_->num_classes(); }
  std::string name() const override { return inner_->name(); }
  double Loss(const comfedsv::Vector& params,
              const comfedsv::Dataset& data) const override;
  void BatchLoss(const comfedsv::Matrix& param_rows,
                 const comfedsv::Dataset& data, std::vector<double>* out,
                 comfedsv::ExecutionContext* ctx) const override;
  double LossAndGradient(const comfedsv::Vector& params,
                         const comfedsv::Dataset& data,
                         comfedsv::Vector* grad) const override;
  int Predict(const comfedsv::Vector& params,
              const double* x) const override {
    return inner_->Predict(params, x);
  }
  void InitializeParams(comfedsv::Vector* params, comfedsv::Rng* rng,
                        double scale) const override {
    inner_->InitializeParams(params, rng, scale);
  }
  void MixFingerprint(uint64_t* hash) const override {
    inner_->MixFingerprint(hash);
  }

 private:
  const comfedsv::Model* inner_;
  Meters* meters_;
};

/// Forwards every FileEnv call to the real file system, timing it. Calls
/// on paths that start with `checkpoint_prefix` also count as checkpoint
/// I/O.
class TracingFileEnv : public comfedsv::FileEnv {
 public:
  TracingFileEnv(Meters* meters, std::string checkpoint_prefix)
      : meters_(meters), checkpoint_prefix_(std::move(checkpoint_prefix)) {}

  comfedsv::Status WriteFile(const std::string& path,
                             std::string_view data) override;
  comfedsv::Status SyncFile(const std::string& path) override;
  comfedsv::Status Rename(const std::string& from,
                          const std::string& to) override;
  comfedsv::Status SyncDir(const std::string& dir) override;
  comfedsv::Result<std::string> ReadFile(const std::string& path) override;
  comfedsv::Status Remove(const std::string& path) override;
  comfedsv::Result<std::vector<std::string>> ListDir(
      const std::string& dir) override;
  bool Exists(const std::string& path) override;
  comfedsv::Status AppendFile(const std::string& path,
                              std::string_view data) override;
  comfedsv::Result<std::string> ReadFileRange(const std::string& path,
                                              uint64_t offset,
                                              uint64_t length) override;
  comfedsv::Result<uint64_t> FileSize(const std::string& path) override;
  comfedsv::Status Truncate(const std::string& path, uint64_t size) override;
  comfedsv::Result<comfedsv::MappedRegion> MapRange(
      const std::string& path, uint64_t offset, uint64_t length) override;

 private:
  template <typename F>
  auto Timed(int id, const std::string& path, int64_t amount, F&& call);

  Meters* meters_;
  std::string checkpoint_prefix_;
  comfedsv::FileEnv* real_ = comfedsv::FileEnv::Real();
};

/// One recorded span. Times are seconds since the tracer started.
struct Span {
  int id = 0;
  int parent = -1;  // -1 for a root
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  MeterSnapshot at_start;
  MeterSnapshot at_end;

  double duration() const { return end_s - start_s; }
};

/// Records spans in memory on the calling thread (the benchmark's main
/// thread; library-internal worker threads only touch the meters).
class Tracer {
 public:
  explicit Tracer(Meters* meters)
      : meters_(meters), origin_(Clock::now()) {}

  int Begin(const std::string& name);
  void End(int id);

  /// Runs `fn` inside a span named `name`.
  template <typename F>
  decltype(auto) Trace(const std::string& name, F&& fn) {
    struct Closer {
      Tracer* tracer;
      int id;
      ~Closer() { tracer->End(id); }
    } closer{this, Begin(name)};
    return fn();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of span `id`: its duration minus its direct children's
  /// durations, minus the meter busy time inside it that no child
  /// already accounts for.
  double SelfSeconds(int id) const;

  /// JSON array of every span with its parent and boundary counters.
  std::string ToJson() const;

 private:
  /// Meter busy time inside span `id` (children included).
  double MeterSecondsIn(int id) const;

  Meters* meters_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
