// Measurement plumbing shared by the perfbench workloads.
//
// Every layer is measured from outside, through its public API:
//   * kernel bodies — timing wrappers registered over the
//     `jni::KernelRegistry` entries a workload uses;
//   * codec — a replay of the workload's mapped inputs through
//     `compress::find_codec`;
//   * runtime data path, Spark tasks and the admission scheduler — a
//     `tools::Tool` attached to each `DeviceManager`'s tracer;
//   * DES and trace layers — `sim::Engine::events_processed`,
//     `trace::Tracer::spans` and a timed `TraceAnalyzer::analyze_all`.
// The benchmark's own spans (`HostTrace`) wrap the calls into those layers
// and only record in traced passes; untraced passes give the host metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "jnibridge/bridge.h"
#include "omptarget/device.h"
#include "support/bytes.h"
#include "support/status.h"
#include "tools/tools.h"

namespace perfbench {

using namespace ompcloud;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

/// The benchmark's own host-time spans. Kept in memory and written out as
/// Chrome trace-event JSON when the run ends. A disabled trace records
/// nothing and each `Scope` costs one branch.
class HostTrace {
 public:
  explicit HostTrace(bool enabled) : enabled_(enabled) {}
  HostTrace(const HostTrace&) = delete;
  HostTrace& operator=(const HostTrace&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// RAII span: opens at construction, closes at destruction. The span
  /// open when it starts is its parent.
  class Scope {
   public:
    Scope(HostTrace* trace, std::string name);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    HostTrace* trace_;
    size_t index_ = 0;
  };
  [[nodiscard]] Scope span(std::string name) { return Scope(this, std::move(name)); }

  /// Records an already-timed span under the currently open one (the kernel
  /// and codec wrappers time their call once and reuse the reading).
  void record(std::string name, Clock::time_point begin, Clock::time_point end);

  /// Writes every span as Chrome trace-event JSON.
  Status write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    int64_t parent = -1;
    Clock::time_point begin;
    Clock::time_point end;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Accumulates the host seconds of the timed phase: callers bracket only
/// the work that counts (offloads and the in-process trace analysis), so
/// verification interleaved between offloads stays outside.
class Stopwatch {
 public:
  void start() { begin_ = Clock::now(); }
  void stop() { total_ += seconds_between(begin_, Clock::now()); }
  [[nodiscard]] double seconds() const { return total_; }

 private:
  Clock::time_point begin_;
  double total_ = 0;
};

/// What crossed the runtime boundaries, as counted by `LayerTool`.
struct LayerCounts {
  struct Bytes {
    uint64_t plain = 0;          ///< bytes that crossed the codec
    uint64_t wire = 0;           ///< bytes that crossed the wire
    uint64_t cache_skipped = 0;  ///< kept off the wire by the delta cache
    uint64_t resident = 0;       ///< kept off the wire by residency
  };
  /// One job the admission scheduler dispatched: a coalesced batch or a
  /// single region, with its member region names in dispatch order.
  struct Dispatch {
    uint64_t batch_id = 0;  ///< 0 for a region dispatched alone
    std::vector<std::string> regions;
  };

  Bytes to;    ///< host -> cloud
  Bytes from;  ///< cloud -> host
  uint64_t data_ops = 0;
  uint64_t tasks = 0;
  uint64_t task_retries = 0;
  uint64_t rejects = 0;
  std::vector<double> queue_waits;  ///< virtual seconds, per dispatch
  std::vector<Dispatch> dispatches;
};

/// Counts data operations, Spark tasks and scheduler events of every device
/// manager it is attached to (one tool may observe many managers).
class LayerTool final : public tools::Tool {
 public:
  void on_data_op(const tools::DataOpInfo& info) override;
  void on_kernel_complete(const tools::KernelInfo& info) override;
  void on_scheduler_event(const tools::SchedulerEventInfo& info) override;

  LayerCounts counts;
};

/// Timing wrappers over registered kernel bodies. Each wrapper knows the
/// loop's cost-model flops per iteration, so the layer reports a rate.
class KernelLayer {
 public:
  explicit KernelLayer(HostTrace* trace) : trace_(trace) {}
  KernelLayer(const KernelLayer&) = delete;
  KernelLayer& operator=(const KernelLayer&) = delete;
  /// Restores the unwrapped bodies.
  ~KernelLayer();

  /// Registers a timing wrapper over every kernel named in `region` (its
  /// loops carry the flops per iteration). Already wrapped kernels are
  /// left alone, so calling this once per region is safe.
  Status instrument(const omptarget::TargetRegion& region);

  uint64_t calls = 0;
  double body_seconds = 0;
  double flops = 0;

 private:
  HostTrace* trace_;
  std::map<std::string, jni::LoopBodyFn> originals_;
};

/// Registers a deliberately wrong body over kernel `name`: it runs the real
/// body, then flips one bit of its first output. Verification must catch it.
Status break_kernel(const std::string& name);

/// Result of replaying buffers through the configured codec.
struct CodecReplay {
  uint64_t plain_bytes = 0;
  uint64_t codec_bytes = 0;  ///< plain bytes above the min-compress size
  double compress_seconds = 0;
  double decompress_seconds = 0;
};

/// Compresses and decompresses each buffer the way the cloud plugin stages
/// it: buffers below `min_compress_size` pass through uncompressed, larger
/// ones go through `compress::find_codec(codec)` in blocks of `chunk_size`
/// (0 = whole buffer). Fails when a round trip does not reproduce its input.
Status replay_codec(std::string_view codec, uint64_t min_compress_size,
                    uint64_t chunk_size, ByteView buffer, HostTrace& trace,
                    CodecReplay& out);

/// FNV-1a over a string, chained from `hash` (digest of virtual reports).
uint64_t digest(uint64_t hash, std::string_view text);
inline constexpr uint64_t kDigestSeed = 0xcbf29ce484222325ull;

}  // namespace perfbench
