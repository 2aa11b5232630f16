// The workload interface the perfbench binary runs, and what one pass of a
// workload reports back.
#pragma once

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "layers.h"

namespace perfbench {

struct WorkloadOptions {
  uint64_t seed = 1;
  bool tiny = false;  ///< test-sized inputs (checks the harness, not speed)
  std::string break_kernel;  ///< registry name to replace with a wrong body
};

/// Everything one setup + timed run + verification of a workload produced.
struct PassResult {
  double wall_seconds = 0;     ///< timed phase: offloads + analyze_all
  double analyze_seconds = 0;  ///< the analyze_all share of wall_seconds
  double export_seconds = 0;   ///< Chrome-JSON export of the program traces
  double reference_seconds = 0;  ///< serial references during verification

  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Virtual seconds from each completed offload's due time to completion.
  std::vector<double> latencies;
  double latency_limit = std::numeric_limits<double>::infinity();
  double makespan_seconds = 0;  ///< virtual time to finish the workload
  double cost_usd = 0;

  uint64_t events = 0;  ///< DES events over every engine of the pass
  uint64_t spans = 0;   ///< program trace spans over every tracer
  uint64_t digest = kDigestSeed;  ///< over every offload's virtual report

  LayerCounts layers;
  CodecReplay codec;  ///< traced passes only
  uint64_t kernel_calls = 0;
  double kernel_seconds = 0;
  double kernel_flops = 0;
};

/// One workload. `setup` builds clusters, devices and services, generates
/// the inputs and registers kernels; `run` is the timed phase and checks
/// outputs and conservation outside its stopwatch. A failed check returns
/// kDataLoss, so main() can tell a wrong answer from a broken run.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual Status setup() = 0;
  /// In traced passes (`trace.enabled()`) the workload also wraps its
  /// kernels, replays the codec and exports its program traces.
  virtual Status run(HostTrace& trace, PassResult& out) = 0;
};

using WorkloadFactory =
    std::unique_ptr<Workload> (*)(const WorkloadOptions& options);

std::unique_ptr<Workload> make_paper_sweep(const WorkloadOptions& options);
std::unique_ptr<Workload> make_service_stream(const WorkloadOptions& options);
std::unique_ptr<Workload> make_resident_chain(const WorkloadOptions& options);

/// Checks that the tool's data-op bytes equal the summed report bytes.
/// `slack` allows that many bytes per field for pro-rata report shares.
Status check_report_bytes(const LayerCounts& tool, uint64_t up_plain,
                          uint64_t up_wire, uint64_t down_plain,
                          uint64_t down_wire, uint64_t slack);

/// Checks that the codec replay saw every mapped-to byte the tool counted,
/// whether it crossed the codec or was skipped by the cache or residency.
Status check_replay_bytes(const LayerCounts& tool, const CodecReplay& replay);

}  // namespace perfbench
