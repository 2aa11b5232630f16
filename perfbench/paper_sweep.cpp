// paper-sweep: the paper's eight kernels (Fig. 4/5), dense and sparse, over
// a dedicated-core sweep. Each offload runs on a fresh 16-worker cluster,
// as in the paper's one-job-per-configuration measurements. Real kernel
// bodies and GzLite dominate host time here; the trace and control plane
// see one offload per tracer.
#include <memory>

#include "cloud/cluster.h"
#include "kernels/benchmark.h"
#include "omp/target_region.h"
#include "omptarget/cloud_plugin.h"
#include "support/strings.h"
#include "trace/analysis.h"
#include "trace/export.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Point {
  size_t input = 0;  ///< index into PaperSweep::inputs_
  int cores = 0;
  std::unique_ptr<sim::Engine> engine;
  std::unique_ptr<cloud::Cluster> cluster;
  std::unique_ptr<omptarget::DeviceManager> devices;
  int device = -1;
};

/// One benchmark's inputs at one density, shared by its core-count points.
struct Input {
  std::unique_ptr<kernels::Benchmark> benchmark;
  kernels::Benchmark::Options options;
  bool used = false;  ///< an offload already wrote into its outputs
};

class PaperSweep final : public Workload {
 public:
  explicit PaperSweep(const WorkloadOptions& options) : options_(options) {
    n_ = options.tiny ? 48 : 448;
    cores_ = options.tiny ? std::vector<int>{8, 256}
                          : std::vector<int>{8, 32, 128, 256};
  }

  Status setup() override {
    const cloud::SimProfile profile = cloud::SimProfile::paper_scale(n_);
    for (bool sparse : {false, true}) {
      for (const std::string& name : kernels::benchmark_names()) {
        OC_ASSIGN_OR_RETURN(auto benchmark, kernels::make_benchmark(name));
        kernels::Benchmark::Options bench_options;
        bench_options.n = n_;
        bench_options.sparse = sparse;
        bench_options.seed = options_.seed;
        benchmark->prepare(bench_options);
        inputs_.push_back({std::move(benchmark), bench_options, false});
      }
    }
    for (size_t i = 0; i < inputs_.size(); ++i) {
      for (int cores : cores_) {
        Point point;
        point.input = i;
        point.cores = cores;
        point.engine = std::make_unique<sim::Engine>();
        cloud::ClusterSpec spec;
        spec.workers = 16;
        point.cluster =
            std::make_unique<cloud::Cluster>(*point.engine, spec, profile);
        spark::SparkConf conf;
        conf.with_dedicated_cores(cores);
        point.devices = std::make_unique<omptarget::DeviceManager>(*point.engine);
        point.devices->tracer().tools().attach(&tool_);
        point.device = point.devices->register_device(
            std::make_unique<omptarget::CloudPlugin>(*point.cluster, conf,
                                                     plugin_));
        points_.push_back(std::move(point));
      }
    }
    return Status::ok();
  }

  Status run(HostTrace& trace, PassResult& out) override {
    const bool traced = trace.enabled();
    KernelLayer kernels(&trace);
    Stopwatch wall;
    Stopwatch analyze;
    bool broken = false;  // --break-kernel applied to some region
    uint64_t up_plain = 0, up_wire = 0, down_plain = 0, down_wire = 0;
    for (Point& point : points_) {
      Input& input = inputs_[point.input];
      const std::string label =
          str_format("%s/%s/%d", std::string(input.benchmark->name()).c_str(),
                     input.options.sparse ? "sparse" : "dense", point.cores);
      // Outside the stopwatch: several benchmarks update their outputs in
      // place (map(tofrom:)), so every point after the first of an input
      // starts from freshly prepared buffers. Building the region
      // registers the kernel body, so wrappers go on afterwards.
      if (input.used) input.benchmark->prepare(input.options);
      input.used = true;
      omp::TargetRegion region(*point.devices,
                               std::string(input.benchmark->name()));
      region.device(point.device);
      OC_RETURN_IF_ERROR(input.benchmark->build_region(region));
      OC_ASSIGN_OR_RETURN(omptarget::TargetRegion lowered, region.lower());
      for (const spark::LoopSpec& loop : lowered.loops) {
        if (loop.kernel != options_.break_kernel) continue;
        OC_RETURN_IF_ERROR(break_kernel(loop.kernel));
        broken = true;
      }
      if (traced) {
        OC_RETURN_IF_ERROR(kernels.instrument(lowered));
        // The host buffers hold exactly what the offload will stage.
        auto span = trace.span("codec replay " + label);
        for (const omptarget::MappedVar& var : lowered.vars) {
          if (!var.maps_to()) continue;
          OC_RETURN_IF_ERROR(replay_codec(
              plugin_.codec, plugin_.min_compress_size, plugin_.chunk_size,
              ByteView(static_cast<const std::byte*>(var.host_ptr),
                       var.size_bytes),
              trace, out.codec));
        }
      }

      out.attempted += 1;
      {
        auto span = trace.span("offload " + label);
        wall.start();
        auto report = omp::offload_blocking(*point.engine, region);
        analyze.start();
        auto analyses =
            trace::TraceAnalyzer(point.devices->tracer()).analyze_all();
        analyze.stop();
        wall.stop();
        if (!report.ok() || report->fell_back_to_host) {
          out.failed += 1;
          continue;
        }
        if (analyses.size() != 1) {
          return internal_error(label + ": expected one analyzed offload");
        }
        out.latencies.push_back(report->total_seconds);
        out.makespan_seconds += report->total_seconds;
        out.digest = digest(out.digest, report->to_json());
        up_plain += report->uploaded_plain_bytes;
        up_wire += report->uploaded_wire_bytes;
        down_plain += report->downloaded_plain_bytes;
        down_wire += report->downloaded_wire_bytes;
      }
      // Verification, outside the stopwatch: the serial reference of this
      // point's inputs must match its offloaded output exactly.
      auto span = trace.span("verify " + label);
      const Clock::time_point begin = Clock::now();
      input.benchmark->run_reference();
      out.reference_seconds += seconds_between(begin, Clock::now());
      const double error = input.benchmark->max_error();
      if (error != 0.0) {
        return data_loss(str_format("%s: max error %g against the serial "
                                    "reference", label.c_str(), error));
      }
    }
    if (!options_.break_kernel.empty() && !broken) {
      return invalid_argument("no region runs kernel " + options_.break_kernel);
    }
    out.wall_seconds = wall.seconds();
    out.analyze_seconds = analyze.seconds();

    for (Point& point : points_) {
      out.cost_usd += point.cluster->cost().accrued_usd();
      out.events += point.engine->events_processed();
      out.spans += point.devices->tracer().spans().size();
    }
    out.layers = tool_.counts;
    OC_RETURN_IF_ERROR(check_report_bytes(out.layers, up_plain, up_wire,
                                          down_plain, down_wire, 0));
    if (!traced) return Status::ok();

    out.kernel_calls = kernels.calls;
    out.kernel_seconds = kernels.body_seconds;
    out.kernel_flops = kernels.flops;
    auto span = trace.span("export");
    const Clock::time_point begin = Clock::now();
    for (Point& point : points_) {
      std::string json = trace::to_chrome_json(point.devices->tracer());
      if (json.empty()) return internal_error("empty trace export");
    }
    out.export_seconds = seconds_between(begin, Clock::now());
    return check_replay_bytes(out.layers, out.codec);
  }

 private:
  WorkloadOptions options_;
  int64_t n_ = 0;
  std::vector<int> cores_;
  omptarget::CloudPluginOptions plugin_;
  LayerTool tool_;  ///< declared before the managers: outlives them
  std::vector<Input> inputs_;
  std::vector<Point> points_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_sweep(const WorkloadOptions& options) {
  return std::make_unique<PaperSweep>(options);
}

}  // namespace perfbench
