// service-stream: small inference requests (y = W.x over one shared weight
// vector) sent open-loop in virtual time through `Service`/`Session` from
// four tenants, with micro-batching. Per-offload cost in the runtime and
// the trace layer dominates host time here; kernels and codec do little.
#include <cstring>
#include <map>
#include <memory>

#include "cloud/cluster.h"
#include "omp/target_region.h"
#include "omptarget/cloud_plugin.h"
#include "omptarget/service.h"
#include "support/random.h"
#include "support/strings.h"
#include "trace/analysis.h"
#include "trace/export.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int64_t kRows = 64;  ///< outputs per request
constexpr int64_t kK = 256;    ///< reduction depth (weights length)
constexpr double kGapSeconds = 0.02;  ///< 50 requests per virtual second
constexpr double kLatencyLimitSeconds = 5.0;
constexpr int kFullRequests = 1000;
constexpr int kTinyRequests = 64;
constexpr const char* kKernel = "perfbench.infer";
constexpr const char* kTenants[] = {"tenant-a", "tenant-b", "tenant-c",
                                    "tenant-d"};

Status InferKernel(const jni::KernelArgs& args) {
  auto x = args.input<float>(0);
  auto w = args.input<float>(1);
  auto y = args.output<float>(0);
  for (int64_t i = args.begin; i < args.end; ++i) {
    float acc = 0.0f;
    for (int64_t k = 0; k < kK; ++k) acc += w[k] * x[i * kK + k];
    y[i] = acc;
  }
  return Status::ok();
}

struct Request {
  std::vector<float> x;
  std::vector<float> y;
  double due = 0;        ///< virtual send time
  double submitted = -1; ///< virtual time the submission actually went out
  double done = -1;      ///< completion; -1 = failed or rejected
  std::optional<omptarget::TargetRegion> region;  ///< consumed by the send
  omptarget::OffloadReport report;
};

/// Sleeps until the request is due, submits it through the session, and
/// records when it went out and when it completed.
sim::Co<void> send(sim::Engine* engine, Session session, int device,
                   Request* request) {
  co_await engine->sleep(request->due);
  request->submitted = engine->now();
  omptarget::SubmitOptions options;
  options.device_id = device;
  auto result = co_await session.submit(std::move(*request->region), options);
  if (result.ok()) {
    request->done = engine->now();
    request->report = *result;
  }
}

class ServiceStream final : public Workload {
 public:
  explicit ServiceStream(const WorkloadOptions& options) : options_(options) {}

  Status setup() override {
    cloud::ClusterSpec spec;
    spec.workers = 4;
    cluster_ = std::make_unique<cloud::Cluster>(engine_, spec,
                                                cloud::SimProfile{});
    devices_ = std::make_unique<omptarget::DeviceManager>(engine_);
    devices_->tracer().tools().attach(&tool_);
    device_ = devices_->register_device(std::make_unique<omptarget::CloudPlugin>(
        *cluster_, spark::SparkConf{}, plugin_));
    ServiceOptions service_options;
    service_options.default_device = device_;
    service_options.scheduler.max_concurrent = 8;
    service_options.scheduler.batch_regions = 16;
    service_options.scheduler.batch_bytes = 4 << 20;
    service_options.scheduler.batch_linger_seconds = 0.05;
    service_ = std::make_unique<Service>(*devices_, service_options);
    jni::KernelRegistry::instance().register_kernel(kKernel, InferKernel);

    // Small integer-valued inputs: as compressible as the ablation's, and
    // every product and partial sum is exact in float.
    Xoshiro256 rng(options_.seed);
    weights_.resize(static_cast<size_t>(kK));
    for (float& w : weights_) w = static_cast<float>(rng.next() % 17) * 0.0625f;
    const int count = options_.tiny ? kTinyRequests : kFullRequests;
    requests_.resize(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
      Request& request = requests_[static_cast<size_t>(i)];
      request.due = i * kGapSeconds;
      request.x.resize(static_cast<size_t>(kRows * kK));
      for (float& v : request.x) v = static_cast<float>(rng.next() % 23);
      request.y.assign(static_cast<size_t>(kRows), 0.0f);
      omp::TargetRegion region(*devices_, str_format("req[%d]", i));
      region.device(device_);
      auto x = region.map_to("x", request.x.data(), request.x.size());
      auto w = region.map_to("w", weights_.data(), weights_.size());
      auto y = region.map_from("y", request.y.data(), request.y.size());
      region.parallel_for(kRows)
          .read_partitioned(x, omp::rows<float>(kK))
          .read(w)
          .write_partitioned(y, omp::rows<float>(1))
          .cost_flops(2.0 * static_cast<double>(kK))
          .kernel(kKernel);
      OC_ASSIGN_OR_RETURN(request.region, region.lower());
    }
    if (!options_.break_kernel.empty()) {
      OC_RETURN_IF_ERROR(break_kernel(options_.break_kernel));
    }
    return Status::ok();
  }

  Status run(HostTrace& trace, PassResult& out) override {
    const bool traced = trace.enabled();
    KernelLayer kernels(&trace);
    if (traced) OC_RETURN_IF_ERROR(kernels.instrument(*requests_.front().region));

    Stopwatch wall;
    {
      auto span = trace.span("stream");
      wall.start();
      for (size_t i = 0; i < requests_.size(); ++i) {
        engine_.spawn(send(&engine_, service_->session(kTenants[i % 4]),
                           device_, &requests_[i]));
      }
      engine_.run();
      const Clock::time_point begin = Clock::now();
      {
        auto analyze_span = trace.span("analyze");
        auto analyses = trace::TraceAnalyzer(devices_->tracer()).analyze_all();
        if (analyses.empty()) return internal_error("no analyzed offloads");
      }
      out.analyze_seconds = seconds_between(begin, Clock::now());
      wall.stop();
    }
    out.wall_seconds = wall.seconds();
    out.latency_limit = kLatencyLimitSeconds;

    out.cost_usd = cluster_->cost().accrued_usd();
    out.events = engine_.events_processed();
    out.spans = devices_->tracer().spans().size();
    out.layers = tool_.counts;
    {
      auto span = trace.span("verify");
      OC_RETURN_IF_ERROR(verify(out));
    }
    if (!traced) return Status::ok();

    out.kernel_calls = kernels.calls;
    out.kernel_seconds = kernels.body_seconds;
    out.kernel_flops = kernels.flops;
    {
      auto span = trace.span("export");
      const Clock::time_point begin = Clock::now();
      std::string json = trace::to_chrome_json(devices_->tracer());
      out.export_seconds = seconds_between(begin, Clock::now());
      if (json.empty()) return internal_error("empty trace export");
    }
    return replay(trace, out);
  }

 private:
  /// Checks every request against a serial W.x and the conservation of
  /// bytes between the tool and the reports; fills the virtual results.
  Status verify(PassResult& out) {
    const Clock::time_point begin = Clock::now();
    uint64_t up_plain = 0, up_wire = 0, down_plain = 0, down_wire = 0;
    uint64_t batched_members = 0;
    for (size_t i = 0; i < requests_.size(); ++i) {
      const Request& request = requests_[i];
      out.attempted += 1;
      // An open-loop generator must never send late: a late send hides
      // queueing delay from the latency it measures.
      if (request.submitted != request.due) {
        return data_loss(str_format("req[%zu] sent at %.9f, due %.9f", i,
                                    request.submitted, request.due));
      }
      if (request.done < 0) {
        out.failed += 1;
        continue;
      }
      out.latencies.push_back(request.done - request.due);
      out.makespan_seconds = std::max(out.makespan_seconds, request.done);
      out.digest = digest(out.digest, request.report.to_json());
      up_plain += request.report.uploaded_plain_bytes;
      up_wire += request.report.uploaded_wire_bytes;
      down_plain += request.report.downloaded_plain_bytes;
      down_wire += request.report.downloaded_wire_bytes;
      if (request.report.batch_size > 1) batched_members += 1;
      for (int64_t r = 0; r < kRows; ++r) {
        float acc = 0.0f;
        for (int64_t k = 0; k < kK; ++k) {
          acc += weights_[static_cast<size_t>(k)] *
                 request.x[static_cast<size_t>(r * kK + k)];
        }
        if (std::memcmp(&acc, &request.y[static_cast<size_t>(r)],
                        sizeof(float)) != 0) {
          return data_loss(str_format("req[%zu] y[%lld] = %.9g, serial W.x "
                                      "= %.9g",
                                      i, static_cast<long long>(r),
                                      request.y[static_cast<size_t>(r)], acc));
        }
      }
    }
    out.reference_seconds = seconds_between(begin, Clock::now());
    // Batch members report a pro-rata share of the batch's bytes, rounded
    // down: allow one byte per batched member.
    return check_report_bytes(out.layers, up_plain, up_wire, down_plain,
                              down_wire, batched_members);
  }

  /// Replays what each dispatched job staged: the members' x buffers,
  /// concatenated in dispatch order for a coalesced batch, and the shared
  /// weights once per job.
  Status replay(HostTrace& trace, PassResult& out) {
    auto span = trace.span("codec replay");
    std::map<std::string, const Request*> by_region;
    for (size_t i = 0; i < requests_.size(); ++i) {
      by_region[str_format("req[%zu]", i)] = &requests_[i];
    }
    const ByteView weights(reinterpret_cast<const std::byte*>(weights_.data()),
                           weights_.size() * sizeof(float));
    for (const LayerCounts::Dispatch& job : out.layers.dispatches) {
      ByteBuffer concat(job.regions.size() * kRows * kK * sizeof(float));
      size_t offset = 0;
      for (const std::string& name : job.regions) {
        auto it = by_region.find(name);
        if (it == by_region.end()) {
          return internal_error("dispatch of unknown region " + name);
        }
        const std::vector<float>& x = it->second->x;
        std::memcpy(concat.data() + offset, x.data(), x.size() * sizeof(float));
        offset += x.size() * sizeof(float);
      }
      OC_RETURN_IF_ERROR(replay_codec(plugin_.codec, plugin_.min_compress_size,
                                      plugin_.chunk_size, concat.view(), trace,
                                      out.codec));
      OC_RETURN_IF_ERROR(replay_codec(plugin_.codec, plugin_.min_compress_size,
                                      plugin_.chunk_size, weights, trace,
                                      out.codec));
    }
    return check_replay_bytes(out.layers, out.codec);
  }

  WorkloadOptions options_;
  omptarget::CloudPluginOptions plugin_;
  LayerTool tool_;  ///< declared before the manager: outlives it
  sim::Engine engine_;
  std::unique_ptr<cloud::Cluster> cluster_;
  std::unique_ptr<omptarget::DeviceManager> devices_;
  std::unique_ptr<Service> service_;
  int device_ = -1;
  std::vector<float> weights_;
  std::vector<Request> requests_;
};

}  // namespace

std::unique_ptr<Workload> make_service_stream(const WorkloadOptions& options) {
  return std::make_unique<ServiceStream>(options);
}

}  // namespace perfbench
