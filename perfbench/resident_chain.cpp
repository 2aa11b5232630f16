// resident-chain: 2MM and 3MM chains run inside a `DataEnvironment`
// (resident), each next to the same chain run round-trip with the delta
// cache and 32 KiB chunks. This drives the transfer path the other way
// round from the sweep: uploads are skipped by residency or by the cache,
// and outputs chain cloud-to-cloud instead of downloading.
#include <cstring>
#include <memory>
#include <optional>

#include "cloud/cluster.h"
#include "omp/target_region.h"
#include "omptarget/cloud_plugin.h"
#include "omptarget/data_env.h"
#include "support/strings.h"
#include "trace/analysis.h"
#include "trace/export.h"
#include "workload.h"
#include "workload/generators.h"

namespace perfbench {
namespace {

constexpr const char* kKernel = "perfbench.matmul";

/// out = x * y for rows [begin, end) of n x n row-major matrices. The
/// kernel body and the serial reference share it, so their operation order
/// (and therefore every bit of the result) is the same.
template <typename X, typename Y, typename Out>
void matmul_rows(const X& x, const Y& y, Out& out, int64_t n, int64_t begin,
                 int64_t end) {
  for (int64_t i = begin; i < end; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t k = 0; k < n; ++k) acc += x[i * n + k] * y[k * n + j];
      out[i * n + j] = acc;
    }
  }
}

jni::LoopBodyFn matmul_body(int64_t n) {
  return [n](const jni::KernelArgs& args) {
    auto out = args.output<float>(0);
    matmul_rows(args.input<float>(0), args.input<float>(1), out, n, args.begin,
                args.end);
    return Status::ok();
  };
}

/// One chain on its own cluster. The state ping-pongs between s0 and s1:
/// link k reads s[k%2] and writes the other; operands stay fixed.
struct Chain {
  int muls = 2;  ///< 2 = 2MM links, 3 = 3MM links
  bool resident = false;
  std::unique_ptr<sim::Engine> engine;
  std::unique_ptr<cloud::Cluster> cluster;
  std::unique_ptr<omptarget::DeviceManager> devices;
  int device = -1;
  std::vector<float> a, b, c, s0, s1, tmp, tmp2;
};

class ResidentChain final : public Workload {
 public:
  explicit ResidentChain(const WorkloadOptions& options) : options_(options) {
    n_ = options.tiny ? 32 : 160;
    links_ = options.tiny ? 2 : 8;
    plugin_.chunk_size = 32ull << 10;
    plugin_.cache_data = true;
  }

  Status setup() override {
    jni::KernelRegistry::instance().register_kernel(kKernel, matmul_body(n_));
    const size_t n = static_cast<size_t>(n_);
    auto matrix = [&](uint64_t salt) {
      return workload::make_matrix({n, n, false, options_.seed * 8 + salt});
    };
    for (int muls : {2, 3}) {
      for (bool resident : {true, false}) {
        Chain chain;
        chain.muls = muls;
        chain.resident = resident;
        chain.engine = std::make_unique<sim::Engine>();
        chain.cluster = std::make_unique<cloud::Cluster>(
            *chain.engine, cloud::ClusterSpec{},
            cloud::SimProfile::paper_scale(n_));
        chain.devices =
            std::make_unique<omptarget::DeviceManager>(*chain.engine);
        chain.devices->tracer().tools().attach(&tool_);
        chain.device = chain.devices->register_device(
            std::make_unique<omptarget::CloudPlugin>(
                *chain.cluster, spark::SparkConf{}, plugin_));
        // Both modes of one chain kind start from the same inputs. The fixed
        // operands are scaled by 2/n so chained products stay bounded.
        chain.a = matrix(1);
        chain.b = matrix(2);
        chain.c = matrix(3);
        for (auto* m : {&chain.a, &chain.b, &chain.c}) {
          for (float& v : *m) v *= 2.0f / static_cast<float>(n_);
        }
        chain.s0 = matrix(0);
        chain.s1.assign(n * n, 0.0f);
        chain.tmp.assign(n * n, 0.0f);
        chain.tmp2.assign(n * n, 0.0f);
        chains_.push_back(std::move(chain));
      }
    }
    if (!options_.break_kernel.empty()) {
      OC_RETURN_IF_ERROR(break_kernel(options_.break_kernel));
    }
    return Status::ok();
  }

  Status run(HostTrace& trace, PassResult& out) override {
    const bool traced = trace.enabled();
    KernelLayer kernels(&trace);
    Stopwatch wall;
    Stopwatch analyze;
    Totals totals;
    std::vector<omptarget::TargetRegion> staged;  // lowered links, for replay
    for (Chain& chain : chains_) {
      auto span = trace.span(str_format("chain %dmm %s", chain.muls,
                                        chain.resident ? "resident"
                                                       : "round-trip"));
      wall.start();
      Status ran = run_chain(chain, trace, traced ? &kernels : nullptr, out,
                             totals, staged);
      analyze.start();
      auto analyses = trace::TraceAnalyzer(chain.devices->tracer()).analyze_all();
      analyze.stop();
      wall.stop();
      OC_RETURN_IF_ERROR(ran);
      if (analyses.size() != static_cast<size_t>(links_)) {
        return internal_error("chain: analyzed offloads != links");
      }
    }
    out.wall_seconds = wall.seconds();
    out.analyze_seconds = analyze.seconds();

    {
      auto span = trace.span("verify");
      OC_RETURN_IF_ERROR(verify(out));
    }
    for (Chain& chain : chains_) {
      out.cost_usd += chain.cluster->cost().accrued_usd();
      out.events += chain.engine->events_processed();
      out.spans += chain.devices->tracer().spans().size();
    }
    out.layers = tool_.counts;
    OC_RETURN_IF_ERROR(check_report_bytes(out.layers, totals.up_plain,
                                          totals.up_wire, totals.down_plain,
                                          totals.down_wire, 0));
    if (!traced) return Status::ok();

    out.kernel_calls = kernels.calls;
    out.kernel_seconds = kernels.body_seconds;
    out.kernel_flops = kernels.flops;
    {
      auto span = trace.span("export");
      const Clock::time_point begin = Clock::now();
      for (Chain& chain : chains_) {
        std::string json = trace::to_chrome_json(chain.devices->tracer());
        if (json.empty()) return internal_error("empty trace export");
      }
      out.export_seconds = seconds_between(begin, Clock::now());
    }
    auto span = trace.span("codec replay");
    for (const omptarget::TargetRegion& region : staged) {
      for (const omptarget::MappedVar& var : region.vars) {
        if (!var.maps_to()) continue;
        OC_RETURN_IF_ERROR(replay_codec(
            plugin_.codec, plugin_.min_compress_size, plugin_.chunk_size,
            ByteView(static_cast<const std::byte*>(var.host_ptr),
                     var.size_bytes),
            trace, out.codec));
      }
    }
    return check_replay_bytes(out.layers, out.codec);
  }

 private:
  struct Totals {
    uint64_t up_plain = 0, up_wire = 0, down_plain = 0, down_wire = 0;
  };

  /// Offloads every link of `chain` (inside one environment when resident)
  /// and folds the reports into `out` and `totals`.
  Status run_chain(Chain& chain, HostTrace& trace, KernelLayer* kernels,
                   PassResult& out, Totals& totals,
                   std::vector<omptarget::TargetRegion>& staged) {
    const size_t cells = static_cast<size_t>(n_) * static_cast<size_t>(n_);
    const uint64_t bytes = cells * sizeof(float);
    const bool final_is_s0 = links_ % 2 == 0;
    std::optional<omptarget::DataEnvironment> env;
    if (chain.resident) {
      using omptarget::MapType;
      env.emplace(*chain.devices, chain.device);
      OC_RETURN_IF_ERROR(env->map("S0", chain.s0.data(), bytes,
                                  final_is_s0 ? MapType::kToFrom : MapType::kTo));
      OC_RETURN_IF_ERROR(env->map("S1", chain.s1.data(), bytes,
                                  final_is_s0 ? MapType::kAlloc : MapType::kFrom));
      OC_RETURN_IF_ERROR(env->map("A", chain.a.data(), bytes, MapType::kTo));
      OC_RETURN_IF_ERROR(env->map("B", chain.b.data(), bytes, MapType::kTo));
      OC_RETURN_IF_ERROR(
          env->map("tmp", chain.tmp.data(), bytes, MapType::kAlloc));
      if (chain.muls == 3) {
        OC_RETURN_IF_ERROR(env->map("C", chain.c.data(), bytes, MapType::kTo));
        OC_RETURN_IF_ERROR(
            env->map("tmp2", chain.tmp2.data(), bytes, MapType::kAlloc));
      }
      OC_RETURN_IF_ERROR(env->enter());
    }

    const double flops = 2.0 * static_cast<double>(n_) * static_cast<double>(n_);
    for (int link = 0; link < links_; ++link) {
      float* sin = link % 2 == 0 ? chain.s0.data() : chain.s1.data();
      float* sout = link % 2 == 0 ? chain.s1.data() : chain.s0.data();
      // One region name for every link: the delta cache keys staged
      // objects by region, so the round-trip chain re-ships only the state.
      omp::TargetRegion region(*chain.devices,
                               str_format("%dmm-chain", chain.muls));
      region.device(chain.device);
      if (env) region.in_environment(*env);
      auto s_in = region.map_to("S_in", sin, cells);
      auto a = region.map_to("A", chain.a.data(), cells);
      auto b = region.map_to("B", chain.b.data(), cells);
      auto t1 = region.map_alloc("tmp", chain.tmp.data(), cells);
      auto s_out = region.map_from("S_out", sout, cells);
      auto product = [&](omp::VarHandle x, omp::VarHandle y, omp::VarHandle z) {
        region.parallel_for(n_)
            .read_partitioned(x, omp::rows<float>(n_))
            .read(y)
            .write_partitioned(z, omp::rows<float>(n_))
            .cost_flops(flops)
            .kernel(kKernel);
      };
      product(s_in, a, t1);
      if (chain.muls == 2) {
        product(t1, b, s_out);
      } else {
        auto c = region.map_to("C", chain.c.data(), cells);
        auto t2 = region.map_alloc("tmp2", chain.tmp2.data(), cells);
        product(t1, b, t2);
        product(t2, c, s_out);
      }
      OC_ASSIGN_OR_RETURN(omptarget::TargetRegion lowered, region.lower());
      if (kernels != nullptr) OC_RETURN_IF_ERROR(kernels->instrument(lowered));
      const double due = chain.engine->now();
      out.attempted += 1;
      auto span = trace.span(region.name());
      auto report = omp::offload_blocking(*chain.engine, region);
      if (!report.ok() || report->fell_back_to_host) {
        out.failed += 1;
        return internal_error(region.name() + " did not run on the cloud");
      }
      // Links are a closed loop: each is due when the previous completes.
      out.latencies.push_back(chain.engine->now() - due);
      out.digest = digest(out.digest, report->to_json());
      totals.up_plain += report->uploaded_plain_bytes;
      totals.up_wire += report->uploaded_wire_bytes;
      totals.down_plain += report->downloaded_plain_bytes;
      totals.down_wire += report->downloaded_wire_bytes;
      staged.push_back(std::move(lowered));
    }

    if (env) {
      std::optional<Result<omptarget::DataEnvReport>> exit;
      chain.engine->spawn(
          [](omptarget::DataEnvironment* env,
             std::optional<Result<omptarget::DataEnvReport>>* exit)
              -> sim::Co<void> { *exit = co_await env->exit(); }(&*env, &exit));
      chain.engine->run();
      OC_ASSIGN_OR_RETURN(omptarget::DataEnvReport report, std::move(*exit));
      totals.down_plain += report.downloaded_plain_bytes;
      totals.down_wire += report.downloaded_wire_bytes;
      out.digest = digest(out.digest, str_format("exit %.17g %llu", report.seconds,
                                                 static_cast<unsigned long long>(
                                                     report.downloaded_wire_bytes)));
    }
    out.makespan_seconds += chain.engine->now();
    return Status::ok();
  }

  /// The final state of every chain must equal a serial chain computed
  /// here with the same operation order, and resident must equal
  /// round-trip.
  Status verify(PassResult& out) {
    const Clock::time_point begin = Clock::now();
    const size_t cells = static_cast<size_t>(n_) * static_cast<size_t>(n_);
    for (Chain& chain : chains_) {
      const std::vector<float>& a = chain.a;
      const std::vector<float>& b = chain.b;
      const std::vector<float>& c = chain.c;
      std::vector<float> s = workload::make_matrix(
          {static_cast<size_t>(n_), static_cast<size_t>(n_), false,
           options_.seed * 8});
      std::vector<float> next(cells), t1(cells), t2(cells);
      for (int link = 0; link < links_; ++link) {
        matmul_rows(s, a, t1, n_, 0, n_);
        if (chain.muls == 2) {
          matmul_rows(t1, b, next, n_, 0, n_);
        } else {
          matmul_rows(t1, b, t2, n_, 0, n_);
          matmul_rows(t2, c, next, n_, 0, n_);
        }
        s.swap(next);
      }
      const std::vector<float>& final_state =
          links_ % 2 == 0 ? chain.s0 : chain.s1;
      if (std::memcmp(final_state.data(), s.data(), cells * sizeof(float)) !=
          0) {
        return data_loss(str_format("%dmm %s chain diverges from the serial "
                                    "chain",
                                    chain.muls,
                                    chain.resident ? "resident" : "round-trip"));
      }
    }
    out.reference_seconds += seconds_between(begin, Clock::now());
    return Status::ok();
  }

  WorkloadOptions options_;
  int64_t n_ = 0;
  int links_ = 0;
  omptarget::CloudPluginOptions plugin_;
  LayerTool tool_;  ///< declared before the managers: outlives them
  std::vector<Chain> chains_;
};

}  // namespace

std::unique_ptr<Workload> make_resident_chain(const WorkloadOptions& options) {
  return std::make_unique<ResidentChain>(options);
}

}  // namespace perfbench
