// perfbench: the repository benchmark. One process runs one workload for
// about `--seconds` of passes (each pass: setup, timed run, verification)
// and prints every metric by name and unit, then one JSON object as the
// last line of stdout.
//
//   perfbench --workload paper-sweep|service-stream|resident-chain
//             --seed N --seconds S --trace 0|1
//             [--tiny] [--break-kernel NAME] [--trace-out PATH]
//
// --trace 0 reports the end-to-end metrics from untraced passes. --trace 1
// alternates untraced and traced passes and reports the per-layer split
// from the traced ones, plus the tracing overhead. Exit codes: 0 ok, 1 run
// error, 2 usage, 3 an output or conservation check failed (no metrics).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "support/strings.h"
#include "workload.h"

namespace perfbench {
namespace {

/// Setups measured per run even when fewer passes fit in `--seconds`.
constexpr size_t kMinSetups = 5;

struct Args {
  std::string workload;
  WorkloadOptions options;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper-sweep|service-stream|resident-chain --seed N --seconds "
               "S --trace 0|1 [--tiny] [--break-kernel NAME] "
               "[--trace-out PATH]\n",
               message);
  return 2;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds >= 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--break-kernel") {
      args.options.break_kernel = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return !args.workload.empty();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

/// The highest listed percentile with at least ten samples beyond it
/// (p50 when there are fewer than twenty samples).
double tail_percentile(size_t samples) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0;
    std::printf("%-28s %.9g %s\n", name.c_str(), value, unit.c_str());
    json_ += str_format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        json_.empty() ? "" : ", ", name.c_str(), value,
                        unit.c_str());
  }
  [[nodiscard]] const std::string& json() const { return json_; }

 private:
  std::string json_;
};

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void report_end_to_end(const std::vector<double>& setups,
                       const std::vector<PassResult>& passes, Report& report) {
  const PassResult& pass = passes.front();
  std::vector<double> walls;
  for (const PassResult& p : passes) walls.push_back(p.wall_seconds);
  std::vector<double> latencies = pass.latencies;
  std::sort(latencies.begin(), latencies.end());
  const double tail = tail_percentile(latencies.size());
  uint64_t within_limit = 0;
  for (double latency : latencies) {
    if (latency <= pass.latency_limit) within_limit += 1;
  }
  const uint64_t completed = pass.attempted - pass.failed;
  std::printf("latency tail: p%g of %zu samples; %zu setups, %zu timed "
              "passes\n",
              tail, latencies.size(), setups.size(), passes.size());
  report.add("setup_s", median(setups), "s");
  report.add("wall_s", median(walls), "s");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("virtual_makespan_s", pass.makespan_seconds, "s");
  report.add("latency_p50_s", percentile(latencies, 50), "s");
  report.add("latency_tail_s", percentile(latencies, tail), "s");
  report.add("usd_per_offload",
             completed == 0 ? 0 : pass.cost_usd / static_cast<double>(completed),
             "USD");
  report.add("goodput_fraction",
             static_cast<double>(within_limit) /
                 static_cast<double>(pass.attempted),
             "fraction");
}

void report_per_layer(const std::vector<PassResult>& untraced,
                      const std::vector<PassResult>& traced, Report& report) {
  const PassResult& pass = traced.back();
  std::vector<double> traced_walls, untraced_walls, kernel_s, analyze_s,
      export_s, reference_s;
  for (const PassResult& p : traced) {
    traced_walls.push_back(p.wall_seconds);
    kernel_s.push_back(p.kernel_seconds);
    analyze_s.push_back(p.analyze_seconds);
    export_s.push_back(p.export_seconds);
  }
  for (const PassResult& p : untraced) untraced_walls.push_back(p.wall_seconds);
  for (const auto* set : {&untraced, &traced}) {
    for (const PassResult& p : *set) reference_s.push_back(p.reference_seconds);
  }
  const double wall = median(traced_walls);
  const LayerCounts& layers = pass.layers;
  const double mb = 1e6;
  const uint64_t plain = layers.to.plain + layers.from.plain;
  const uint64_t wire = layers.to.wire + layers.from.wire;
  uint64_t dispatched = 0;
  for (const auto& job : layers.dispatches) dispatched += job.regions.size();
  std::vector<double> waits = layers.queue_waits;
  std::sort(waits.begin(), waits.end());

  report.add("kernels.body_s", median(kernel_s), "s");
  report.add("kernels.calls", static_cast<double>(pass.kernel_calls), "count");
  report.add("kernels.gflop_per_s", pass.kernel_flops / pass.kernel_seconds / 1e9,
             "GFLOP/s");
  report.add("kernels.reference_s", median(reference_s), "s");
  report.add("compress.compress_mb_s",
             static_cast<double>(pass.codec.codec_bytes) /
                 pass.codec.compress_seconds / mb,
             "MB/s");
  report.add("compress.decompress_mb_s",
             static_cast<double>(pass.codec.codec_bytes) /
                 pass.codec.decompress_seconds / mb,
             "MB/s");
  report.add("compress.ratio",
             wire == 0 ? 0 : static_cast<double>(plain) / static_cast<double>(wire),
             "ratio");
  report.add("omptarget.plain_mb", static_cast<double>(plain) / mb, "MB");
  report.add("omptarget.wire_mb", static_cast<double>(wire) / mb, "MB");
  report.add("omptarget.cache_skipped_mb",
             static_cast<double>(layers.to.cache_skipped +
                                 layers.from.cache_skipped) / mb,
             "MB");
  report.add("omptarget.resident_skipped_mb",
             static_cast<double>(layers.to.resident + layers.from.resident) / mb,
             "MB");
  report.add("omptarget.data_ops", static_cast<double>(layers.data_ops), "count");
  report.add("omptarget.other_s",
             wall - median(kernel_s) - median(analyze_s), "s");
  report.add("scheduler.queue_wait_p50_s", percentile(waits, 50), "s");
  report.add("scheduler.rejects", static_cast<double>(layers.rejects), "count");
  report.add("batch.jobs", static_cast<double>(layers.dispatches.size()),
             "count");
  report.add("batch.mean_size",
             layers.dispatches.empty()
                 ? 0
                 : static_cast<double>(dispatched) /
                       static_cast<double>(layers.dispatches.size()),
             "count");
  report.add("spark.tasks", static_cast<double>(layers.tasks), "count");
  report.add("spark.task_retries", static_cast<double>(layers.task_retries),
             "count");
  report.add("sim.events", static_cast<double>(pass.events), "count");
  report.add("sim.events_per_s", static_cast<double>(pass.events) / wall, "1/s");
  report.add("trace.spans", static_cast<double>(pass.spans), "count");
  report.add("trace.analyze_s", median(analyze_s), "s");
  report.add("trace.export_s", median(export_s), "s");
  report.add("trace.overhead_ratio", wall / median(untraced_walls), "ratio");
  report.add("latency.tail_percentile", tail_percentile(pass.latencies.size()),
             "percentile");
  report.add("latency.samples", static_cast<double>(pass.latencies.size()),
             "count");
}

int run(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage("bad arguments");
  WorkloadFactory factory = nullptr;
  if (args.workload == "paper-sweep") factory = make_paper_sweep;
  if (args.workload == "service-stream") factory = make_service_stream;
  if (args.workload == "resident-chain") factory = make_resident_chain;
  if (factory == nullptr) return usage("unknown workload");

  HostTrace trace(false);
  std::vector<double> setups;
  std::vector<PassResult> untraced, traced;
  // Sets up a fresh workload, timing the setup. The previous workload must
  // already be gone, so passes do not stack their inputs in memory.
  auto set_up = [&](std::unique_ptr<Workload>& workload) -> Status {
    auto span = trace.span("setup");
    const Clock::time_point begin = Clock::now();
    workload = factory(args.options);
    Status status = workload->setup();
    setups.push_back(seconds_between(begin, Clock::now()));
    return status;
  };
  auto fail = [](const Status& status) {
    std::fprintf(stderr, "perfbench: %s\n", status.to_string().c_str());
    if (status.code() == StatusCode::kDataLoss) {
      std::fprintf(stderr, "perfbench: verification failed\n");
      return 3;
    }
    return 1;
  };

  const Clock::time_point start = Clock::now();
  Clock::time_point pass_start = start;
  for (size_t pass = 0;; ++pass) {
    // Traced runs alternate untraced and traced passes, so the overhead
    // ratio compares passes made under the same conditions.
    const bool traced_pass = args.trace && pass % 2 == 1;
    trace.set_enabled(traced_pass);
    std::unique_ptr<Workload> workload;
    if (Status status = set_up(workload); !status.is_ok()) return fail(status);
    PassResult result;
    Status status;
    {
      auto span = trace.span("run");
      status = workload->run(trace, result);
    }
    workload.reset();
    if (!status.is_ok()) return fail(status);
    std::printf("pass %zu%s: setup %.6f s, wall %.6f s\n", pass,
                traced_pass ? " (traced)" : "", setups.back(),
                result.wall_seconds);
    (traced_pass ? traced : untraced).push_back(std::move(result));
    // Stop once another pass like this one would overrun `--seconds`.
    const Clock::time_point now = Clock::now();
    const double pass_seconds = seconds_between(pass_start, now);
    pass_start = now;
    const bool have_all = !untraced.empty() && (!args.trace || !traced.empty());
    if (have_all &&
        seconds_between(start, now) + pass_seconds > args.seconds) {
      break;
    }
  }
  trace.set_enabled(false);
  while (setups.size() < kMinSetups) {
    std::unique_ptr<Workload> workload;
    if (Status status = set_up(workload); !status.is_ok()) return fail(status);
  }

  // Virtual results are deterministic: every pass must reproduce them.
  const uint64_t digest = untraced.front().digest;
  for (const auto* set : {&untraced, &traced}) {
    for (const PassResult& p : *set) {
      if (p.digest != digest) {
        std::fprintf(stderr, "perfbench: virtual reports differ between "
                             "passes of one seed\n");
        return 1;
      }
    }
  }
  std::printf("workload %s, seed %llu, virtual report digest %016llx\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.options.seed),
              static_cast<unsigned long long>(digest));

  Report report;
  if (args.trace) {
    report_per_layer(untraced, traced, report);
    if (!args.trace_out.empty()) {
      if (Status status = trace.write(args.trace_out); !status.is_ok()) {
        return fail(status);
      }
    }
  } else {
    report_end_to_end(setups, untraced, report);
  }
  uint64_t attempted = 0, failed = 0;
  for (const auto* set : {&untraced, &traced}) {
    for (const PassResult& p : *set) {
      attempted += p.attempted;
      failed += p.failed;
    }
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), report.json().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
