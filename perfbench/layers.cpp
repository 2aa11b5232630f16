#include "layers.h"

#include <cstdio>
#include <cstring>

#include "compress/codec.h"
#include "support/strings.h"
#include "workload.h"

namespace perfbench {

HostTrace::Scope::Scope(HostTrace* trace, std::string name) : trace_(trace) {
  if (!trace_->enabled_) return;
  index_ = trace_->spans_.size();
  const int64_t parent = trace_->open_.empty()
                             ? -1
                             : static_cast<int64_t>(trace_->open_.back());
  trace_->spans_.push_back({std::move(name), parent, Clock::now(), {}});
  trace_->open_.push_back(index_);
}

HostTrace::Scope::~Scope() {
  if (!trace_->enabled_ || trace_->open_.empty() ||
      trace_->open_.back() != index_) {
    return;
  }
  trace_->spans_[index_].end = Clock::now();
  trace_->open_.pop_back();
}

void HostTrace::record(std::string name, Clock::time_point begin,
                       Clock::time_point end) {
  if (!enabled_) return;
  const int64_t parent =
      open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  spans_.push_back({std::move(name), parent, begin, end});
}

Status HostTrace::write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return internal_error("cannot write " + path);
  auto micros = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::fputs("{\"traceEvents\": [\n", file);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %lld}}%s\n",
                 span.name.c_str(), micros(span.begin),
                 micros(span.end) - micros(span.begin), i,
                 static_cast<long long>(span.parent),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]}\n", file);
  return std::fclose(file) == 0 ? Status::ok()
                                : internal_error("cannot write " + path);
}

void LayerTool::on_data_op(const tools::DataOpInfo& info) {
  ++counts.data_ops;
  LayerCounts::Bytes* side = nullptr;
  if (info.kind == tools::DataOpKind::kTransferTo) side = &counts.to;
  if (info.kind == tools::DataOpKind::kTransferFrom) side = &counts.from;
  if (side == nullptr) return;
  side->plain += info.plain_bytes;
  side->wire += info.wire_bytes;
  side->cache_skipped += info.bytes_skipped;
  side->resident += info.bytes_resident;
}

void LayerTool::on_kernel_complete(const tools::KernelInfo& info) {
  ++counts.tasks;
  if (info.attempts > 1) {
    counts.task_retries += static_cast<uint64_t>(info.attempts - 1);
  }
}

void LayerTool::on_scheduler_event(const tools::SchedulerEventInfo& info) {
  using Kind = tools::SchedulerEventInfo::Kind;
  if (info.kind == Kind::kReject) ++counts.rejects;
  if (info.kind != Kind::kDispatch) return;
  counts.queue_waits.push_back(info.wait_seconds);
  auto& dispatches = counts.dispatches;
  // Members of one coalesced batch dispatch back to back under one id.
  if (info.batch_id != 0 && !dispatches.empty() &&
      dispatches.back().batch_id == info.batch_id) {
    dispatches.back().regions.emplace_back(info.region);
    return;
  }
  dispatches.push_back({info.batch_id, {std::string(info.region)}});
}

namespace {

/// The timing wrapper stored in the registry in place of a kernel body.
struct TimedKernel {
  jni::LoopBodyFn inner;
  double flops_per_iteration = 0;
  KernelLayer* layer = nullptr;
  HostTrace* trace = nullptr;
  const std::string* name = nullptr;  ///< key in KernelLayer::originals_

  Status operator()(const jni::KernelArgs& args) const {
    const Clock::time_point begin = Clock::now();
    Status status = inner(args);
    const Clock::time_point end = Clock::now();
    layer->calls += 1;
    layer->body_seconds += seconds_between(begin, end);
    layer->flops +=
        flops_per_iteration * static_cast<double>(args.end - args.begin);
    trace->record("kernel:" + *name, begin, end);
    return status;
  }
};

}  // namespace

Status KernelLayer::instrument(const omptarget::TargetRegion& region) {
  auto& registry = jni::KernelRegistry::instance();
  for (const spark::LoopSpec& loop : region.loops) {
    OC_ASSIGN_OR_RETURN(jni::LoopBodyFn fn, registry.find(loop.kernel));
    if (fn.target<TimedKernel>() != nullptr) continue;
    auto [it, inserted] = originals_.insert_or_assign(loop.kernel, fn);
    registry.register_kernel(
        loop.kernel, TimedKernel{std::move(fn), loop.flops_per_iteration, this,
                                 trace_, &it->first});
  }
  return Status::ok();
}

KernelLayer::~KernelLayer() {
  auto& registry = jni::KernelRegistry::instance();
  for (auto& [name, fn] : originals_) {
    auto current = registry.find(name);
    if (current.ok() && current->target<TimedKernel>() != nullptr) {
      registry.register_kernel(name, fn);
    }
  }
}

Status break_kernel(const std::string& name) {
  auto& registry = jni::KernelRegistry::instance();
  OC_ASSIGN_OR_RETURN(jni::LoopBodyFn real, registry.find(name));
  registry.register_kernel(
      name, [real = std::move(real)](const jni::KernelArgs& args) -> Status {
        OC_RETURN_IF_ERROR(real(args));
        if (!args.outputs.empty() && args.outputs[0].bytes.size() > 0) {
          args.outputs[0].bytes[0] ^= std::byte{1};
        }
        return Status::ok();
      });
  return Status::ok();
}

Status replay_codec(std::string_view codec_name, uint64_t min_compress_size,
                    uint64_t chunk_size, ByteView buffer, HostTrace& trace,
                    CodecReplay& out) {
  OC_ASSIGN_OR_RETURN(const compress::Codec* codec,
                      compress::find_codec(codec_name));
  const uint64_t block = chunk_size > 0 && buffer.size() > chunk_size
                             ? chunk_size
                             : buffer.size();
  for (uint64_t offset = 0; offset < buffer.size(); offset += block) {
    ByteView plain = buffer.subspan(
        offset, std::min<uint64_t>(block, buffer.size() - offset));
    out.plain_bytes += plain.size();
    if (plain.size() < min_compress_size) continue;
    const Clock::time_point begin = Clock::now();
    OC_ASSIGN_OR_RETURN(ByteBuffer frame, codec->compress(plain));
    const Clock::time_point middle = Clock::now();
    OC_ASSIGN_OR_RETURN(ByteBuffer back, codec->decompress(frame.view()));
    const Clock::time_point end = Clock::now();
    trace.record("codec.compress", begin, middle);
    trace.record("codec.decompress", middle, end);
    out.codec_bytes += plain.size();
    out.compress_seconds += seconds_between(begin, middle);
    out.decompress_seconds += seconds_between(middle, end);
    if (back.size() != plain.size() ||
        std::memcmp(back.data(), plain.data(), plain.size()) != 0) {
      return data_loss(str_format("codec %s round trip changed %zu bytes",
                                  std::string(codec_name).c_str(),
                                  plain.size()));
    }
  }
  return Status::ok();
}

uint64_t digest(uint64_t hash, std::string_view text) {
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

Status check_report_bytes(const LayerCounts& tool, uint64_t up_plain,
                          uint64_t up_wire, uint64_t down_plain,
                          uint64_t down_wire, uint64_t slack) {
  const struct {
    const char* name;
    uint64_t tool;
    uint64_t report;
  } fields[] = {{"uploaded plain", tool.to.plain, up_plain},
                {"uploaded wire", tool.to.wire, up_wire},
                {"downloaded plain", tool.from.plain, down_plain},
                {"downloaded wire", tool.from.wire, down_wire}};
  for (const auto& field : fields) {
    // Reports never claim more than the tool saw; pro-rata shares of a
    // coalesced batch may round down by at most one byte per member.
    if (field.report > field.tool || field.tool - field.report > slack) {
      return data_loss(str_format(
          "conservation: %s bytes: data ops %llu, reports %llu (slack %llu)",
          field.name, static_cast<unsigned long long>(field.tool),
          static_cast<unsigned long long>(field.report),
          static_cast<unsigned long long>(slack)));
    }
  }
  return Status::ok();
}

Status check_replay_bytes(const LayerCounts& tool, const CodecReplay& replay) {
  const uint64_t mapped =
      tool.to.plain + tool.to.cache_skipped + tool.to.resident;
  if (replay.plain_bytes != mapped) {
    return data_loss(str_format(
        "conservation: codec replay saw %llu mapped bytes, data ops account "
        "for %llu (%llu crossed + %llu cache-skipped + %llu resident)",
        static_cast<unsigned long long>(replay.plain_bytes),
        static_cast<unsigned long long>(mapped),
        static_cast<unsigned long long>(tool.to.plain),
        static_cast<unsigned long long>(tool.to.cache_skipped),
        static_cast<unsigned long long>(tool.to.resident)));
  }
  return Status::ok();
}

}  // namespace perfbench
