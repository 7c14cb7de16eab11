// Span recorder for the traced benchmark run.
//
// Spans are recorded only around calls the benchmark itself makes (workflow
// calls into core::SquirrelCluster, DataSource reads the library issues into
// the benchmark's vmi inputs, set-up phases). Each span carries its name,
// start, end, parent span and the id of the measured op it belongs to. They
// stay in memory and are written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "util/source.h"

namespace squirrel::perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index of the parent span, -1 = root
  std::uint64_t op_id = 0;   // 0 = not part of a measured op (set-up)

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  /// Opens a span under the innermost open one; returns its index.
  std::int32_t Open(const char* name, std::uint64_t op_id) {
    const std::int32_t parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, NowNs(), 0, parent, op_id});
    open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return open_.back();
  }
  void Close() {
    spans_[static_cast<std::size_t>(open_.back())].end_ns = NowNs();
    open_.pop_back();
  }

  /// Summed duration of the direct children of `parent` named `name`.
  double ChildMs(std::int32_t parent, const char* name) const {
    double total = 0.0;
    for (std::size_t i = static_cast<std::size_t>(parent) + 1;
         i < spans_.size(); ++i) {
      if (spans_[i].parent == parent && std::strcmp(spans_[i].name, name) == 0) {
        total += spans_[i].ms();
      }
    }
    return total;
  }

  /// Duration of the first span named `name`; 0 if there is none.
  double FirstMs(const char* name) const {
    for (const Span& span : spans_) {
      if (std::strcmp(span.name, name) == 0) return span.ms();
    }
    return 0.0;
  }

  /// Writes one JSON object per span (JSON Lines). Returns false on I/O error.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"op\":%llu}\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.op_id));
    }
    return std::fclose(out) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null tracer records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t op_id = 0)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Open(name, op_id) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int32_t index() const { return index_; }

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

/// Forwarding DataSource that records a `vmi.read` span and the bytes of
/// every read the library issues into one of the benchmark's vmi inputs.
class TracedSource final : public util::DataSource {
 public:
  TracedSource(const util::DataSource& inner, Tracer* tracer,
               std::uint64_t op_id)
      : inner_(inner), tracer_(tracer), op_id_(op_id) {}

  std::uint64_t size() const override { return inner_.size(); }
  void Read(std::uint64_t offset, util::MutableByteSpan out) const override {
    ScopedSpan span(tracer_, "vmi.read", op_id_);
    bytes_ += out.size();
    inner_.Read(offset, out);
  }

  std::uint64_t bytes() const { return bytes_; }

 private:
  const util::DataSource& inner_;
  Tracer* tracer_;
  std::uint64_t op_id_;
  mutable std::uint64_t bytes_ = 0;
};

}  // namespace squirrel::perfbench
