// In-memory span recorder of the traced run. A span is a name, a start,
// an end, the span that caused it and the request it belongs to; spans
// nest through a scope stack and are written out once, when the run
// ends. Self time is a span's duration minus the time its children
// cover.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/status.h"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< a string literal
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;  ///< index into spans(), -1 for a root
    uint64_t request = 0;
  };

  /// Closes its span when it leaves scope.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (tracer_ != nullptr) tracer_->Begin(name);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->End();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  /// Spans opened from now on belong to request `id` (0 = set-up).
  void SetRequest(uint64_t id) { request_ = id; }

  void Begin(const char* name) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request_;
    span.start_ns = Now();
    open_.push_back(static_cast<int64_t>(spans_.size()));
    spans_.push_back(std::move(span));
  }

  void End() {
    spans_[static_cast<size_t>(open_.back())].end_ns = Now();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  struct Totals {
    uint64_t calls = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };

  /// Calls, total and self time per span name.
  std::map<std::string, Totals> ByName() const {
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] +=
            static_cast<double>(span.end_ns - span.start_ns);
      }
    }
    std::map<std::string, Totals> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const double ns = static_cast<double>(spans_[i].end_ns -
                                            spans_[i].start_ns);
      Totals& t = out[spans_[i].name];
      ++t.calls;
      t.total_ns += ns;
      t.self_ns += ns - child_ns[i];
    }
    return out;
  }

  /// One JSON object per line: id, name, parent, request, start/end µs
  /// relative to the first span. Only spans of set-up and of requests up
  /// to `max_request` are written, which keeps the file small on
  /// high-rate workloads; ByName() still covers every span.
  evorec::Status WriteJsonLines(const std::string& path,
                                uint64_t max_request) const {
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    std::string out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.request > max_request) continue;
      out += "{\"id\":" + std::to_string(i) + ",\"name\":\"" + s.name +
             "\",\"parent\":" + std::to_string(s.parent) +
             ",\"request\":" + std::to_string(s.request) +
             ",\"start_us\":" + std::to_string((s.start_ns - origin) / 1000.0) +
             ",\"end_us\":" + std::to_string((s.end_ns - origin) / 1000.0) +
             "}\n";
    }
    return evorec::WriteFileAtomic(path, out);
  }

 private:
  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<int64_t> open_;
  uint64_t request_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
