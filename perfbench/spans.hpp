#pragma once
// Host-time spans recorded by the benchmark around its calls into the
// simulator's layers (setup, run, collection, probes, replay). Spans stay in
// memory and are written at the end in the Chrome-trace "traceEvents"
// format, one track per workload. A disabled recorder (the untraced runs
// that produce the end-to-end metrics) records nothing.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Spans {
 public:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;  ///< index of the enclosing span, -1 at top level
  };

  explicit Spans(bool enabled) : enabled_(enabled) {}

  /// Opens a span nested in the innermost open one; returns its id (-1
  /// when disabled).
  int begin(const char* name) {
    if (!enabled_) return -1;
    int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{name, now_us(), -1.0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  /// Closes span `id`, which must be the innermost open one.
  void end(int id) {
    if (!enabled_ || id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as complete ("X") events on track `tid`, with the
  /// run header as trace metadata. Returns false if the file can't be
  /// opened.
  bool write_chrome_json(const std::string& path, const std::string& track,
                         const std::string& header_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"otherData\": %s,\n\"traceEvents\": [\n",
                 header_json.c_str());
    std::fprintf(f,
                 "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": 1, \"args\": {\"name\": \"%s\"}}",
                 track.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"span\": %zu, \"parent\": %d, \"workload\": \"%s\"}}",
                   s.name, s.start_us, s.end_us - s.start_us, i, s.parent,
                   track.c_str());
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static double now_us() {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span over a scope.
class SpanScope {
 public:
  SpanScope(Spans& spans, const char* name)
      : spans_(spans), id_(spans.begin(name)) {}
  ~SpanScope() { spans_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans& spans_;
  int id_;
};

}  // namespace perfbench
