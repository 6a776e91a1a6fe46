// In-memory span recorder for the benchmark's traced run.
//
// A span is one call the benchmark makes into a library module's public
// function (or one of the benchmark's own request/pass scopes): name,
// start, end, parent span and request id. Spans are kept in memory and
// written out once, after the run, as JSON lines and as Chrome trace-event
// JSON. With tracing off, Scope is a single branch and records nothing, so
// the untraced run makes exactly the same library calls.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace mrpbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;  // "<module>.<call>", e.g. "core.optimize_bank"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into Tracer::spans(), -1 = root
  std::int64_t request = -1;
  int thread = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span whose parent is the innermost open span of this thread.
  int open(const std::string& name, std::int64_t request) {
    Span s;
    s.name = name;
    s.request = request;
    s.parent = current();
    s.thread = thread_index();
    s.start_ns = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    stack().push_back(id);
    return id;
  }

  void close(int id) {
    const std::int64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
    std::vector<int>& st = stack();
    if (!st.empty() && st.back() == id) st.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }
  void clear() { spans_.clear(); }

  /// Self time per span: its duration minus the time its direct children
  /// cover (children of one span run on its thread, one after another).
  std::vector<std::int64_t> self_ns() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] = spans_[i].end_ns - spans_[i].start_ns;
    }
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
      }
    }
    for (std::int64_t& v : self) v = std::max<std::int64_t>(v, 0);
    return self;
  }

  /// Sum of self time (ns) and span count per span name.
  std::map<std::string, std::pair<double, std::int64_t>> self_by_name()
      const {
    std::map<std::string, std::pair<double, std::int64_t>> out;
    const std::vector<std::int64_t> self = self_ns();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& slot = out[spans_[i].name];
      slot.first += static_cast<double>(self[i]);
      slot.second += 1;
    }
    return out;
  }

  /// Writes `<stem>.jsonl` (one span per line) and `<stem>.json` (Chrome
  /// trace-event format, loadable in chrome://tracing or Perfetto).
  /// Throws if either file cannot be written.
  void write(const std::string& stem) const {
    std::FILE* lines = std::fopen((stem + ".jsonl").c_str(), "w");
    std::FILE* chrome = std::fopen((stem + ".json").c_str(), "w");
    const bool ok = lines != nullptr && chrome != nullptr;
    if (ok) {
      const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
      std::fputs("{\"traceEvents\":[\n", chrome);
      for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(lines,
                     "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                     "\"end_ns\":%lld,\"parent\":%d,\"request\":%lld,"
                     "\"thread\":%d}\n",
                     i, s.name.c_str(),
                     static_cast<long long>(s.start_ns - t0),
                     static_cast<long long>(s.end_ns - t0), s.parent,
                     static_cast<long long>(s.request), s.thread);
        std::fprintf(chrome,
                     "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                     "\"args\":{\"id\":%zu,\"parent\":%d,\"request\":%lld}}\n",
                     i == 0 ? "" : ",", s.name.c_str(),
                     s.name.substr(0, s.name.find('.')).c_str(),
                     static_cast<double>(s.start_ns - t0) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                     s.thread, i, s.parent,
                     static_cast<long long>(s.request));
      }
      std::fputs("]}\n", chrome);
    }
    const bool closed = (lines == nullptr || std::fclose(lines) == 0) &&
                        (chrome == nullptr || std::fclose(chrome) == 0);
    if (!ok || !closed) {
      throw std::runtime_error("cannot write trace files " + stem + ".*");
    }
  }

 private:
  static std::vector<int>& stack() {
    thread_local std::vector<int> st;
    return st;
  }
  int current() {
    const std::vector<int>& st = stack();
    return st.empty() ? -1 : st.back();
  }
  static int thread_index() {
    static std::mutex mu;
    static int next = 0;
    thread_local int index = -1;
    if (index < 0) {
      std::lock_guard<std::mutex> lock(mu);
      index = next++;
    }
    return index;
  }

  bool enabled_;
  std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// RAII span: records [construction, destruction) when tracing is on.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::int64_t request = -1)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.open(name, request) : -1) {}
  ~Scope() {
    if (id_ >= 0) tracer_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Runs `fn` inside a span and returns its result.
template <typename Fn>
auto traced(Tracer& tracer, const char* name, std::int64_t request, Fn&& fn) {
  Scope scope(tracer, name, request);
  return fn();
}

}  // namespace mrpbench
