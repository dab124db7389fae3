#pragma once
// In-memory span recorder for the traced benchmark run.
//
// Spans are opened and closed by the benchmark around its calls into
// the project's public functions, never inside the program: a span has
// a name, a start and end time (µs since the recorder was created) and
// the index of the span that was open when it began. Disabled recorders
// record nothing, so the untraced run pays one branch per scope.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

namespace pipebench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
    double dur_us() const { return end_us - start_us; }
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  int open(const std::string& name) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, now_us(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Summed duration (ms) of every span called `name`.
  double total_ms(const std::string& name) const {
    double us = 0.0;
    for (const Span& s : spans_)
      if (s.name == name) us += s.dur_us();
    return us / 1e3;
  }

  /// Summed duration (ms) of the direct children of span `id`.
  double children_ms(int id) const {
    double us = 0.0;
    for (const Span& s : spans_)
      if (s.parent == id) us += s.dur_us();
    return us / 1e3;
  }

  /// Chrome trace-event JSON ("X" complete events, parent index in args).
  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}\n",
                   i == 0 ? "" : ",", s.name.c_str(), s.start_us,
                   s.dur_us(), i, s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: open on construction, close on destruction.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name) : t_(t), id_(t.open(name)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const noexcept { return id_; }

 private:
  Tracer& t_;
  int id_;
};

}  // namespace pipebench
