// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a layer's public entry point, timed from the
// benchmark's side of the boundary: name, layer, start, end, the span that
// was open on the same thread when it began (its parent), and the run id of
// the pipeline execution it belongs to. Counts measured at the same boundary
// (rounds, clusters, messages, ...) ride along as span arguments.
//
// With tracing off every scope is a no-op, so the timed run pays one branch
// per call. Spans stay in memory and are written once, as Chrome
// trace-event JSON, when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace pipebench {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::string layer;
  double start_us = 0.0;  // since the tracer's epoch
  double end_us = 0.0;
  int id = -1;
  int parent = -1;
  int run = -1;
  int tid = 0;
  std::vector<std::pair<std::string, double>> counts;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Toggle only while no other thread records spans.
  void set_enabled(bool on) { enabled_ = on; }
  void set_run(int run) {
    std::lock_guard<std::mutex> lk(mu_);
    run_ = run;
  }

  /// Open a span on the calling thread; returns its id (-1 when disabled).
  int open(const std::string& name, const std::string& layer) {
    if (!enabled_) return -1;
    const double now = since_epoch_us();
    std::lock_guard<std::mutex> lk(mu_);
    Span s;
    s.name = name;
    s.layer = layer;
    s.start_us = now;
    s.id = static_cast<int>(spans_.size());
    std::vector<int>& stack = stacks_[std::this_thread::get_id()];
    s.parent = stack.empty() ? -1 : stack.back();
    s.run = run_;
    s.tid = thread_index(std::this_thread::get_id());
    stack.push_back(s.id);
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  void close(int id, std::vector<std::pair<std::string, double>> counts) {
    if (id < 0) return;
    const double now = since_epoch_us();
    std::lock_guard<std::mutex> lk(mu_);
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_us = now;
    s.counts = std::move(counts);
    std::vector<int>& stack = stacks_[std::this_thread::get_id()];
    if (!stack.empty() && stack.back() == id) stack.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer, summed over spans that belong to a run (run id
  /// >= 0): each span's duration minus the part of it its child spans cover.
  /// Children on one thread never overlap, so the covered part is the sum of
  /// their durations.
  std::map<std::string, double> run_self_ms_by_layer() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.run >= 0 && s.parent >= 0) {
        child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
      }
    }
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
      if (s.run < 0) continue;
      out[s.layer] += (s.end_us - s.start_us -
                       child_us[static_cast<std::size_t>(s.id)]) /
                      1000.0;
    }
    return out;
  }

  /// Write every span as a Chrome trace-event "complete" event; `meta`
  /// lands in otherData (host, compiler, build type, workload).
  bool write_chrome_json(
      const std::string& path,
      const std::vector<std::pair<std::string, std::string>>& meta) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
    for (std::size_t i = 0; i < meta.size(); ++i) {
      out << (i ? "," : "") << '"' << meta[i].first << "\":\""
          << meta[i].second << '"';
    }
    out << "},\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
          << s.layer << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
          << ",\"ts\":" << s.start_us << ",\"dur\":" << s.end_us - s.start_us
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"run\":" << s.run;
      for (const auto& [key, value] : s.counts) {
        out << ",\"" << key << "\":" << value;
      }
      out << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  double since_epoch_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  int thread_index(std::thread::id id) {
    const auto it = tids_.find(id);
    if (it != tids_.end()) return it->second;
    const int next = static_cast<int>(tids_.size());
    tids_.emplace(id, next);
    return next;
  }

  bool enabled_;
  Clock::time_point epoch_;
  std::mutex mu_;  // guards everything below
  int run_ = -1;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::vector<int>> stacks_;
  std::map<std::thread::id, int> tids_;
};

/// RAII span: opens on construction, closes with the counts set so far.
class SpanScope {
 public:
  SpanScope(Tracer& t, const std::string& name, const std::string& layer)
      : tracer_(t), id_(t.open(name, layer)) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { tracer_.close(id_, std::move(counts_)); }

  void count(const std::string& key, double value) {
    if (id_ >= 0) counts_.emplace_back(key, value);
  }

 private:
  Tracer& tracer_;
  int id_;
  std::vector<std::pair<std::string, double>> counts_;
};

}  // namespace pipebench
