// In-memory span recording for the benchmark's traced run, measured from
// outside the library only.
//
// Two sources feed one SpanRecorder:
//  * ScopedSpan timers around the public calls the benchmark makes into the
//    library (Scenario construction and run(), core analytics, accounting
//    re-append), nested by call structure;
//  * LayerHook, an Engine::ChoiceHook that always picks index 0 (the
//    canonical order, so the simulation is unchanged) and timestamps every
//    fired event. The interval from one event's fire to the next is charged
//    to the earlier event's layer, derived from its (priority, partition)
//    class. Consecutive intervals of one layer coalesce into one span.
//
// A span's self time is its duration minus the time its children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "des/engine.hpp"

namespace tgbench {

using Clock = std::chrono::steady_clock;

class SpanRecorder {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  SpanRecorder() : origin_(Clock::now()) {}

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  [[nodiscard]] std::uint32_t intern(const std::string& name) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  /// Opens a span under the innermost open span; returns its index.
  std::int32_t open(const std::string& name) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{intern(name), parent, now_ns(), 0});
    const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }
  void close(std::int32_t idx) {
    spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
  }

  /// Charges [start, end) to `name` under the innermost open span,
  /// extending the previous span instead when it has the same name and
  /// parent and ends exactly at `start`.
  void charge(std::uint32_t name, std::int64_t start, std::int64_t end) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    if (!spans_.empty()) {
      Span& last = spans_.back();
      if (last.name == name && last.parent == parent &&
          last.end_ns == start && !is_open(spans_.size() - 1)) {
        last.end_ns = end;
        return;
      }
    }
    spans_.push_back(Span{name, parent, start, end});
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time (duration minus children's durations) summed per name, in
  /// seconds.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<std::int64_t> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].end_ns - spans_[i].start_ns;
      if (spans_[i].parent >= 0) {
        self[static_cast<std::size_t>(spans_[i].parent)] -=
            spans_[i].end_ns - spans_[i].start_ns;
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[names_[spans_[i].name]] += static_cast<double>(self[i]) * 1e-9;
    }
    return out;
  }

  /// Writes every span as CSV (id,parent,name,start_us,end_us).
  [[nodiscard]] bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("id,parent,name,start_us,end_us\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%d,%s,%.3f,%.3f\n", i, s.parent,
                   names_[s.name].c_str(),
                   static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns) * 1e-3);
    }
    return std::fclose(f) == 0;
  }

 private:
  [[nodiscard]] bool is_open(std::size_t idx) const {
    for (const std::int32_t o : stack_) {
      if (static_cast<std::size_t>(o) == idx) return true;
    }
    return false;
  }

  Clock::time_point origin_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span around one public call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name)
      : rec_(rec), idx_(rec.open(name)) {}
  ~ScopedSpan() { rec_.close(idx_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::int32_t idx_;
};

/// The layer an event class belongs to (see README.md for the map).
enum class Layer : std::uint8_t {
  kSchedReplan,
  kSchedCompletion,
  kNetFlowCompletion,
  kWorkloadSubmit,
  kOther,
};
inline constexpr std::size_t kLayerCount = 5;
inline constexpr const char* kLayerSpan[kLayerCount] = {
    "sched.replan", "sched.completion", "net.flow_completion",
    "workload.submit", "other.event"};

[[nodiscard]] inline Layer layer_of(const tg::ChoiceHook::Candidate& c) {
  using tg::EventPriority;
  const bool site = c.shard != 0;
  switch (static_cast<EventPriority>(c.priority)) {
    case EventPriority::kReplan:
      return site ? Layer::kSchedReplan : Layer::kOther;
    case EventPriority::kCompletion:
      return site ? Layer::kSchedCompletion : Layer::kNetFlowCompletion;
    case EventPriority::kSubmission:
      return site ? Layer::kOther : Layer::kWorkloadSubmit;
    default:
      return Layer::kOther;
  }
}

/// Index-0 choice hook that charges inter-event intervals to layers. The
/// interval after the last event of a run stays uncharged (it is not event
/// dispatch: it holds the drain's epilogue), as does the interval before
/// the first event.
class LayerHook final : public tg::ChoiceHook {
 public:
  explicit LayerHook(SpanRecorder& rec) : rec_(rec) {
    for (std::size_t i = 0; i < kLayerCount; ++i) {
      name_ids_[i] = rec_.intern(kLayerSpan[i]);
    }
  }

  std::size_t choose(const std::vector<Candidate>& tie) override {
    (void)tie;
    return 0;
  }

  void on_fire(const Candidate& fired) override {
    const std::int64_t t = rec_.now_ns();
    if (armed_) {
      rec_.charge(name_ids_[static_cast<std::size_t>(last_)], last_ns_, t);
    }
    last_ = layer_of(fired);
    last_ns_ = t;
    armed_ = true;
    ++events_[static_cast<std::size_t>(last_)];
  }

  /// Ends the current run: the pending interval is dropped.
  void disarm() { armed_ = false; }

  [[nodiscard]] std::uint64_t events(Layer l) const {
    return events_[static_cast<std::size_t>(l)];
  }

 private:
  SpanRecorder& rec_;
  std::uint32_t name_ids_[kLayerCount] = {};
  std::uint64_t events_[kLayerCount] = {};
  Layer last_ = Layer::kOther;
  std::int64_t last_ns_ = 0;
  bool armed_ = false;
};

}  // namespace tgbench
