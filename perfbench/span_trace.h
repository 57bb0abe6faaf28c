// span_trace.h — in-memory spans for the benchmark's traced run.
//
// The benchmark records one span around each call it makes into a layer
// (sim, service, core, io, offline) and around its own driver loops.  A
// span has a name, a layer, a key (batch or arrival id), a parent span and
// its start/end on the steady clock.  Spans are kept in one vector and
// written out when the run ends.  With tracing off, open() returns kNoSpan
// and close() returns at once, so an untraced run pays one branch per call.
//
// Self time: a span's duration minus what its children explain.  Children
// that ran inside the parent's interval explain the union of their
// intervals.  Children recorded by the single-thread replay (`replayed`)
// ran after the parent, one per arrival on the parent batch's shards;
// they explain the critical path of that batch, the largest per-shard sum
// of their durations.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace minrej::perfbench {

enum class Layer : std::uint8_t {
  kSim,
  kService,
  kCore,
  kIo,
  kOffline,
  kDriver
};
inline constexpr std::size_t kLayerCount = 6;
inline constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "sim", "service", "core", "io", "offline", "driver"};

using SpanId = std::int64_t;
inline constexpr SpanId kNoSpan = -1;

struct Span {
  const char* name = "";
  Layer layer = Layer::kDriver;
  std::uint64_t key = 0;
  SpanId parent = kNoSpan;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Replayed after its parent rather than inside it (see file comment);
  /// `lane` is then the shard the arrival ran on.
  bool replayed = false;
  std::uint32_t lane = 0;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  SpanId open(const char* name, Layer layer, std::uint64_t key = 0,
              SpanId parent = kNoSpan) {
    if (!enabled_) return kNoSpan;
    Span s;
    s.name = name;
    s.layer = layer;
    s.key = key;
    s.parent = parent;
    s.start_ns = now_ns();
    spans_.push_back(s);
    return static_cast<SpanId>(spans_.size() - 1);
  }

  void close(SpanId id) {
    if (id == kNoSpan) return;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }

  /// Records a finished span measured by the caller (the replay times each
  /// process() itself and hands the interval over).
  void add_replayed(const char* name, Layer layer, std::uint64_t key,
                    SpanId parent, std::uint32_t lane, std::int64_t start_ns,
                    std::int64_t end_ns) {
    if (!enabled_) return;
    Span s;
    s.name = name;
    s.layer = layer;
    s.key = key;
    s.parent = parent;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    s.replayed = true;
    s.lane = lane;
    spans_.push_back(s);
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self seconds of every span (see file comment), indexed like spans().
  std::vector<double> self_seconds() const {
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent != kNoSpan) {
        children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
      }
    }
    std::vector<double> self(spans_.size(), 0.0);
    std::vector<std::pair<std::int64_t, std::int64_t>> nested;
    std::map<std::uint32_t, std::int64_t> lane_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& p = spans_[i];
      const std::int64_t dur = p.end_ns - p.start_ns;
      nested.clear();
      lane_ns.clear();
      for (std::size_t c : children[i]) {
        const Span& ch = spans_[c];
        if (ch.replayed) {
          lane_ns[ch.lane] += ch.end_ns - ch.start_ns;
        } else {
          nested.emplace_back(std::max(ch.start_ns, p.start_ns),
                              std::min(ch.end_ns, p.end_ns));
        }
      }
      std::sort(nested.begin(), nested.end());
      std::int64_t covered = 0;
      std::int64_t reach = p.start_ns;
      for (const auto& [b, e] : nested) {
        const std::int64_t from = std::max(b, reach);
        if (e > from) {
          covered += e - from;
          reach = e;
        }
      }
      std::int64_t critical = 0;
      for (const auto& [lane, ns] : lane_ns) critical = std::max(critical, ns);
      const std::int64_t explained = std::min(dur, covered + critical);
      self[i] = static_cast<double>(dur - explained) * 1e-9;
    }
    return self;
  }

  /// Writes one JSON object per span, one per line.
  bool write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"layer\":\""
          << kLayerNames[static_cast<std::size_t>(s.layer)]
          << "\",\"key\":" << s.key << ",\"parent\":" << s.parent
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << (s.replayed ? ",\"replayed\":true" : "") << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

}  // namespace minrej::perfbench
