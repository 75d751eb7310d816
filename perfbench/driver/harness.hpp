// Shared plumbing for the benchmark workloads: wall clocks, block
// medians, output checks, the benchmark's own span log, and exact JSON.
//
// Every workload follows one shape: build its world and run untimed
// warm-up cycles (set-up), then time many short blocks until the run's
// measuring window closes. The end-to-end figures describe set-up, a
// fixed amount of work: its wall time and the peak memory it reached.
// Wall-clock rates are per-layer figures, medians over the timed blocks;
// a per-block median shrugs off the multi-millisecond stalls a shared
// host injects, though not the host's slower swings (README.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace contory::net {
class Medium;
}

namespace perfbench {

using WallClock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
[[nodiscard]] double SecondsSince(WallClock::time_point start);
/// Stamp taken during static initialization: the process's start, as
/// close as the program can see it.
[[nodiscard]] WallClock::time_point ProcessStart();
/// Peak resident set (VmHWM) of this process in MiB; 0 when unreadable.
[[nodiscard]] double PeakRssMb();

/// q-quantile (0..1) by linear interpolation; 0 for an empty sample.
[[nodiscard]] double Quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Seconds-scale sizes for the benchmark's own tests.
  bool smoke = false;
  /// Where the traced run writes its Chrome trace and layer table.
  std::string out_dir = ".perfbench_out";
};

/// The benchmark's own spans, one around each public call it makes into
/// the middleware. Spans live in memory and are written once, at the
/// end. Inactive (untraced runs, and the untraced half of a traced run's
/// blocks) it costs one branch per call.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::uint64_t trace;   // shared by every span of one query or round
    std::uint32_t parent;  // 1-based index of the parent span, 0 = root
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  void set_active(bool on) noexcept { active_ = on; }
  [[nodiscard]] bool active() const noexcept { return active_; }

  /// Opens a span; returns its handle (0 when inactive or not stored).
  std::uint32_t Begin(const char* name, std::uint64_t trace,
                      std::uint32_t parent = 0);
  /// Closes `handle`; returns the span's duration in microseconds
  /// (0 when inactive).
  double End(std::uint32_t handle);

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  [[nodiscard]] std::size_t open() const noexcept { return open_; }

  /// Chrome trace-event JSON (complete "X" events; pid 1, tid = trace
  /// id's low bits so one query's spans share a row).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t NowNs() const;

  /// Spans beyond this many are still timed but not stored, so the cost
  /// of tracing stays the same while memory stays bounded.
  static constexpr std::size_t kKeep = 1'000'000;

  std::vector<Span> spans_;
  std::size_t open_ = 0;
  bool active_ = false;
  /// Stand-in for spans beyond kKeep: timed, never stored.
  std::int64_t overflow_start_ns_ = 0;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main().
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Integers describing the inputs (sizes, seeds), echoed exactly.
  std::map<std::string, std::uint64_t> inputs;
  std::uint64_t checks_passed = 0;

  /// Records one output check; a failure is reported on stderr and makes
  /// the run incorrect.
  void Check(bool ok, const std::string& what);
};

/// Alternates traced and untraced blocks in a traced run and turns the
/// two sets of block times into the tracing overhead.
class BlockTimer {
 public:
  BlockTimer(SpanLog& spans, bool traced_run)
      : spans_(spans), traced_run_(traced_run) {}

  /// Starts a block; in a traced run every other block is untraced.
  void Start();
  /// Ends the block; `work` is the amount done in it. Returns the block's
  /// wall seconds.
  double Stop(double work);

  /// Median work per wall second over the untraced blocks.
  [[nodiscard]] double MedianRate() const;
  /// Median per-block wall time of traced blocks over untraced ones,
  /// minus one, in percent (0 outside traced runs).
  [[nodiscard]] double OverheadPct() const;
  [[nodiscard]] std::size_t blocks() const noexcept { return blocks_; }

 private:
  SpanLog& spans_;
  bool traced_run_;
  bool traced_block_ = false;
  WallClock::time_point start_;
  std::size_t blocks_ = 0;
  std::vector<double> rates_;           // untraced blocks, work per second
  std::vector<double> traced_cost_;     // wall seconds per unit of work
  std::vector<double> untraced_cost_;
};

/// Ends set-up: records the end-to-end metrics, setup_s (process start to
/// now) and peak_rss_mb (VmHWM now). Both describe the same fixed, seeded
/// amount of work in every run, so neither depends on how many timed
/// cycles the run gets through.
void EndSetUp(Outcome& out);

/// Sum of every counter series named `name` in the middleware's metrics
/// registry, optionally restricted to one label value.
[[nodiscard]] std::uint64_t SumCounter(const std::string& name,
                                       const std::string& label_key = {},
                                       const std::string& label_value = {});

/// Times `samples` NodesWithin calls at `range_m` from seeded centers
/// (one span each, under trace `trace`) and checks every answer against
/// a brute-force scan over GetPosition: same nodes, nearest first, ties
/// by ascending NodeId. Appends the per-call microseconds to `us`.
void SampleNodesWithin(contory::net::Medium& medium, double range_m,
                       std::size_t samples, contory::Rng& rng,
                       SpanLog& spans, std::uint64_t trace, Outcome& out,
                       std::vector<double>& us);

/// Shortest decimal that reads back as exactly `v`.
[[nodiscard]] std::string FormatDouble(double v);
/// JSON string literal.
[[nodiscard]] std::string Quote(const std::string& s);

Outcome RunSubmitChurn(const Options& options, SpanLog& spans);
Outcome RunCityFinder(const Options& options, SpanLog& spans);
Outcome RunLiveWorld(const Options& options, SpanLog& spans);

}  // namespace perfbench
