#include "harness.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "net/medium.hpp"
#include "obs/observability.hpp"

namespace perfbench {
namespace {

const WallClock::time_point kProcessStart = WallClock::now();

}  // namespace

double SecondsSince(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

WallClock::time_point ProcessStart() { return kProcessStart; }

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

// --- SpanLog ---------------------------------------------------------------

std::int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             WallClock::now() - kProcessStart)
      .count();
}

std::uint32_t SpanLog::Begin(const char* name, std::uint64_t trace,
                             std::uint32_t parent) {
  if (!active_) return 0;
  ++open_;
  if (spans_.size() >= kKeep) {
    overflow_start_ns_ = NowNs();
    return 0;
  }
  spans_.push_back(Span{name, trace, parent, NowNs(), -1});
  return static_cast<std::uint32_t>(spans_.size());
}

double SpanLog::End(std::uint32_t handle) {
  if (!active_) return 0.0;
  if (open_ > 0) --open_;
  const std::int64_t now = NowNs();
  if (handle == 0) {
    return static_cast<double>(now - overflow_start_ns_) / 1e3;
  }
  Span& span = spans_[handle - 1];
  span.end_ns = now;
  return static_cast<double>(span.end_ns - span.start_ns) / 1e3;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t end = s.end_ns < 0 ? s.start_ns : s.end_ns;
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"span\": %zu, \"parent\": %u, \"trace\": %llu}}\n",
                 i == 0 ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.trace % 1024),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(end - s.start_ns) / 1e3, i + 1,
                 s.parent, static_cast<unsigned long long>(s.trace));
  }
  std::fprintf(f, "], \"displayTimeUnit\": \"ms\"}\n");
  return std::fclose(f) == 0;
}

// --- Outcome -----------------------------------------------------------

void Outcome::Check(bool ok, const std::string& what) {
  if (ok) {
    ++checks_passed;
    return;
  }
  if (correct) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  correct = false;
}

// --- BlockTimer ----------------------------------------------------------

void BlockTimer::Start() {
  traced_block_ = traced_run_ && !traced_block_;
  spans_.set_active(traced_block_);
  start_ = WallClock::now();
}

double BlockTimer::Stop(double work) {
  const double wall = SecondsSince(start_);
  spans_.set_active(false);
  ++blocks_;
  if (wall > 0.0 && work > 0.0) {
    if (!traced_block_) rates_.push_back(work / wall);
    if (traced_run_) {
      (traced_block_ ? traced_cost_ : untraced_cost_).push_back(wall / work);
    }
  }
  return wall;
}

double BlockTimer::MedianRate() const { return Median(rates_); }

double BlockTimer::OverheadPct() const {
  const double untraced = Median(untraced_cost_);
  if (untraced <= 0.0 || traced_cost_.empty()) return 0.0;
  return (Median(traced_cost_) / untraced - 1.0) * 100.0;
}

void EndSetUp(Outcome& out) {
  out.end_to_end["setup_s"] = {SecondsSince(ProcessStart()), "s"};
  out.end_to_end["peak_rss_mb"] = {PeakRssMb(), "MiB"};
}

// --- Medium oracle -------------------------------------------------------

void SampleNodesWithin(contory::net::Medium& medium, double range_m,
                       std::size_t samples, contory::Rng& rng,
                       SpanLog& spans, std::uint64_t trace, Outcome& out,
                       std::vector<double>& us) {
  using contory::net::NodeId;
  using contory::net::Position;
  const std::vector<NodeId> all = medium.AllNodes();
  if (all.empty()) return;
  std::vector<Position> where(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    where[i] = *medium.GetPosition(all[i]);
  }
  std::vector<std::pair<double, NodeId>> expected;
  bool all_match = true;
  for (std::size_t s = 0; s < samples; ++s) {
    const auto c = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(all.size()) - 1));
    const std::uint32_t span = spans.Begin("NodesWithin", trace);
    const auto start = WallClock::now();
    const std::vector<NodeId> got = medium.NodesWithin(all[c], range_m);
    us.push_back(SecondsSince(start) * 1e6);
    spans.End(span);

    expected.clear();
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (i == c) continue;
      const double d = std::hypot(where[i].x - where[c].x,
                                  where[i].y - where[c].y);
      if (d <= range_m) expected.emplace_back(d, all[i]);
    }
    std::sort(expected.begin(), expected.end());
    bool match = got.size() == expected.size();
    for (std::size_t i = 0; match && i < got.size(); ++i) {
      match = got[i] == expected[i].second;
    }
    all_match = all_match && match;
  }
  out.Check(all_match,
            "NodesWithin equals the brute-force scan (nearest first, ties "
            "by NodeId)");
}

// --- Registry and JSON ---------------------------------------------------

std::uint64_t SumCounter(const std::string& name,
                         const std::string& label_key,
                         const std::string& label_value) {
  std::uint64_t total = 0;
  for (const auto& entry :
       contory::obs::Observability::metrics().Entries()) {
    if (entry.name != name || entry.counter == nullptr) continue;
    if (!label_key.empty()) {
      const bool match = std::any_of(
          entry.labels.begin(), entry.labels.end(), [&](const auto& kv) {
            return kv.first == label_key && kv.second == label_value;
          });
      if (!match) continue;
    }
    total += entry.counter->value();
  }
  return total;
}

std::string FormatDouble(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace perfbench
