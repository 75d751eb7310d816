// Repository benchmark driver: runs one named workload in this process,
// on this thread, and prints its metrics as one JSON line.
//
//   perfbench_driver --workload submit_churn|city_finder|live_world
//                    --seed N --seconds S --trace 0|1 [--smoke]
//                    [--out-dir DIR] [--commit SHA] [--source-digest HEX]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics, and writes the benchmark's spans as a Chrome trace
// plus the per-layer table into --out-dir. The last stdout line is
// {"correct", "attempted", "failed", "metrics"}; the line before it
// describes the run (seed, commit, build, compiler, cores) with every
// integer written exactly and, untraced, the wall-clock rates of the
// timed blocks. Exit code 0 only when every output check held.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "harness.hpp"

using namespace perfbench;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The contract with BENCHMARK.json: same names, same units, same order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"submit_qps", "1/s"},
    {"churn_ops_per_s", "1/s"},
    {"live_items_per_s", "1/s"},
    {"live_sim_s_per_s", "1/s"},
    {"fleet_sim_s_per_s", "1/s"},
    {"finder_rounds_per_s", "1/s"},
    {"first_item_sim_ms", "ms"},
    {"mj_per_item", "mJ"},
    {"finder_latency_sim_ms", "ms"},
    {"pipeline.submit_us_p50", "us"},
    {"pipeline.submit_us_p99", "us"},
    {"pipeline.cancel_us_p50", "us"},
    {"pipeline.cancel_us_p99", "us"},
    {"pipeline.providers_created", "1/cycle"},
    {"pipeline.merged", "1/cycle"},
    {"obs.submit_overhead_us", "us"},
    {"obs.open_spans_peak", "count"},
    {"mobility.tick_ms_p50", "ms"},
    {"mobility.position_updates", "1/cycle"},
    {"medium.nodes_within_us_p50", "us"},
    {"medium.grid_cells", "count"},
    {"medium.cell_occupancy", "nodes/cell"},
    {"sm.finder_round_ms_p50", "ms"},
    {"sm.finder_migrations_p50", "count"},
    {"sm.finder_found_ratio", "ratio"},
    {"wifi.frames", "1/cycle"},
    {"sim.events", "1/cycle"},
    {"sim.events_per_s", "1/s"},
    {"delivery.items", "1/cycle"},
    {"providers.failovers", "1/cycle"},
    {"providers.retries", "1/cycle"},
    {"providers.degraded_deliveries", "1/cycle"},
    {"radio.bt_frames", "1/cycle"},
    {"radio.cellular_bytes", "bytes/cycle"},
    {"energy.device_j", "J/cycle"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

struct Args {
  Options options;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  bool ok = true;
};

Args Parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      args.ok = false;
      break;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.options.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.options.out_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else if (flag == "--source-digest") {
      args.source_digest = value;
    } else {
      args.ok = false;
    }
  }
  args.ok = args.ok && have_workload && args.options.seconds > 0.0;
  return args;
}

std::string MetricsJson(const std::map<std::string, Metric>& measured,
                        const MetricSpec* specs, std::size_t n,
                        bool& complete) {
  std::string out = "{";
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = measured.find(specs[i].name);
    // A layer the workload never touches reads 0 in the per-layer table.
    double value = it == measured.end() ? 0.0 : it->second.value;
    if (!std::isfinite(value)) {
      complete = false;
      value = 0.0;
    }
    if (i > 0) out += ", ";
    out += Quote(specs[i].name) + ": {\"value\": " + FormatDouble(value) +
           ", \"unit\": " + Quote(specs[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  if (!args.ok) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--smoke] [--out-dir DIR]\n");
    return 2;
  }
  contory::Log::SetLevel(contory::LogLevel::kError);
  const Options& options = args.options;

  SpanLog spans;
  Outcome outcome;
  if (options.workload == "submit_churn") {
    outcome = RunSubmitChurn(options, spans);
  } else if (options.workload == "city_finder") {
    outcome = RunCityFinder(options, spans);
  } else if (options.workload == "live_world") {
    outcome = RunLiveWorld(options, spans);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  outcome.per_layer["trace.spans"] = {static_cast<double>(spans.size()),
                                      "count"};
  outcome.Check(spans.open() == 0, "every benchmark span was closed");

  bool complete = true;
  const std::string e2e =
      MetricsJson(outcome.end_to_end, kEndToEnd, std::size(kEndToEnd),
                  complete);
  const std::string layers =
      MetricsJson(outcome.per_layer, kPerLayer, std::size(kPerLayer),
                  complete);
  outcome.Check(complete, "every metric is a finite number");

  std::string inputs;
  for (const auto& [key, value] : outcome.inputs) {
    inputs += ", " + Quote(key) + ": " + std::to_string(value);
  }
  // An untraced run's per-layer entries are its wall-clock rates alone;
  // they go into the run record, outside the result.
  if (!options.trace) {
    std::string rates;
    for (const auto& [name, metric] : outcome.per_layer) {
      if (name == "trace.spans") continue;
      rates += std::string(rates.empty() ? "" : ", ") + Quote(name) + ": " +
               FormatDouble(metric.value);
    }
    inputs += ", \"rates\": {" + rates + "}";
  }
  std::printf(
      "{\"run\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"smoke\": %d, \"commit\": %s, \"source_digest\": "
      "%s, \"build_type\": %s, \"compiler\": %s, \"cores\": %u, "
      "\"checks_passed\": %llu%s}}\n",
      Quote(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed),
      FormatDouble(options.seconds).c_str(), options.trace ? 1 : 0,
      options.smoke ? 1 : 0, Quote(args.commit).c_str(),
      Quote(args.source_digest).c_str(), Quote(PERFBENCH_BUILD_TYPE).c_str(),
      Quote(PERFBENCH_COMPILER).c_str(), std::thread::hardware_concurrency(),
      static_cast<unsigned long long>(outcome.checks_passed),
      inputs.c_str());

  if (options.trace) {
    std::error_code ec;
    std::filesystem::create_directories(options.out_dir, ec);
    const std::string stem = options.out_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed);
    const bool wrote_trace = spans.WriteChromeTrace(stem + ".trace.json");
    std::FILE* f = std::fopen((stem + ".layers.json").c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "%s\n", layers.c_str());
      std::fclose(f);
    }
    outcome.Check(wrote_trace && f != nullptr,
                  "trace and layer table written to " + options.out_dir);
  }

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      outcome.correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed),
      options.trace ? layers.c_str() : e2e.c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}
