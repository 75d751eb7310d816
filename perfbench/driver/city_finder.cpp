// city_finder: tens of thousands of moving phones and SM-FINDER rounds.
//
// A RandomWaypoint CityScenario (constant node density, as city_scale
// builds it) disperses for 20 simulated seconds, then every block runs
//   1. one untimed check tick: each node stays inside the world square
//      and moves no further than speed_max * tick;
//   2. a few NodesWithin calls at WiFi range, timed and checked against
//      a brute-force scan;
//   3. a mobility-only stretch of one-second RunFor ticks (timed);
//   4. SM-FINDER rounds from seeded issuers, each run event by event
//      until its outcome callback fires (timed).
// The query pipeline is not used: this is the Medium grid, the mobility
// tick, the SM runtime and WiFi.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "harness.hpp"
#include "obs/observability.hpp"
#include "testbed/city_scenario.hpp"

using namespace contory;
using namespace std::chrono_literals;

namespace perfbench {
namespace {

struct Sizes {
  std::size_t phones;
  std::size_t stretch_ticks;  // one-second mobility ticks per block
  std::size_t rounds;         // finder rounds per block
  std::size_t neighbor_samples;
};

Sizes SizesFor(const Options& options) {
  if (options.smoke) return {2'000, 2, 2, 8};
  return {20'000, 4, 4, 16};
}

constexpr int kHopBudget = 10;

}  // namespace

Outcome RunCityFinder(const Options& options, SpanLog& spans) {
  Outcome out;
  const Sizes sizes = SizesFor(options);
  out.inputs = {{"phones", sizes.phones},
                {"stretch_ticks", sizes.stretch_ticks},
                {"rounds_per_block", sizes.rounds},
                {"neighbor_samples", sizes.neighbor_samples},
                {"hop_budget", kHopBudget}};

  obs::Observability::ResetForTest();
  testbed::CityOptions city_options;
  city_options.phones = sizes.phones;
  // city_scale's density: mean WiFi degree ~6.4, so a giant component
  // exists and finders genuinely route multi-hop.
  city_options.area_m = 70.0 * std::sqrt(static_cast<double>(sizes.phones));
  city_options.provider_fraction = 0.25;
  city_options.seed = options.seed;
  testbed::CityScenario city(city_options);
  sim::Simulation& sim = city.sim();
  net::Medium& medium = city.medium();
  sim::MobilityModel& mobility = *city.mobility();
  const double side = city.area_side_m();
  const double range = city_options.wifi_range_m;
  const double tick_s = ToSeconds(city_options.mobility_tick);
  // AdHocCxtProvider's own SM hop-timeout budget.
  const SimDuration timeout =
      std::chrono::milliseconds{1500 * 2 * (kHopBudget + 1)};
  sim.RunFor(20s);  // let the fleet disperse from the uniform scatter

  Rng rng{options.seed ^ 0xc17eu};
  std::vector<net::Position> before(city.phone_count());
  std::vector<int> callbacks;  // per launched round
  std::uint64_t items_over_providers = 0;
  std::uint64_t found = 0;
  std::vector<double> migrations;
  std::vector<double> latency_sim_ms;
  std::vector<double> round_ms;
  std::vector<double> tick_ms;
  std::vector<double> neighbor_us;
  BlockTimer stretch{spans, options.trace};
  BlockTimer finders{spans, options.trace};
  std::uint64_t events_measured = 0;
  double wall_measured = 0.0;
  std::uint64_t updates_measured = 0;
  std::uint64_t next_trace = 1;

  const auto snapshot = [&] {
    for (std::size_t i = 0; i < city.phone_count(); ++i) {
      before[i] = *medium.GetPosition(city.node(i));
    }
  };
  // Every node inside the square, and no further than speed_max * tick
  // per tick from its last snapshot.
  const auto check_moves = [&](std::uint64_t ticks) {
    const double reach =
        city_options.speed_max_mps * tick_s * static_cast<double>(ticks) +
        1e-9;
    bool inside = true;
    bool bounded = true;
    for (std::size_t i = 0; i < city.phone_count(); ++i) {
      const net::Position p = *medium.GetPosition(city.node(i));
      inside = inside && p.x >= 0.0 && p.x <= side && p.y >= 0.0 &&
               p.y <= side;
      bounded = bounded &&
                std::hypot(p.x - before[i].x, p.y - before[i].y) <= reach;
    }
    out.Check(inside, "every node stays inside the world square");
    out.Check(bounded, "no node moves further than speed_max * tick");
  };

  const auto run_block = [&](bool timed) {
    // 1. Untimed check tick.
    snapshot();
    const std::uint64_t ticks_before = mobility.ticks();
    sim.RunFor(city_options.mobility_tick);
    check_moves(mobility.ticks() - ticks_before);

    // 2. Sampled neighbour queries against the oracle.
    spans.set_active(options.trace);
    SampleNodesWithin(medium, range, sizes.neighbor_samples, rng, spans,
                      next_trace++, out, neighbor_us);
    spans.set_active(false);

    // 3. Mobility-only stretch.
    const std::uint64_t events0 = sim.events_dispatched();
    const std::uint64_t updates0 = mobility.position_updates();
    const std::uint64_t trace = next_trace++;
    if (timed) stretch.Start();
    const auto stretch_start = WallClock::now();
    for (std::size_t t = 0; t < sizes.stretch_ticks; ++t) {
      const std::uint32_t span = spans.Begin("RunFor", trace);
      const auto start = WallClock::now();
      sim.RunFor(city_options.mobility_tick);
      if (timed) tick_ms.push_back(SecondsSince(start) * 1e3);
      spans.End(span);
    }
    double wall = SecondsSince(stretch_start);
    if (timed) {
      stretch.Stop(static_cast<double>(sizes.stretch_ticks) * tick_s);
    }

    // 4. Finder rounds, each to its callback.
    if (timed) finders.Start();
    const auto finder_start = WallClock::now();
    for (std::size_t r = 0; r < sizes.rounds; ++r) {
      const auto issuer = static_cast<std::size_t>(rng.UniformInt(
          0, static_cast<std::int64_t>(city.phone_count()) - 1));
      const std::size_t round = callbacks.size();
      callbacks.push_back(0);
      testbed::CityScenario::FinderOutcome outcome;
      const std::uint32_t span = spans.Begin("finder", next_trace++);
      const auto start = WallClock::now();
      city.LaunchFinder(issuer, /*num_nodes=*/-1, kHopBudget, timeout,
                        [&, round](testbed::CityScenario::FinderOutcome o) {
                          ++callbacks[round];
                          outcome = o;
                        });
      while (callbacks[round] == 0 && sim.Step()) {
      }
      if (timed) round_ms.push_back(SecondsSince(start) * 1e3);
      spans.End(span);
      ++out.attempted;
      if (callbacks[round] == 0) ++out.failed;
      if (outcome.items > city.provider_count()) ++items_over_providers;
      found += outcome.success ? 1 : 0;
      if (timed && outcome.replied) {
        migrations.push_back(static_cast<double>(outcome.hops));
        latency_sim_ms.push_back(ToMillis(outcome.latency));
      }
    }
    wall += SecondsSince(finder_start);
    if (timed) {
      finders.Stop(static_cast<double>(sizes.rounds));
      events_measured += sim.events_dispatched() - events0;
      updates_measured += mobility.position_updates() - updates0;
      wall_measured += wall;
    }
  };

  // --- Set-up ends after one untimed warm-up block ----------------------
  run_block(/*timed=*/false);
  EndSetUp(out);
  const auto measure_start = WallClock::now();
  const std::uint64_t wifi_frames0 =
      SumCounter("radio_tx_frames_total", "radio", "wifi");
  while (SecondsSince(measure_start) < options.seconds ||
         finders.blocks() < 3) {
    run_block(/*timed=*/true);
  }
  out.inputs["timed_cycles"] = finders.blocks();

  // Let any outstanding timeout fire, then every round must have reported
  // exactly once.
  sim.RunFor(timeout + 1s);
  out.Check(std::all_of(callbacks.begin(), callbacks.end(),
                        [](int n) { return n == 1; }),
            "each finder callback fires exactly once");
  out.Check(items_over_providers == 0,
            "no round returns more items than there are providers");
  out.Check(out.failed == 0, "every finder round resolved");

  // Wall-clock rates: in the per-layer table of a traced run, and in the
  // run record of an untraced one.
  out.per_layer["finder_rounds_per_s"] = {finders.MedianRate(), "1/s"};
  out.per_layer["fleet_sim_s_per_s"] = {stretch.MedianRate(), "1/s"};

  if (options.trace) {
    // Counts are per timed cycle (one check tick, samples, stretch and
    // finder rounds), so they do not grow with the run's speed.
    const auto cycles = static_cast<double>(finders.blocks());
    out.per_layer["mobility.tick_ms_p50"] = {Median(tick_ms), "ms"};
    out.per_layer["mobility.position_updates"] = {
        static_cast<double>(updates_measured) / cycles, "1/cycle"};
    out.per_layer["medium.nodes_within_us_p50"] = {Median(neighbor_us), "us"};
    out.per_layer["medium.grid_cells"] = {
        static_cast<double>(medium.occupied_cells()), "count"};
    out.per_layer["medium.cell_occupancy"] = {medium.mean_cell_occupancy(),
                                              "nodes/cell"};
    out.per_layer["sm.finder_round_ms_p50"] = {Median(round_ms), "ms"};
    out.per_layer["sm.finder_migrations_p50"] = {Median(migrations), "count"};
    out.per_layer["sm.finder_found_ratio"] = {
        static_cast<double>(found) / static_cast<double>(callbacks.size()),
        "ratio"};
    out.per_layer["wifi.frames"] = {
        static_cast<double>(
            SumCounter("radio_tx_frames_total", "radio", "wifi") -
            wifi_frames0) / cycles,
        "1/cycle"};
    out.per_layer["sim.events"] = {
        static_cast<double>(events_measured) / cycles, "1/cycle"};
    out.per_layer["sim.events_per_s"] = {
        static_cast<double>(events_measured) / wall_measured, "1/s"};
    out.per_layer["finder_latency_sim_ms"] = {Median(latency_sim_ms), "ms"};
    out.per_layer["trace.overhead_pct"] = {
        (stretch.OverheadPct() + finders.OverheadPct()) / 2.0, "%"};
  }
  return out;
}

}  // namespace perfbench
