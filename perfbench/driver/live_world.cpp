// live_world: the read/delivery side of the pipeline on full devices.
//
// A few dozen complete testbed devices sit in groups far enough apart
// that WiFi does not bridge them. Each group has a BT-GPS, two Nokia
// 6630s (BT, cellular, internal sensors) and two Nokia 9500s (WiFi too);
// one 9500 per group publishes its location and a noise reading to its
// neighbours. A ContextServer is fed on a timer. Every round (10
// simulated minutes plus a quiet minute) each device runs
//   A  periodic intSensor temperature, EVERY drawn from the seed;
//   B  periodic extInfra wind;
//   C  transparent periodic location (BT-GPS, failing over to adHoc);
//   D  event intSensor temperature, cancelled half way;
//   E  on-demand adHoc noise (not on the publisher);
// while a seeded FaultPlan powers GPS receivers off and takes the server
// down, forcing failover, retries and degraded mode. One 9500 per group
// walks the strip under a seeded RandomWaypoint, so the mobility tick and
// the Medium's grid migrations run too, and the walkers drift in and out
// of their GPS's and their neighbours' range. The active ten minutes are
// timed in 30-second RunFor blocks.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/contory.hpp"
#include "fault/fault_plan.hpp"
#include "harness.hpp"
#include "obs/observability.hpp"
#include "sim/mobility.hpp"
#include "testbed/testbed.hpp"

using namespace contory;
using namespace std::chrono_literals;

namespace perfbench {
namespace {

constexpr auto kActive = 10min;         // every query's DURATION
constexpr auto kQuiet = 1min;           // untimed tail of each round
constexpr auto kBlock = 30s;            // one timed RunFor block
constexpr const char* kServer = "infra.bench";
constexpr std::size_t kDevicesPerGroup = 4;
constexpr std::size_t kWarmupRounds = 60;
constexpr std::size_t kWalker = 2;      // the group's first 9500
constexpr double kGroupSpacingM = 300.0;

/// One client per query: counts items, checks their type, stamps the
/// first arrival.
class QueryClient : public core::Client {
 public:
  QueryClient(sim::Simulation& sim, std::string type)
      : sim_(sim), type_(std::move(type)) {}

  void ReceiveCxtItem(const CxtItem& item) override {
    if (items_ == 0) first_ = sim_.Now();
    ++items_;
    if (item.type != type_) ++wrong_type_;
  }
  void InformError(const std::string&) override {}
  bool MakeDecision(const std::string&) override { return true; }

  [[nodiscard]] std::uint64_t items() const noexcept { return items_; }
  [[nodiscard]] std::uint64_t wrong_type() const noexcept {
    return wrong_type_;
  }
  [[nodiscard]] SimTime first() const noexcept { return first_; }

 private:
  sim::Simulation& sim_;
  std::string type_;
  std::uint64_t items_ = 0;
  std::uint64_t wrong_type_ = 0;
  SimTime first_{};
};

struct LiveQuery {
  std::size_t device = 0;
  char kind = 'A';  // 'A'..'E'
  std::string text;
  std::unique_ptr<QueryClient> client;
  std::string id;
  std::uint64_t trace = 0;
  SimTime submitted{};
  SimDuration every{};  // periodic intSensor only
};

double IdlePowerMw(std::size_t k) {
  return (k < 2 ? phone::Nokia6630() : phone::Nokia9500()).base_power_mw;
}

}  // namespace

Outcome RunLiveWorld(const Options& options, SpanLog& spans) {
  Outcome out;
  const std::size_t groups = options.smoke ? 2 : 6;
  out.inputs = {{"groups", groups},
                {"devices", groups * kDevicesPerGroup},
                {"round_sim_s", static_cast<std::uint64_t>(
                                    ToSeconds(SimDuration{kActive + kQuiet}))},
                {"block_sim_s", static_cast<std::uint64_t>(
                                    ToSeconds(SimDuration{kBlock}))}};

  obs::Observability::ResetForTest();
  testbed::World world{options.seed};
  sim::Simulation& sim = world.sim();
  Rng rng{options.seed ^ 0x11feu};

  // --- The world ------------------------------------------------------
  infra::ContextServer& server = world.AddContextServer(kServer);
  sim::PeriodicTask feed{sim, 10s, [&] {
    infra::StoredItem stored;
    stored.item.id = sim.ids().NextId("feed");
    stored.item.type = vocab::kWind;
    stored.item.value = 6.0 + rng.Uniform(-2.0, 2.0);
    stored.item.timestamp = sim.Now();
    stored.item.metadata.accuracy = 0.5;
    stored.item.source = {SourceKind::kExtInfra, kServer};
    stored.entity = "station-1";
    server.StoreDirect(std::move(stored));
  }};

  std::vector<testbed::Device*> devices;
  std::vector<double> idle_mw;
  std::vector<core::CollectingClient> publisher_apps(groups);
  std::vector<std::unique_ptr<sim::PeriodicTask>> publishers;
  sim::RandomWaypointConfig strip;
  strip.area = {kGroupSpacingM * static_cast<double>(groups - 1) + 10.0,
                20.0};
  sim::RandomWaypoint walkers{sim, world.medium(), strip,
                              options.seed ^ 0x3a1cu};
  std::vector<net::NodeId> walker_nodes;
  for (std::size_t g = 0; g < groups; ++g) {
    const net::Position center{kGroupSpacingM * static_cast<double>(g), 0.0};
    world.AddGps("gps-" + std::to_string(g), center);
    for (std::size_t k = 0; k < kDevicesPerGroup; ++k) {
      testbed::DeviceOptions opts;
      opts.name = "phone-" + std::to_string(g) + "-" + std::to_string(k);
      opts.profile = k < 2 ? phone::Nokia6630() : phone::Nokia9500();
      opts.with_wifi = k >= 2;
      opts.position = {center.x + 2.0 + static_cast<double>(k),
                       center.y + (k % 2 == 0 ? 2.0 : -2.0)};
      opts.internal_sensors = {vocab::kTemperature};
      opts.infra_address = kServer;
      devices.push_back(&world.AddDevice(std::move(opts)));
      idle_mw.push_back(IdlePowerMw(k));
      if (k == kWalker) {
        walkers.Manage(devices.back()->node());
        walker_nodes.push_back(devices.back()->node());
      }
    }
    // The group's last device shares its location and a noise reading.
    testbed::Device* pub = devices.back();
    if (!pub->contory().RegisterCxtServer(publisher_apps[g]).ok()) {
      out.Check(false, "publisher registration");
    }
    publishers.push_back(std::make_unique<sim::PeriodicTask>(
        sim, 10s, [&sim, pub, &world] {
          CxtItem item;
          item.id = sim.ids().NextId("loc");
          item.type = vocab::kLocation;
          item.value = sensors::ToGeo(pub->position());
          item.timestamp = world.Now();
          item.metadata.accuracy = 30.0;
          (void)pub->contory().PublishCxtItem(item, true);
          CxtItem noise;
          noise.id = sim.ids().NextId("noise");
          noise.type = vocab::kNoise;
          noise.value = 45.0;
          noise.timestamp = world.Now();
          noise.metadata.accuracy = 2.0;
          (void)pub->contory().PublishCxtItem(noise, true);
        }));
  }

  walkers.Start();

  // --- Per-round inputs -------------------------------------------------
  static constexpr int kEvery[] = {5, 10, 15, 20};
  std::vector<LiveQuery> queries;
  std::uint64_t next_trace = 1;
  // Per-call and per-query samples are kept in traced runs only, so an
  // untraced run's peak RSS does not grow with its number of rounds.
  std::vector<double> submit_us;
  std::vector<double> cancel_us;
  std::vector<double> first_item_ms;
  std::vector<double> neighbor_us;
  std::vector<double> last_energy(devices.size(), 0.0);
  std::size_t open_spans_peak = 0;

  const auto total_energy = [&] {
    double j = 0.0;
    for (testbed::Device* d : devices) {
      j += d->phone().energy().TotalEnergyJoules();
    }
    return j;
  };
  const auto total_retries = [&] {
    std::uint64_t n = 0;
    for (testbed::Device* d : devices) n += d->contory().total_retries();
    return n;
  };
  const auto total_degraded = [&] {
    std::uint64_t n = 0;
    for (testbed::Device* d : devices) {
      n += d->contory().degraded_deliveries();
    }
    return n;
  };
  const auto client_items = [&] {
    std::uint64_t n = 0;
    for (const LiveQuery& q : queries) n += q.client->items();
    return n;
  };
  // Energy grows monotonically and never dips under idle power * time.
  const auto check_energy = [&] {
    const double elapsed_s = ToSeconds(world.Now() - kSimEpoch);
    bool monotonic = true;
    bool above_idle = true;
    for (std::size_t i = 0; i < devices.size(); ++i) {
      const double j = devices[i]->phone().energy().TotalEnergyJoules();
      monotonic = monotonic && j >= last_energy[i];
      above_idle = above_idle && j >= idle_mw[i] * 1e-3 * elapsed_s * 0.999999;
      last_energy[i] = j;
    }
    out.Check(monotonic, "device energy grows monotonically");
    out.Check(above_idle, "device energy >= idle power * elapsed time");
  };
  // Walkers stay on the strip they were given.
  const auto check_walkers = [&] {
    bool inside = true;
    for (net::NodeId node : walker_nodes) {
      const net::Position p = *world.medium().GetPosition(node);
      inside = inside && p.x >= 0.0 && p.x <= strip.area.width_m &&
               p.y >= 0.0 && p.y <= strip.area.height_m;
    }
    out.Check(inside, "every walker stays inside its strip");
  };

  const auto make_round = [&] {
    queries.clear();
    for (std::size_t i = 0; i < devices.size(); ++i) {
      const std::size_t k = i % kDevicesPerGroup;
      const int every = kEvery[rng.UniformInt(0, 3)];
      const double threshold = rng.Uniform(16.0, 20.0);
      const auto add = [&](char kind, std::string type, std::string text,
                           SimDuration period = {}) {
        LiveQuery q;
        q.device = i;
        q.kind = kind;
        q.text = std::move(text);
        q.client = std::make_unique<QueryClient>(sim, std::move(type));
        q.every = period;
        queries.push_back(std::move(q));
      };
      add('A', vocab::kTemperature,
          "SELECT temperature FROM intSensor DURATION 10 min EVERY " +
              std::to_string(every) + " sec",
          std::chrono::seconds{every});
      add('B', vocab::kWind,
          "SELECT wind FROM extInfra DURATION 10 min EVERY 30 sec");
      add('C', vocab::kLocation,
          "SELECT location DURATION 10 min EVERY 10 sec");
      add('D', vocab::kTemperature,
          "SELECT temperature FROM intSensor DURATION 10 min EVENT "
          "temperature > " + std::to_string(threshold));
      if (k + 1 < kDevicesPerGroup) {
        add('E', vocab::kNoise,
            "SELECT noise FROM adHocNetwork(1,1) DURATION 2 min");
      }
    }
  };
  const auto make_faults = [&] {
    const SimTime t0 = world.Now();
    fault::FaultPlan plan;
    for (std::size_t g = 0; g < groups; ++g) {
      if (rng.NextDouble() < 0.5) continue;
      plan.Window(t0 + std::chrono::seconds{rng.UniformInt(60, 300)},
                  fault::FaultKind::kGpsOff, "gps-" + std::to_string(g),
                  std::chrono::seconds{rng.UniformInt(60, 180)});
    }
    plan.Window(t0 + std::chrono::seconds{rng.UniformInt(60, 400)},
                fault::FaultKind::kBrokerOutage, kServer,
                std::chrono::seconds{rng.UniformInt(30, 120)});
    return plan;
  };

  const auto submit_all = [&] {
    for (LiveQuery& q : queries) {
      auto parsed = query::ParseQuery(q.text);
      ++out.attempted;
      if (!parsed.ok()) {
        ++out.failed;
        continue;
      }
      parsed->id = sim.ids().NextId("q");
      q.trace = next_trace++;
      q.submitted = world.Now();
      const std::uint32_t span = spans.Begin("ProcessCxtQuery", q.trace);
      const auto start = WallClock::now();
      auto id = devices[q.device]->contory().ProcessCxtQuery(
          std::move(*parsed), *q.client);
      if (options.trace) submit_us.push_back(SecondsSince(start) * 1e6);
      spans.End(span);
      if (!id.ok()) {
        ++out.failed;
        continue;
      }
      q.id = std::move(*id);
    }
  };
  const auto cancel_events = [&] {
    for (LiveQuery& q : queries) {
      if (q.kind != 'D' || q.id.empty()) continue;
      ++out.attempted;
      const std::uint32_t span = spans.Begin("CancelCxtQuery", q.trace);
      const auto start = WallClock::now();
      devices[q.device]->contory().CancelCxtQuery(q.id);
      if (options.trace) cancel_us.push_back(SecondsSince(start) * 1e6);
      spans.End(span);
    }
  };
  // Every query completed exactly once, the periodic intSensor ones
  // delivered DURATION/EVERY items give or take one, and every item had
  // its query's SELECT type.
  const auto check_round = [&] {
    bool once = true;
    bool counts = true;
    bool types = true;
    bool idle = true;
    for (std::size_t i = 0; i < devices.size(); ++i) {
      auto& table = devices[i]->contory().queries();
      idle = idle && table.active_count() == 0 &&
             table.invalid_transitions() == 0;
      std::map<std::string, int> done;
      for (const auto& c : table.completions()) ++done[c.id];
      std::size_t expected = 0;
      for (const LiveQuery& q : queries) {
        if (q.device != i || q.id.empty()) continue;
        ++expected;
        once = once && done[q.id] == 1;
      }
      once = once && table.completions().size() == expected;
      table.ClearCompletions();
    }
    for (const LiveQuery& q : queries) {
      types = types && q.client->wrong_type() == 0;
      if (q.kind == 'A') {
        const double want = ToSeconds(SimDuration{kActive}) /
                            ToSeconds(q.every);
        const auto got = static_cast<double>(q.client->items());
        counts = counts && got >= want - 1.0 && got <= want + 1.0;
      }
      if (options.trace && q.kind != 'D' && q.client->items() > 0) {
        first_item_ms.push_back(ToMillis(q.client->first() - q.submitted));
      }
    }
    out.Check(once, "every query completes exactly once");
    out.Check(counts, "periodic intSensor queries deliver DURATION/EVERY +-1");
    out.Check(types, "every item has its query's SELECT type");
    out.Check(idle, "no live query and no invalid transition after a round");
    out.Check(obs::Observability::tracer().open_count() == 0,
              "zero open spans after a round");
  };

  BlockTimer sim_rate{spans, options.trace};
  std::uint64_t items_measured = 0;
  std::uint64_t events_measured = 0;
  double wall_measured = 0.0;
  double joules_measured = 0.0;
  std::uint64_t registry_items_measured = 0;

  // One round: submit, run the active window in blocks (timed unless
  // warm-up), cancel the event queries half way, run the quiet tail.
  const auto run_round = [&](bool timed) {
    make_round();
    if (Status s = world.injector().Execute(make_faults()); !s.ok()) {
      out.Check(false, "fault plan accepted: " + s.ToString());
    }
    // Some items reach clients during ProcessCxtQuery itself.
    const std::uint64_t registry0 = SumCounter("items_delivered_total");
    const std::uint64_t stale0 = SumCounter("degraded_deliveries_total");
    spans.set_active(options.trace);
    submit_all();
    SampleNodesWithin(world.medium(), 100.0, 8, rng, spans, next_trace++,
                      out, neighbor_us);
    spans.set_active(false);
    const auto blocks = SimDuration{kActive} / SimDuration{kBlock};
    for (std::int64_t b = 0; b < blocks; ++b) {
      if (b == blocks / 2) {
        spans.set_active(options.trace);
        cancel_events();
        spans.set_active(false);
      }
      const std::uint64_t items0 = client_items();
      const std::uint64_t events0 = sim.events_dispatched();
      const double joules0 = total_energy();
      if (timed) sim_rate.Start();
      const std::uint32_t span = spans.Begin("RunFor", next_trace++);
      const auto start = WallClock::now();
      world.RunFor(kBlock);
      const double wall = SecondsSince(start);
      spans.End(span);
      const std::uint64_t items = client_items() - items0;
      if (timed) {
        sim_rate.Stop(ToSeconds(SimDuration{kBlock}));
        items_measured += items;
        events_measured += sim.events_dispatched() - events0;
        wall_measured += wall;
        joules_measured += total_energy() - joules0;
      }
      check_energy();
      open_spans_peak =
          std::max(open_spans_peak, obs::Observability::tracer().open_count());
    }
    world.RunFor(kQuiet);
    check_energy();
    check_walkers();
    // Stale answers from degraded mode bypass items_delivered_total and
    // are counted in degraded_deliveries_total instead.
    const std::uint64_t registry_items =
        SumCounter("items_delivered_total") - registry0;
    const std::uint64_t stale_items =
        SumCounter("degraded_deliveries_total") - stale0;
    out.Check(registry_items + stale_items == client_items(),
              "registry items_delivered_total + degraded_deliveries_total "
              "== items clients received (" +
                  std::to_string(registry_items + stale_items) + " vs " +
                  std::to_string(client_items()) + ")");
    if (timed) registry_items_measured += registry_items;
    check_round();
  };

  // --- Set-up ends after the untimed warm-up rounds ---------------------
  // Several rounds, so that steady simulation work, not the process's
  // fixed start-up jitter, dominates set-up time.
  for (std::size_t r = 0; r < kWarmupRounds; ++r) run_round(/*timed=*/false);
  EndSetUp(out);
  const auto measure_start = WallClock::now();
  const std::uint64_t failovers0 = SumCounter("failovers_total");
  const std::uint64_t retries0 = total_retries();
  const std::uint64_t degraded0 = total_degraded();
  const std::uint64_t wifi_frames0 =
      SumCounter("radio_tx_frames_total", "radio", "wifi");
  const std::uint64_t bt_frames0 =
      SumCounter("radio_tx_frames_total", "radio", "bt");
  const std::uint64_t cell_bytes0 =
      SumCounter("radio_tx_bytes_total", "radio", "cellular");
  const std::uint64_t providers0 = SumCounter("providers_created_total");
  const std::uint64_t merged0 = SumCounter("queries_merged_total");
  const std::uint64_t updates0 = walkers.position_updates();
  const double energy0 = total_energy();
  std::size_t rounds = 0;
  while (SecondsSince(measure_start) < options.seconds || rounds < 2) {
    run_round(/*timed=*/true);
    ++rounds;
  }
  out.inputs["timed_cycles"] = rounds;
  out.Check(out.failed == 0, "every query admitted");

  // Items per wall second at the median block's speed: the items the
  // timed blocks delivered per simulated second, times the median
  // simulated seconds per wall second. A median of per-block item rates
  // would instead mix the round's phases (discovery, outages, the event
  // queries' cancel), whose item counts differ several-fold.
  const double items_per_sim_s =
      static_cast<double>(items_measured) /
      (static_cast<double>(sim_rate.blocks()) * ToSeconds(SimDuration{kBlock}));
  // Wall-clock rates: in the per-layer table of a traced run, and in the
  // run record of an untraced one.
  out.per_layer["live_items_per_s"] = {items_per_sim_s * sim_rate.MedianRate(),
                                       "1/s"};
  out.per_layer["live_sim_s_per_s"] = {sim_rate.MedianRate(), "1/s"};

  if (options.trace) {
    const auto layer = [&](const char* name, double v, const char* unit) {
      out.per_layer[name] = {v, unit};
    };
    // Counts are per timed cycle (one 11-minute round), so they do not
    // grow with the run's speed.
    const auto per_cycle = [&](double total) {
      return total / static_cast<double>(rounds);
    };
    const auto counter_per_cycle = [&](std::uint64_t now,
                                       std::uint64_t before) {
      return per_cycle(static_cast<double>(now - before));
    };
    layer("pipeline.submit_us_p50", Quantile(submit_us, 0.5), "us");
    layer("pipeline.submit_us_p99", Quantile(submit_us, 0.99), "us");
    layer("pipeline.cancel_us_p50", Quantile(cancel_us, 0.5), "us");
    layer("pipeline.cancel_us_p99", Quantile(cancel_us, 0.99), "us");
    layer("pipeline.providers_created",
          counter_per_cycle(SumCounter("providers_created_total"),
                            providers0),
          "1/cycle");
    layer("pipeline.merged",
          counter_per_cycle(SumCounter("queries_merged_total"), merged0),
          "1/cycle");
    layer("obs.open_spans_peak", static_cast<double>(open_spans_peak),
          "count");
    layer("medium.nodes_within_us_p50", Median(neighbor_us), "us");
    layer("mobility.position_updates",
          counter_per_cycle(walkers.position_updates(), updates0), "1/cycle");
    layer("medium.grid_cells",
          static_cast<double>(world.medium().occupied_cells()), "count");
    layer("medium.cell_occupancy", world.medium().mean_cell_occupancy(),
          "nodes/cell");
    layer("sim.events", counter_per_cycle(events_measured, 0), "1/cycle");
    layer("sim.events_per_s",
          static_cast<double>(events_measured) / wall_measured, "1/s");
    layer("delivery.items", counter_per_cycle(registry_items_measured, 0),
          "1/cycle");
    layer("providers.failovers",
          counter_per_cycle(SumCounter("failovers_total"), failovers0),
          "1/cycle");
    layer("providers.retries", counter_per_cycle(total_retries(), retries0),
          "1/cycle");
    layer("providers.degraded_deliveries",
          counter_per_cycle(total_degraded(), degraded0), "1/cycle");
    layer("radio.bt_frames",
          counter_per_cycle(SumCounter("radio_tx_frames_total", "radio", "bt"),
                            bt_frames0),
          "1/cycle");
    layer("radio.cellular_bytes",
          counter_per_cycle(
              SumCounter("radio_tx_bytes_total", "radio", "cellular"),
              cell_bytes0),
          "bytes/cycle");
    layer("wifi.frames",
          counter_per_cycle(
              SumCounter("radio_tx_frames_total", "radio", "wifi"),
              wifi_frames0),
          "1/cycle");
    layer("energy.device_j", per_cycle(total_energy() - energy0), "J/cycle");
    layer("first_item_sim_ms", Median(first_item_ms), "ms");
    layer("mj_per_item",
          joules_measured * 1e3 / static_cast<double>(items_measured), "mJ");
    layer("trace.overhead_pct", sim_rate.OverheadPct(), "%");
  }
  return out;
}

}  // namespace perfbench
