// submit_churn: the query write path on one phone, with the clock frozen.
//
// One ContextFactory grows to a large population of periodic adHoc
// queries, then churns it with random cancel+resubmit pairs, then
// cancels everything. Most queries SELECT a type of their own; a fifth
// repeat one of a few hundred shared types so the facade merge path
// runs; priorities mix interactive, standard and background. Simulated
// time never advances, so no provider delivers and Medium, mobility and
// SM stay idle: what is timed is governor -> admission -> planner ->
// facade assign, the sharded query table and the tracer.
//
// Queries are built before each block's clock starts, so a block times
// only ProcessCxtQuery / CancelCxtQuery.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/contory.hpp"
#include "harness.hpp"
#include "obs/observability.hpp"
#include "testbed/testbed.hpp"

using namespace contory;
using namespace std::chrono_literals;

namespace perfbench {
namespace {

struct Sizes {
  std::size_t population;  // live queries after growth
  std::size_t churn;       // cancel+resubmit pairs per round
  std::size_t block;       // operations per timed block
  std::size_t shared_types;
  std::size_t overhead_submits;  // per mode, obs on/off comparison
};

constexpr std::size_t kWarmupRounds = 2;

Sizes SizesFor(const Options& options) {
  if (options.smoke) return {4'000, 2'000, 500, 50, 2'000};
  return {50'000, 25'000, 1'000, 300, 20'000};
}

/// Seeded query generator. The repository holds no record of real query
/// traffic, so the mix is an assumption: priorities follow
/// bench/scale_queries.cpp's ClassOf (every fifth query interactive, two
/// in five standard, two in five background), a fifth of the queries
/// (scale_queries' warm-type share) draw one of a few hundred shared
/// types, and every query is periodic with EVERY 60 s, as in both
/// scale_queries sweeps.
class QueryMaker {
 public:
  QueryMaker(std::uint64_t seed, std::size_t shared_types)
      : rng_(seed), shared_types_(shared_types) {}

  query::CxtQuery Make(sim::Simulation& sim) {
    std::string type;
    if (rng_.NextDouble() < 0.2) {
      type = "shared-" + std::to_string(rng_.UniformInt(
                             0, static_cast<std::int64_t>(shared_types_) - 1));
    } else {
      type = "own-" + std::to_string(next_own_++);
    }
    auto q = query::QueryBuilder(type)
                 .FromAdHoc(1, 1)
                 .For(std::chrono::hours{1})
                 .Every(60s)
                 .Priority(ClassOf(made_++))
                 .Build();
    q.id = sim.ids().NextId("q");
    return q;
  }

  [[nodiscard]] Rng& rng() noexcept { return rng_; }

 private:
  static query::QueryPriority ClassOf(std::uint64_t i) {
    switch (i % 5) {
      case 0: return query::QueryPriority::kInteractive;
      case 1:
      case 2: return query::QueryPriority::kStandard;
      default: return query::QueryPriority::kBackground;
    }
  }

  Rng rng_;
  std::size_t shared_types_;
  std::uint64_t next_own_ = 0;
  std::uint64_t made_ = 0;
};

testbed::DeviceOptions ChurnDevice() {
  testbed::DeviceOptions opts;
  opts.name = "phone-churn";
  opts.with_cellular = false;  // adHoc facade only
  return opts;
}

/// Submit p50 with the middleware's observability on, minus off, on a
/// fresh phone: alternating blocks, per-call timings. Every one of these
/// submits must be admitted, or the two medians compare different paths.
double ObsSubmitOverheadUs(const Options& options, const Sizes& sizes,
                           Outcome& out) {
  testbed::World world{options.seed ^ 0x0b5u};
  auto& device = world.AddDevice(ChurnDevice());
  core::CollectingClient client;
  QueryMaker maker{options.seed ^ 0x0b5u, sizes.shared_types};
  std::vector<double> on_us;
  std::vector<double> off_us;
  std::vector<query::CxtQuery> batch;
  std::uint64_t refused = 0;
  for (std::size_t done = 0; done < 2 * sizes.overhead_submits;) {
    const bool obs_on = (done / sizes.block) % 2 == 0;
    batch.clear();
    for (std::size_t i = 0; i < sizes.block; ++i) {
      batch.push_back(maker.Make(world.sim()));
    }
    obs::Observability::Enable(obs_on);
    for (auto& q : batch) {
      const auto start = WallClock::now();
      const auto id = device.contory().ProcessCxtQuery(std::move(q), client);
      (obs_on ? on_us : off_us).push_back(SecondsSince(start) * 1e6);
      if (!id.ok()) ++refused;
    }
    obs::Observability::Enable(true);
    done += sizes.block;
  }
  out.Check(refused == 0, "every observability-overhead submit admitted");
  return Median(on_us) - Median(off_us);
}

}  // namespace

Outcome RunSubmitChurn(const Options& options, SpanLog& spans) {
  Outcome out;
  const Sizes sizes = SizesFor(options);
  out.inputs = {{"population", sizes.population},
                {"churn_pairs", sizes.churn},
                {"block_ops", sizes.block},
                {"shared_types", sizes.shared_types}};

  obs::Observability::ResetForTest();
  auto& tracer = obs::Observability::tracer();
  QueryMaker maker{options.seed, sizes.shared_types};
  BlockTimer growth{spans, options.trace};
  BlockTimer churn{spans, options.trace};
  std::uint64_t next_trace = 1;
  std::size_t open_spans_peak = 0;
  std::uint64_t providers_created = 0;
  std::uint64_t merged = 0;
  std::vector<double> submit_us;
  std::vector<double> cancel_us;
  std::size_t rounds = 0;

  // One round on a fresh phone: grow to the population, churn, cancel
  // everything, check. A fresh World per round keeps memory bounded: a
  // frozen clock never pops the timers that cancelled queries leave in
  // the event queue.
  const auto run_round = [&](bool warmup) {
    testbed::World world{options.seed + rounds};
    auto& device = world.AddDevice(ChurnDevice());
    core::ContextFactory& factory = device.contory();
    auto& table = factory.queries();
    core::CollectingClient client;
    const std::uint64_t providers0 = SumCounter("providers_created_total");
    const std::uint64_t merged0 = SumCounter("queries_merged_total");

    // Slot -> live query id and its trace id (shared by its submit and
    // cancel spans).
    std::vector<std::string> live;
    std::vector<std::uint64_t> live_trace;
    live.reserve(sizes.population);
    live_trace.reserve(sizes.population);
    std::uint64_t submits_ok = 0;
    std::uint64_t cancels = 0;
    // Per-call latencies of every timed round, traced blocks and untraced
    // alike, timed around the call alone (span bookkeeping excluded).
    const bool sample_calls = options.trace && !warmup;

    const auto submit = [&](query::CxtQuery q, std::uint64_t trace,
                            std::uint32_t parent) -> std::string {
      ++out.attempted;
      const std::uint32_t span =
          spans.Begin("ProcessCxtQuery", trace, parent);
      const auto start = WallClock::now();
      auto id = factory.ProcessCxtQuery(std::move(q), client);
      if (sample_calls) submit_us.push_back(SecondsSince(start) * 1e6);
      spans.End(span);
      if (!id.ok()) {
        ++out.failed;
        return {};
      }
      ++submits_ok;
      return std::move(*id);
    };
    const auto cancel = [&](const std::string& id, std::uint64_t trace,
                            std::uint32_t parent) {
      ++out.attempted;
      const std::uint32_t span = spans.Begin("CancelCxtQuery", trace, parent);
      const auto start = WallClock::now();
      factory.CancelCxtQuery(id);
      if (sample_calls) cancel_us.push_back(SecondsSince(start) * 1e6);
      spans.End(span);
      ++cancels;
    };
    const auto make_batch = [&](std::size_t n) {
      std::vector<query::CxtQuery> batch;
      batch.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        batch.push_back(maker.Make(world.sim()));
      }
      return batch;
    };

    // Growth, in blocks of submits (the warm-up round is untimed).
    while (live.size() < sizes.population) {
      auto batch =
          make_batch(std::min(sizes.block, sizes.population - live.size()));
      if (!warmup) growth.Start();
      const std::uint32_t block = spans.Begin("grow_block", 0);
      for (auto& q : batch) {
        const std::uint64_t trace = next_trace++;
        std::string id = submit(std::move(q), trace, block);
        live.push_back(std::move(id));
        live_trace.push_back(trace);
      }
      spans.End(block);
      if (!warmup) growth.Stop(static_cast<double>(batch.size()));
      open_spans_peak = std::max(open_spans_peak, tracer.open_count());
    }
    out.Check(table.active_count() == submits_ok,
              "population reached: active_count == submits");

    // Churn: cancel+resubmit pairs at random slots.
    std::vector<std::size_t> victims;
    for (std::size_t done = 0; done < sizes.churn; done += victims.size()) {
      victims.resize(std::min(sizes.block, sizes.churn - done));
      for (auto& v : victims) {
        v = static_cast<std::size_t>(maker.rng().UniformInt(
            0, static_cast<std::int64_t>(live.size()) - 1));
      }
      auto batch = make_batch(victims.size());
      if (!warmup) churn.Start();
      const std::uint32_t block = spans.Begin("churn_block", 0);
      for (std::size_t i = 0; i < victims.size(); ++i) {
        const std::size_t slot = victims[i];
        cancel(live[slot], live_trace[slot], block);
        const std::uint64_t trace = next_trace++;
        live[slot] = submit(std::move(batch[i]), trace, block);
        live_trace[slot] = trace;
      }
      spans.End(block);
      if (!warmup) churn.Stop(static_cast<double>(victims.size()));
      open_spans_peak = std::max(open_spans_peak, tracer.open_count());
    }
    out.Check(submits_ok - cancels == table.active_count(),
              "benchmark tally submits - cancels == active_count()");
    out.Check(table.total_admitted() ==
                  table.total_completed() + table.active_count(),
              "total_admitted == total_completed + active");
    providers_created += SumCounter("providers_created_total") - providers0;
    merged += SumCounter("queries_merged_total") - merged0;

    // Cancel everything.
    spans.set_active(options.trace);
    const std::uint32_t final_block = spans.Begin("cancel_all", 0);
    for (std::size_t slot = 0; slot < live.size(); ++slot) {
      cancel(live[slot], live_trace[slot], final_block);
    }
    spans.End(final_block);
    spans.set_active(false);
    out.Check(table.active_count() == 0,
              "active_count == 0 after cancel-all");
    out.Check(table.total_admitted() == table.total_completed(),
              "every admitted query completed");
    out.Check(table.invalid_transitions() == 0, "zero invalid transitions");
    out.Check(tracer.open_count() == 0, "zero open spans after cancel-all");
  };

  // --- Set-up ends after the untimed warm-up rounds ---------------------
  // More than one, so that steady work, not the process's fixed start-up
  // jitter, dominates set-up time.
  for (std::size_t r = 0; r < kWarmupRounds; ++r) run_round(/*warmup=*/true);
  EndSetUp(out);
  const auto measure_start = WallClock::now();
  while (SecondsSince(measure_start) < options.seconds || rounds < 2) {
    ++rounds;
    run_round(/*warmup=*/false);
  }
  out.inputs["timed_cycles"] = rounds;
  out.Check(out.failed == 0, "every submit admitted");
  out.Check(merged > 0, "shared SELECT types reached the facade merge path");

  // Wall-clock rates: in the per-layer table of a traced run, and in the
  // run record of an untraced one.
  out.per_layer["submit_qps"] = {growth.MedianRate(), "1/s"};
  out.per_layer["churn_ops_per_s"] = {churn.MedianRate(), "1/s"};

  if (options.trace) {
    const auto layer = [&](const char* name, double v, const char* unit) {
      out.per_layer[name] = {v, unit};
    };
    layer("pipeline.submit_us_p50", Quantile(submit_us, 0.5), "us");
    layer("pipeline.submit_us_p99", Quantile(submit_us, 0.99), "us");
    layer("pipeline.cancel_us_p50", Quantile(cancel_us, 0.5), "us");
    layer("pipeline.cancel_us_p99", Quantile(cancel_us, 0.99), "us");
    // Counts are per timed cycle (one fresh phone's grow, churn and
    // cancel-all), so they do not grow with the run's speed.
    const auto cycles = static_cast<double>(rounds);
    layer("pipeline.providers_created",
          static_cast<double>(providers_created) / cycles, "1/cycle");
    layer("pipeline.merged", static_cast<double>(merged) / cycles,
          "1/cycle");
    layer("obs.open_spans_peak", static_cast<double>(open_spans_peak),
          "count");
    layer("trace.overhead_pct",
          (growth.OverheadPct() + churn.OverheadPct()) / 2.0, "%");
    layer("obs.submit_overhead_us", ObsSubmitOverheadUs(options, sizes, out),
          "us");
  }
  return out;
}

}  // namespace perfbench
