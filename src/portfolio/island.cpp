#include "portfolio/island.hpp"

#include <string>

#include "util/check.hpp"

namespace absq::portfolio {

GaConfig diversified_ga(const GaConfig& base, std::uint32_t island) {
  // Island 0 runs the configured operators verbatim; islands 1..3 (mod 4)
  // rotate through regimes that differ in where they spend their breeding
  // budget. The schedule is a pure function of the island id, so restarts
  // and resumes reproduce it.
  GaConfig ga = base;
  switch (island % 4) {
    case 0:
      break;
    case 1:  // crossover-heavy exploiter: recombine the elite aggressively
      ga.crossover_prob = 0.8;
      ga.mutation_rate = 0.01;
      ga.selection_bias = 3.0;
      ga.random_prob = 0.01;
      break;
    case 2:  // mutation-heavy: larger jumps from mid-rank parents
      ga.crossover_prob = 0.3;
      ga.mutation_rate = 0.05;
      ga.selection_bias = 1.5;
      break;
    case 3:  // explorer: flat selection, frequent random reseeds
      ga.crossover_prob = 0.5;
      ga.mutation_rate = 0.08;
      ga.selection_bias = 1.0;
      ga.random_prob = 0.10;
      break;
  }
  return ga;
}

IslandSet::IslandSet(const Config& config) : config_(config) {
  ABSQ_CHECK(config.islands >= 1, "need at least one island");
  ABSQ_CHECK(config.pool_capacity >= 1, "island pools need capacity");
  // Island 0 draws from the root stream itself, so a one-island set
  // replays the classic single-pool ABS stream exactly; the other islands
  // get independent splits.
  const Rng root(config.seed);
  islands_.reserve(config.islands);
  for (std::uint32_t i = 0; i < config.islands; ++i) {
    islands_.emplace_back(config.pool_capacity, diversified_ga(config.ga, i),
                          i == 0 ? root : root.split(i));
  }
  if (obs::MetricsRegistry* registry = config.telemetry.metrics;
      registry != nullptr) {
    for (std::uint32_t i = 0; i < config.islands; ++i) {
      const obs::Labels labels =
          config.telemetry.with({{"island", std::to_string(i)}});
      islands_[i].m_best =
          &registry->gauge("absq_island_best_energy", labels);
      islands_[i].m_migrations_in =
          &registry->counter("absq_island_migrations_total", labels);
    }
  }
}

void IslandSet::initialize_random(BitIndex n) {
  for (Island& island : islands_) {
    island.pool.initialize_random(n, island.rng);
    island.inserts = 0;
  }
  rounds_ = 0;
  migrations_ = 0;
  migration_events_ = 0;
  migration_log_.clear();
}

bool IslandSet::insert(std::uint32_t island, const BitVector& bits,
                       Energy energy) {
  Island& target = islands_[island];
  const bool inserted = target.pool.insert(bits, energy);
  if (inserted) ++target.inserts;
  return inserted;
}

BitVector IslandSet::breed(std::uint32_t island) {
  Island& source = islands_[island];
  return generate_target(source.pool, source.ga, source.rng);
}

const BitVector& IslandSet::random_member(std::uint32_t island) {
  Island& source = islands_[island];
  ABSQ_CHECK(!source.pool.empty(), "island pool is empty");
  return source.pool.entry(source.rng.below(source.pool.size())).bits;
}

std::size_t IslandSet::note_round() {
  ++rounds_;
  if (islands_.size() < 2 || config_.migration_interval == 0) return 0;
  if (rounds_ % config_.migration_interval != 0) return 0;
  const std::uint64_t before = migrations_;
  migrate();
  ++migration_events_;
  return migrations_ - before;
}

void IslandSet::migrate() {
  // Ring topology: i → (i+1) % N. The sources are snapshotted first so a
  // multi-hop cascade (i's elite landing in i+1 and then moving on to
  // i+2 in the same sweep) cannot happen — one hop per migration, which
  // keeps diversity decay gradual and the schedule order-independent.
  const std::uint32_t n = count();
  std::vector<std::vector<SolutionPool::Entry>> elites(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const SolutionPool& pool = islands_[i].pool;
    for (std::size_t rank = 0;
         rank < pool.size() && elites[i].size() < kMigrationElites;
         ++rank) {
      const SolutionPool::Entry& entry = pool.entry(rank);
      if (entry.energy == kUnevaluated) break;  // sorted: rest unevaluated
      elites[i].push_back(entry);
    }
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t to = (i + 1) % n;
    for (const SolutionPool::Entry& elite : elites[i]) {
      const bool inserted =
          islands_[to].pool.insert(elite.bits, elite.energy);
      ++migrations_;
      obs::add(islands_[to].m_migrations_in);
      migration_log_.push_back(
          {rounds_, i, to, elite.energy, inserted});
      if (obs::EventTracer* tracer = config_.telemetry.tracer;
          tracer != nullptr) {
        tracer->instant("migration", "host", config_.telemetry.pid_base,
                        /*tid=*/i, "energy", elite.energy);
      }
    }
  }
}

Energy IslandSet::best_energy() const {
  Energy best = kUnevaluated;
  for (const Island& island : islands_) {
    const Energy energy = island.pool.best_energy();
    if (energy != kUnevaluated && (best == kUnevaluated || energy < best)) {
      best = energy;
    }
  }
  return best;
}

std::uint32_t IslandSet::best_island() const {
  std::uint32_t best = 0;
  Energy best_energy_seen = kUnevaluated;
  for (std::uint32_t i = 0; i < count(); ++i) {
    const Energy energy = islands_[i].pool.best_energy();
    if (energy != kUnevaluated &&
        (best_energy_seen == kUnevaluated || energy < best_energy_seen)) {
      best_energy_seen = energy;
      best = i;
    }
  }
  return best;
}

const SolutionPool::Entry& IslandSet::best() const {
  const std::uint32_t island = best_island();
  ABSQ_CHECK(!islands_[island].pool.empty(), "all island pools are empty");
  return islands_[island].pool.best();
}

std::size_t IslandSet::evaluated_count() const {
  std::size_t total = 0;
  for (const Island& island : islands_) {
    total += island.pool.evaluated_count();
  }
  return total;
}

void IslandSet::sync_metrics() {
  for (Island& island : islands_) {
    if (island.m_best == nullptr) continue;
    const Energy energy = island.pool.best_energy();
    if (energy != kUnevaluated) {
      island.m_best->set(static_cast<double>(energy));
    }
  }
}

}  // namespace absq::portfolio
