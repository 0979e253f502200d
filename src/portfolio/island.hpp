// IslandSet — the multi-pool layer of Diverse ABS.
//
// N independently seeded SolutionPools evolve side by side on the host;
// each island owns its own GA operator configuration (a deterministic
// per-island diversification of the base GaConfig) and its own RNG
// stream, so the islands explore genuinely different breeding regimes.
// Island 0 runs the base operators on the root stream, which makes a
// one-island set exactly the classic ABS pool.
// Every `migration_interval` GA rounds the islands exchange elites over a
// ring: island i copies its top kMigrationElites evaluated entries into
// island (i+1)%N.
//
// Everything here runs on the single host-loop thread — no locking. The
// migration schedule is a pure function of (seed, insert sequence), which
// the determinism test pins: identical runs produce identical migration
// logs regardless of how many device worker threads fed the inserts.
#pragma once

#include <cstdint>
#include <vector>

#include "ga/operators.hpp"
#include "ga/solution_pool.hpp"
#include "obs/telemetry.hpp"
#include "qubo/bit_vector.hpp"
#include "util/rng.hpp"

namespace absq::portfolio {

class IslandSet {
 public:
  /// Elites copied per island per migration.
  static constexpr std::size_t kMigrationElites = 2;

  struct Config {
    std::uint32_t islands = 2;
    /// Capacity of EACH island pool (m per island, matching the paper's
    /// one-pool-per-GPU sizing).
    std::size_t pool_capacity = 128;
    /// Base GA operators: island 0 runs these verbatim, island i the
    /// diversified_ga(ga, i) mix.
    GaConfig ga;
    /// GA rounds between ring migrations; 0 disables migration.
    std::uint64_t migration_interval = 64;
    std::uint64_t seed = 1;
    /// Optional sinks: per-island best-energy gauges and migration
    /// counters (labels {island="<i>"}).
    obs::Telemetry telemetry;
  };

  /// One elite transfer, recorded for the determinism tests and the JSONL
  /// report.
  struct MigrationEvent {
    std::uint64_t round = 0;  ///< GA round the migration fired on
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    Energy energy = 0;
    bool inserted = false;  ///< false = the destination already had it
  };

  explicit IslandSet(const Config& config);

  [[nodiscard]] std::uint32_t count() const {
    return static_cast<std::uint32_t>(islands_.size());
  }

  /// Fills every island pool with distinct random n-bit vectors, each
  /// island from its own stream — host Step 1.
  void initialize_random(BitIndex n);

  [[nodiscard]] const SolutionPool& pool(std::uint32_t island) const {
    return islands_[island].pool;
  }
  [[nodiscard]] const GaConfig& ga(std::uint32_t island) const {
    return islands_[island].ga;
  }

  /// Host Step 3 for one report routed to `island`. Returns true when the
  /// pool accepted it.
  bool insert(std::uint32_t island, const BitVector& bits, Energy energy);

  /// Host Step 4: breeds one target from `island`'s pool with its own
  /// operators and RNG stream. The island pool must be non-empty.
  [[nodiscard]] BitVector breed(std::uint32_t island);

  /// A uniformly random member of `island`'s pool (initial target
  /// stocking). The pool must be non-empty.
  [[nodiscard]] const BitVector& random_member(std::uint32_t island);

  /// Ticks the GA-round clock; runs a ring migration when the round lands
  /// on the configured cadence. Returns the entries migrated by this call
  /// (0 between migrations).
  std::size_t note_round();

  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }
  /// Total elites copied across all migrations (inserted or not).
  [[nodiscard]] std::uint64_t migrations() const { return migrations_; }
  /// Times the ring migration ran.
  [[nodiscard]] std::uint64_t migration_events() const {
    return migration_events_;
  }
  [[nodiscard]] const std::vector<MigrationEvent>& migration_log() const {
    return migration_log_;
  }
  [[nodiscard]] std::uint64_t inserts(std::uint32_t island) const {
    return islands_[island].inserts;
  }

  /// Best evaluated energy across all islands (kUnevaluated when none).
  [[nodiscard]] Energy best_energy() const;
  /// Island currently holding the best evaluated entry (0 when none is).
  [[nodiscard]] std::uint32_t best_island() const;
  /// The globally best entry; at least one island must be non-empty.
  [[nodiscard]] const SolutionPool::Entry& best() const;
  /// Evaluated entries across all islands.
  [[nodiscard]] std::size_t evaluated_count() const;

  /// Refreshes the per-island best-energy gauges (no-op without metrics).
  void sync_metrics();

 private:
  struct Island {
    SolutionPool pool;
    GaConfig ga;
    Rng rng;
    std::uint64_t inserts = 0;
    obs::Gauge* m_best = nullptr;
    obs::Counter* m_migrations_in = nullptr;

    Island(std::size_t capacity, const GaConfig& ga_config, Rng rng_stream)
        : pool(capacity), ga(ga_config), rng(rng_stream) {}
  };

  void migrate();

  Config config_;
  std::vector<Island> islands_;
  std::uint64_t rounds_ = 0;
  std::uint64_t migrations_ = 0;
  std::uint64_t migration_events_ = 0;
  std::vector<MigrationEvent> migration_log_;
};

/// The deterministic per-island GA diversification schedule (exposed for
/// tests and docs): island 0 = base, then a rotating set of crossover-
/// heavy / mutation-heavy / explorer operator mixes.
[[nodiscard]] GaConfig diversified_ga(const GaConfig& base,
                                      std::uint32_t island);

}  // namespace absq::portfolio
