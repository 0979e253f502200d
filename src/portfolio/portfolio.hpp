// PortfolioConfig — the Diverse-ABS knobs of AbsConfig.
//
// Three orthogonal extensions over the single-pool, single-algorithm ABS
// of the base paper (all off by default, which is classic ABS):
//
//   * islands:    N independently seeded solution pools with diversified
//                 GA operators, connected by periodic ring migration of
//                 elites (portfolio/island.hpp);
//   * algorithms: the per-block search portfolio (block_algorithm.hpp) —
//                 blocks are striped across the (island, algorithm) arms;
//   * controller: the adaptive bandit reallocating blocks toward the arms
//                 that are currently producing pool improvements
//                 (portfolio/controller.hpp).
//
// The solver does not branch on these knobs: every config runs the same
// island/controller host loop, and classic ABS is its one-island, one-arm
// (min-Δ) case — same RNG stream, same flip sequence as the single-pool
// protocol, pinned by the lockstep tests. `diverse()` only labels a config
// for reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "portfolio/block_algorithm.hpp"

namespace absq::portfolio {

struct PortfolioConfig {
  /// Number of island pools. 1 = the classic single pool.
  std::uint32_t islands = 1;
  /// Portfolio members; blocks are striped across islands × algorithms.
  /// Empty = {kMinDelta} (the classic portfolio).
  std::vector<BlockAlgorithmKind> algorithms;
  /// GA rounds between elite ring migrations. 0 = auto (64) when
  /// islands > 1; ignored with a single island. Island i breeds with
  /// diversified_ga(AbsConfig::ga, i), island 0 with the base verbatim.
  std::uint64_t migration_interval = 0;
  /// Enables the adaptive (island, algorithm) controller: per-arm
  /// improvement credit, blocks reallocated by credit-weighted softmax
  /// with an exploration floor (portfolio/controller.hpp).
  bool controller = false;
  /// GA rounds between controller reallocation passes.
  std::uint64_t realloc_interval = 16;

  /// Sets the members from their comma-separated spelling (see
  /// parse_portfolio) and applies the one rule for the controller, shared
  /// by absq_solve's --portfolio and a submitted job's "portfolio": it
  /// runs if and only if there is more than one member.
  void set_members(const std::string& spelling) {
    algorithms = parse_portfolio(spelling);
    controller = algorithms.size() > 1;
  }

  /// The algorithm list with the empty-means-classic default applied.
  [[nodiscard]] std::vector<BlockAlgorithmKind> algorithm_list() const {
    if (algorithms.empty()) return {BlockAlgorithmKind::kMinDelta};
    return algorithms;
  }

  /// The resolved migration cadence (auto default applied).
  [[nodiscard]] std::uint64_t effective_migration_interval() const {
    return migration_interval != 0 ? migration_interval : 64;
  }

  /// True when anything departs from classic single-pool min-Δ ABS.
  [[nodiscard]] bool diverse() const {
    if (islands > 1 || controller) return true;
    const auto list = algorithm_list();
    return list.size() != 1 || list[0] != BlockAlgorithmKind::kMinDelta;
  }
};

}  // namespace absq::portfolio
