// Extensibility demo: the paper's Section 5 suggests blocks that "perform
// different algorithms" — this example plugs a custom SelectionPolicy into
// the proposed O(1)-efficiency local search and races it against the
// built-in policies on the same instance.
//
//   ./examples/custom_policy [--bits 256] [--steps 20000]
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <vector>

#include "search/algorithms.hpp"
#include "problems/random.hpp"
#include "util/cli.hpp"

namespace {

/// A softmax-ish stochastic policy: flips a uniformly random bit from the
/// best `k` candidates of a rotating window — a randomized middle ground
/// between the paper's deterministic window policy and pure random flips.
class NoisyWindowPolicy final : public absq::SelectionPolicy {
 public:
  NoisyWindowPolicy(absq::BitIndex window, absq::BitIndex top_k)
      : window_(window), top_k_(top_k) {}

  absq::BitIndex select(const absq::DeltaState& state,
                        absq::Rng& rng) override {
    const absq::BitIndex n = state.size();
    const absq::BitIndex len = window_ < n ? window_ : n;
    // Collect the window, then partially select the best top_k by Δ.
    candidates_.clear();
    for (absq::BitIndex step = 0; step < len; ++step) {
      candidates_.push_back((offset_ + step) % n);
    }
    offset_ = (offset_ + len) % n;
    const auto by_delta = [&state](absq::BitIndex a, absq::BitIndex b) {
      return state.delta(a) < state.delta(b);
    };
    const absq::BitIndex k = top_k_ < len ? top_k_ : len;
    std::partial_sort(candidates_.begin(), candidates_.begin() + k,
                      candidates_.end(), by_delta);
    return candidates_[rng.below(k)];
  }

  void reset() override { offset_ = 0; }

 private:
  absq::BitIndex window_;
  absq::BitIndex top_k_;
  absq::BitIndex offset_ = 0;
  std::vector<absq::BitIndex> candidates_;
};

}  // namespace

int main(int argc, char** argv) {
  absq::CliParser cli("custom_policy — plug your own bit-selection policy "
                      "into the O(1)-efficiency search");
  cli.add_flag("bits", std::int64_t{256}, "problem size");
  cli.add_flag("steps", std::int64_t{20000}, "forced flips per policy");
  cli.add_flag("seed", std::int64_t{3}, "seed");
  if (!cli.parse(argc, argv)) return 0;

  const auto n = static_cast<absq::BitIndex>(cli.get_int("bits"));
  const auto steps = static_cast<std::uint64_t>(cli.get_int("steps"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const absq::WeightMatrix w = absq::random_qubo(n, seed);

  struct Entry {
    const char* name;
    std::unique_ptr<absq::SelectionPolicy> policy;
  };
  Entry entries[] = {
      {"window l=16 (paper)", std::make_unique<absq::WindowMinDeltaPolicy>(16)},
      {"greedy l=n", std::make_unique<absq::WindowMinDeltaPolicy>(n)},
      {"random l=1", std::make_unique<absq::RandomBitPolicy>()},
      {"noisy window (custom)", std::make_unique<NoisyWindowPolicy>(32, 4)},
  };

  std::printf("%-24s %14s %12s\n", "policy", "best energy", "efficiency");
  for (auto& entry : entries) {
    absq::Rng rng(seed);
    absq::ProposedSearchOptions opts;
    opts.steps = steps;
    opts.policy = entry.policy.get();
    const auto outcome = absq::proposed_local_search(
        w, absq::BitVector::random(n, rng), opts, rng);
    std::printf("%-24s %14" PRId64 " %12.3f\n", entry.name,
                outcome.best_energy, outcome.stats.efficiency());
  }
  std::printf("\nefficiency = matrix reads per evaluated solution — the "
              "O(1) guarantee holds for every policy.\n");
  return 0;
}
