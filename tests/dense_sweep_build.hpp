// Fixture for suites that run once per dense sweep build
// (qubo/detail/dense_sweep.hpp). Each test forces its build through the
// test-only selector for its whole body, so every kernel planned and every
// state constructed inside it runs that build; a build this CPU lacks is
// skipped by name.
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "qubo/detail/dense_sweep.hpp"
#include "qubo/kernel.hpp"
#include "qubo/weight_matrix.hpp"

namespace absq {

class DenseSweepBuildTest : public ::testing::TestWithParam<detail::DenseIsa> {
 protected:
  void SetUp() override {
    const detail::DenseSweep* sweep = detail::supported_dense_sweep(GetParam());
    if (sweep == nullptr) {
      GTEST_SKIP() << detail::to_string(GetParam())
                   << " sweep: not built for, or not run by, this CPU";
    }
    force_.emplace(*sweep);
  }

  /// A dense-SIMD plan of `w` built now names the forced build.
  static void assert_forced(const WeightMatrix& w) {
    KernelOptions options;
    options.form = KernelOptions::Form::kDenseSimd;
    const std::string text = QuboKernel(w, options).description();
    ASSERT_NE(text.find(std::string("dense-simd/") +
                        detail::to_string(GetParam()) + "/"),
              std::string::npos)
        << text;
  }

 private:
  std::optional<detail::ForceDenseSweep> force_;
};

/// Names instances by build: Builds/…/avx512, /avx2, /portable.
inline std::string dense_isa_name(
    const ::testing::TestParamInfo<detail::DenseIsa>& p) {
  return detail::to_string(p.param);
}

}  // namespace absq
