#include "qubo/kernel.hpp"

#include <cstdio>
#include <sstream>

#include "util/check.hpp"

namespace absq {

const char* to_string(KernelForm form) {
  switch (form) {
    case KernelForm::kDenseScalar:
      return "dense";
    case KernelForm::kDenseSimd:
      return "dense-simd";
    case KernelForm::kSparse:
      return "sparse";
  }
  return "?";
}

KernelOptions::Form parse_kernel_form(const std::string& name) {
  if (name == "auto") return KernelOptions::Form::kAuto;
  if (name == "dense") return KernelOptions::Form::kDense;
  if (name == "dense-simd") return KernelOptions::Form::kDenseSimd;
  if (name == "sparse") return KernelOptions::Form::kSparse;
  ABSQ_CHECK(false, "unknown kernel form '"
                        << name << "' (expected auto|dense|dense-simd|sparse)");
  return KernelOptions::Form::kAuto;  // unreachable
}

QuboKernel::QuboKernel(const WeightMatrix& w, const KernelOptions& options)
    : w_(&w) {
  const BitIndex n = w.size();
  // One O(n²) pass counts the nonzeros kAuto's density rule reads.
  for (BitIndex k = 0; k < n; ++k) {
    const auto row = w.row(k);
    for (BitIndex i = 0; i < n; ++i) {
      if (row[i] != 0) ++nonzeros_;
    }
  }

  switch (options.form) {
    case KernelOptions::Form::kDense:
      form_ = KernelForm::kDenseScalar;
      break;
    case KernelOptions::Form::kDenseSimd:
      form_ = KernelForm::kDenseSimd;
      break;
    case KernelOptions::Form::kSparse:
      form_ = KernelForm::kSparse;
      break;
    case KernelOptions::Form::kAuto:
      form_ = (n >= kSparseMinBits && density() <= kSparseDensityThreshold)
                  ? KernelForm::kSparse
                  : KernelForm::kDenseSimd;
      break;
  }
  if (form_ == KernelForm::kSparse) {
    sparse_ = std::make_shared<const SparseWeightMatrix>(w);
  }
}

double QuboKernel::density() const {
  const double n = static_cast<double>(w_->size());
  if (n == 0.0) return 0.0;
  return static_cast<double>(nonzeros_) / (n * n);
}

std::string QuboKernel::description() const {
  std::ostringstream os;
  os << to_string(form_) << "/32-bit";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", density() * 100.0);
  os << " (n=" << w_->size() << ", density " << buf << "%)";
  return os.str();
}

}  // namespace absq
