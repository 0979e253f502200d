#include "qubo/kernel.hpp"

#include <cstdio>
#include <sstream>

#include "qubo/detail/dense_sweep.hpp"
#include "util/check.hpp"

namespace absq {

const char* to_string(KernelForm form) {
  switch (form) {
    case KernelForm::kDenseSimd:
      return "dense-simd";
    case KernelForm::kSparse:
      return "sparse";
  }
  return "?";
}

KernelOptions::Form parse_kernel_form(const std::string& name) {
  if (name == "auto") return KernelOptions::Form::kAuto;
  if (name == "dense-simd") return KernelOptions::Form::kDenseSimd;
  if (name == "sparse") return KernelOptions::Form::kSparse;
  ABSQ_CHECK(false, "unknown kernel form '"
                        << name << "' (expected auto|dense-simd|sparse)");
  return KernelOptions::Form::kAuto;  // unreachable
}

QuboKernel::QuboKernel(const WeightMatrix& w, const KernelOptions& options)
    : w_(&w), sweep_(&detail::active_dense_sweep()) {
  switch (options.form) {
    case KernelOptions::Form::kDenseSimd:
      form_ = KernelForm::kDenseSimd;
      break;
    case KernelOptions::Form::kSparse:
      form_ = KernelForm::kSparse;
      break;
    case KernelOptions::Form::kAuto:
      form_ = w.csr() != nullptr ? KernelForm::kSparse : KernelForm::kDenseSimd;
      break;
  }
  if (form_ != KernelForm::kSparse) {
    dense_ = DenseRows(w);
  } else if (w.csr() != nullptr) {
    sparse_ = w.csr();
  } else {
    converted_ = std::make_shared<const SparseWeightMatrix>(w);
    sparse_ = converted_.get();
  }
}

std::string QuboKernel::description() const {
  std::ostringstream os;
  os << to_string(form_);
  if (form_ == KernelForm::kDenseSimd) os << '/' << sweep_->name;
  os << "/32-bit";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", density() * 100.0);
  os << " (n=" << w_->size() << ", density " << buf << "%)";
  return os.str();
}

}  // namespace absq
