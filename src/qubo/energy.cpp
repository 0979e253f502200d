#include "qubo/energy.hpp"

#include "util/check.hpp"

namespace absq {

namespace {

// Σ_{j≠k, x_j=1} W_kj and W_kk over the stored entries of CSR row k.
struct RowSums {
  Energy off_diagonal = 0;
  Energy diagonal = 0;
};

RowSums csr_row_sums(const SparseWeightMatrix& csr, const BitVector& x,
                     BitIndex k) {
  RowSums sums;
  const SparseWeightMatrix::Row row = csr.row(k);
  for (std::size_t p = 0; p < row.size(); ++p) {
    const BitIndex j = row.cols[p];
    if (j == k) {
      sums.diagonal = row.weights[p];
    } else if (x.get(j) != 0) {
      sums.off_diagonal += row.weights[p];
    }
  }
  return sums;
}

}  // namespace

Energy full_energy(const WeightMatrix& w, const BitVector& x) {
  ABSQ_CHECK(w.size() == x.size(), "matrix is " << w.size() << "-bit, vector "
                                                << x.size() << "-bit");
  // Only rows of set bits contribute; within such a row only set columns do.
  Energy total = 0;
  const auto set_bits = x.ones();
  if (const SparseWeightMatrix* csr = w.csr(); csr != nullptr) {
    for (const BitIndex i : set_bits) {
      const SparseWeightMatrix::Row row = csr->row(i);
      Energy row_sum = 0;
      for (std::size_t p = 0; p < row.size(); ++p) {
        if (x.get(row.cols[p]) != 0) row_sum += row.weights[p];
      }
      total += row_sum;
    }
    return total;
  }
  for (const BitIndex i : set_bits) {
    const auto row = w.row(i);
    Energy row_sum = 0;
    for (const BitIndex j : set_bits) row_sum += row[j];
    total += row_sum;
  }
  return total;
}

Energy delta_k(const WeightMatrix& w, const BitVector& x, BitIndex k) {
  ABSQ_CHECK(w.size() == x.size(), "matrix/vector size mismatch");
  ABSQ_CHECK(k < x.size(), "bit index " << k << " out of range");
  if (const SparseWeightMatrix* csr = w.csr(); csr != nullptr) {
    const RowSums sums = csr_row_sums(*csr, x, k);
    return phi(x.get(k)) * (2 * sums.off_diagonal + sums.diagonal);
  }
  const auto row = w.row(k);
  Energy sum = 0;
  for (const BitIndex j : x.ones()) {
    if (j != k) sum += row[j];
  }
  return phi(x.get(k)) * (2 * sum + row[k]);
}

std::vector<Energy> all_deltas(const WeightMatrix& w, const BitVector& x) {
  ABSQ_CHECK(w.size() == x.size(), "matrix/vector size mismatch");
  const BitIndex n = x.size();
  std::vector<Energy> deltas(n);
  if (const SparseWeightMatrix* csr = w.csr(); csr != nullptr) {
    for (BitIndex k = 0; k < n; ++k) {
      const RowSums sums = csr_row_sums(*csr, x, k);
      deltas[k] = phi(x.get(k)) * (2 * sums.off_diagonal + sums.diagonal);
    }
    return deltas;
  }
  // Shared inner sum: for each k, Σ_{j≠k, x_j=1} W_kj. Computing the ones()
  // list once keeps this O(n·popcount) instead of O(n²) bit reads.
  const auto set_bits = x.ones();
  for (BitIndex k = 0; k < n; ++k) {
    const auto row = w.row(k);
    Energy sum = 0;
    for (const BitIndex j : set_bits) {
      if (j != k) sum += row[j];
    }
    deltas[k] = phi(x.get(k)) * (2 * sum + row[k]);
  }
  return deltas;
}

}  // namespace absq
