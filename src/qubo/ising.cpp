#include "qubo/ising.hpp"

#include "util/check.hpp"

namespace absq {

IsingModel::IsingModel(BitIndex n)
    : n_(n),
      j_(n >= 2 ? static_cast<std::size_t>(n) * (n - 1) / 2 : 0, 0),
      h_(n, 0) {
  ABSQ_CHECK(n >= 1 && n <= kMaxBits, "Ising model size out of range");
}

std::size_t IsingModel::pair_index(BitIndex i, BitIndex j) const {
  ABSQ_DCHECK(i != j, "couplings are defined for distinct spins");
  if (i > j) std::swap(i, j);
  // Row-wise packed upper triangle.
  const auto si = static_cast<std::size_t>(i);
  const auto sj = static_cast<std::size_t>(j);
  return si * n_ - si * (si + 1) / 2 + (sj - si - 1);
}

std::int64_t IsingModel::coupling(BitIndex i, BitIndex j) const {
  ABSQ_CHECK(i < n_ && j < n_ && i != j, "bad coupling index");
  return j_[pair_index(i, j)];
}

void IsingModel::set_coupling(BitIndex i, BitIndex j, std::int64_t value) {
  ABSQ_CHECK(i < n_ && j < n_ && i != j, "bad coupling index");
  j_[pair_index(i, j)] = value;
}

std::int64_t IsingModel::hamiltonian(const SpinVector& s) const {
  ABSQ_CHECK(s.size() == n_, "spin vector size mismatch");
  for (const int spin : s) {
    ABSQ_CHECK(spin == 1 || spin == -1, "spins must be ±1, got " << spin);
  }
  std::int64_t total = offset_;
  for (BitIndex i = 0; i < n_; ++i) {
    for (BitIndex j = i + 1; j < n_; ++j) {
      total -= j_[pair_index(i, j)] * s[i] * s[j];
    }
    total -= h_[i] * s[i];
  }
  return total;
}

IsingModel IsingModel::from_qubo(const WeightMatrix& w) {
  // Substituting x = (s + 1)/2 into E(X) and multiplying by 4:
  //   4E = Σ_{i<j} 2W_ij s_i s_j + Σ_i (2W_ii + 2Σ_{j≠i} W_ij) s_i + C
  // so J_ij = −2W_ij, h_i = −2W_ii − 2Σ_{j≠i} W_ij, offset = C, giving
  // H(S) = 4·E(X) exactly. C = Σ_i 2W_ii + Σ_{i<j} 2W_ij. Every term is
  // read off a stored upper-triangle entry; an off-diagonal W_ij enters the
  // row sums of both i and j.
  IsingModel m(w.size());
  std::int64_t offset = 0;
  w.for_each_upper([&m, &offset](BitIndex i, BitIndex j, Weight weight) {
    const auto v = static_cast<std::int64_t>(weight);
    m.h_[i] -= 2 * v;
    offset += 2 * v;
    if (i != j) {
      m.h_[j] -= 2 * v;
      m.j_[m.pair_index(i, j)] = -2 * v;
    }
  });
  m.offset_ = offset;
  m.scale_ = 4;
  return m;
}

WeightMatrix IsingModel::to_qubo(std::int64_t* offset_out) const {
  // Substituting s = 2x − 1 into H(S):
  //   H = Σ_{i<j} (−4J_ij) x_i x_j + Σ_i (2Σ_{j≠i} J_ij − 2h_i) x_i + C,
  //   C = offset − Σ_{i<j} J_ij + Σ_i h_i.
  WeightMatrixBuilder builder(n_);
  std::int64_t constant = offset_;
  for (BitIndex i = 0; i < n_; ++i) {
    std::int64_t j_row_sum = 0;
    for (BitIndex j = 0; j < n_; ++j) {
      if (j == i) continue;
      j_row_sum += j_[pair_index(i, j)];
    }
    builder.add_linear(i, 2 * j_row_sum - 2 * h_[i]);
    constant += h_[i];
    for (BitIndex j = i + 1; j < n_; ++j) {
      const std::int64_t coupling_ij = j_[pair_index(i, j)];
      builder.add(i, j, -4 * coupling_ij);
      constant -= coupling_ij;
    }
  }
  if (offset_out != nullptr) *offset_out = constant;
  return builder.build();
}

SpinVector IsingModel::spins_from_bits(const BitVector& x) {
  SpinVector s(x.size());
  for (BitIndex i = 0; i < x.size(); ++i) s[i] = 2 * x.get(i) - 1;
  return s;
}

BitVector IsingModel::bits_from_spins(const SpinVector& s) {
  BitVector x(static_cast<BitIndex>(s.size()));
  for (std::size_t i = 0; i < s.size(); ++i) {
    ABSQ_CHECK(s[i] == 1 || s[i] == -1, "spins must be ±1");
    if (s[i] == 1) x.set(static_cast<BitIndex>(i), true);
  }
  return x;
}

}  // namespace absq
