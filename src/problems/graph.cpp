#include "problems/graph.hpp"

#include <fstream>
#include <limits>
#include <string>
#include <unordered_set>

#include "util/check.hpp"
#include "util/text_scan.hpp"

namespace absq {

void WeightedGraph::add_edge(BitIndex u, BitIndex v, int weight) {
  ABSQ_CHECK(u < n_ && v < n_, "edge (" << u << ", " << v
                                        << ") outside graph of " << n_
                                        << " vertices");
  ABSQ_CHECK(u != v, "self loops are not allowed");
  edges_.push_back(Edge{u, v, weight});
}

std::int64_t WeightedGraph::total_abs_weight() const {
  std::int64_t total = 0;
  for (const auto& e : edges_) total += std::abs(static_cast<std::int64_t>(e.weight));
  return total;
}

std::vector<std::int64_t> WeightedGraph::weighted_degrees() const {
  std::vector<std::int64_t> degrees(n_, 0);
  for (const auto& e : edges_) {
    degrees[e.u] += e.weight;
    degrees[e.v] += e.weight;
  }
  return degrees;
}

namespace {

int draw_weight(EdgeWeights weights, Rng& rng) {
  switch (weights) {
    case EdgeWeights::kUnit:
      return 1;
    case EdgeWeights::kPlusMinusOne:
      return rng.chance(0.5) ? 1 : -1;
  }
  return 1;
}

}  // namespace

WeightedGraph random_gnm_graph(BitIndex n, std::size_t m, EdgeWeights weights,
                               Rng& rng) {
  ABSQ_CHECK(n >= 2, "need at least two vertices");
  const std::size_t max_edges =
      static_cast<std::size_t>(n) * (n - 1) / 2;
  ABSQ_CHECK(m <= max_edges, "requested " << m << " edges but K_" << n
                                          << " has only " << max_edges);
  WeightedGraph graph(n);
  std::unordered_set<std::uint64_t> used;
  used.reserve(m * 2);
  while (used.size() < m) {
    auto u = static_cast<BitIndex>(rng.below(n));
    auto v = static_cast<BitIndex>(rng.below(n));
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    const std::uint64_t key = (static_cast<std::uint64_t>(u) << 32) | v;
    if (!used.insert(key).second) continue;
    graph.add_edge(u, v, draw_weight(weights, rng));
  }
  return graph;
}

WeightedGraph toroidal_grid_graph(BitIndex rows, BitIndex cols,
                                  EdgeWeights weights, Rng& rng) {
  ABSQ_CHECK(rows >= 2 && cols >= 2, "grid needs at least 2×2 vertices");
  WeightedGraph graph(rows * cols);
  const auto id = [cols](BitIndex r, BitIndex c) { return r * cols + c; };
  for (BitIndex r = 0; r < rows; ++r) {
    for (BitIndex c = 0; c < cols; ++c) {
      // Right and down neighbours with wrap-around cover each edge once.
      graph.add_edge(id(r, c), id(r, (c + 1) % cols),
                     draw_weight(weights, rng));
      graph.add_edge(id(r, c), id((r + 1) % rows, c),
                     draw_weight(weights, rng));
    }
  }
  return graph;
}

WeightedGraph toroidal_neighborhood_graph(BitIndex rows, BitIndex cols,
                                          std::size_t target_edges,
                                          EdgeWeights weights, Rng& rng) {
  ABSQ_CHECK(rows >= 5 && cols >= 5,
             "neighbourhood grid needs at least 5×5 vertices");
  const std::size_t n = static_cast<std::size_t>(rows) * cols;
  ABSQ_CHECK(target_edges >= 2 * n,
             "target below the base grid's 2 edges per vertex");

  // Offset rings in growing-distance order; each adds one edge per vertex.
  static constexpr std::pair<int, int> kOffsets[] = {
      {0, 1}, {1, 0}, {1, 1}, {1, -1}, {0, 2}, {2, 0},
      {2, 1}, {1, 2}, {2, -1}, {1, -2}, {2, 2}, {2, -2},
  };
  std::size_t rings = 0;
  while (rings < std::size(kOffsets) && rings * n < target_edges) ++rings;
  ABSQ_CHECK(rings * n >= target_edges,
             "density beyond the supported neighbourhood (12 edges/vertex)");

  WeightedGraph graph(static_cast<BitIndex>(n));
  std::vector<Edge> edges;
  edges.reserve(rings * n);
  const auto id = [cols](BitIndex r, BitIndex c) { return r * cols + c; };
  for (BitIndex r = 0; r < rows; ++r) {
    for (BitIndex c = 0; c < cols; ++c) {
      for (std::size_t ring = 0; ring < rings; ++ring) {
        const auto [dr, dc] = kOffsets[ring];
        const BitIndex rr =
            (r + static_cast<BitIndex>(dr + static_cast<int>(rows))) % rows;
        const BitIndex cc =
            (c + static_cast<BitIndex>(dc + static_cast<int>(cols))) % cols;
        edges.push_back(Edge{id(r, c), id(rr, cc), draw_weight(weights, rng)});
      }
    }
  }
  // Uniformly discard the surplus.
  while (edges.size() > target_edges) {
    const std::size_t victim = rng.below(edges.size());
    edges[victim] = edges.back();
    edges.pop_back();
  }
  for (const auto& e : edges) graph.add_edge(e.u, e.v, e.weight);
  return graph;
}

void write_gset(std::ostream& out, const WeightedGraph& graph) {
  out << graph.vertex_count() << ' ' << graph.edge_count() << '\n';
  for (const auto& e : graph.edges()) {
    out << (e.u + 1) << ' ' << (e.v + 1) << ' ' << e.weight << '\n';
  }
}

WeightedGraph read_gset(std::istream& in) {
  // A whitespace token stream, not a line format: any run of whitespace,
  // newlines included, separates numbers.
  const std::string text = read_all(in);
  TextScanner tokens(text);
  long long n = 0;
  long long m = 0;
  ABSQ_CHECK(tokens.read_int(n) && tokens.read_int(m),
             "missing G-set 'n m' header");
  ABSQ_CHECK(n >= 2 && n <= static_cast<long long>(kMaxBits),
             "vertex count " << n << " out of range");
  ABSQ_CHECK(m >= 0, "negative edge count");
  WeightedGraph graph(static_cast<BitIndex>(n));
  for (long long edge = 0; edge < m; ++edge) {
    long long u = 0;
    long long v = 0;
    long long w = 0;
    ABSQ_CHECK(tokens.read_int(u) && tokens.read_int(v) && tokens.read_int(w),
               "G-set file truncated at edge " << edge << " of " << m);
    ABSQ_CHECK(u >= 1 && u <= n && v >= 1 && v <= n,
               "edge endpoint out of range at edge " << edge);
    ABSQ_CHECK(w >= std::numeric_limits<int>::min() &&
                   w <= std::numeric_limits<int>::max(),
               "edge weight " << w << " outside int at edge " << edge);
    graph.add_edge(static_cast<BitIndex>(u - 1), static_cast<BitIndex>(v - 1),
                   static_cast<int>(w));
  }
  return graph;
}

WeightedGraph read_gset_file(const std::string& path) {
  std::ifstream in(path);
  ABSQ_CHECK(in.good(), "cannot open '" << path << "'");
  return read_gset(in);
}

}  // namespace absq
