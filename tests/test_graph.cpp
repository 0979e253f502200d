#include "problems/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "util/check.hpp"

namespace absq {
namespace {

TEST(WeightedGraph, AddEdgeValidation) {
  WeightedGraph graph(4);
  graph.add_edge(0, 3, 2);
  EXPECT_EQ(graph.edge_count(), 1u);
  EXPECT_THROW(graph.add_edge(0, 4, 1), CheckError);
  EXPECT_THROW(graph.add_edge(2, 2, 1), CheckError);
}

TEST(WeightedGraph, WeightedDegrees) {
  WeightedGraph graph(3);
  graph.add_edge(0, 1, 2);
  graph.add_edge(0, 2, -1);
  const auto degrees = graph.weighted_degrees();
  EXPECT_EQ(degrees[0], 1);
  EXPECT_EQ(degrees[1], 2);
  EXPECT_EQ(degrees[2], -1);
  EXPECT_EQ(graph.total_abs_weight(), 3);
}

TEST(RandomGnm, ExactEdgeCountNoDuplicatesNoLoops) {
  Rng rng(1);
  const WeightedGraph graph =
      random_gnm_graph(50, 200, EdgeWeights::kUnit, rng);
  EXPECT_EQ(graph.vertex_count(), 50u);
  EXPECT_EQ(graph.edge_count(), 200u);
  std::set<std::pair<BitIndex, BitIndex>> seen;
  for (const auto& e : graph.edges()) {
    EXPECT_NE(e.u, e.v);
    EXPECT_EQ(e.weight, 1);
    const auto key = std::minmax(e.u, e.v);
    EXPECT_TRUE(seen.insert(key).second) << "duplicate edge";
  }
}

TEST(RandomGnm, PlusMinusWeightsAreBalanced) {
  Rng rng(2);
  const WeightedGraph graph =
      random_gnm_graph(100, 2000, EdgeWeights::kPlusMinusOne, rng);
  int plus = 0;
  for (const auto& e : graph.edges()) {
    ASSERT_TRUE(e.weight == 1 || e.weight == -1);
    plus += (e.weight == 1) ? 1 : 0;
  }
  EXPECT_GT(plus, 800);
  EXPECT_LT(plus, 1200);
}

TEST(RandomGnm, RejectsImpossibleEdgeCounts) {
  Rng rng(3);
  EXPECT_THROW((void)random_gnm_graph(4, 7, EdgeWeights::kUnit, rng),
               CheckError);
  EXPECT_NO_THROW((void)random_gnm_graph(4, 6, EdgeWeights::kUnit, rng));
}

TEST(RandomGnm, DeterministicPerRngSeed) {
  Rng rng_a(7);
  Rng rng_b(7);
  const WeightedGraph a = random_gnm_graph(30, 100, EdgeWeights::kUnit, rng_a);
  const WeightedGraph b = random_gnm_graph(30, 100, EdgeWeights::kUnit, rng_b);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (std::size_t i = 0; i < a.edge_count(); ++i) {
    EXPECT_EQ(a.edges()[i].u, b.edges()[i].u);
    EXPECT_EQ(a.edges()[i].v, b.edges()[i].v);
  }
}

TEST(ToroidalGrid, DegreeFourEverywhere) {
  Rng rng(4);
  const WeightedGraph graph = toroidal_grid_graph(6, 8, EdgeWeights::kUnit, rng);
  EXPECT_EQ(graph.vertex_count(), 48u);
  EXPECT_EQ(graph.edge_count(), 2u * 48u);  // right + down per vertex
  std::vector<int> degree(48, 0);
  for (const auto& e : graph.edges()) {
    ++degree[e.u];
    ++degree[e.v];
  }
  for (const int d : degree) EXPECT_EQ(d, 4);
}

TEST(ToroidalNeighborhood, HitsExactEdgeTarget) {
  Rng rng(5);
  const WeightedGraph graph =
      toroidal_neighborhood_graph(20, 25, 2900, EdgeWeights::kUnit, rng);
  EXPECT_EQ(graph.vertex_count(), 500u);
  EXPECT_EQ(graph.edge_count(), 2900u);
}

TEST(ToroidalNeighborhood, G35ShapeParameters) {
  // The stand-in for G35/G39: 2000 vertices (40×50), 11778 edges.
  Rng rng(6);
  const WeightedGraph graph = toroidal_neighborhood_graph(
      40, 50, 11778, EdgeWeights::kPlusMinusOne, rng);
  EXPECT_EQ(graph.vertex_count(), 2000u);
  EXPECT_EQ(graph.edge_count(), 11778u);
  // Locality: maximum degree stays bounded (≤ 2 × rings).
  std::vector<int> degree(2000, 0);
  for (const auto& e : graph.edges()) {
    ++degree[e.u];
    ++degree[e.v];
  }
  for (const int d : degree) EXPECT_LE(d, 12);
}

TEST(ToroidalNeighborhood, RejectsUnreachableDensity) {
  Rng rng(7);
  EXPECT_THROW((void)toroidal_neighborhood_graph(10, 10, 10000,
                                                 EdgeWeights::kUnit, rng),
               CheckError);
  EXPECT_THROW(
      (void)toroidal_neighborhood_graph(10, 10, 100, EdgeWeights::kUnit, rng),
      CheckError);
}

TEST(GsetFormat, RoundTrip) {
  Rng rng(8);
  const WeightedGraph original =
      random_gnm_graph(20, 50, EdgeWeights::kPlusMinusOne, rng);
  std::stringstream buffer;
  write_gset(buffer, original);
  const WeightedGraph loaded = read_gset(buffer);
  EXPECT_EQ(loaded.vertex_count(), original.vertex_count());
  ASSERT_EQ(loaded.edge_count(), original.edge_count());
  for (std::size_t i = 0; i < original.edge_count(); ++i) {
    EXPECT_EQ(loaded.edges()[i].u, original.edges()[i].u);
    EXPECT_EQ(loaded.edges()[i].v, original.edges()[i].v);
    EXPECT_EQ(loaded.edges()[i].weight, original.edges()[i].weight);
  }
}

TEST(GsetFormat, ParsesOneIndexedVertices) {
  std::istringstream in("3 2\n1 2 1\n2 3 -1\n");
  const WeightedGraph graph = read_gset(in);
  EXPECT_EQ(graph.vertex_count(), 3u);
  EXPECT_EQ(graph.edges()[0].u, 0u);
  EXPECT_EQ(graph.edges()[0].v, 1u);
  EXPECT_EQ(graph.edges()[1].weight, -1);
}

TEST(GsetFormat, TruncatedFileThrows) {
  std::istringstream in("3 2\n1 2 1\n");
  EXPECT_THROW((void)read_gset(in), CheckError);
}

TEST(GsetFormat, OutOfRangeVertexThrows) {
  std::istringstream in("3 1\n1 4 1\n");
  EXPECT_THROW((void)read_gset(in), CheckError);
}

TEST(GsetFormat, OutOfIntWeightThrows) {
  // Regression: weights were read as long long and narrowed to int, so
  // 4294967297 (2³² + 1) was accepted as weight 1.
  for (const char* text : {"3 1\n1 2 4294967297\n", "3 1\n1 2 -2147483649\n",
                           "3 2\n1 2 1\n2 3 2147483648\n"}) {
    std::istringstream in(text);
    try {
      (void)read_gset(in);
      FAIL() << "accepted " << text;
    } catch (const CheckError& error) {
      EXPECT_NE(std::string(error.what()).find("outside int at edge"),
                std::string::npos)
          << error.what();
    }
  }
  std::istringstream extremes("3 2\n1 2 2147483647\n2 3 -2147483648\n");
  const WeightedGraph graph = read_gset(extremes);
  EXPECT_EQ(graph.edges()[0].weight, 2147483647);
  EXPECT_EQ(graph.edges()[1].weight, -2147483648);
}

TEST(GsetFormat, PlusSignsTabsAndCrlfAreAccepted) {
  // A whitespace token stream: any whitespace separates numbers.
  std::istringstream in("+3\t+2\r\n1\t2\t+1\r\n2 3\n-1\r\n");
  const WeightedGraph graph = read_gset(in);
  ASSERT_EQ(graph.edge_count(), 2u);
  EXPECT_EQ(graph.edges()[0].weight, 1);
  EXPECT_EQ(graph.edges()[1].v, 2u);
  EXPECT_EQ(graph.edges()[1].weight, -1);
  std::istringstream double_sign("3 1\n1 2 +-1\n");
  EXPECT_THROW((void)read_gset(double_sign), CheckError);
}

TEST(GsetFormat, MissingHeaderThrows) {
  std::istringstream in("");
  EXPECT_THROW((void)read_gset(in), CheckError);
}

}  // namespace
}  // namespace absq
