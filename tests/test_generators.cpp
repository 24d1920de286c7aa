// Generator invariants: every family is simple, connected, respects its edge
// bound, and is deterministic under a fixed seed. Structural checks for the
// cactus (every edge on <= 1 cycle) and series-parallel (reducible to an
// edge) families. Graph::from_edges' count-and-scatter CSR is pinned to the
// global pair sort of oracles::graph_by_sort.
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "oracles.hpp"
#include "test_main.hpp"

using namespace mfd;
using mfd::bench::make_family;

namespace {

const std::vector<std::string> kFamilies = {
    "grid",  "path",   "cycle",  "tree",           "cactus",
    "planar", "planar-sparse", "outerplanar", "ktree3", "series-parallel"};

bool is_simple(const Graph& g) {
  for (int v = 0; v < g.n(); ++v) {
    int prev = -1;
    for (int w : g.neighbors(v)) {
      if (w == v || w == prev) return false;  // self-loop or parallel edge
      prev = w;
    }
  }
  return true;
}

// Every offset and adjacency entry of g against the sorted-pair CSR.
void same_csr(const Graph& g, const oracles::SortedCsr& o,
              const std::string& ctx) {
  CHECK_MSG(g.n() == o.n, ctx + ": n");
  CHECK_MSG(g.m() == o.m, ctx + ": m");
  if (g.n() != o.n) return;
  for (int v = 0; v < g.n(); ++v) {
    const auto nb = g.neighbors(v);
    const std::vector<int> row(nb.begin(), nb.end());
    const std::vector<int> want(o.adj.begin() + o.offset[v],
                                o.adj.begin() + o.offset[v + 1]);
    if (row != want) {
      CHECK_MSG(false, ctx + ": row " + std::to_string(v));
      return;
    }
  }
}

}  // namespace

TEST_CASE(families_connected_and_simple) {
  Rng rng(11);
  for (const auto& fam : kFamilies) {
    const Graph g = make_family(fam, 300, rng);
    CHECK_MSG(g.n() >= 300, fam);
    CHECK_MSG(is_connected(g), fam);
    CHECK_MSG(is_simple(g), fam);
  }
}

TEST_CASE(family_edge_bounds) {
  Rng rng(13);
  const int n = 400;
  CHECK(make_family("tree", n, rng).m() == n - 1);
  CHECK(make_family("path", n, rng).m() == n - 1);
  CHECK(make_family("cycle", n, rng).m() == n);
  {
    const Graph g = make_family("grid", n, rng);  // rounds n up to side^2
    const int side = 20;
    CHECK(g.n() == side * side);
    CHECK(g.m() == 2 * side * (side - 1));
  }
  CHECK(make_family("planar", n, rng).m() == 3 * n - 6);
  CHECK(make_family("planar-sparse", n, rng).m() ==
        std::min(3 * n - 6, 2 * n));
  CHECK(make_family("outerplanar", n, rng).m() == 2 * n - 3);
  CHECK(make_family("ktree3", n, rng).m() == 6 + 3 * (n - 4));
  CHECK(make_family("series-parallel", n, rng).m() <= 2 * n - 3);
  // Cactus: c cycles contribute c extra edges over a tree; every cycle has
  // >= 3 vertices, so m <= n - 1 + (n - 1) / 2.
  CHECK(make_family("cactus", n, rng).m() <= (3 * (n - 1)) / 2);
}

TEST_CASE(cactus_every_edge_on_at_most_one_cycle) {
  Rng rng(17);
  const Graph g = random_cactus(500, rng);
  // DFS; each back edge closes one cycle through tree edges. In a cactus no
  // tree edge is covered by two back-edge cycles.
  const int n = g.n();
  std::vector<int> parent(n, -2), depth(n, 0), cover(n, 0);
  std::vector<int> stack = {0};
  parent[0] = -1;
  std::vector<int> order;
  while (!stack.empty()) {
    const int u = stack.back();
    stack.pop_back();
    order.push_back(u);
    for (int w : g.neighbors(u)) {
      if (parent[w] == -2) {
        parent[w] = u;
        depth[w] = depth[u] + 1;
        stack.push_back(w);
      }
    }
  }
  for (int u = 0; u < n; ++u) {
    for (int w : g.neighbors(u)) {
      // Non-tree edge (u, w): count it once, from the deeper endpoint
      // (ties broken by id).
      if (parent[u] == w || parent[w] == u) continue;
      if (depth[u] < depth[w] || (depth[u] == depth[w] && u < w)) continue;
      // cover[] charges the tree edge (v, parent[v]) to entry v.
      int a = u, b = w;
      while (a != b) {
        if (depth[a] >= depth[b]) {
          ++cover[a];
          a = parent[a];
        } else {
          ++cover[b];
          b = parent[b];
        }
      }
    }
  }
  for (int v = 0; v < n; ++v) {
    CHECK_MSG(cover[v] <= 1, "tree edge shared by two cycles");
  }
}

TEST_CASE(series_parallel_reduces_to_edge) {
  Rng rng(19);
  const Graph g = random_series_parallel(300, rng);
  CHECK(g.m() <= 2 * g.n() - 3);
  // SP reduction: repeatedly delete degree-<=1 vertices and suppress
  // degree-2 vertices (merging parallel edges). SP graphs reduce to <= 2
  // vertices; any K4 minor would survive with minimum degree 3.
  std::vector<std::set<int>> adj(g.n());
  for (int v = 0; v < g.n(); ++v) {
    for (int w : g.neighbors(v)) adj[v].insert(w);
  }
  int alive = g.n();
  bool progress = true;
  while (progress) {
    progress = false;
    for (int v = 0; v < g.n(); ++v) {
      if (adj[v].size() == 0 || adj[v].size() > 2) continue;
      if (adj[v].size() == 1) {
        const int u = *adj[v].begin();
        adj[u].erase(v);
        adj[v].clear();
      } else {
        auto it = adj[v].begin();
        const int a = *it++;
        const int b = *it;
        adj[a].erase(v);
        adj[b].erase(v);
        adj[v].clear();
        adj[a].insert(b);  // set-insert = parallel-edge reduction
        adj[b].insert(a);
      }
      --alive;
      progress = true;
    }
  }
  CHECK_MSG(alive <= 2, "series-parallel graph failed to reduce");
}

TEST_CASE(generators_deterministic_under_seed) {
  for (const auto& fam : kFamilies) {
    Rng r1(7), r2(7);
    const Graph a = make_family(fam, 256, r1);
    const Graph b = make_family(fam, 256, r2);
    CHECK_MSG(a.n() == b.n(), fam);
    CHECK_MSG(a.edges() == b.edges(), fam);
  }
}

TEST_CASE(from_edges_matches_sort_oracle) {
  using Edges = std::vector<std::pair<int, int>>;
  struct Input {
    std::string name;
    int n;
    Edges edges;
  };
  std::vector<Input> inputs = {
      {"self-loops", 4, {{0, 0}, {0, 1}, {2, 2}, {3, 2}, {3, 3}}},
      {"duplicates both ways", 5, {{0, 1}, {1, 0}, {0, 1}, {4, 2}, {2, 4}, {2, 4}}},
      {"bad endpoints", 4, {{-1, 2}, {2, -3}, {0, 4}, {7, 1}, {1, 3}, {-2, -2}}},
      {"negative n", -3, {{0, 1}, {1, 2}}},
      {"n=0", 0, {{0, 1}}},
      {"n=1", 1, {{0, 0}, {0, 1}}},
      {"isolated", 6, {{5, 1}}}};
  // Every generator family (and the torus): its own edge list round trips,
  // and a noisy copy — shuffled, every edge also reversed, self-loops and
  // out-of-range endpoints sprinkled in — builds the same graph both ways.
  Rng rng(23);
  for (const auto& fam : kFamilies) {
    const Graph g = make_family(fam, 300, rng);
    same_csr(g, oracles::graph_by_sort(g.n(), g.edges()), fam);
    Edges noisy;
    for (const auto& [u, v] : g.edges()) {
      noisy.emplace_back(u, v);
      noisy.emplace_back(v, u);
      if (rng.next_below(7) == 0) noisy.emplace_back(u, u);
      if (rng.next_below(11) == 0) noisy.emplace_back(u, g.n() + v);
      if (rng.next_below(13) == 0) noisy.emplace_back(-1 - v, u);
    }
    for (int i = static_cast<int>(noisy.size()) - 1; i > 0; --i) {
      std::swap(noisy[i], noisy[rng.uniform_int(0, i)]);
    }
    inputs.push_back({fam + " noisy", g.n(), noisy});
  }
  const Graph torus = torus_graph(7, 9);
  same_csr(torus, oracles::graph_by_sort(torus.n(), torus.edges()), "torus");
  for (const Input& in : inputs) {
    same_csr(Graph::from_edges(in.n, in.edges),
             oracles::graph_by_sort(in.n, in.edges), in.name);
  }
}
