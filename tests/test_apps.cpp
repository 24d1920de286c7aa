// apps/ exact kernels vs brute force on small random graphs, plus known
// closed-form instances and the exact searches' effort accounting and
// memory footprint. These are the centralized baselines the Theorem 1.2
// application benches grade against.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "apps/blossom.hpp"
#include "apps/domination.hpp"
#include "apps/exact.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "test_main.hpp"

using namespace mfd;

namespace {

int brute_mis(const Graph& g) {
  int best = 0;
  for (unsigned mask = 0; mask < (1u << g.n()); ++mask) {
    bool ok = true;
    int cnt = 0;
    for (int v = 0; v < g.n() && ok; ++v) {
      if (!(mask >> v & 1)) continue;
      ++cnt;
      for (int w : g.neighbors(v)) {
        if (w > v && (mask >> w & 1)) {
          ok = false;
          break;
        }
      }
    }
    if (ok) best = std::max(best, cnt);
  }
  return best;
}

int brute_matching(const Graph& g) {
  const auto edges = g.edges();
  int best = 0;
  for (unsigned mask = 0; mask < (1u << edges.size()); ++mask) {
    std::vector<char> used(g.n(), 0);
    bool ok = true;
    int cnt = 0;
    for (std::size_t i = 0; i < edges.size() && ok; ++i) {
      if (!(mask >> i & 1)) continue;
      const auto [a, b] = edges[i];
      if (used[a] || used[b]) ok = false;
      used[a] = used[b] = 1;
      ++cnt;
    }
    if (ok) best = std::max(best, cnt);
  }
  return best;
}

}  // namespace

TEST_CASE(blossom_matches_brute_force) {
  Rng rng(99);
  int tested = 0;
  while (tested < 40) {
    const int n = 4 + static_cast<int>(rng.next_below(8));
    std::vector<std::pair<int, int>> e;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (rng.next_below(100) < 35) e.emplace_back(a, b);
      }
    }
    const Graph g = Graph::from_edges(n, std::move(e));
    if (g.m() > 14) continue;  // keep the 2^m brute force cheap
    ++tested;
    CHECK_MSG(apps::max_matching(g).size == brute_matching(g),
              "trial " + std::to_string(tested));
  }
}

TEST_CASE(blossom_known_instances) {
  CHECK(apps::max_matching(complete_graph(6)).size == 3);
  CHECK(apps::max_matching(cycle_graph(5)).size == 2);  // odd cycle: blossom
  CHECK(apps::max_matching(path_graph(4)).size == 2);
  CHECK(apps::max_matching(add_apex(cycle_graph(8))).size == 4);
  // The matching array is an involution onto real partners.
  Rng rng(5);
  const Graph g = random_maximal_planar(300, rng);
  const apps::Matching m = apps::max_matching(g);
  for (int v = 0; v < g.n(); ++v) {
    if (m.match[v] >= 0) {
      CHECK(m.match[m.match[v]] == v);
      CHECK(g.has_edge(v, m.match[v]));
    }
  }
}

namespace {

// The reported set must actually be independent in g.
bool is_independent(const Graph& g, const std::vector<int>& set) {
  std::vector<char> in(g.n(), 0);
  for (int v : set) in[v] = 1;
  for (int v : set) {
    for (int w : g.neighbors(v)) {
      if (in[w]) return false;
    }
  }
  return true;
}

bool is_dominating(const Graph& g, const std::vector<int>& set) {
  std::vector<char> dominated(g.n(), 0);
  for (int v : set) {
    dominated[v] = 1;
    for (int w : g.neighbors(v)) dominated[w] = 1;
  }
  return std::find(dominated.begin(), dominated.end(), 0) == dominated.end();
}

}  // namespace

TEST_CASE(exact_mis_matches_brute_force) {
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 4 + static_cast<int>(rng.next_below(10));
    std::vector<std::pair<int, int>> e;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (rng.next_below(100) < 35) e.emplace_back(a, b);
      }
    }
    const Graph g = Graph::from_edges(n, std::move(e));
    const apps::MisResult mis = apps::max_independent_set(g);
    CHECK_MSG(static_cast<int>(mis.set.size()) == brute_mis(g),
              "trial " + std::to_string(trial));
    CHECK_MSG(is_independent(g, mis.set), "trial " + std::to_string(trial));
  }
}

TEST_CASE(exact_mis_known_instances) {
  CHECK(apps::max_independent_set(cycle_graph(7)).set.size() == 3);
  CHECK(apps::max_independent_set(complete_graph(8)).set.size() == 1);
  CHECK(apps::max_independent_set(path_graph(9)).set.size() == 5);
  CHECK(apps::max_independent_set(grid_graph(4, 4)).set.size() == 8);
  Rng rng(5);
  const Graph g = random_maximal_planar(120, rng);
  const apps::MisResult mis = apps::max_independent_set(g);
  // Planar triangulations: alpha >= n/4 by the four color theorem.
  CHECK(mis.set.size() >= 30);
  CHECK(is_independent(g, mis.set));
}

TEST_CASE(exact_vertex_cover_complement) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 4 + static_cast<int>(rng.next_below(8));
    std::vector<std::pair<int, int>> e;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (rng.next_below(100) < 40) e.emplace_back(a, b);
      }
    }
    const Graph g = Graph::from_edges(n, std::move(e));
    const apps::MisResult vc = apps::min_vertex_cover(g);
    // Covers every edge, and |VC| = n - alpha(G).
    std::vector<char> in(g.n(), 0);
    for (int v : vc.set) in[v] = 1;
    for (const auto& [u, v] : g.edges()) CHECK(in[u] || in[v]);
    CHECK(static_cast<int>(vc.set.size()) == g.n() - brute_mis(g));
  }
}

TEST_CASE(exact_mds_counts_every_node) {
  // An unbounded search counts its nodes too, and a budget changes only
  // where the search stops: a roomy budget sees the same count, a blown one
  // stops one node past it.
  const Graph g = grid_graph(4, 4);
  apps::detail::MdsBranch unbounded(g, -1);
  const std::vector<int> set = unbounded.solve();
  CHECK(unbounded.exact());
  CHECK(unbounded.nodes() > 0);
  CHECK(set.size() == 4);  // gamma(P4 x P4) = 4
  CHECK(is_dominating(g, set));
  apps::detail::MdsBranch roomy(g, unbounded.nodes());
  CHECK(roomy.solve() == set);
  CHECK(roomy.exact());
  CHECK(roomy.nodes() == unbounded.nodes());
  apps::detail::MdsBranch tight(g, unbounded.nodes() - 1);
  tight.solve();
  CHECK(!tight.exact());
  CHECK(tight.nodes() == unbounded.nodes());
}

TEST_CASE(exact_search_hub_cluster) {
  // A 200000-spoke wheel: one hub of degree 2e5. The budgeted searches must
  // return valid sets without state that grows with the maximum degree.
  const Graph g = add_apex(cycle_graph(200000));
  apps::MisSearchReport rep;
  const apps::MisResult mis = apps::max_independent_set(g, 1000, &rep);
  CHECK(is_independent(g, mis.set));
  CHECK(rep.exact);
  CHECK(mis.set.size() == 100000);
  apps::detail::MdsBranch mds(g, 1000);
  const std::vector<int> dom = mds.solve();
  CHECK(is_dominating(g, dom));
  CHECK(mds.exact());
  CHECK(dom.size() == 1);
}
