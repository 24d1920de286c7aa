// The Section-6 applications layer: approximation-ratio bounds against the
// exact baselines on small planar/outerplanar/tree instances, solution
// validity (independence, matching disjointness, coverage, domination), the
// Theorem 6.1 log*-flatness of approx-MIS rounds on cycles as n grows 100x,
// property-tester verdicts, and compact-routing delivery/table invariants.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "apps/approx.hpp"
#include "apps/compact_routing.hpp"
#include "apps/domination.hpp"
#include "apps/exact.hpp"
#include "apps/maxcut.hpp"
#include "apps/property_testing.hpp"
#include "decomp/edt.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "test_main.hpp"

using namespace mfd;

namespace {

bool independent(const Graph& g, const std::vector<int>& set) {
  for (int u : set) {
    for (int v : set) {
      if (u < v && g.has_edge(u, v)) return false;
    }
  }
  return true;
}

bool dominates(const Graph& g, const std::vector<int>& set) {
  std::vector<char> dom(g.n(), 0);
  for (int v : set) {
    dom[v] = 1;
    for (int w : g.neighbors(v)) dom[w] = 1;
  }
  for (int v = 0; v < g.n(); ++v) {
    if (!dom[v]) return false;
  }
  return true;
}

}  // namespace

TEST_CASE(approx_mis_ratio_and_validity) {
  Rng rng(21);
  struct Inst {
    std::string name;
    Graph g;
    int alpha;
  };
  std::vector<Inst> insts;
  insts.push_back({"planar", random_maximal_planar(80, rng), 3});
  insts.push_back({"outerplanar", random_maximal_outerplanar(90, rng), 2});
  insts.push_back({"tree", random_tree(120, rng), 1});
  for (const Inst& inst : insts) {
    const std::size_t opt = apps::max_independent_set(inst.g).set.size();
    for (double eps : {0.5, 0.3}) {
      const apps::SetSolution sol =
          apps::approx_max_independent_set(inst.g, eps, inst.alpha);
      CHECK_MSG(independent(inst.g, sol.vertices), inst.name);
      CHECK_MSG(static_cast<double>(sol.vertices.size()) >=
                    (1.0 - eps) * static_cast<double>(opt),
                inst.name + " eps " + std::to_string(eps));
      CHECK(sol.stats.total_rounds == sol.stats.runtime.total());
      CHECK(sol.stats.total_rounds > 0);
    }
  }
}

TEST_CASE(approx_matching_vc_ratio_and_validity) {
  Rng rng(22);
  const Graph g = random_maximal_planar(70, rng);
  const std::size_t nu = apps::max_matching_edges(g).size();
  const std::size_t tau = apps::min_vertex_cover(g).set.size();
  for (double eps : {0.4, 0.25}) {
    const apps::MatchingSolution m = apps::approx_max_matching(g, eps, 3);
    // Valid matching: real edges, vertex-disjoint.
    std::vector<char> used(g.n(), 0);
    for (const auto& [u, v] : m.edges) {
      CHECK(g.has_edge(u, v));
      CHECK(!used[u] && !used[v]);
      used[u] = used[v] = 1;
    }
    CHECK(static_cast<double>(m.edges.size()) >=
          (1.0 - eps) * static_cast<double>(nu));

    const apps::SetSolution c = apps::approx_min_vertex_cover(g, eps, 3);
    std::vector<char> in(g.n(), 0);
    for (int v : c.vertices) in[v] = 1;
    for (const auto& [u, v] : g.edges()) CHECK(in[u] || in[v]);
    CHECK(static_cast<double>(c.vertices.size()) <=
          (1.0 + eps) * static_cast<double>(tau));
  }
}

TEST_CASE(approx_maxcut_ratio) {
  Rng rng(23);
  // Exact-OPT instance.
  const Graph small = random_maximal_planar(18, rng);
  const apps::CutResult opt = apps::max_cut(small, 20);
  CHECK(opt.exact);
  for (double eps : {0.4, 0.2}) {
    const apps::CutSolution sol = apps::approx_max_cut(small, eps);
    CHECK(sol.value == apps::detail::cut_value(small, sol.side));
    CHECK(static_cast<double>(sol.value) >=
          (1.0 - eps) * static_cast<double>(opt.cut_edges));
  }
  // Bipartite instance: OPT = m, parity seeding must find it per cluster.
  const Graph grid = grid_graph(12, 12);
  const apps::CutSolution sol = apps::approx_max_cut(grid, 0.3);
  CHECK(static_cast<double>(sol.value) >=
        0.7 * static_cast<double>(grid.m()));
}

TEST_CASE(approx_mds_ratio_and_validity) {
  Rng rng(24);
  struct Inst {
    std::string name;
    Graph g;
    int alpha;
  };
  std::vector<Inst> insts;
  insts.push_back({"planar", random_maximal_planar(60, rng), 3});
  insts.push_back({"tree", random_tree(90, rng), 1});
  insts.push_back({"grid", grid_graph(8, 8), 3});
  for (const Inst& inst : insts) {
    const std::size_t opt = apps::min_dominating_set(inst.g).set.size();
    CHECK_MSG(dominates(inst.g, apps::min_dominating_set(inst.g).set),
              inst.name);
    for (double eps : {0.6, 0.4}) {
      const apps::MdsSolution sol =
          apps::approx_min_dominating_set(inst.g, eps, inst.alpha);
      CHECK_MSG(dominates(inst.g, sol.vertices), inst.name);
      CHECK_MSG(static_cast<double>(sol.vertices.size()) <=
                    (1.0 + eps) * static_cast<double>(opt),
                inst.name + " eps " + std::to_string(eps));
    }
  }
}

TEST_CASE(exact_mds_matches_brute_force) {
  Rng rng(25);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = 4 + static_cast<int>(rng.next_below(8));
    std::vector<std::pair<int, int>> e;
    for (int a = 0; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        if (rng.next_below(100) < 30) e.emplace_back(a, b);
      }
    }
    const Graph g = Graph::from_edges(n, std::move(e));
    // Brute force over all subsets.
    int best = n;
    for (unsigned mask = 0; mask < (1u << g.n()); ++mask) {
      std::vector<int> set;
      for (int v = 0; v < g.n(); ++v) {
        if (mask >> v & 1) set.push_back(v);
      }
      if (static_cast<int>(set.size()) < best && dominates(g, set)) {
        best = static_cast<int>(set.size());
      }
    }
    const apps::MdsResult r = apps::min_dominating_set(g);
    CHECK_MSG(dominates(g, r.set), "trial " + std::to_string(trial));
    CHECK_MSG(static_cast<int>(r.set.size()) == best,
              "trial " + std::to_string(trial) + ": got " +
                  std::to_string(r.set.size()) + " want " +
                  std::to_string(best));
  }
  // Tree DP against B&B on forests (the DP path is size-unbounded).
  for (int trial = 0; trial < 10; ++trial) {
    const Graph t = random_tree(40 + trial, rng);
    const apps::MdsResult dp = apps::min_dominating_set(t);
    apps::detail::MdsBranch bb(t, -1);
    CHECK(dominates(t, dp.set));
    CHECK(dp.set.size() == bb.solve().size());
  }
}

// Theorem 6.1 shape: approx-MIS rounds on cycles stay essentially flat
// (log* n) while n grows 100x. The hard acceptance gate of the apps layer.
TEST_CASE(approx_mis_rounds_log_star_flat_on_cycles) {
  const apps::SetSolution small =
      apps::approx_max_independent_set(cycle_graph(100), 0.3, 1);
  const apps::SetSolution large =
      apps::approx_max_independent_set(cycle_graph(10000), 0.3, 1);
  CHECK(small.stats.total_rounds > 0);
  // 100x the vertices may only move rounds by the log* drift — pin a tight
  // multiplicative window rather than an absolute count.
  CHECK_MSG(large.stats.total_rounds <= (3 * small.stats.total_rounds) / 2,
            std::to_string(small.stats.total_rounds) + " -> " +
                std::to_string(large.stats.total_rounds));
  // Both solutions stay within the guarantee: OPT(C_n) = floor(n/2).
  CHECK(static_cast<double>(small.vertices.size()) >= 0.7 * 50.0);
  CHECK(static_cast<double>(large.vertices.size()) >= 0.7 * 5000.0);
}

TEST_CASE(property_tester_verdicts) {
  Rng rng(26);
  CHECK(apps::test_property(random_maximal_planar(150, rng), Family::kPlanar,
                            0.2)
            .accepted);
  CHECK(!apps::test_property(clique_chain(6, 6), Family::kPlanar, 0.2)
             .accepted);
  CHECK(apps::test_property(random_tree(100, rng), Family::kForest, 0.2)
            .accepted);
  CHECK(!apps::test_property(cycle_graph(30), Family::kForest, 0.2).accepted);
  CHECK(apps::test_property(random_maximal_outerplanar(80, rng),
                            Family::kOuterplanar, 0.2)
            .accepted);
  CHECK(!apps::test_property(random_maximal_planar(80, rng),
                             Family::kOuterplanar, 0.2)
             .accepted);
  CHECK(apps::test_property(random_cactus(100, rng), Family::kCactus, 0.2)
            .accepted);
  CHECK(!apps::test_property(grid_graph(5, 5), Family::kCactus, 0.2)
             .accepted);
  CHECK(apps::test_property(path_graph(50), Family::kLinearForest, 0.2)
            .accepted);
  CHECK(!apps::test_property(star_graph(10), Family::kLinearForest, 0.2)
             .accepted);
  // Rejections carry a reason; rounds are charged either way.
  const apps::PropertyTestResult r =
      apps::test_property(complete_graph(10), Family::kPlanar, 0.2);
  CHECK(!r.accepted);
  CHECK(!r.reason.empty());
  CHECK(r.rounds == r.runtime.total());
}

TEST_CASE(compact_routing_delivers_with_small_tables) {
  Rng rng(27);
  for (const char* fam : {"planar", "grid", "tree"}) {
    Rng grng(rng.next());
    const Graph g = fam == std::string("grid")
                        ? grid_graph(20, 20)
                        : (fam == std::string("tree")
                               ? random_tree(400, grng)
                               : random_maximal_planar(400, grng));
    const decomp::EdtDecomposition edt =
        decomp::build_edt_decomposition(g, 0.3);
    const apps::FlatRoutingTables s =
        apps::build_routing_scheme(g, edt.clustering);
    const apps::StretchStats st = apps::measure_stretch(g, s, 120, rng);
    CHECK_MSG(st.delivered_fraction == 1.0, fam);
    CHECK_MSG(st.avg_stretch >= 1.0, fam);
    // Per-vertex tables stay well under the k log n a flat table would pay.
    CHECK_MSG(s.avg_table_bits() <
                  16.0 * congest::ceil_log2(std::max(g.n(), 2)),
              fam + std::string(": avg bits ") +
                  std::to_string(s.avg_table_bits()));
    // Exact route on a pair in the same cluster equals tree routing; on a
    // tree decomposition every route must be a real path: spot check hops
    // against BFS distance lower bound.
    const int hops = apps::flat_route_hops(s, 0, g.n() - 1);
    CHECK(hops >= bfs_distances(g, 0)[g.n() - 1]);
  }
}
