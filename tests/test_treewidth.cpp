// The treewidth-DP solver tier (apps/treewidth.hpp): decomposition validity
// on every generator family, structural width bounds (outerplanar and
// series-parallel are partial 2-trees, so the degree-2 greedy certifies
// width <= 2; every min-degree vertex of a k-tree is simplicial, so k-trees
// certify width == k), the differential sweeps: the three DP kernels (and
// the cover complementing the MIS witness) against bitmask brute force on
// <= 20-vertex graphs and against the exact B&B / tree-DP baselines on
// mid-size forests and grids, the ladder's tier accounting under its width
// gate, the König rung on bipartite clusters (exact, skipped on odd cycles,
// non-recursive at 10^6 vertices), the per-component forest gate, and
// golden outputs of the laddered solvers and subset-DP kernels.
// Every draw derives from a fixed seed, so failures reproduce from the
// printed context string.
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "apps/approx.hpp"
#include "apps/domination.hpp"
#include "apps/maxcut.hpp"
#include "apps/treewidth.hpp"
#include "bench_common.hpp"
#include "congest/shard.hpp"
#include "test_main.hpp"

using namespace mfd;
using namespace mfd::apps;
using mfd::bench::make_family;

namespace {

const std::vector<std::string> kFamilies = {
    "planar", "planar-sparse", "grid",   "torus",  "outerplanar", "tree",
    "cycle",  "path",          "cactus", "ktree3", "series-parallel"};

/// Connected random graph on 3..20 vertices, a pure function of the seed
/// (spanning tree plus extra edges).
Graph small_connected(std::uint64_t seed, int max_n = 20) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const int n = 3 + static_cast<int>(rng.next_below(max_n - 2));
  std::vector<std::pair<int, int>> edges;
  for (int v = 1; v < n; ++v) {
    edges.emplace_back(static_cast<int>(rng.next_below(v)), v);
  }
  const int extra = static_cast<int>(rng.next_below(n));
  for (int e = 0; e < extra; ++e) {
    int a = static_cast<int>(rng.next_below(n));
    int b = static_cast<int>(rng.next_below(n));
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    edges.emplace_back(a, b);
  }
  return Graph::from_edges(n, std::move(edges));
}

/// Open-neighborhood bitmasks (n <= 31).
std::vector<std::uint32_t> adjacency_masks(const Graph& g) {
  std::vector<std::uint32_t> adj(g.n(), 0);
  for (int v = 0; v < g.n(); ++v) {
    for (int w : g.neighbors(v)) adj[v] |= std::uint32_t{1} << w;
  }
  return adj;
}

int popcnt(std::uint32_t x) {
  int c = 0;
  while (x != 0) {
    x &= x - 1;
    ++c;
  }
  return c;
}

/// Brute-force alpha(G) by subset enumeration over bitmasks.
int brute_alpha(const Graph& g) {
  const auto adj = adjacency_masks(g);
  const int n = g.n();
  int best = 0;
  for (std::uint32_t s = 0; s < (std::uint32_t{1} << n); ++s) {
    bool independent = true;
    for (int v = 0; v < n && independent; ++v) {
      if ((s >> v) & 1) independent = (s & adj[v]) == 0;
    }
    if (independent) best = std::max(best, popcnt(s));
  }
  return best;
}

/// Brute-force gamma(G) by subset enumeration over closed neighborhoods.
int brute_gamma(const Graph& g) {
  const auto adj = adjacency_masks(g);
  const int n = g.n();
  const std::uint32_t full = (std::uint32_t{1} << n) - 1;
  int best = n;
  for (std::uint32_t s = 0; s < (std::uint32_t{1} << n); ++s) {
    std::uint32_t dominated = 0;
    for (int v = 0; v < n; ++v) {
      if ((s >> v) & 1) dominated |= adj[v] | (std::uint32_t{1} << v);
    }
    if (dominated == full) best = std::min(best, popcnt(s));
  }
  return best;
}

/// Brute-force max cut (vertex 0 pinned to side 0).
std::int64_t brute_maxcut(const Graph& g) {
  const auto adj = adjacency_masks(g);
  const int n = g.n();
  if (n <= 1) return 0;
  std::int64_t best = 0;
  for (std::uint32_t s = 0; s < (std::uint32_t{1} << (n - 1)); ++s) {
    const std::uint32_t side = s << 1;  // vertex 0 on side 0
    std::int64_t cut = 0;
    for (int v = 0; v < n; ++v) {
      const std::uint32_t other = ((side >> v) & 1) ? ~side : side;
      cut += popcnt(adj[v] & other & ~((std::uint32_t{1} << (v + 1)) - 1));
    }
    best = std::max(best, cut);
  }
  return best;
}

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

bool is_vertex_cover(const Graph& g, const std::vector<int>& set) {
  std::vector<char> in(g.n(), 0);
  for (int v : set) in[v] = 1;
  for (int u = 0; u < g.n(); ++u) {
    for (int w : g.neighbors(u)) {
      if (u < w && !in[u] && !in[w]) return false;
    }
  }
  return true;
}

bool is_dominating(const Graph& g, const std::vector<int>& set) {
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

std::int64_t side_cut(const Graph& g, const std::vector<char>& side) {
  std::int64_t cut = 0;
  for (int u = 0; u < g.n(); ++u) {
    for (int w : g.neighbors(u)) {
      if (u < w && side[u] != side[w]) ++cut;
    }
  }
  return cut;
}

/// Structural check of a nice decomposition: kinds consistent with the
/// child bags, children-before-parents, the root's bag empty.
bool valid_nice(const NiceTreeDecomposition& nd) {
  if (nd.root < 0) return nd.nodes.empty();
  if (!nd.nodes[nd.root].bag.empty()) return false;
  for (int i = 0; i < static_cast<int>(nd.nodes.size()); ++i) {
    const auto& x = nd.nodes[i];
    if (!std::is_sorted(x.bag.begin(), x.bag.end())) return false;
    switch (x.kind) {
      case NiceTreeDecomposition::kLeaf:
        if (!x.bag.empty() || x.left >= 0 || x.right >= 0) return false;
        break;
      case NiceTreeDecomposition::kIntroduce: {
        if (x.left < 0 || x.left >= i || x.right >= 0) return false;
        std::vector<int> expect = nd.nodes[x.left].bag;
        expect.insert(
            std::upper_bound(expect.begin(), expect.end(), x.vertex),
            x.vertex);
        if (expect != x.bag) return false;
        break;
      }
      case NiceTreeDecomposition::kForget: {
        if (x.left < 0 || x.left >= i || x.right >= 0) return false;
        std::vector<int> expect = x.bag;
        expect.insert(
            std::upper_bound(expect.begin(), expect.end(), x.vertex),
            x.vertex);
        if (expect != nd.nodes[x.left].bag) return false;
        break;
      }
      case NiceTreeDecomposition::kJoin:
        if (x.left < 0 || x.left >= i || x.right < 0 || x.right >= i) {
          return false;
        }
        if (nd.nodes[x.left].bag != x.bag || nd.nodes[x.right].bag != x.bag) {
          return false;
        }
        break;
      default:
        return false;
    }
  }
  return true;
}

}  // namespace

TEST_CASE(tw_decomposition_valid_all_families) {
  for (const std::string& family : kFamilies) {
    for (const int n : {12, 60, 150}) {
      Rng rng(0xABCDEF01u + n);
      const Graph g = make_family(family, n, rng);
      const std::string ctx = family + " n=" + std::to_string(n);
      const TreeDecomposition td = tree_decomposition(g);
      CHECK_MSG(td.complete, ctx);
      CHECK_MSG(valid_tree_decomposition(g, td), ctx);
      const NiceTreeDecomposition nd = nice_tree_decomposition(td);
      CHECK_MSG(nd.width == td.width, ctx);
      CHECK_MSG(valid_nice(nd), ctx);
    }
  }
}

TEST_CASE(tw_width_bounds_outerplanar_ktree) {
  // Outerplanar and series-parallel graphs are partial 2-trees: some vertex
  // of degree <= 2 always exists and eliminating it preserves the class, so
  // the greedy search must certify width <= 2 (and a k-tree width == k —
  // every min-degree vertex of a k-tree is simplicial).
  for (const int n : {20, 80, 200}) {
    Rng rng(0x5EED0000u + n);
    const Graph op = make_family("outerplanar", n, rng);
    CHECK_MSG(tree_decomposition(op).width <= 2, "outerplanar n=" +
                                                     std::to_string(n));
    const Graph sp = make_family("series-parallel", n, rng);
    CHECK_MSG(tree_decomposition(sp).width <= 2, "series-parallel n=" +
                                                     std::to_string(n));
    const Graph kt = make_family("ktree3", n, rng);
    CHECK_MSG(tree_decomposition(kt).width == 3, "ktree3 n=" +
                                                     std::to_string(n));
  }
  // Trees certify width 1, cycles width 2.
  Rng rng(7);
  CHECK(tree_decomposition(make_family("tree", 64, rng)).width == 1);
  CHECK(tree_decomposition(make_family("cycle", 64, rng)).width == 2);
}

TEST_CASE(tw_probe_aborts_on_wide_clusters) {
  // K9 has treewidth 8: a capped search must report incomplete instead of
  // paying for a full decomposition, and the ladder probe must decline.
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < 9; ++u) {
    for (int v = u + 1; v < 9; ++v) edges.emplace_back(u, v);
  }
  const Graph k9 = Graph::from_edges(9, std::move(edges));
  const TreeDecomposition capped = tree_decomposition(k9, 3);
  CHECK(!capped.complete);
  LadderConfig cfg;
  cfg.tw_cap = 3;
  NiceTreeDecomposition nd;
  CHECK(!ladder_tw_probe(k9, cfg, nd));
  // Uncapped, the search certifies the true width.
  const TreeDecomposition full = tree_decomposition(k9);
  CHECK(full.complete);
  CHECK(full.width == 8);
}

TEST_CASE(tw_dp_matches_bruteforce_small) {
  // The three kernels (and the cover complementing the MIS witness)
  // against bitmask brute force on <= 20-vertex connected graphs: optimal
  // VALUE equal, and every witness valid.
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const Graph g = small_connected(seed);
    const std::string ctx = "seed=" + std::to_string(seed) +
                            " n=" + std::to_string(g.n());
    const TreeDecomposition td = tree_decomposition(g);
    CHECK_MSG(td.complete && valid_tree_decomposition(g, td), ctx);
    const NiceTreeDecomposition nd = nice_tree_decomposition(td);

    const int alpha = brute_alpha(g);
    const std::vector<int> mis = tw_max_independent_set(g, nd);
    CHECK_MSG(is_independent(g, mis), ctx);
    CHECK_MSG(static_cast<int>(mis.size()) == alpha, ctx + " alpha");

    const std::vector<int> vc = vertex_complement(g, mis);
    CHECK_MSG(is_vertex_cover(g, vc), ctx);
    CHECK_MSG(static_cast<int>(vc.size()) == g.n() - alpha, ctx + " vc");

    const std::vector<int> mds = tw_min_dominating_set(g, nd);
    CHECK_MSG(is_dominating(g, mds), ctx);
    CHECK_MSG(static_cast<int>(mds.size()) == brute_gamma(g), ctx + " gamma");

    const TwCut cut = tw_max_cut(g, nd);
    CHECK_MSG(cut.cut_edges == brute_maxcut(g), ctx + " cut");
    CHECK_MSG(side_cut(g, cut.side) == cut.cut_edges, ctx + " cut witness");
  }
}

TEST_CASE(tw_dp_matches_bb_midsize) {
  // Mid-size forests and grids, against the exact searches the ladder used
  // to run: MisSolver (unbounded), MdsBranch (unbounded), tree_mds, and the
  // bipartite OPT = m certificate for max-cut.
  const auto check_graph = [](const Graph& g, const std::string& ctx,
                              bool bipartite_opt_m) {
    const TreeDecomposition td = tree_decomposition(g);
    CHECK_MSG(td.complete && valid_tree_decomposition(g, td), ctx);
    const NiceTreeDecomposition nd = nice_tree_decomposition(td);

    const std::vector<int> mis = tw_max_independent_set(g, nd);
    CHECK_MSG(is_independent(g, mis), ctx);
    CHECK_MSG(mis.size() == max_independent_set(g).set.size(), ctx + " mis");

    const std::vector<int> mds = tw_min_dominating_set(g, nd);
    CHECK_MSG(is_dominating(g, mds), ctx);
    CHECK_MSG(mds.size() == min_dominating_set(g).set.size(), ctx + " mds");

    const std::vector<int> vc = vertex_complement(g, mis);
    CHECK_MSG(is_vertex_cover(g, vc), ctx);
    CHECK_MSG(vc.size() == min_vertex_cover(g).set.size(), ctx + " vc");

    if (bipartite_opt_m) {
      const TwCut cut = tw_max_cut(g, nd);
      CHECK_MSG(cut.cut_edges == g.m(), ctx + " cut=m");
      CHECK_MSG(side_cut(g, cut.side) == cut.cut_edges, ctx + " cut witness");
    }
  };
  for (const std::uint64_t seed : {11ull, 12ull}) {
    Rng rng(seed);
    check_graph(random_tree(220, rng), "tree seed=" + std::to_string(seed),
                true);
  }
  check_graph(grid_graph(6, 6), "grid 6x6", true);
  check_graph(grid_graph(8, 8), "grid 8x8", true);
  // A 12x12 grid MDS — the bench_mds sizing wall the DP tier removes: the
  // exact B&B takes minutes here, the DP is sub-second, so cross-check the
  // witness against validity plus the known gamma lower bound n/5 instead.
  {
    const Graph g = grid_graph(12, 12);
    const TreeDecomposition td = tree_decomposition(g);
    CHECK(td.complete && td.width <= 13);
    const NiceTreeDecomposition nd = nice_tree_decomposition(td);
    const std::vector<int> mds = tw_min_dominating_set(g, nd);
    CHECK(is_dominating(g, mds));
    // gamma(grid R x C) >= RC/5 (closed neighborhoods have <= 5 vertices);
    // a valid set matching a known-optimal construction stays close to it.
    CHECK_MSG(static_cast<int>(mds.size()) >= 144 / 5, "12x12 lower bound");
    CHECK_MSG(static_cast<int>(mds.size()) <= 44, "12x12 upper bound");
  }
}

TEST_CASE(tw_ladder_tier_accounting) {
  // The rewired app solvers: per-tier cluster counts sum to the cluster
  // total, the width gate steers the ladder, and every gate still produces
  // a valid solution with a clean audit.
  Rng rng(0xC0FFEE);
  const Graph g = make_family("planar", 150, rng);
  const auto tier_sum = [](const congest::SolverStats& s) {
    return s.tier_forest + s.tier_tw_dp + s.tier_bb + s.tier_greedy;
  };

  const MdsSolution mds = approx_min_dominating_set(g, 0.3, 3);
  CHECK(is_dominating(g, mds.vertices));
  CHECK(tier_sum(mds.stats) == mds.stats.clusters);
  CHECK(mds.stats.runtime.audit().ok);

  const SetSolution mis = approx_max_independent_set(g, 0.3, 3);
  CHECK(is_independent(g, mis.vertices));
  CHECK(tier_sum(mis.stats) == mis.stats.clusters);

  const SetSolution vc = approx_min_vertex_cover(g, 0.3, 3);
  CHECK(is_vertex_cover(g, vc.vertices));
  CHECK(tier_sum(vc.stats) == vc.stats.clusters);

  const CutSolution cut = approx_max_cut(g, 0.3);
  CHECK(tier_sum(cut.stats) == cut.stats.clusters);
  CHECK(cut.value == side_cut(g, cut.side));

  // The width gate, checked on every laddered solver (they share one
  // ladder): tw_cap 0 is the no-DP ladder; tw_cap 2 leaves some cluster
  // past the gate, where the exact search or greedy must take it. Either
  // way every solution stays valid and the tiers still sum to the clusters.
  for (const int tw_cap : {0, 2}) {
    LadderConfig cfg;
    cfg.tw_cap = tw_cap;
    const std::string ctx = "tw_cap " + std::to_string(tw_cap);
    const MdsSolution fmds = approx_min_dominating_set(g, 0.3, 3, nullptr, cfg);
    CHECK_MSG(is_dominating(g, fmds.vertices), ctx + ": mds");
    const SetSolution fmis =
        approx_max_independent_set(g, 0.3, 3, nullptr, cfg);
    CHECK_MSG(is_independent(g, fmis.vertices), ctx + ": mis");
    const SetSolution fvc = approx_min_vertex_cover(g, 0.3, 3, nullptr, cfg);
    CHECK_MSG(is_vertex_cover(g, fvc.vertices), ctx + ": vc");
    const CutSolution fcut = approx_max_cut(g, 0.3, 24, nullptr, cfg);
    CHECK_MSG(fcut.value == side_cut(g, fcut.side), ctx + ": cut");
    for (const auto& [name, st] :
         {std::pair<std::string, const congest::SolverStats*>{"mds",
                                                               &fmds.stats},
          {"mis", &fmis.stats},
          {"vc", &fvc.stats},
          {"cut", &fcut.stats}}) {
      const std::string at = ctx + ": " + name;
      CHECK_MSG(tier_sum(*st) == st->clusters, at + " tier sum");
      if (tw_cap == 0) {
        CHECK_MSG(st->tier_tw_dp == 0, at + " no DP");
      } else {
        CHECK_MSG(st->tier_bb + st->tier_greedy > 0,
                  at + " a cluster past the gate");
      }
    }
  }

  // An outerplanar run lands clusters on the DP tier (width <= 2 and the
  // clusters are medium — exactly the tier's target) unless a forest tier
  // catches them first; assert the DP tier is reachable.
  Rng orng(0xC0FFEE);
  const Graph op = make_family("outerplanar", 240, orng);
  const MdsSolution omds = approx_min_dominating_set(op, 0.3, 2);
  CHECK(is_dominating(op, omds.vertices));
  CHECK(tier_sum(omds.stats) == omds.stats.clusters);
  CHECK_MSG(omds.stats.tier_tw_dp > 0, "outerplanar clusters hit the DP tier");
  CHECK(omds.stats.max_width_dp >= 1);
  CHECK(omds.stats.max_width_dp <= 2);
}

TEST_CASE(konig_rung_exact_on_bipartite) {
  // Every bipartite cluster that is not a forest takes the König rung (tier
  // kForest): the MIS is independent and as large as the unbounded B&B's,
  // its complement is a cover of size n - alpha, both covers one matching
  // yields are minimum, and cluster_vc's boundary-preferring pick is one of
  // them.
  std::vector<std::pair<std::string, Graph>> cases = {
      {"C4", cycle_graph(4)},          {"C6", cycle_graph(6)},
      {"C50", cycle_graph(50)},        {"grid 5x7", grid_graph(5, 7)},
      {"grid 6x6", grid_graph(6, 6)},  {"grid 13x11", grid_graph(13, 11)},
      {"K2,3", Graph::from_edges(5, {{0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3},
                                     {1, 4}})},
      // A 4-cycle with a pendant path 3-4-5-6 hanging off vertex 3.
      {"C4+pendant path", Graph::from_edges(7, {{0, 1}, {1, 2}, {2, 3}, {3, 0},
                                                {3, 4}, {4, 5}, {5, 6}})},
      // Components whose sides disagree with a global parity: an isolated
      // vertex, a path, a 6-cycle and a 3x4 grid.
      {"disjoint union",
       disjoint_union(disjoint_union(Graph::from_edges(1, {}), path_graph(5)),
                      disjoint_union(cycle_graph(6), grid_graph(3, 4)))}};
  Rng rng(0xB1DA);
  for (int trial = 0; trial < 6; ++trial) {
    const Graph grid = grid_graph(12, 12);
    std::vector<int> keep;
    for (int v = 0; v < grid.n(); ++v) {
      if (rng.next_below(10) < 7) keep.push_back(v);
    }
    cases.emplace_back("grid 12x12 induced trial=" + std::to_string(trial),
                       induced_subgraph(grid, keep).graph);
  }
  LadderConfig cfg;
  for (const auto& [name, g] : cases) {
    const TwoColoring col = two_coloring(g);
    CHECK_MSG(col.bipartite, name + ": bipartite");
    const int alpha = static_cast<int>(max_independent_set(g).set.size());

    TierReport rep;
    const std::vector<int> mis = detail::cluster_mis(g, cfg, rep);
    const bool forest = col.forest(g);
    CHECK_MSG(rep.tier == SolveTier::kForest && !rep.bb_ran, name + ": tier");
    CHECK_MSG(is_independent(g, mis), name + ": independent");
    CHECK_MSG(static_cast<int>(mis.size()) == alpha, name + ": alpha");
    const std::vector<int> cover = vertex_complement(g, mis);
    CHECK_MSG(is_vertex_cover(g, cover), name + ": complement covers");
    CHECK_MSG(static_cast<int>(cover.size()) == g.n() - alpha, name + ": tau");
    if (forest) continue;  // the forest tier answered, not König

    const std::vector<int> mate = bipartite_matching(g, col.side);
    std::vector<std::vector<int>> konig;
    for (int from = 0; from < 2; ++from) {
      konig.push_back(konig_cover(g, col.side, mate, from));
      CHECK_MSG(is_vertex_cover(g, konig.back()), name + ": konig cover");
      CHECK_MSG(static_cast<int>(konig.back().size()) == g.n() - alpha,
                name + ": konig cover size");
    }
    CHECK_MSG(cover == konig[0], name + ": MIS is the side-0 complement");
    std::vector<char> boundary(g.n(), 0);
    for (int v = 0; v < g.n(); ++v) boundary[v] = rng.next_below(3) == 0;
    const std::vector<int> vc = detail::cluster_vc(g, boundary, cfg, rep);
    CHECK_MSG(rep.tier == SolveTier::kForest, name + ": vc tier");
    CHECK_MSG(vc == konig[0] || vc == konig[1], name + ": vc is a konig cover");
    const auto on_boundary = [&boundary](const std::vector<int>& c) {
      return std::count_if(c.begin(), c.end(),
                           [&boundary](int v) { return boundary[v] != 0; });
    };
    CHECK_MSG(on_boundary(vc) ==
                  std::max(on_boundary(konig[0]), on_boundary(konig[1])),
              name + ": vc keeps the cover with more boundary vertices");
  }
}

TEST_CASE(konig_rung_skips_non_bipartite) {
  // An odd cycle (width 2) and a planar cluster with triangles are not
  // bipartite, so they must pass the König rung and reach the width DP.
  Rng rng(0x0DD);
  for (const auto& [name, g] :
       {std::pair<std::string, Graph>{"C7", cycle_graph(7)},
        {"planar", random_maximal_planar(40, rng)}}) {
    CHECK_MSG(!two_coloring(g).bipartite, name + ": odd cycle found");
    TierReport rep;
    const std::vector<int> mis = detail::cluster_mis(g, LadderConfig{}, rep);
    CHECK_MSG(rep.tier == SolveTier::kTreewidthDp, name + ": tier");
    CHECK_MSG(is_independent(g, mis), name);
    CHECK_MSG(mis.size() == max_independent_set(g).set.size(), name + " alpha");
  }
}

TEST_CASE(konig_rung_large_grid) {
  // A 1000x1000 grid as one cluster: Hopcroft–Karp plus the alternating
  // reach must finish fast and without recursion (a recursive augmenting
  // search would overflow the stack on paths this long).
  const Graph g = grid_graph(1000, 1000);
  TierReport rep;
  const std::vector<int> mis = detail::cluster_mis(g, LadderConfig{}, rep);
  CHECK(rep.tier == SolveTier::kForest);
  CHECK(mis.size() == 500000);
  CHECK(is_independent(g, mis));
}

TEST_CASE(forest_gate_counts_components) {
  // K4 minus an edge, plus a separate edge, plus an isolated vertex: n 7,
  // m 6 == n - 1, but three components, so it is not a forest. A gate of
  // m == n - 1 sent it to the forest tier, where parity sides from vertex 0
  // cut 3 edges; the optimum is 5 (4 in K4 - e, plus the lone edge).
  const Graph g = Graph::from_edges(
      7, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {4, 5}});
  const TwoColoring col = two_coloring(g);
  CHECK(col.components == 3 && !col.forest(g) && !col.bipartite);
  TierReport rep;
  int passes = 0;
  const std::vector<char> side =
      detail::cluster_cut(g, 24, LadderConfig{}, rep, passes);
  CHECK_MSG(rep.tier != SolveTier::kForest,
            "tier " + std::to_string(static_cast<int>(rep.tier)));
  CHECK_MSG(side_cut(g, side) == 5, "cut " + std::to_string(side_cut(g, side)));
  const std::vector<int> mis = detail::cluster_mis(g, LadderConfig{}, rep);
  CHECK(rep.tier != SolveTier::kForest);
  CHECK(is_independent(g, mis) && mis.size() == 4);

  // Parity sides cover every component, so a disconnected bipartite graph
  // cuts all m edges (BFS from vertex 0 alone left the path uncut) — on the
  // forest tier's sides and on max_cut's parity fallback above exact_cap.
  const Graph bip = disjoint_union(cycle_graph(4), path_graph(5));
  CHECK(side_cut(bip, two_coloring(bip).side) == bip.m());
  CHECK(max_cut(bip, 2).cut_edges == bip.m());
  // ... and a disconnected forest is a forest.
  const Graph forest = disjoint_union(path_graph(4), star_graph(5));
  CHECK(two_coloring(forest).forest(forest));
  detail::cluster_mis(forest, LadderConfig{}, rep);
  CHECK(rep.tier == SolveTier::kForest);
}

namespace {

/// FNV-1a over a witness (vertex ids or side labels): one integer that pins
/// the exact set, not just its size.
template <class T>
std::uint64_t witness_hash(const std::vector<T>& xs) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const T x : xs) {
    h ^= static_cast<std::uint64_t>(x);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

TEST_CASE(golden_ladder_outputs) {
  // Integer outputs only (so g++ and clang++ agree): any change to a tier
  // rule, a tie break, a budget or a DP kernel shows up here as a diff.
  // pipebench's apps-grid-36 instance (36x36 grid, eps 0.5, alpha 3,
  // exact_cap 24) at the default ladder. Its clusters are bipartite, so
  // MIS and VC solve every cluster on the structural rung (forest or
  // König); MDS still reaches the greedy tier through blown B&B budgets,
  // and max-cut splits between the forest and DP tiers.
  const Graph grid = grid_graph(36, 36);
  struct LadderPin {
    std::int64_t value;  // set size, or cut value
    std::uint64_t hash;  // witness_hash of the set or the side labels
    std::int64_t forest, tw_dp, bb, greedy, bb_runs, bb_nodes, rounds,
        messages;
  };
  const auto check_pin = [](const congest::SolverStats& s,
                            std::int64_t value, std::uint64_t hash,
                            const LadderPin& pin, const std::string& ctx) {
    CHECK_MSG(value == pin.value, ctx + ": value " + std::to_string(value));
    CHECK_MSG(hash == pin.hash, ctx + ": hash " + std::to_string(hash));
    CHECK_MSG(s.tier_forest == pin.forest && s.tier_tw_dp == pin.tw_dp &&
                  s.tier_bb == pin.bb && s.tier_greedy == pin.greedy,
              ctx + ": tiers F" + std::to_string(s.tier_forest) + "/TW" +
                  std::to_string(s.tier_tw_dp) + "/BB" +
                  std::to_string(s.tier_bb) + "/G" +
                  std::to_string(s.tier_greedy));
    CHECK_MSG(s.bb_runs == pin.bb_runs,
              ctx + ": bb_runs " + std::to_string(s.bb_runs));
    CHECK_MSG(s.bb_nodes == pin.bb_nodes,
              ctx + ": bb_nodes " + std::to_string(s.bb_nodes));
    CHECK_MSG(s.total_rounds == pin.rounds,
              ctx + ": rounds " + std::to_string(s.total_rounds));
    CHECK_MSG(s.runtime.total_messages() == pin.messages,
              ctx + ": messages " +
                  std::to_string(s.runtime.total_messages()));
  };
  const MdsSolution mds = approx_min_dominating_set(grid, 0.5, 3);
  check_pin(mds.stats, static_cast<std::int64_t>(mds.vertices.size()),
            witness_hash(mds.vertices),
            {319, 15817117964885487425ULL, 1, 0, 0, 2, 2, 500002, 777,
             1855370},
            "mds");
  const SetSolution mis = approx_max_independent_set(grid, 0.5, 3);
  check_pin(mis.stats, static_cast<std::int64_t>(mis.vertices.size()),
            witness_hash(mis.vertices),
            {647, 6728079492165562438ULL, 3, 0, 0, 0, 0, 0, 829, 2112411},
            "mis");
  const SetSolution vc = approx_min_vertex_cover(grid, 0.5, 3);
  check_pin(vc.stats, static_cast<std::int64_t>(vc.vertices.size()),
            witness_hash(vc.vertices),
            {661, 8455561345596370344ULL, 9, 0, 0, 0, 0, 0, 559, 1289600},
            "vc");
  const CutSolution cut = approx_max_cut(grid, 0.5, 24);
  check_pin(cut.stats, cut.value, witness_hash(cut.side),
            {2451, 11648113101282111554ULL, 38, 43, 0, 0, 0, 0, 188, 508637},
            "cut");

  // The subset-DP kernels' witnesses on fixed instances of width 2, 3, 10.
  struct KernelPin {
    std::string name;
    Graph g;
    int width;
    std::size_t mis_size;
    std::uint64_t mis_hash;
    std::int64_t cut;
    std::uint64_t cut_hash;
  };
  Rng rng(0x601DE);
  Graph outerplanar = make_family("outerplanar", 80, rng);
  Graph ktree = make_family("ktree3", 80, rng);
  const KernelPin kernels[] = {
      {"outerplanar", std::move(outerplanar), 2, 33, 5354237802716423904ULL,
       114, 14471530108512737532ULL},
      {"ktree3", std::move(ktree), 3, 40, 1488473169794790540ULL, 166,
       5780511813885903741ULL},
      {"grid 10x11", grid_graph(10, 11), 10, 55, 385130528863505838ULL, 199,
       11079561265738207088ULL}};
  for (const KernelPin& pin : kernels) {
    const NiceTreeDecomposition nd =
        nice_tree_decomposition(tree_decomposition(pin.g));
    CHECK_MSG(nd.width == pin.width, pin.name + ": width");
    const std::vector<int> set = tw_max_independent_set(pin.g, nd);
    CHECK_MSG(set.size() == pin.mis_size, pin.name + ": mis size");
    CHECK_MSG(witness_hash(set) == pin.mis_hash, pin.name + ": mis hash");
    const TwCut tc = tw_max_cut(pin.g, nd);
    CHECK_MSG(tc.cut_edges == pin.cut, pin.name + ": cut");
    CHECK_MSG(witness_hash(tc.side) == pin.cut_hash, pin.name + ": cut hash");
  }
}
