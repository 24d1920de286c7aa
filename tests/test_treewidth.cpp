// The treewidth-DP solver tier (apps/treewidth.hpp): decomposition validity
// on every generator family, structural width bounds (outerplanar and
// series-parallel are partial 2-trees, so the degree-2 greedy certifies
// width <= 2; every min-degree vertex of a k-tree is simplicial, so k-trees
// certify width == k), and the differential sweeps the ISSUE pins: all four
// DP kernels against bitmask brute force on <= 20-vertex graphs, and
// against the exact B&B / tree-DP baselines on mid-size forests and grids.
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
  // Mode strings round-trip (the benches' --solver flag).
  CHECK(solver_mode_from_string("tw") == SolverMode::kTreewidth);
  CHECK(solver_mode_from_string("bb") == SolverMode::kBranchBound);
  CHECK(solver_mode_from_string("greedy") == SolverMode::kGreedy);
  CHECK(solver_mode_from_string("auto") == SolverMode::kAuto);
  // A mistyped name is reported, not silently read as auto.
  CHECK(!solver_mode_from_string("tww").has_value());
  CHECK(!solver_mode_from_string("").has_value());
  CHECK(std::string(solver_mode_name(SolverMode::kTreewidth)) == "tw");
}

TEST_CASE(tw_dp_matches_bruteforce_small) {
  // All four kernels against bitmask brute force on <= 20-vertex connected
  // graphs: optimal VALUE equal, and every witness valid.
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

    const std::vector<int> vc = tw_min_vertex_cover(g, nd);
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

    const std::vector<int> vc = tw_min_vertex_cover(g, nd);
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
  // total, solver modes steer the ladder, and every mode still produces a
  // valid solution with a clean audit.
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

  // Forced modes, checked on every laddered solver (they share one ladder):
  // greedy puts every cluster on the greedy tier; tw disables the B&B tier;
  // bb (the legacy ladder) never runs the DP. A width gate of 2 leaves some
  // clusters past it, where tw mode must fall to greedy, not to B&B.
  for (const SolverMode mode : {SolverMode::kGreedy, SolverMode::kTreewidth,
                                SolverMode::kBranchBound}) {
    LadderConfig cfg;
    cfg.mode = mode;
    cfg.tw_cap = 2;
    const std::string ctx = solver_mode_name(mode);
    const MdsSolution fmds = approx_min_dominating_set(g, 0.3, 3, nullptr, cfg);
    CHECK_MSG(is_dominating(g, fmds.vertices), ctx + ": mds");
    const SetSolution fmis =
        approx_max_independent_set(g, 0.3, 3, nullptr, cfg);
    CHECK_MSG(is_independent(g, fmis.vertices), ctx + ": mis");
    const SetSolution fvc = approx_min_vertex_cover(g, 0.3, 3, nullptr, cfg);
    CHECK_MSG(is_vertex_cover(g, fvc.vertices), ctx + ": vc");
    const CutSolution fcut = approx_max_cut(g, 0.3, 24, nullptr, cfg);
    CHECK_MSG(fcut.value == side_cut(g, fcut.side), ctx + ": cut");
    if (mode == SolverMode::kGreedy) {
      // The greedy ladder can only be looser than the full one.
      CHECK(fmds.vertices.size() >= mds.vertices.size());
    }
    for (const auto& [name, st] :
         {std::pair<std::string, const congest::SolverStats*>{"mds",
                                                               &fmds.stats},
          {"mis", &fmis.stats},
          {"vc", &fvc.stats},
          {"cut", &fcut.stats}}) {
      const std::string at = ctx + ": " + name;
      CHECK_MSG(tier_sum(*st) == st->clusters, at + " tier sum");
      switch (mode) {
        case SolverMode::kGreedy:
          CHECK_MSG(st->tier_greedy == st->clusters, at + " all greedy");
          CHECK_MSG(st->bb_runs == 0, at + " no B&B");
          break;
        case SolverMode::kTreewidth:
          CHECK_MSG(st->tier_bb == 0 && st->bb_runs == 0, at + " no B&B");
          CHECK_MSG(st->tier_greedy > 0, at + " a cluster past the gate");
          break;
        default:
          CHECK_MSG(st->tier_tw_dp == 0, at + " no DP");
          break;
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
