// Section-6 approximation applications — Corollaries 6.4 / 6.5.
//
// Every solver here is the same two-phase shape the paper's Theorem 1.2
// applications share: build a Theorem 1.1 (ε*, D, T)-decomposition whose cut
// budget ε* is scaled down so the additive ε*·m combination loss becomes a
// multiplicative (1 ± ε), then solve every cluster *exactly* with the
// centralized baselines (König matching / branch-and-bound MIS, blossom
// matching) — the simulation stand-in for the paper's free local
// computation inside O(1/ε)-diameter clusters — and repair the seams along
// cut edges. detail::solve_clusters is the one per-cluster driver all five
// Section-6 solvers (here, maxcut.hpp and domination.hpp) share: it fans
// the cluster solves over a lent congest::ShardPool and folds their ladder
// reports in cluster order. The ladders themselves are apps/treewidth.hpp's
// run_ladder with per-problem tier bodies; the MIS / VC ladder runs forest
// reductions -> König matching on the other bipartite clusters -> treewidth
// DP -> budgeted B&B -> greedy completion. The seam sweeps are serial O(m)
// passes.
//
// Guarantee bookkeeping (alpha = the minor-free density bound the caller
// asserts for its family: m <= alpha * n; trees 1, outerplanar 2, planar 3):
//   * MIS:      alpha(G) >= n / (2*alpha + 1) by degeneracy-greedy, and each
//               cut edge costs at most one vertex of the per-cluster union,
//               so eps* = eps / (alpha * (2*alpha + 1)) gives |I| >=
//               (1 - eps) * OPT.
//   * Matching: nu(G) >= m / (2*Delta - 1) (every matched edge blocks at
//               most 2*Delta - 1 edges), and restricting an optimal matching
//               to intra-cluster edges loses at most one edge per cut edge,
//               so eps* = eps / (2*Delta + 1) gives |M| >= (1 - eps) * OPT.
//   * VC:       per-cluster exact covers plus one endpoint per cut edge is a
//               cover of size <= OPT + cut, and OPT >= nu(G), so the same
//               eps* gives |C| <= (1 + eps) * OPT.
//
// Round accounting goes through congest::Runtime: the decomposition's phases
// are absorbed verbatim, the per-cluster exact solve charges the 2D+1
// gather/scatter a CONGEST cluster pays to act as one node, and the seam
// repair charges one round (cut endpoints exchange one bit). On cycles the
// whole bill is O(log* n + poly(1/eps)) — the Theorem 6.1 shape the
// log*-flatness test pins.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "apps/blossom.hpp"
#include "apps/exact.hpp"
#include "apps/treewidth.hpp"
#include "congest/runtime.hpp"
#include "congest/shard.hpp"
#include "decomp/edt.hpp"
#include "graph/graph.hpp"
#include "graph/ops.hpp"

namespace mfd::apps {

/// A vertex-set solution (approximate MIS or vertex cover) plus its round
/// bill. vertices is sorted.
struct SetSolution {
  std::vector<int> vertices;
  congest::SolverStats stats;
};

/// An approximate maximum matching as (u, v) edges with u < v.
struct MatchingSolution {
  std::vector<std::pair<int, int>> edges;
  congest::SolverStats stats;
};

namespace detail {

/// The decomposition every Section-6 solver programs against: Theorem 1.1 at
/// the solver's ε*, clusters materialized, rounds absorbed into stats.
struct AppDecomposition {
  decomp::EdtDecomposition edt;
  std::vector<std::vector<int>> members;
};

inline AppDecomposition decompose_for_app(const Graph& g, double eps_star,
                                          congest::SolverStats& stats) {
  AppDecomposition out;
  out.edt = decomp::build_edt_decomposition(g, eps_star);
  out.members = decomp::cluster_members(out.edt.clustering);
  {
    congest::ChargeScope edt_scope(stats.runtime, "edt");
    edt_scope.absorb(out.edt.ledger);
  }
  stats.T = out.edt.T_measured;
  stats.clusters = out.edt.clustering.k;
  // Acting as one node per cluster: gather the cluster topology to its
  // center and scatter the local answer back, in parallel across clusters.
  // Envelope bill: every gather/scatter round moves at most one O(log n)-bit
  // message per directed intra-cluster edge (the only edges it uses).
  const std::int64_t intra_directed =
      2 * (g.m() - out.edt.quality.cut_edges);
  stats.runtime.charge_envelope("cluster solve (gather+scatter, 2D+1)",
                                2 * out.edt.quality.max_diameter + 1,
                                intra_directed);
  return out;
}

/// Keep eps* off zero so degenerate inputs (isolated vertices, eps ~ 0)
/// still terminate; smaller eps* only makes the decomposition finer.
inline double clamp_eps_star(double eps_star) {
  return std::max(eps_star, 1e-6);
}

/// The per-cluster driver every Section-6 solver shares: solve(sub, rep)
/// runs on the induced subgraph of every non-empty cluster, fanned over
/// `pool` — clusters are vertex-disjoint and every cluster solver is
/// deterministic — and the tier reports fold into `stats` in cluster order,
/// so results and the ladder trail are bit-identical at every thread count
/// (test_shard gates it). A solver without a ladder (matching) leaves `rep`
/// unsolved, which the fold skips. Empty clusters keep a default result.
template <class Solve>
auto solve_clusters(const Graph& g, const AppDecomposition& dec,
                    congest::ShardPool* pool, congest::SolverStats& stats,
                    Solve&& solve) {
  using Result = decltype(solve(std::declval<const InducedSubgraph&>(),
                                std::declval<TierReport&>()));
  const int k = static_cast<int>(dec.members.size());
  std::vector<Result> local(k);
  std::vector<TierReport> reports(k);
  congest::for_each_task(pool, k, [&](int c, int /*worker*/) {
    if (dec.members[c].empty()) return;
    local[c] = solve(induced_subgraph(g, dec.members[c]), reports[c]);
  });
  for (const TierReport& r : reports) accumulate_tier(stats, r);
  return local;
}

/// The vertex-set solvers' use of the driver: `ladder(sub, rep)` solves one
/// cluster (a cluster_* entry: cluster_mis, cluster_vc, cluster_mds) and
/// returns its witness in local ids; returns the union of the cluster
/// witnesses as 0/1 marks over parent vertex ids.
template <class Ladder>
std::vector<char> cluster_union(const Graph& g, const AppDecomposition& dec,
                                congest::ShardPool* pool,
                                congest::SolverStats& stats, Ladder&& ladder) {
  const std::vector<std::vector<int>> local = solve_clusters(
      g, dec, pool, stats, [&](const InducedSubgraph& sub, TierReport& rep) {
        std::vector<int> s = ladder(sub, rep);
        for (int& v : s) v = sub.to_parent[v];
        return s;
      });
  std::vector<char> in_set(g.n(), 0);
  for (const std::vector<int>& s : local) {
    for (int v : s) in_set[v] = 1;
  }
  return in_set;
}

/// Marks the cluster-boundary vertices of `sub` (local ids): those with a
/// g-edge leaving the cluster. The induced subgraph keeps every
/// intra-cluster edge of the simple graph g, so they are exactly the
/// vertices whose degree in g exceeds their degree in the cluster.
inline std::vector<char> boundary_flags(const Graph& g,
                                        const InducedSubgraph& sub) {
  std::vector<char> out(sub.graph.n(), 0);
  for (int v = 0; v < sub.graph.n(); ++v) {
    out[v] = g.degree(sub.to_parent[v]) > sub.graph.degree(v) ? 1 : 0;
  }
  return out;
}

/// The MIS ladder cluster_mis and cluster_vc share (run_ladder's tiers):
/// forest clusters solve by reductions alone (every tree has a leaf, so
/// MisSolver never branches there); the other bipartite clusters take
/// König's construction on a Hopcroft–Karp matching, the complement of the
/// cover built from the side of local vertex 0 — or, with `boundary`, of
/// whichever of the two covers holds more boundary vertices (ties to side
/// 0); then the treewidth DP, then the budgeted B&B (a blown budget keeps
/// its greedy-completed incumbent), then the greedy completion (a budget-0
/// solve: reductions + min-degree greedy).
inline std::vector<int> mis_ladder(const Graph& h,
                                   const std::vector<char>* boundary,
                                   const LadderConfig& cfg, TierReport& rep) {
  return run_ladder(
      h, cfg, rep,
      [&h](const TwoColoring& /*col*/) {
        return max_independent_set(h).set;
      },
      [&](const TwoColoring& col) -> std::optional<std::vector<int>> {
        const std::vector<int> mate = bipartite_matching(h, col.side);
        std::vector<int> cover = konig_cover(h, col.side, mate, 0);
        if (boundary != nullptr) {
          const auto on_boundary = [boundary](const std::vector<int>& c) {
            return std::count_if(c.begin(), c.end(),
                                 [boundary](int v) { return (*boundary)[v]; });
          };
          std::vector<int> other = konig_cover(h, col.side, mate, 1);
          if (on_boundary(other) > on_boundary(cover)) cover = std::move(other);
        }
        return vertex_complement(h, cover);
      },
      [&h](const NiceTreeDecomposition& nd) {
        return tw_max_independent_set(h, nd);
      },
      [&h]() -> std::optional<LadderSearch<std::vector<int>>> {
        MisSearchReport r;
        std::vector<int> s = max_independent_set(h, kLadderNodeBudget, &r).set;
        return LadderSearch<std::vector<int>>{std::move(s), r.exact, r.nodes};
      },
      [&h] { return max_independent_set(h, 0, nullptr).set; });
}

/// The cluster MIS ladder: mis_ladder with the plain König witness.
inline std::vector<int> cluster_mis(const Graph& h, const LadderConfig& cfg,
                                    TierReport& rep) {
  return mis_ladder(h, nullptr, cfg, rep);
}

/// Cluster VC: the complement of the MIS ladder's witness — a valid cover
/// for every tier (the complement of ANY independent set covers all edges),
/// minimum whenever the tier was exact. On the König rung it is the
/// minimum cover holding more of the boundary marked by `boundary` (local
/// ids), so fewer cut edges need the seam patch. Same tier report.
inline std::vector<int> cluster_vc(const Graph& h,
                                   const std::vector<char>& boundary,
                                   const LadderConfig& cfg, TierReport& rep) {
  return vertex_complement(h, mis_ladder(h, &boundary, cfg, rep));
}

}  // namespace detail

/// Corollary 6.5: deterministic (1-eps)-approximate maximum independent set.
/// alpha is the family's density bound (m <= alpha*n). `pool` fans the
/// per-cluster ladder solves (detail::solve_clusters: bit-identical at every
/// thread count); the seam repair is one serial sweep over the cut edges.
/// `ladder` sets the ladder's width gate.
inline SetSolution approx_max_independent_set(const Graph& g, double eps,
                                              int alpha,
                                              congest::ShardPool* pool = nullptr,
                                              const LadderConfig& ladder = {}) {
  SetSolution out;
  const double a = std::max(alpha, 1);
  const double eps_star =
      detail::clamp_eps_star(eps / (a * (2.0 * a + 1.0)));
  const detail::AppDecomposition dec =
      detail::decompose_for_app(g, eps_star, out.stats);

  std::vector<char> in_set = detail::cluster_union(
      g, dec, pool, out.stats,
      [&ladder](const InducedSubgraph& sub, TierReport& rep) {
        return detail::cluster_mis(sub.graph, ladder, rep);
      });
  // Seam repair: a cut edge with both endpoints chosen drops its larger
  // endpoint — at most one loss per cut edge, which eps* budgeted for.
  const std::vector<int>& cl = dec.edt.clustering.cluster;
  std::int64_t conflicts = 0;
  for (int u = 0; u < g.n(); ++u) {
    for (int v : g.neighbors(u)) {
      if (u < v && cl[u] != cl[v] && in_set[u] && in_set[v]) {
        in_set[v] = 0;
        ++conflicts;
      }
    }
  }
  out.stats.runtime.charge("seam repair (1 round)", 1, conflicts,
                           conflicts > 0 ? 1 : 0);
  for (int v = 0; v < g.n(); ++v) {
    if (in_set[v]) out.vertices.push_back(v);
  }
  out.stats.finish();
  return out;
}

/// Corollary 6.4 (matching half): deterministic (1-eps)-approximate maximum
/// matching via per-cluster blossom on the (ε*, D, T)-decomposition.
/// Blossom is polynomial, so there is no solver ladder here — but the
/// per-cluster solves still fan over `pool` through the same driver (edges
/// folded in cluster order, then sorted).
inline MatchingSolution approx_max_matching(const Graph& g, double eps,
                                            int alpha,
                                            congest::ShardPool* pool = nullptr) {
  (void)alpha;  // the matching bound is degree- not density-driven
  MatchingSolution out;
  const double eps_star =
      detail::clamp_eps_star(eps / (2.0 * g.max_degree() + 1.0));
  const detail::AppDecomposition dec =
      detail::decompose_for_app(g, eps_star, out.stats);

  const std::vector<std::vector<std::pair<int, int>>> local =
      detail::solve_clusters(
          g, dec, pool, out.stats,
          [](const InducedSubgraph& sub, TierReport& /*rep*/) {
            std::vector<std::pair<int, int>> edges;
            for (const auto& [a, b] : max_matching_edges(sub.graph)) {
              const int u = sub.to_parent[a], v = sub.to_parent[b];
              edges.emplace_back(std::min(u, v), std::max(u, v));
            }
            return edges;
          });
  for (const auto& edges : local) {
    out.edges.insert(out.edges.end(), edges.begin(), edges.end());
  }
  std::sort(out.edges.begin(), out.edges.end());
  out.stats.finish();
  return out;
}

/// Corollary 6.4 (cover half): deterministic (1+eps)-approximate minimum
/// vertex cover — per-cluster ladder covers plus one endpoint per cut edge.
/// `pool` fans the per-cluster solves; the seam patch is a serial sweep.
/// `ladder` sets the ladder's width gate.
inline SetSolution approx_min_vertex_cover(const Graph& g, double eps,
                                           int alpha,
                                           congest::ShardPool* pool = nullptr,
                                           const LadderConfig& ladder = {}) {
  (void)alpha;
  SetSolution out;
  const double eps_star =
      detail::clamp_eps_star(eps / (2.0 * g.max_degree() + 1.0));
  const detail::AppDecomposition dec =
      detail::decompose_for_app(g, eps_star, out.stats);

  std::vector<char> in_cover = detail::cluster_union(
      g, dec, pool, out.stats,
      [&](const InducedSubgraph& sub, TierReport& rep) {
        return detail::cluster_vc(sub.graph, detail::boundary_flags(g, sub),
                                  ladder, rep);
      });
  // Every cut edge must be covered too: take its smaller endpoint unless one
  // endpoint is already in.
  const std::vector<int>& cl = dec.edt.clustering.cluster;
  std::int64_t patched = 0;
  for (int u = 0; u < g.n(); ++u) {
    for (int v : g.neighbors(u)) {
      if (u < v && cl[u] != cl[v] && !in_cover[u] && !in_cover[v]) {
        in_cover[u] = 1;
        ++patched;
      }
    }
  }
  out.stats.runtime.charge("seam repair (1 round)", 1, patched,
                           patched > 0 ? 1 : 0);
  for (int v = 0; v < g.n(); ++v) {
    if (in_cover[v]) out.vertices.push_back(v);
  }
  out.stats.finish();
  return out;
}

}  // namespace mfd::apps
