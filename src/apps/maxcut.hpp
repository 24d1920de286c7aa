// Corollary 6.3 — deterministic (1-eps)-approximate maximum cut, plus the
// exact small-instance baseline the bench grades it against.
//
// Approximation shape: OPT >= m/2 on every graph, so a Theorem 1.1
// decomposition at eps* = eps/2 loses at most eps*·m <= eps·OPT cut value
// to inter-cluster edges; clusters are then cut locally — exactly (gray-code
// enumeration) up to exact_cap vertices, and by BFS-parity seeding plus
// first-improvement single-vertex flips above it (the parity seed is already
// optimal on bipartite clusters, which is where the bench pins OPT = m) —
// and a greedy cluster-flip pass reclaims inter-cluster edges for free
// (flipping a whole cluster's side preserves every intra-cluster cut).
//
// Units: rounds through congest::Runtime as everywhere; the flip phases
// charge one round per sweep (each vertex/cluster decision is a local
// exchange with its neighbors).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "apps/approx.hpp"
#include "apps/treewidth.hpp"
#include "congest/runtime.hpp"
#include "congest/shard.hpp"
#include "graph/graph.hpp"
#include "graph/ops.hpp"

namespace mfd::apps {

/// Exact (or best-effort above exact_cap) maximum cut.
struct CutResult {
  std::int64_t cut_edges = 0;
  std::vector<char> side;  // side[v] in {0, 1}
  bool exact = false;      // true iff the gray-code enumeration ran
};

/// The approximate solver's output: cut value, the side assignment, rounds.
struct CutSolution {
  std::int64_t value = 0;
  std::vector<char> side;
  congest::SolverStats stats;
};

namespace detail {

/// First-improvement single-vertex flips until a local optimum (or the pass
/// cap). Returns the number of sweeps run; side is updated in place.
inline int local_flip_passes(const Graph& g, std::vector<char>& side,
                             int max_passes = 60) {
  int passes = 0;
  bool improved = true;
  while (improved && passes < max_passes) {
    improved = false;
    ++passes;
    for (int v = 0; v < g.n(); ++v) {
      int same = 0, other = 0;
      for (int w : g.neighbors(v)) {
        (side[w] == side[v] ? same : other) += 1;
      }
      if (same > other) {  // flipping v gains same - other cut edges
        side[v] ^= 1;
        improved = true;
      }
    }
  }
  return passes;
}

inline std::int64_t cut_value(const Graph& g, const std::vector<char>& side) {
  std::int64_t cut = 0;
  for (int u = 0; u < g.n(); ++u) {
    for (int v : g.neighbors(u)) {
      if (u < v && side[u] != side[v]) ++cut;
    }
  }
  return cut;
}

}  // namespace detail

/// Maximum cut of g. Exact by gray-code enumeration of the 2^(n-1) side
/// assignments when n <= exact_cap (vertex 0 pinned to side 0); above the
/// cap falls back to parity + local flips and reports exact = false.
/// exact_cap DEFAULTS TO 26 and is HARD-CLAMPED TO 30 inside the function
/// (same rationale as phi_certificate's clamp: the exact path walks 2^(n-1)
/// gray-code steps, so a generous knob must neither hang for days nor
/// overflow the 64-bit step counter).
inline CutResult max_cut(const Graph& g, int exact_cap = 26) {
  CutResult out;
  const int n = g.n();
  exact_cap = std::min(exact_cap, 30);
  if (n <= 1) {
    out.side.assign(std::max(n, 0), 0);
    out.exact = true;
    return out;
  }
  if (n > exact_cap) {
    out.side = two_coloring(g).side;  // BFS parity per component
    detail::local_flip_passes(g, out.side);
    out.cut_edges = detail::cut_value(g, out.side);
    return out;
  }
  // Gray-code walk: step i flips exactly one vertex, so the cut value
  // updates in O(deg) and the best assignment is recovered from gray(i).
  std::vector<char> side(n, 0);
  std::int64_t cut = 0, best_cut = 0;
  std::uint64_t best_gray = 0;
  const std::uint64_t limit = std::uint64_t{1} << (n - 1);
  for (std::uint64_t i = 1; i < limit; ++i) {
    int bit = 0;
    while (((i >> bit) & 1u) == 0) ++bit;
    const int v = bit + 1;  // vertex 0 stays fixed
    int same = 0, other = 0;
    for (int w : g.neighbors(v)) {
      (side[w] == side[v] ? same : other) += 1;
    }
    cut += same - other;
    side[v] ^= 1;
    if (cut > best_cut) {
      best_cut = cut;
      best_gray = i ^ (i >> 1);
    }
  }
  out.cut_edges = best_cut;
  out.exact = true;
  out.side.assign(n, 0);
  for (int v = 1; v < n; ++v) {
    out.side[v] = static_cast<char>((best_gray >> (v - 1)) & 1u);
  }
  return out;
}

namespace detail {

/// The per-cluster max-cut ladder (run_ladder's tiers): forest clusters
/// take the ladder's BFS-parity sides (exact — forests are bipartite, so
/// the parity cut is all m edges); there is no König rung, so the other
/// bipartite clusters stay on the later tiers like every non-forest
/// cluster; medium clusters the treewidth DP; clusters of at most
/// exact_cap vertices the gray-code enumeration (the exact-search tier here
/// — bb_nodes counts its 2^(n-1)-1 single-flip steps, always within
/// "budget"; above the cap it does not apply); everything else BFS-parity
/// plus first-improvement flips (the greedy tier; `passes` reports the
/// sweep count for the caller's envelope bill).
inline std::vector<char> cluster_cut(const Graph& h, int exact_cap,
                                     const LadderConfig& cfg, TierReport& rep,
                                     int& passes) {
  passes = 0;
  const int cap = std::min(exact_cap, 30);  // max_cut's own clamp
  return run_ladder(
      h, cfg, rep, [](const TwoColoring& col) { return col.side; },
      no_bipartite_rung<std::vector<char>>,
      [&h](const NiceTreeDecomposition& nd) { return tw_max_cut(h, nd).side; },
      [&]() -> std::optional<LadderSearch<std::vector<char>>> {
        if (h.n() > cap) return std::nullopt;
        return LadderSearch<std::vector<char>>{
            max_cut(h, cap).side, true, (std::int64_t{1} << (h.n() - 1)) - 1};
      },
      [&] {
        std::vector<char> side = two_coloring(h).side;
        passes = local_flip_passes(h, side);
        return side;
      });
}

}  // namespace detail

/// Corollary 6.3: deterministic (1-eps)-approximate maximum cut. Clusters
/// are cut by the width-gated ladder (parity on forests, treewidth DP,
/// gray-code enumeration, parity + flips) and the per-cluster solves fan
/// over `pool` (detail::solve_clusters: bit-identical at every thread
/// count); the cluster-flip gain scan is a serial O(m) sweep per pass.
/// `ladder` sets the ladder's width gate.
inline CutSolution approx_max_cut(const Graph& g, double eps,
                                  int exact_cap = 24,
                                  congest::ShardPool* pool = nullptr,
                                  const LadderConfig& ladder = {}) {
  CutSolution out;
  const double eps_star = detail::clamp_eps_star(eps / 2.0);
  const detail::AppDecomposition dec =
      detail::decompose_for_app(g, eps_star, out.stats);

  struct ClusterCut {
    std::vector<char> side;  // by cluster-local id
    int passes = 0;
  };
  const std::vector<ClusterCut> local = detail::solve_clusters(
      g, dec, pool, out.stats,
      [&](const InducedSubgraph& sub, TierReport& rep) {
        ClusterCut cc;
        cc.side = detail::cluster_cut(sub.graph, exact_cap, ladder, rep,
                                      cc.passes);
        return cc;
      });
  out.side.assign(g.n(), 0);
  int max_passes = 1;
  for (std::size_t c = 0; c < local.size(); ++c) {
    max_passes = std::max(max_passes, local[c].passes);
    const std::vector<int>& verts = dec.members[c];
    for (std::size_t i = 0; i < local[c].side.size(); ++i) {
      out.side[verts[i]] = local[c].side[i];
    }
  }
  // Each flip sweep exchanges one side-bit per directed intra-cluster edge.
  out.stats.runtime.charge_envelope(
      "intra-cluster flips (1 round/sweep)", max_passes,
      2 * (g.m() - dec.edt.quality.cut_edges));

  // Cluster-flip refinement: flipping a whole cluster keeps every intra cut
  // and can only be accepted when it gains inter-cluster edges.
  const std::vector<int>& cl = dec.edt.clustering.cluster;
  int flip_passes = 0;
  bool improved = true;
  while (improved && flip_passes < 30) {
    improved = false;
    ++flip_passes;
    std::vector<std::int64_t> gain(dec.edt.clustering.k, 0);
    for (int u = 0; u < g.n(); ++u) {
      for (int v : g.neighbors(u)) {
        if (u < v && cl[u] != cl[v]) {
          const std::int64_t d = out.side[u] == out.side[v] ? 1 : -1;
          gain[cl[u]] += d;
          gain[cl[v]] += d;
        }
      }
    }
    // Accept one flip per pass (the best), so gains never go stale.
    int best_c = -1;
    for (int c = 0; c < dec.edt.clustering.k; ++c) {
      if (gain[c] > 0 && (best_c < 0 || gain[c] > gain[best_c])) best_c = c;
    }
    if (best_c >= 0) {
      for (int v = 0; v < g.n(); ++v) {
        if (cl[v] == best_c) out.side[v] ^= 1;
      }
      improved = true;
    }
  }
  // Each pass aggregates cut-edge gains and broadcasts one flip decision —
  // at most one O(log n)-bit message per directed edge per round.
  out.stats.runtime.charge_envelope("cluster flips (1 round/pass)",
                                    flip_passes, 2 * g.m());

  out.value = detail::cut_value(g, out.side);
  out.stats.finish();
  return out;
}

}  // namespace mfd::apps
