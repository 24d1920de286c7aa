// (ε, φ, c) overlap expander decomposition — §4.2 / Lemma 4.1, in the
// Chang–Saranurak (arXiv:2007.14898) style.
//
// Clusters may overlap: the object guarantees (i) every cluster's induced
// support has conductance >= φ, (ii) every vertex lies in at most c
// clusters, and (iii) all but an ε fraction of edges have both endpoints in
// a common cluster. The construction levels it: level 0 runs the (ε', φ)
// partition pipeline on G; the edges it cuts form the level-1 graph, which
// gets its own partition; and so on until at most ε·m edges remain
// uncovered. Each level covers at least half of its edges in practice, so
// the level count — and hence the overlap c, since a vertex joins at most
// one cluster per level — stays O(log 1/ε), the paper's bound.
//
// The level count stays O(log 1/ε) only if every level actually halves its
// uncovered-edge set, so the halving is *enforced*: a level that leaves
// more than half of its edges uncovered is repaired SURGICALLY — the
// still-uncovered edge subgraph (not the whole level) is re-partitioned at
// half the level ε, its clusters appended to the family (overlap is exactly
// what the object licenses), and the ladder repeats on the geometrically
// smaller remainder up to kBudgetRetries times. Coverage is monotone across
// retries — an edge covered by an earlier pass stays covered — so retries
// only shrink the uncovered set. A level that still misses its budget is
// recorded in OverlapDecompResult::budget_violations so the
// evaluate_overlap audit fails loudly instead of silently recursing past
// the level cap. Each retry can add one more cluster membership to a
// vertex, so the overlap c is bounded by levels + total retries (retries
// are rare: the trail in level_retries records them).
//
// evaluate_overlap audits the overlap c, the uncovered fraction and the
// level budget on the finished object. The conductance guarantee (i) is
// certify_parts(g, result.oc.members)'s (decomp/expander_decomp.hpp), the
// one certification path of both decomposition engines.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "decomp/clustering.hpp"
#include "decomp/expander_decomp.hpp"
#include "graph/graph.hpp"
#include "graph/metrics.hpp"
#include "graph/ops.hpp"

namespace mfd::decomp {

/// A family of possibly-overlapping clusters over the vertex set [0, n).
struct OverlapClustering {
  int n = 0;
  std::vector<std::vector<int>> members;  // members[c] = vertices of cluster c
  int k() const { return static_cast<int>(members.size()); }
};

struct OverlapDecompParams {
  double level_eps = 0.5;  // per-level cut target handed to the partition
};

/// Surgical retries a level may run before it is recorded as a budget
/// violation.
inline constexpr int kBudgetRetries = 3;

struct OverlapDecompResult {
  OverlapClustering oc;
  int iterations = 0;      // levels actually built
  double phi_target = 0.0; // the level-0 conductance target
  congest::Runtime ledger; // phase-attributed simulated CONGEST rounds
  std::int64_t uncovered_edges = 0;
  // Per-level audit trail: edges entering each level and edges its partition
  // left uncovered. budget_violations lists levels that kept > 1/2 of their
  // edges uncovered even after the surgical retries (always empty unless the
  // instance defeats the retry ladder).
  std::vector<std::int64_t> level_edges;
  std::vector<std::int64_t> level_uncovered;
  // Surgical retries run per level (0 on levels that met their budget first
  // try).
  std::vector<int> level_retries;
  std::vector<int> budget_violations;
};

inline OverlapDecompResult overlap_expander_decomposition(
    const Graph& g, double eps, OverlapDecompParams params = {}) {
  OverlapDecompResult out;
  out.oc.n = g.n();
  const int max_levels =
      static_cast<int>(std::ceil(std::log2(1.0 / eps))) + 2;
  const std::int64_t allowance =
      static_cast<std::int64_t>(eps * static_cast<double>(g.m()));

  std::vector<std::pair<int, int>> uncovered = g.edges();
  for (int level = 0; level < max_levels; ++level) {
    if (uncovered.empty() ||
        static_cast<std::int64_t>(uncovered.size()) <= allowance) {
      break;
    }
    // The level's charges (partition pipeline + any surgical retries) close
    // into the ledger under one "level L: " prefix, full phase breakdown
    // preserved — the bench per-phase table shows "level 0: edt: ...".
    congest::ChargeScope scope(out.ledger, "level " + std::to_string(level));

    // Shared by the base run and the surgical retries: induce an edge set on
    // its incident vertices. verts/local are the global<->local maps of the
    // MOST RECENT build — separated()/adopt_clusters() below read them.
    std::vector<int> verts, local;
    const auto build_graph = [&](const std::vector<std::pair<int, int>>& es) {
      verts.clear();
      verts.reserve(2 * es.size());
      for (const auto& [u, v] : es) {
        verts.push_back(u);
        verts.push_back(v);
      }
      std::sort(verts.begin(), verts.end());
      verts.erase(std::unique(verts.begin(), verts.end()), verts.end());
      local.assign(g.n(), -1);
      for (std::size_t i = 0; i < verts.size(); ++i) {
        local[verts[i]] = static_cast<int>(i);
      }
      std::vector<std::pair<int, int>> ledges;
      ledges.reserve(es.size());
      for (const auto& [u, v] : es) ledges.emplace_back(local[u], local[v]);
      return Graph::from_edges(static_cast<int>(verts.size()),
                               std::move(ledges));
    };
    // Edges of `es` whose endpoints partition `e` put in different clusters.
    const auto separated = [&](const ExpanderDecomp& e,
                               const std::vector<std::pair<int, int>>& es) {
      std::vector<std::pair<int, int>> still;
      for (const auto& [u, v] : es) {
        if (e.clustering.cluster[local[u]] != e.clustering.cluster[local[v]]) {
          still.emplace_back(u, v);
        }
      }
      return still;
    };
    // Every pass's clusters join the family immediately — the retries'
    // clusters legitimately overlap the base pass's, which is exactly the
    // freedom the overlap object licenses.
    const auto adopt_clusters = [&](const ExpanderDecomp& e) {
      std::vector<std::vector<int>> mem(e.clustering.k);
      for (std::size_t i = 0; i < verts.size(); ++i) {
        mem[e.clustering.cluster[i]].push_back(verts[i]);
      }
      for (auto& cluster : mem) {
        if (!cluster.empty()) out.oc.members.push_back(std::move(cluster));
      }
    };

    double lvl_eps = params.level_eps;
    const Graph h = build_graph(uncovered);
    const ExpanderDecomp ed =
        expander_decomposition_minor_free(h, lvl_eps);
    scope.absorb(ed.ledger);
    if (level == 0) out.phi_target = ed.phi_target;
    adopt_clusters(ed);
    std::vector<std::pair<int, int>> still = separated(ed, uncovered);
    // Enforced halving, surgically: instead of throwing away the whole
    // level and re-running it at halved ε (every retry would repay the full
    // level cost and discard clusters that were already fine), re-partition
    // ONLY the still-uncovered remainder. Coverage is monotone — an edge
    // covered by an earlier pass stays covered — so each rung works on a
    // smaller instance and `still` only shrinks.
    int retries = 0;
    const auto over_budget = [&] {
      return 2 * static_cast<std::int64_t>(still.size()) >
             static_cast<std::int64_t>(uncovered.size());
    };
    while (retries < kBudgetRetries && over_budget()) {
      ++retries;
      lvl_eps /= 2.0;
      const Graph rh = build_graph(still);
      const ExpanderDecomp red = expander_decomposition_minor_free(rh, lvl_eps);
      scope.absorb(red.ledger, "retry " + std::to_string(retries) + ": ");
      adopt_clusters(red);
      still = separated(red, still);
    }
    if (over_budget()) out.budget_violations.push_back(level);
    ++out.iterations;
    out.level_edges.push_back(static_cast<std::int64_t>(uncovered.size()));
    out.level_uncovered.push_back(static_cast<std::int64_t>(still.size()));
    out.level_retries.push_back(retries);
    uncovered = std::move(still);
  }
  out.uncovered_edges = static_cast<std::int64_t>(uncovered.size());
  return out;
}

/// Audited quality of an overlap decomposition. base.eps_fraction counts
/// edges covered by NO cluster; base.cut_edges is that count; base's
/// diameter/size/connectivity fields describe the cluster supports.
/// level_budget_ok is only meaningful when the audit is given the
/// construction result (the overload below): it verifies every level left
/// at most half of its edges uncovered — the budget that caps the level
/// count (and hence the overlap c) at O(log 1/ε). Support conductance is
/// certify_parts' job, not this audit's.
struct OverlapQuality {
  ClusterQuality base;
  int overlap_c = 0;            // max clusters sharing one vertex
  bool level_budget_ok = true;  // per-level halving held (see above)
};

inline OverlapQuality evaluate_overlap(const Graph& g,
                                       const OverlapClustering& oc) {
  OverlapQuality q;
  std::vector<std::vector<int>> of(g.n());  // clusters containing v, sorted
  for (int c = 0; c < oc.k(); ++c) {
    for (int v : oc.members[c]) of[v].push_back(c);
  }
  for (int v = 0; v < g.n(); ++v) {
    q.overlap_c = std::max(q.overlap_c, static_cast<int>(of[v].size()));
  }
  for (int u = 0; u < g.n(); ++u) {
    for (int v : g.neighbors(u)) {
      if (u >= v) continue;
      bool covered = false;
      for (int c : of[u]) {
        if (std::binary_search(of[v].begin(), of[v].end(), c)) {
          covered = true;
          break;
        }
      }
      if (!covered) ++q.base.cut_edges;
    }
  }
  q.base.eps_fraction = g.m() == 0 ? 0.0
                                   : static_cast<double>(q.base.cut_edges) /
                                         static_cast<double>(g.m());
  for (const auto& mem : oc.members) {
    q.base.max_cluster_size =
        std::max(q.base.max_cluster_size, static_cast<int>(mem.size()));
    const InducedSubgraph sub = induced_subgraph(g, mem);
    if (!is_connected(sub.graph)) q.base.clusters_connected = false;
    // Support diameter via double sweep (lower bound, exact on trees).
    int src = 0, diam = 0;
    for (int sweep = 0; sweep < 2 && sub.graph.n() > 0; ++sweep) {
      const std::vector<int> d = bfs_distances(sub.graph, src);
      for (int i = 0; i < sub.graph.n(); ++i) {
        if (d[i] > diam) {
          diam = d[i];
          src = i;
        }
      }
    }
    q.base.max_diameter = std::max(q.base.max_diameter, diam);
  }
  return q;
}

/// Audit overload for a full construction result: the clustering checks
/// above plus the per-level halving budget, which FAILS LOUDLY — every
/// violated level is reported on stderr and level_budget_ok goes false —
/// so a run that silently blew its level budget cannot pass a bench or
/// test that audits it.
inline OverlapQuality evaluate_overlap(const Graph& g,
                                       const OverlapDecompResult& result) {
  OverlapQuality q = evaluate_overlap(g, result.oc);
  for (std::size_t level = 0; level < result.level_edges.size(); ++level) {
    if (2 * result.level_uncovered[level] > result.level_edges[level]) {
      q.level_budget_ok = false;
      std::fprintf(stderr,
                   "evaluate_overlap: level %zu left %lld of %lld edges "
                   "uncovered (> 1/2 budget)\n",
                   level, static_cast<long long>(result.level_uncovered[level]),
                   static_cast<long long>(result.level_edges[level]));
    }
  }
  for (int level : result.budget_violations) {
    q.level_budget_ok = false;
    std::fprintf(stderr,
                 "evaluate_overlap: construction exhausted its retries "
                 "at level %d\n",
                 level);
  }
  return q;
}

}  // namespace mfd::decomp
