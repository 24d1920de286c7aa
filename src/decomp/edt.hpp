// Deterministic (ε, D, T)-decomposition — Theorem 1.1 / Corollary 6.1.
//
// Two interchangeable engines build the decomposition:
//
//   * kLocalContraction (default) — the Section-4 pipeline in
//     decomp/ldd_local.hpp: iterated heavy-stars contraction under a
//     diameter guard, O(log* n)-type rounds per iteration and no global
//     BFS anywhere. This is the fidelity-faithful engine: construction
//     rounds do not grow with the graph diameter.
//   * kGlobalBfs — the original centralized simulation: iterated BFS-band
//     chopping in the style of Klein–Plotkin–Rao. Each pass BFS-layers
//     every remaining cluster and cuts between bands of width
//     w = ceil(passes/ε) at the offset minimizing cut edges; by averaging
//     the best offset cuts at most m_C/w edges per cluster, so `passes`
//     budgeted passes cut at most ε·m edges in total. Charges real BFS
//     depth per pass (Θ(√n) on a grid) — kept selectable, serial only, as
//     the baseline bench_ldd and the ablation bench grade that gap against.
//
// The lent EdtParams::pool parallelizes the local-contraction engine's
// per-round vertex work; results are identical for every thread count.
//
// Both engines meet the hard ε cut budget deterministically. The ledger
// charges simulated rounds: the O(log* n / ε) preprocessing term, per-pass
// work (BFS depth + offset aggregation, or heavy-stars + Cole–Vishkin), and
// the +T routing-structure setup. T_measured distinguishes the paper's two
// tradeoffs (Theorem 1.1): the overlap variant pays a log Δ factor on
// cluster diameter; the polylog variant pays an additive polylog(Δ, 1/ε)
// term.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "congest/shard.hpp"
#include "decomp/clustering.hpp"
#include "decomp/ldd_local.hpp"
#include "graph/graph.hpp"

namespace mfd::decomp {

/// Theorem 1.1 offers two T tradeoffs: kOverlapRouting multiplies the cluster
/// diameter by a log Δ factor, kPolylogRouting pays an additive
/// polylog(Δ, 1/ε) term instead.
enum class EdtVariant { kPolylogRouting, kOverlapRouting };

/// Which engine performs the ε-budgeted clustering (see the header comment).
enum class EdtChop { kLocalContraction, kGlobalBfs };

/// Knobs of build_edt_decomposition. All "rounds" counts are simulated
/// CONGEST rounds; all widths/diameters are BFS hops.
struct EdtParams {
  EdtVariant variant = EdtVariant::kPolylogRouting;
  EdtChop chop = EdtChop::kLocalContraction;
  int passes = 3;          // chopping passes budgeted against the ε allowance
  int max_iterations = 8;  // hard cap including refinement passes (kGlobalBfs)
  int exact_diameter_cap = 64;  // cluster size above which diameter is swept
  // Light-link filter of the merge refinement (Lemma 5.3 Step 3), applied
  // after the kGlobalBfs chop only (the contraction engine merges as it
  // goes): adjacent clusters are merged across a link of w(A,B) edges iff
  // w(A,B) >= (eps / (merge_filter_c * alpha)) * m, where alpha = 2m/n is the
  // measured average degree (the minor-free density proxy) — lighter links
  // stay removed (cut). Larger c lowers the threshold and admits weaker
  // merges; 0 disables merging. Merges are always rejected if they could
  // push a cluster diameter past 6 * band width, so D = O(1/ε) survives the
  // refinement.
  double merge_filter_c = 32.0;
  int max_merge_passes = 4;  // merge sweeps over the link list
  // Optional lent pool, forwarded to LocalLddParams::pool under
  // kLocalContraction (the kGlobalBfs chop runs serially). Results are
  // bit-identical for every thread count (gated by tests/test_shard.cpp).
  congest::ShardPool* pool = nullptr;
};

/// Output of build_edt_decomposition (Theorem 1.1 / Corollary 6.1).
/// Invariants the tests pin down: clustering partitions V into connected
/// clusters, quality.eps_fraction <= eps (hard budget, deterministic),
/// quality.max_diameter = O(1/eps) in BFS hops, ledger totals simulated
/// CONGEST rounds, and the whole construction is deterministic.
struct EdtDecomposition {
  Clustering clustering;
  Quality quality;
  congest::Runtime ledger;  // phase-attributed simulated CONGEST rounds
  int T_measured = 0;  // measured routing time (rounds) of the chosen variant
  int iterations = 0;  // chop passes (kGlobalBfs) or contraction iterations
  int merges = 0;      // light-link merges (kGlobalBfs) or star merges (local)
};

namespace detail {

/// Routing time of the chosen T tradeoff on a built clustering (simulation
/// proxies for the two Theorem 1.1 variants).
inline int edt_routing_time(const Graph& g, double eps, EdtVariant variant,
                            int max_diameter) {
  const int log_delta =
      static_cast<int>(std::ceil(std::log2(g.max_degree() + 2)));
  const int log_inv_eps = static_cast<int>(std::ceil(std::log2(1.0 / eps) + 1));
  if (variant == EdtVariant::kOverlapRouting) {
    return max_diameter * log_delta + 1;
  }
  return max_diameter + log_delta * log_inv_eps;
}

}  // namespace detail

inline EdtDecomposition build_edt_decomposition(const Graph& g, double eps,
                                                EdtParams params = {}) {
  EdtDecomposition out;
  const int n = g.n();
  const int w = std::max(2, static_cast<int>(std::ceil(params.passes / eps)));
  const std::int64_t cut_allowance =
      static_cast<std::int64_t>(eps * static_cast<double>(g.m()));

  // O(log* n / ε) preprocessing (symbolic charge for the paper's
  // ruling-set / degree-reduction machinery we simulate centrally) —
  // envelope-billed at the CONGEST ceiling of 1 message/directed edge/round.
  out.ledger.charge_envelope(
      "preprocess(log* n / eps)",
      congest::log_star(n) * static_cast<std::int64_t>(std::ceil(1.0 / eps)),
      2 * g.m());

  if (params.chop == EdtChop::kLocalContraction) {
    // Section-4 engine: iterated heavy-stars contraction, no global BFS.
    // The eccentricity guard 2*w keeps the strong diameter <= 4*w, matching
    // the chop engine's D = O(1/eps) constant regime.
    LocalLddParams lp;
    lp.ecc_cap = 2 * w;
    lp.eval.exact_cap = params.exact_diameter_cap;
    lp.pool = params.pool;
    LocalLdd local = ldd_minor_free_local(g, eps, lp);
    out.ledger.absorb(local.ledger);
    out.clustering = std::move(local.clustering);
    out.quality = local.quality;
    out.iterations = local.iterations;
    out.merges = local.merges;
    out.T_measured =
        detail::edt_routing_time(g, eps, params.variant, out.quality.max_diameter);
    out.ledger.charge_envelope("routing setup (+T)", out.T_measured, 2 * g.m());
    return out;
  }

  auto [label, k] = connected_components(g);
  std::vector<int> lev(n, 0), band(n, 0);
  std::vector<int> root_of;       // per-cluster BFS root
  std::vector<int> frontier, next;
  std::int64_t cut_spent = 0;

  for (int iter = 0; iter < params.max_iterations; ++iter) {
    // Roots: minimum-id vertex of each cluster.
    root_of.assign(k, -1);
    for (int v = 0; v < n; ++v) {
      if (root_of[label[v]] < 0) root_of[label[v]] = v;
    }
    // Cluster-local BFS levels (one simulated parallel BFS over all
    // clusters). Measured traffic: the BFS wave crosses each intra-cluster
    // directed edge once.
    std::fill(lev.begin(), lev.end(), -1);
    int max_depth = 0;
    std::int64_t pass_msgs = 0;
    for (int c = 0; c < k; ++c) {
      lev[root_of[c]] = 0;
      frontier.assign(1, root_of[c]);
      while (!frontier.empty()) {
        next.clear();
        for (int u : frontier) {
          for (int nb : g.neighbors(u)) {
            if (label[nb] != label[u]) continue;
            ++pass_msgs;  // BFS wave over directed edge (u, nb)
            if (lev[nb] < 0) {
              lev[nb] = lev[u] + 1;
              max_depth = std::max(max_depth, lev[nb]);
              next.push_back(nb);
            }
          }
        }
        std::swap(frontier, next);
      }
    }

    // Per-cluster: does it still need chopping, and at which offset?
    std::vector<std::vector<int>> members(k);
    for (int v = 0; v < n; ++v) members[label[v]].push_back(v);
    bool chopped_any = false;
    std::fill(band.begin(), band.end(), 0);
    // Count level-crossing edges per (cluster, offset); offsets in [0, w).
    std::vector<std::int64_t> offset_cut(w);
    for (int c = 0; c < k; ++c) {
      bool deep = false;
      for (int v : members[c]) {
        if (lev[v] >= w) {
          deep = true;
          break;
        }
      }
      if (!deep) continue;
      // Distributed cost of the offset choice: every vertex of a deep
      // cluster learns its neighbors' levels (1 message per intra directed
      // edge) and convergecasts its w-entry crossing histogram, pipelined
      // one O(log n)-bit counter per tree edge per round over the w
      // aggregation rounds charged below.
      pass_msgs += static_cast<std::int64_t>(w) *
                   static_cast<std::int64_t>(members[c].size());
      std::fill(offset_cut.begin(), offset_cut.end(), 0);
      for (int u : members[c]) {
        for (int vtx : g.neighbors(u)) {
          if (label[vtx] != c) continue;
          ++pass_msgs;  // level exchange over directed edge (u, vtx)
          if (u < vtx && lev[u] != lev[vtx]) {
            const int boundary = (std::min(lev[u], lev[vtx]) + 1) % w;
            ++offset_cut[boundary];
          }
        }
      }
      int best = 0;
      for (int o = 1; o < w; ++o) {
        if (offset_cut[o] < offset_cut[best]) best = o;
      }
      if (cut_spent + offset_cut[best] > cut_allowance) continue;  // budget
      cut_spent += offset_cut[best];
      chopped_any = true;
      for (int v : members[c]) band[v] = (lev[v] + w - best) / w;
    }
    {
      // The pass that discovers nothing is choppable still ran its full
      // BFS/offset verification — a distributed execution pays it, so the
      // ledger must too (audit() can catch overcounts, never undercounts).
      const std::int64_t rounds = max_depth + w;
      const std::string name =
          chopped_any ? "chop pass " + std::to_string(out.iterations + 1)
                      : "chop pass (no-op verification)";
      if (chopped_any || pass_msgs > 0) {
        out.ledger.charge(name, rounds, pass_msgs,
                          congest::congestion_floor(pass_msgs, rounds, 2 * g.m()));
      }
    }
    if (!chopped_any) break;
    ++out.iterations;

    // New clusters: connected components of (same label, same band).
    std::vector<int> fresh(n, -1);
    int fk = 0;
    for (int s = 0; s < n; ++s) {
      if (fresh[s] >= 0) continue;
      fresh[s] = fk;
      frontier.assign(1, s);
      while (!frontier.empty()) {
        const int u = frontier.back();
        frontier.pop_back();
        for (int nb : g.neighbors(u)) {
          if (fresh[nb] < 0 && label[nb] == label[u] && band[nb] == band[u]) {
            fresh[nb] = fk;
            frontier.push_back(nb);
          }
        }
      }
      ++fk;
    }
    label = std::move(fresh);
    k = fk;
  }

  // Light-link merge refinement (Lemma 5.3 Step 3): reclaim cut edges by
  // merging clusters across heavy links. A link lighter than the filter
  // threshold stays cut (its removal is what the lemma calls light-link
  // removal); a merge is accepted only if a double-sweep eccentricity check
  // keeps the union within 3w hops of some vertex, which guarantees the
  // merged diameter stays <= 6w = O(1/eps).
  if (params.merge_filter_c > 0 && k > 2) {
    const double alpha =
        std::max(1.0, 2.0 * static_cast<double>(g.m()) / std::max(n, 1));
    const int ecc_cap = 3 * w;
    std::vector<int> parent(k);
    for (int c = 0; c < k; ++c) parent[c] = c;
    const auto find = [&parent](int c) {
      while (parent[c] != c) c = parent[c] = parent[parent[c]];
      return c;
    };
    std::vector<int> dist(n, -1);
    std::vector<std::vector<int>> rmembers;  // members per current root
    std::int64_t merge_msgs = 0;  // measured per pass: exchanges + sweeps
    const auto union_ecc_ok = [&](int ra, int rb) {
      std::vector<int> mem(rmembers[ra]);
      mem.insert(mem.end(), rmembers[rb].begin(), rmembers[rb].end());
      int src = mem.front(), ecc = 0;
      for (int sweep = 0; sweep < 2; ++sweep) {
        ecc = 0;
        int far = src;
        dist[src] = 0;
        frontier.assign(1, src);
        while (!frontier.empty()) {
          next.clear();
          for (int u : frontier) {
            for (int nb : g.neighbors(u)) {
              const int r = find(label[nb]);
              if (r != ra && r != rb) continue;
              ++merge_msgs;  // double-sweep wave over directed edge (u, nb)
              if (dist[nb] >= 0) continue;
              dist[nb] = dist[u] + 1;
              ecc = dist[nb];
              far = nb;
              next.push_back(nb);
            }
          }
          std::swap(frontier, next);
        }
        for (int v : mem) dist[v] = -1;
        src = far;
        if (ecc > ecc_cap) return false;  // first sweep already too deep
      }
      return ecc <= ecc_cap;
    };
    int k_cur = k;
    for (int pass = 0; pass < params.max_merge_passes && k_cur > 2; ++pass) {
      std::map<std::pair<int, int>, std::int64_t> weight;
      rmembers.assign(k, {});
      merge_msgs = 0;
      for (int u = 0; u < n; ++u) {
        const int ru = find(label[u]);
        rmembers[ru].push_back(u);
        for (int vtx : g.neighbors(u)) {
          if (u >= vtx) continue;
          const int rv = find(label[vtx]);
          if (ru != rv) {
            ++weight[{std::min(ru, rv), std::max(ru, rv)}];
            merge_msgs += 2;  // both endpoints exchange root ids
          }
        }
      }
      std::vector<std::pair<std::int64_t, std::pair<int, int>>> links;
      links.reserve(weight.size());
      for (const auto& [ab, wt] : weight) links.push_back({wt, ab});
      std::sort(links.begin(), links.end(), [](const auto& x, const auto& y) {
        return x.first != y.first ? x.first > y.first : x.second < y.second;
      });
      bool merged_any = false;
      std::vector<char> touched(k, 0);  // weights go stale once a side merges
      for (const auto& [wt, ab] : links) {
        if (k_cur <= 2) break;
        const int ra = find(ab.first), rb = find(ab.second);
        if (ra == rb || touched[ra] || touched[rb]) continue;
        const double thr = eps * static_cast<double>(g.m()) /
                           (params.merge_filter_c * alpha);
        if (static_cast<double>(wt) < thr) continue;
        if (!union_ecc_ok(ra, rb)) continue;
        parent[ra] = rb;
        touched[ra] = touched[rb] = 1;
        --k_cur;
        ++out.merges;
        merged_any = true;
      }
      // Candidate double-sweeps overlap (failed tests share clusters), so
      // the peak congestion is the bandwidth floor over the 4w-round budget,
      // not 1. A pass that merges nothing still paid its weight exchange
      // and sweeps — charge it before breaking.
      if (merge_msgs > 0 || merged_any) {
        out.ledger.charge(
            merged_any ? "light-link merge pass " + std::to_string(pass + 1)
                       : "light-link merge pass (no-op verification)",
            4 * w, merge_msgs,
            congest::congestion_floor(merge_msgs, 4 * w, 2 * g.m()));
      }
      if (!merged_any) break;
    }
    if (out.merges > 0) {
      for (int v = 0; v < n; ++v) label[v] = find(label[v]);
    }
  }

  out.clustering.cluster = std::move(label);
  out.clustering.k = k;
  out.clustering.compact();
  out.quality = measure_quality(g, out.clustering, params.exact_diameter_cap);

  out.T_measured =
      detail::edt_routing_time(g, eps, params.variant, out.quality.max_diameter);
  out.ledger.charge_envelope("routing setup (+T)", out.T_measured, 2 * g.m());
  return out;
}

}  // namespace mfd::decomp
