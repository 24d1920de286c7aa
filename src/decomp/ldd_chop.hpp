// Global-BFS chop baseline for the (ε, D, T)-decomposition: iterated
// BFS-band chopping in the style of Klein–Plotkin–Rao, the centralized
// route the Section-4 contraction of build_edt_decomposition avoids.
//
// Each pass BFS-layers every remaining cluster from its minimum-id vertex
// and cuts between bands of width w = ceil(3/ε) (detail::edt_band_width) at
// the offset minimizing cut edges; by averaging, the best offset cuts at
// most m_C/w edges per cluster, so the budgeted passes cut at most ε·m edges
// in total. Every pass charges its real BFS depth (Θ(√n) on a grid), which
// is the gap bench_ldd and the ablation bench grade the local engine
// against. Serial only.
//
// After the chop, the light-link merge refinement (Lemma 5.3 Step 3)
// reclaims cut edges: adjacent clusters are merged across a link of
// w(A,B) edges iff w(A,B) >= (eps / (merge_filter_c * alpha)) * m, where
// alpha = 2m/n is the measured average degree (the minor-free density
// proxy) — lighter links stay removed (cut). Larger c lowers the threshold
// and admits weaker merges; 0 disables merging. A merge is always rejected
// if it could push a cluster diameter past 6w, so D = O(1/ε) survives the
// refinement. T_measured is the polylog variant's routing time.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "congest/runtime.hpp"
#include "decomp/clustering.hpp"
#include "decomp/edt.hpp"
#include "graph/graph.hpp"

namespace mfd::decomp {

inline EdtDecomposition ldd_global_chop(const Graph& g, double eps,
                                        double merge_filter_c = 32.0) {
  // Hard cap on chop passes (the budget normally stops them first), and on
  // the merge sweeps over the link list.
  constexpr int kMaxPasses = 8;
  constexpr int kMergePasses = 4;
  EdtDecomposition out;
  const int n = g.n();
  const int w = detail::edt_band_width(eps);
  const std::int64_t cut_allowance =
      static_cast<std::int64_t>(eps * static_cast<double>(g.m()));
  detail::charge_edt_preprocess(out.ledger, g, eps);

  auto [label, k] = connected_components(g);
  std::vector<int> lev(n, 0), band(n, 0);
  std::vector<int> root_of;       // per-cluster BFS root
  std::vector<int> frontier, next;
  std::int64_t cut_spent = 0;

  for (int iter = 0; iter < kMaxPasses; ++iter) {
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
        out.ledger.charge(
            name, rounds, pass_msgs,
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
  if (merge_filter_c > 0 && k > 2) {
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
    for (int pass = 0; pass < kMergePasses && k_cur > 2; ++pass) {
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
                           (merge_filter_c * alpha);
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
  out.quality = evaluate_clustering(g, out.clustering);
  detail::charge_edt_routing(out, g, eps, EdtVariant::kPolylogRouting);
  return out;
}

}  // namespace mfd::decomp
