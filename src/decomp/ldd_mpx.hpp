// MPX13 randomized low-diameter decomposition (Miller–Peng–Xu).
//
// Every vertex v draws an exponential shift δ_v ~ Exp(β) and joins the
// cluster of the center u minimizing dist(u, v) - δ_u. Implemented as one
// shifted multi-source BFS (Dijkstra over fractional start times). With
// β = ε/2 each edge is cut with probability O(β), so the measured cut
// fraction is below ε in expectation, while cluster radii carry the extra
// O(log n / β) factor the paper's Corollary 6.1 removes.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>
#include <vector>

#include "decomp/clustering.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace mfd::decomp {

/// Output of one randomized MPX13 run. Invariants: clustering is a connected
/// partition; the cut fraction is <= eps only *in expectation* (tests average
/// over seeds), and cluster radii are O(log n / eps) BFS hops w.h.p.;
/// `rounds` counts simulated CONGEST rounds, which here exceed BFS hops by
/// the start-time offset of the shifted multi-source BFS.
struct MpxLdd {
  Clustering clustering;
  ClusterQuality quality;
  congest::Runtime ledger;
  int rounds = 0;  // simulated CONGEST rounds: max shift + deepest BFS arm
};

inline MpxLdd ldd_mpx(const Graph& g, double eps, Rng& rng) {
  MpxLdd out;
  const int n = g.n();
  const double beta = eps / 2.0;
  // Clamp shifts at 2 ln n / β (exceeded with probability n^-2) so a single
  // unlucky draw cannot make the simulated round count unbounded.
  const double shift_cap = 2.0 * std::log(std::max(n, 2)) / beta;

  std::vector<double> shift(n);
  double max_shift = 0.0;
  for (int v = 0; v < n; ++v) {
    shift[v] = std::min(rng.exponential(beta), shift_cap);
    max_shift = std::max(max_shift, shift[v]);
  }

  std::vector<double> key(n);
  std::vector<int> center(n), hops(n, 0);
  std::vector<char> done(n, 0);
  using Entry = std::pair<double, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
  for (int v = 0; v < n; ++v) {
    key[v] = -shift[v];
    center[v] = v;
    pq.push({key[v], v});
  }
  int max_hops = 0;
  while (!pq.empty()) {
    const auto [k, u] = pq.top();
    pq.pop();
    if (done[u] || k > key[u]) continue;
    done[u] = 1;
    max_hops = std::max(max_hops, hops[u]);
    for (int w : g.neighbors(u)) {
      if (!done[w] && key[u] + 1.0 < key[w]) {
        key[w] = key[u] + 1.0;
        center[w] = center[u];
        hops[w] = hops[u] + 1;
        pq.push({key[w], w});
      }
    }
  }

  out.clustering.cluster = std::move(center);
  out.clustering.k = n;  // placeholder; compact() densifies below
  out.clustering.compact();
  out.quality = evaluate_clustering(g, out.clustering);
  out.rounds = static_cast<int>(std::ceil(max_shift)) + max_hops;
  // The shifted-BFS wave carries one O(log n)-bit (center, key) message per
  // directed edge per round at most — envelope-billed.
  out.ledger.charge_envelope("shifted BFS", out.rounds, 2 * g.m());
  return out;
}

}  // namespace mfd::decomp
