// CHW08 LOCAL-model deterministic clustering baseline
// (Czygrinow–Hańćkowiak–Wawrzyniak style ball growing).
//
// Deterministic region growing on the remaining graph: grow a BFS ball from
// the lowest-id unassigned vertex until its boundary is ε-small relative to
// its internal edges. While the ball violates the stopping rule its internal
// edge count grows by a (1+ε) factor per layer, so radii are bounded by
// log_{1+ε} m, and charging each ball's boundary to its (disjoint) internal
// edges gives a deterministic cut fraction ≤ ε. The LOCAL model allows
// unbounded messages, which is what makes the per-ball topology collection
// free; `round_factor` is the per-radius LOCAL round charge (collect
// topology, decide, announce).
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "congest/runtime.hpp"
#include "decomp/clustering.hpp"
#include "graph/graph.hpp"

namespace mfd::decomp {

/// Output of the CHW08 ball-growing baseline. Invariants: clustering is a
/// connected partition with cut fraction <= eps (deterministic);
/// max_radius is in BFS hops (<= log_{1+eps} m by the stopping rule) while
/// the ledger totals simulated LOCAL-model rounds (round_factor per radius).
struct ChwLdd {
  Clustering clustering;
  ClusterQuality quality;
  congest::Runtime ledger;
  int max_radius = 0;  // deepest ball radius, BFS hops
};

inline ChwLdd ldd_chw_local_model(const Graph& g, double eps,
                                  int round_factor = 3) {
  ChwLdd out;
  const int n = g.n();
  std::vector<int> assigned(n, -1);
  std::vector<char> in_ball(n, 0);
  std::vector<int> ord(n, -1);  // insertion order within the current ball
  std::vector<int> ball, layer, next_layer;
  int k = 0;

  for (int s = 0; s < n; ++s) {
    if (assigned[s] >= 0) continue;
    // Grow B_r(s) in the graph induced by unassigned vertices.
    ball.assign(1, s);
    layer.assign(1, s);
    in_ball[s] = 1;
    ord[s] = 0;
    int ord_counter = 1;
    // cut = (sum of remaining-degrees over the ball) - 2 * internal edges.
    std::int64_t deg_sum = 0, internal = 0;
    for (int w : g.neighbors(s)) {
      if (assigned[w] < 0) ++deg_sum;
    }
    int radius = 0;
    while (true) {
      const std::int64_t cut = deg_sum - 2 * internal;
      if (static_cast<double>(cut) <= eps * static_cast<double>(std::max<std::int64_t>(internal, 1))) {
        break;
      }
      next_layer.clear();
      for (int u : layer) {
        for (int w : g.neighbors(u)) {
          if (assigned[w] < 0 && !in_ball[w]) {
            in_ball[w] = 1;
            ord[w] = ord_counter++;
            next_layer.push_back(w);
          }
        }
      }
      if (next_layer.empty()) break;  // ball swallowed its component
      for (int w : next_layer) {
        for (int x : g.neighbors(w)) {
          if (assigned[x] < 0) {
            ++deg_sum;
            // Count each internal edge once: at its later-inserted endpoint.
            if (in_ball[x] && ord[x] < ord[w]) ++internal;
          }
        }
      }
      ball.insert(ball.end(), next_layer.begin(), next_layer.end());
      layer.swap(next_layer);
      ++radius;
    }
    for (int v : ball) {
      assigned[v] = k;
      in_ball[v] = 0;
      ord[v] = -1;
    }
    out.max_radius = std::max(out.max_radius, radius);
    ++k;
  }

  out.clustering.cluster = std::move(assigned);
  out.clustering.k = k;
  out.quality = evaluate_clustering(g, out.clustering);
  out.ledger.charge("symmetry breaking (log* n)", congest::log_star(n));
  out.ledger.charge("ball growing",
                    static_cast<std::int64_t>(round_factor) *
                        std::max(out.max_radius, 1));
  return out;
}

}  // namespace mfd::decomp
