// Heavy-stars contraction — Lemma 4.2 / 4.3, derandomized via Cole–Vishkin.
//
// On a weighted cluster graph of arboricity <= α the algorithm marks
// vertex-disjoint low-depth trees ("stars") whose edges carry at least a
// 1/(8α) fraction of the total edge weight:
//
//   1. Every vertex points across its heaviest incident edge (ties broken
//      toward the smaller neighbor id, which makes every pointer cycle a
//      2-cycle). Summed over the α forests of an arboricity decomposition,
//      the pointed edge set keeps >= W/(2α) of the weight.
//   2. The pointer graph's components each contain exactly one 2-cycle; its
//      larger endpoint becomes the root, giving a rooted forest whose
//      parent-edge weights are non-decreasing toward the root.
//   3. congest::cole_vishkin_3color breaks symmetry in O(log* n) rounds; of
//      the six leaf/center bipartitions of the 3 color classes the algorithm
//      keeps the heaviest (>= 1/3 of the forest weight since every forest
//      edge is captured by exactly 2 of the 6 bipartitions), plus every
//      2-cycle edge — the heaviest edge of its component — unconditionally.
//
// Marked trees therefore have depth <= 2 (root, its 2-cycle partner, and one
// layer of leaf-colored children on each), well inside the Lemma 4.3 depth-4
// budget, and the captured weight is >= W/(6α) >= W/(8α). Everything is
// deterministic: rerunning on the same graph reproduces the stars bit for
// bit.
//
// One engine (detail::heavy_stars_engine) runs steps 1-3 from a per-vertex
// "heaviest arc" step, which is all that differs between the two inputs:
//   * heavy_stars(const WeightedGraph&) scans each weighted row;
//   * heavy_stars(const Graph&) is G itself with unit weights (the
//     contraction's first iteration, when every cluster is a singleton).
//     Graph rows are ascending, so the heaviest arc, ties toward the
//     smaller id, is the first neighbour, and no weighted copy of G is
//     built. The result equals heavy_stars on a unit-weight WeightedGraph
//     copy of G, field for field (tests/test_shard.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "congest/cole_vishkin.hpp"
#include "congest/runtime.hpp"
#include "congest/shard.hpp"
#include "graph/graph.hpp"
#include "graph/weighted.hpp"

namespace mfd::decomp {

struct HeavyStarsResult {
  // star[v] = id of the marked tree v belongs to (the root vertex's id);
  // vertices outside every marked tree are singleton stars of themselves.
  std::vector<int> star;
  // kept_parent[v] = parent of v inside its marked tree, -1 for roots and
  // singletons. Consumers (ldd_local) walk this to merge under diameter
  // guards.
  std::vector<int> kept_parent;
  // depth[v] = kept_parent hops from v up to its star's root (0 for roots
  // and singletons). ldd_local merges the trees one depth level at a time.
  std::vector<int> depth;
  int stars = 0;                     // number of distinct stars (incl. singletons)
  std::int64_t captured_weight = 0;  // weight of marked-tree edges
  std::int64_t total_weight = 0;     // weight of all edges
  int cv_rounds = 0;                 // Cole–Vishkin rounds (O(log* n))
  int max_marked_depth = 0;          // deepest marked tree (<= 2; Lemma 4.3: <= 4)
  // Measured bandwidth per phase (ledger.total() == 3 + cv_rounds):
  //   pointing          1 round, 1 pointer id per directed edge;
  //   cole-vishkin      cv rounds, 1 color per pointer-forest edge per round;
  //   bipartition vote  1 round, the six class sums per forest edge;
  //   star formation    1 round, 1 bit-decision per kept edge.
  congest::Runtime ledger;
};

namespace detail {

/// One vertex's pick: the neighbour across its heaviest incident arc (ties
/// toward the smaller id) and that arc's weight; to = -1 when isolated.
struct HeaviestArc {
  int to = -1;
  std::int32_t w = 0;
};

/// Steps 1-3 on a graph of n vertices, m edges and total weight
/// total_weight, reading each vertex's pick from heaviest(v).
///
/// Sharded when given a pool: the per-vertex phases (pointing, rooting,
/// the Cole–Vishkin rounds, class sums, star formation, labeling) partition
/// vertices across the pool with a barrier between phases — exactly the
/// synchronous-round structure a CONGEST implementation has anyway. All
/// reductions are integer sums/maxes, so the result is bit-identical to the
/// serial run for every thread count (tests/test_shard.cpp sweeps
/// {1, 2, 7, hardware}).
template <class Heaviest>
HeavyStarsResult heavy_stars_engine(int n, std::int64_t m,
                                    std::int64_t total_weight,
                                    congest::ShardPool* pool,
                                    const Heaviest& heaviest) {
  HeavyStarsResult out;
  out.total_weight = total_weight;
  out.star.assign(n, 0);
  out.kept_parent.assign(n, -1);
  out.depth.resize(static_cast<std::size_t>(n));
  // Each phase below runs over an even contiguous vertex partition, one
  // slice per pool thread — inline without a pool.
  const int tasks = pool != nullptr ? pool->threads() : 1;

  // 1. Point across the heaviest incident edge (tie: smaller neighbor id).
  std::vector<int> pick(n, -1);
  std::vector<std::int32_t> pick_w(n, 0);
  congest::parallel_ranges(pool, n, tasks, [&](int lo, int hi, int) {
    for (int v = lo; v < hi; ++v) {
      const HeaviestArc a = heaviest(v);
      pick[v] = a.to;
      if (a.to >= 0) pick_w[v] = a.w;
    }
  });

  // 2. Root each pointer component at the larger endpoint of its 2-cycle.
  std::vector<int> parent(n, -1);
  congest::parallel_ranges(pool, n, tasks, [&](int lo, int hi, int) {
    for (int v = lo; v < hi; ++v) {
      const int u = pick[v];
      if (u < 0) continue;                 // isolated vertex
      if (pick[u] == v && u < v) continue; // v is the root of its 2-cycle
      parent[v] = u;
    }
  });

  // 3. Cole–Vishkin 3-coloring of the pointer forest.
  const congest::ColeVishkinResult cv =
      congest::cole_vishkin_3color_forest(n, parent, pool);
  out.cv_rounds = cv.rounds;

  // Weight of each (child color, parent color) class, 2-cycle edges apart.
  // A vertex's parent edge IS its pick, so its weight is pick_w[v].
  // Sharded: per-task 3x3 partials (slot 9 counts the forest edges for the
  // ledger) folded in task order (integer sums, so the fold equals the
  // serial accumulation exactly).
  std::int64_t class_w[3][3] = {};
  std::int64_t forest_edges = 0;
  {
    std::vector<std::array<std::int64_t, 10>> partial(
        static_cast<std::size_t>(tasks), std::array<std::int64_t, 10>{});
    congest::parallel_ranges(pool, n, tasks, [&](int lo, int hi, int task) {
      auto& acc = partial[static_cast<std::size_t>(task)];
      for (int v = lo; v < hi; ++v) {
        const int p = parent[v];
        if (p < 0) continue;
        ++acc[9];
        if (pick[p] == v && parent[p] < 0) continue;  // 2-cycle edge, kept
        acc[static_cast<std::size_t>(3 * cv.color[v] + cv.color[p])] +=
            pick_w[v];
      }
    });
    for (const auto& acc : partial) {
      for (int a = 0; a < 3; ++a) {
        for (int b = 0; b < 3; ++b) {
          class_w[a][b] += acc[static_cast<std::size_t>(3 * a + b)];
        }
      }
      forest_edges += acc[9];
    }
  }
  // Best of the six leaf/center bipartitions of {0, 1, 2}: captured classes
  // are (a in L, b not in L); every class lands in exactly 2 of the 6 masks.
  int best_mask = 1;
  std::int64_t best_cap = -1;
  for (int mask = 1; mask <= 6; ++mask) {  // proper nonempty subsets of 3 bits
    std::int64_t cap = 0;
    for (int a = 0; a < 3; ++a) {
      for (int b = 0; b < 3; ++b) {
        if ((mask >> a & 1) && !(mask >> b & 1)) cap += class_w[a][b];
      }
    }
    if (cap > best_cap) {
      best_cap = cap;
      best_mask = mask;
    }
  }

  // Keep: 2-cycle edges + parent edges with leaf-colored child and
  // center-colored parent. kept_parent records the marked-tree structure.
  std::int64_t kept_edges = 0;
  {
    std::vector<std::array<std::int64_t, 2>> kept(
        static_cast<std::size_t>(tasks), std::array<std::int64_t, 2>{});
    congest::parallel_ranges(pool, n, tasks, [&](int lo, int hi, int task) {
      std::int64_t cap = 0, edges = 0;
      for (int v = lo; v < hi; ++v) {
        const int p = parent[v];
        if (p < 0) continue;
        const bool two_cycle = pick[p] == v && parent[p] < 0;
        const bool leaf_center = (best_mask >> cv.color[v] & 1) &&
                                 !(best_mask >> cv.color[p] & 1);
        if (two_cycle || leaf_center) {
          out.kept_parent[v] = p;
          cap += pick_w[v];
          ++edges;
        }
      }
      kept[static_cast<std::size_t>(task)] = {cap, edges};
    });
    for (const auto& [cap, edges] : kept) {
      out.captured_weight += cap;
      kept_edges += edges;
    }
  }

  // Stars = components of the kept forest; label by the top vertex and
  // measure depth (kept_parent chains are <= 2 long by construction).
  const auto top_of = [&out](int v) {
    int depth = 0;
    while (out.kept_parent[v] >= 0) {
      v = out.kept_parent[v];
      ++depth;
    }
    return std::pair<int, int>{v, depth};
  };
  {
    std::vector<int> tops(static_cast<std::size_t>(tasks), 0);
    std::vector<int> depth_max(static_cast<std::size_t>(tasks), 0);
    congest::parallel_ranges(pool, n, tasks, [&](int lo, int hi, int task) {
      int local_tops = 0, local_depth = 0;
      for (int v = lo; v < hi; ++v) {
        const auto [top, depth] = top_of(v);
        out.star[v] = top;
        out.depth[v] = depth;
        if (depth == 0) ++local_tops;
        if (depth > local_depth) local_depth = depth;
      }
      tops[static_cast<std::size_t>(task)] = local_tops;
      depth_max[static_cast<std::size_t>(task)] = local_depth;
    });
    for (int t = 0; t < tasks; ++t) {
      out.stars += tops[static_cast<std::size_t>(t)];
      out.max_marked_depth =
          std::max(out.max_marked_depth, depth_max[static_cast<std::size_t>(t)]);
    }
  }

  // Rounds: 1 pointing round, the Cole–Vishkin phase, 1 round to agree on
  // the best bipartition (a constant-size aggregate), 1 star-formation round.
  // Messages are measured per phase: the pointing round sends one pointer id
  // per directed edge; each Cole–Vishkin round sends one color per
  // pointer-forest edge; the vote converges the six candidate class sums
  // over the forest (six O(log n)-bit values per forest edge in one round);
  // star formation sends one keep/drop decision per kept edge.
  const std::int64_t directed = 2 * m;
  out.ledger.charge("pointing", 1, directed, directed > 0 ? 1 : 0);
  out.ledger.charge("cole-vishkin", cv.rounds, cv.messages, cv.max_congestion);
  out.ledger.charge("bipartition vote", 1, 6 * forest_edges,
                    forest_edges > 0 ? 6 : 0);
  out.ledger.charge("star formation", 1, kept_edges, kept_edges > 0 ? 1 : 0);
  return out;
}

}  // namespace detail

/// Heavy stars on a weighted cluster graph; pool as in the engine.
inline HeavyStarsResult heavy_stars(const WeightedGraph& g,
                                    congest::ShardPool* pool = nullptr) {
  return detail::heavy_stars_engine(
      g.n(), g.m(), g.total_weight(), pool, [&g](int v) {
        detail::HeaviestArc best{-1, -1};
        for (const auto& a : g.arcs(v)) {
          if (a.w > best.w || (a.w == best.w && a.to < best.to)) {
            best = {a.to, a.w};
          }
        }
        return best;
      });
}

/// Heavy stars on G with unit weights: the heaviest arc is the first
/// neighbour of each ascending row.
inline HeavyStarsResult heavy_stars(const Graph& g,
                                    congest::ShardPool* pool = nullptr) {
  return detail::heavy_stars_engine(
      g.n(), g.m(), g.m(), pool, [&g](int v) {
        return g.degree(v) > 0
                   ? detail::HeaviestArc{*g.neighbors(v).begin(), 1}
                   : detail::HeaviestArc{};
      });
}

}  // namespace mfd::decomp
