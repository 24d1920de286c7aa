// Cole–Vishkin deterministic 3-coloring of rooted forests — the CONGEST
// symmetry-breaking primitive the Section-4 heavy-stars contraction charges
// its O(log* n) rounds through.
//
// Input is a parent array (parent[v] < 0 or parent[v] == v marks a root);
// the forest edges are (v, parent[v]). Output colors are in {0, 1, 2} and
// proper along every parent edge. `rounds` counts simulated CONGEST rounds:
// one per bit-shrinking Cole–Vishkin iteration (O(log* n) of them — each
// iteration shrinks a K-color palette to 2*ceil(log2 K)) plus the six
// constant rounds of the three shift-down + recolor phases that take the
// palette from 6 colors to 3.
//
// Message accounting is measured, not symbolic: every round each non-root
// vertex reads its parent's current color, so the round costs exactly one
// O(log n)-bit message per parent edge — `messages` accumulates
// forest_edges per round and `max_congestion` is 1 whenever the forest has
// an edge at all (no directed edge ever carries two colors in one round).
//
// A lent congest::ShardPool runs every round (each shift-down + recolor
// pair as one) as a per-vertex map over contiguous vertex slices
// (congest::parallel_ranges), meeting at the round barrier; the one
// cross-vertex reduction (is any color still >= 6?) is a per-task OR. Each
// map reads only the previous colors, so the coloring, rounds and messages
// are the same at every thread count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "congest/shard.hpp"

namespace mfd::congest {

struct ColeVishkinResult {
  std::vector<int> color;  // color[v] in {0, 1, 2}, proper along parent edges
  int rounds = 0;          // simulated CONGEST rounds, O(log* n)
  std::int64_t messages = 0;        // measured: one per parent edge per round
  std::int64_t max_congestion = 0;  // 1 whenever the forest has any edge
};

/// 3-color the rooted forest given by `parent` over vertex set [0, n).
inline ColeVishkinResult cole_vishkin_3color_forest(
    int n, const std::vector<int>& parent, ShardPool* pool = nullptr) {
  ColeVishkinResult out;
  const int tasks = pool != nullptr ? pool->threads() : 1;
  std::vector<std::uint32_t> c(n), next(n);
  const auto is_root = [&parent](int v) {
    return parent[v] < 0 || parent[v] == v;
  };
  std::int64_t forest_edges = 0;
  {
    std::vector<std::int64_t> edges(static_cast<std::size_t>(tasks), 0);
    parallel_ranges(pool, n, tasks, [&](int lo, int hi, int task) {
      std::int64_t local = 0;
      for (int v = lo; v < hi; ++v) {
        c[v] = static_cast<std::uint32_t>(v);
        local += is_root(v) ? 0 : 1;
      }
      edges[static_cast<std::size_t>(task)] = local;
    });
    for (std::int64_t e : edges) forest_edges += e;
  }

  // Bit-shrinking iterations: each vertex finds the lowest bit where its
  // color differs from its parent's (roots compare against their own color
  // with bit 0 flipped) and recolors to 2*index + own bit. Distinct initial
  // ids keep the coloring proper along parent edges throughout, so the
  // difference is never zero.
  std::vector<char> big_in(static_cast<std::size_t>(tasks), 0);
  bool big = n > 6;
  while (big) {
    parallel_ranges(pool, n, tasks, [&](int lo, int hi, int task) {
      bool local_big = false;
      for (int v = lo; v < hi; ++v) {
        const std::uint32_t pc =
            is_root(v) ? (c[v] ^ 1u) : c[static_cast<std::size_t>(parent[v])];
        const int i = __builtin_ctz(c[v] ^ pc);
        next[v] = static_cast<std::uint32_t>(2 * i) + ((c[v] >> i) & 1u);
        local_big = local_big || next[v] >= 6;
      }
      big_in[static_cast<std::size_t>(task)] = local_big ? 1 : 0;
    });
    c.swap(next);
    ++out.rounds;
    out.messages += forest_edges;
    big = false;
    for (char b : big_in) big = big || b != 0;
    std::fill(big_in.begin(), big_in.end(), 0);
  }

  // Palette 6 -> 3: for each dropped color, one shift-down round (everyone
  // adopts its parent's color, so all siblings agree) and one recolor round
  // (the dropped class picks the smallest free color; only parent and the
  // now-unanimous child color are forbidden). Both rounds run as one
  // per-vertex map from c to next: a vertex's shifted color and its
  // parent's are read off c, and a recoloring vertex's parent is not
  // recoloring (v recolors when its parent wore drop, so its parent's
  // parent did not: c is proper), so the parent's final color is its
  // shifted one.
  const auto shifted = [&](int v) -> std::uint32_t {
    if (is_root(v)) return c[v] == 0 ? 1 : 0;  // anything but its old color
    return c[static_cast<std::size_t>(parent[v])];
  };
  for (std::uint32_t drop = 5; drop >= 3; --drop) {
    parallel_ranges(pool, n, tasks, [&](int lo, int hi, int) {
      for (int v = lo; v < hi; ++v) {
        next[v] = shifted(v);
        if (next[v] != drop) continue;  // roots shift to 0 or 1, never here
        // After shift-down, v's children all wear v's pre-shift color c[v].
        const std::uint32_t forbid_child = c[v];
        const std::uint32_t forbid_parent = shifted(parent[v]);
        std::uint32_t pick = 0;
        while (pick == forbid_child || pick == forbid_parent) ++pick;
        next[v] = pick;  // < 3: at most two values are forbidden
      }
    });
    c.swap(next);
    out.rounds += 2;
    out.messages += 2 * forest_edges;
  }
  if (out.messages > 0) out.max_congestion = 1;

  out.color.resize(static_cast<std::size_t>(n));
  parallel_ranges(pool, n, tasks, [&](int lo, int hi, int) {
    for (int v = lo; v < hi; ++v) out.color[v] = static_cast<int>(c[v]);
  });
  return out;
}

}  // namespace mfd::congest
