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
#pragma once

#include <cstdint>
#include <vector>

namespace mfd::congest {

struct ColeVishkinResult {
  std::vector<int> color;  // color[v] in {0, 1, 2}, proper along parent edges
  int rounds = 0;          // simulated CONGEST rounds, O(log* n)
  std::int64_t messages = 0;        // measured: one per parent edge per round
  std::int64_t max_congestion = 0;  // 1 whenever the forest has any edge
};

/// 3-color the rooted forest given by `parent` over vertex set [0, n).
inline ColeVishkinResult cole_vishkin_3color_forest(
    int n, const std::vector<int>& parent) {
  ColeVishkinResult out;
  std::vector<std::uint32_t> c(n), next(n);
  for (int v = 0; v < n; ++v) c[v] = static_cast<std::uint32_t>(v);
  const auto is_root = [&parent](int v) {
    return parent[v] < 0 || parent[v] == v;
  };
  std::int64_t forest_edges = 0;
  for (int v = 0; v < n; ++v) forest_edges += is_root(v) ? 0 : 1;

  // Bit-shrinking iterations: each vertex finds the lowest bit where its
  // color differs from its parent's (roots compare against their own color
  // with bit 0 flipped) and recolors to 2*index + own bit. Distinct initial
  // ids keep the coloring proper along parent edges throughout.
  bool big = n > 6;
  while (big) {
    for (int v = 0; v < n; ++v) {
      const std::uint32_t pc = is_root(v) ? (c[v] ^ 1u)
                                          : c[static_cast<std::size_t>(parent[v])];
      const std::uint32_t diff = c[v] ^ pc;
      int i = 0;
      while (((diff >> i) & 1u) == 0) ++i;
      next[v] = static_cast<std::uint32_t>(2 * i) + ((c[v] >> i) & 1u);
    }
    c.swap(next);
    ++out.rounds;
    out.messages += forest_edges;
    big = false;
    for (int v = 0; v < n; ++v) {
      if (c[v] >= 6) {
        big = true;
        break;
      }
    }
  }

  // Palette 6 -> 3: for each dropped color, one shift-down round (everyone
  // adopts its parent's color, so all siblings agree) and one recolor round
  // (the dropped class picks the smallest free color; only parent and the
  // now-unanimous child color are forbidden).
  for (std::uint32_t drop = 5; drop >= 3; --drop) {
    for (int v = 0; v < n; ++v) {
      if (is_root(v)) {
        next[v] = c[v] == 0 ? 1 : 0;  // anything differing from old color
      } else {
        next[v] = c[static_cast<std::size_t>(parent[v])];
      }
    }
    // After shift-down, v's children all wear v's pre-shift color c[v].
    for (int v = 0; v < n; ++v) {
      if (next[v] != drop) continue;
      const std::uint32_t forbid_child = c[v];
      const std::uint32_t forbid_parent =
          is_root(v) ? forbid_child : next[static_cast<std::size_t>(parent[v])];
      std::uint32_t pick = 0;
      while (pick == forbid_child || pick == forbid_parent) ++pick;
      next[v] = pick;  // < 3: at most two values are forbidden
    }
    c.swap(next);
    out.rounds += 2;
    out.messages += 2 * forest_edges;
  }
  if (out.messages > 0) out.max_congestion = 1;

  out.color.assign(n, 0);
  for (int v = 0; v < n; ++v) out.color[v] = static_cast<int>(c[v]);
  return out;
}

}  // namespace mfd::congest
