// Generators for the H-minor-free graph families the paper's experiments
// sweep over (see bench/bench_common.hpp::make_family).
//
// All generators are deterministic given the Rng state, produce simple
// connected graphs, and hit the exact edge counts their family admits:
//   tree n-1, cycle n, grid 2rc-r-c, maximal outerplanar 2n-3,
//   maximal planar 3n-6, k-tree k(k+1)/2 + (n-k-1)k.
#pragma once

#include <array>
#include <cassert>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace mfd {

inline Graph path_graph(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return Graph::from_edges(n, std::move(edges));
}

inline Graph cycle_graph(int n) {
  std::vector<std::pair<int, int>> edges;
  for (int v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  if (n >= 3) edges.emplace_back(n - 1, 0);
  return Graph::from_edges(n, std::move(edges));
}

/// rows x cols 4-neighbor grid; vertex (r, c) has index r*cols + c.
inline Graph grid_graph(int rows, int cols) {
  std::vector<std::pair<int, int>> edges;
  if (rows > 0 && cols > 0) {
    edges.reserve(2 * static_cast<std::size_t>(rows) * cols - rows - cols);
  }
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int v = r * cols + c;
      if (c + 1 < cols) edges.emplace_back(v, v + 1);
      if (r + 1 < rows) edges.emplace_back(v, v + cols);
    }
  }
  return Graph::from_edges(rows * cols, std::move(edges));
}

/// rows x cols 4-neighbor torus (grid with wraparound rows/columns); vertex
/// (r, c) has index r*cols + c. Needs rows, cols >= 3 to stay simple. Genus 1
/// (embeds on the torus, not the plane), hence K8-minor-free — the
/// non-planar H-minor-free family the scaling bench sweeps alongside
/// grid/planar.
inline Graph torus_graph(int rows, int cols) {
  assert(rows >= 3 && cols >= 3);
  std::vector<std::pair<int, int>> edges;
  edges.reserve(2 * static_cast<std::size_t>(rows) * cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      const int v = r * cols + c;
      edges.emplace_back(v, r * cols + (c + 1) % cols);
      edges.emplace_back(v, (r + 1) % rows * cols + c);
    }
  }
  return Graph::from_edges(rows * cols, std::move(edges));
}

/// Uniform random-attachment tree: vertex v attaches to a uniform earlier one.
inline Graph random_tree(int n, Rng& rng) {
  std::vector<std::pair<int, int>> edges;
  for (int v = 1; v < n; ++v) edges.emplace_back(rng.uniform_int(0, v - 1), v);
  return Graph::from_edges(n, std::move(edges));
}

/// Cactus: every edge lies on at most one simple cycle. Built by repeatedly
/// hanging either a pendant edge or a cycle (sharing one vertex) off the
/// existing graph.
inline Graph random_cactus(int n, Rng& rng) {
  std::vector<std::pair<int, int>> edges;
  int cur = 1;
  while (cur < n) {
    const int anchor = rng.uniform_int(0, cur - 1);
    const int remaining = n - cur;
    if (remaining >= 2 && rng.coin()) {
      // Attach a cycle of length L (uses L-1 new vertices).
      const int len = rng.uniform_int(3, std::min(6, remaining + 1));
      int prev = anchor;
      for (int i = 0; i < len - 1; ++i) {
        edges.emplace_back(prev, cur);
        prev = cur++;
      }
      edges.emplace_back(prev, anchor);
    } else {
      edges.emplace_back(anchor, cur++);
    }
  }
  return Graph::from_edges(n, std::move(edges));
}

/// Random planar triangulation with exactly 3n-6 edges (n >= 3): start from a
/// triangle and repeatedly insert a vertex into a uniformly random face,
/// connecting it to the face's three corners.
inline Graph random_maximal_planar(int n, Rng& rng) {
  if (n <= 2) return path_graph(n);
  std::vector<std::pair<int, int>> edges = {{0, 1}, {1, 2}, {0, 2}};
  // The outer face counts too: inserting into it is the planar embedding's
  // "other side" of the starting triangle.
  std::vector<std::array<int, 3>> faces = {{0, 1, 2}, {0, 1, 2}};
  for (int v = 3; v < n; ++v) {
    const int fi = rng.uniform_int(0, static_cast<int>(faces.size()) - 1);
    const std::array<int, 3> f = faces[fi];
    edges.emplace_back(f[0], v);
    edges.emplace_back(f[1], v);
    edges.emplace_back(f[2], v);
    faces[fi] = {f[0], f[1], v};
    faces.push_back({f[1], f[2], v});
    faces.push_back({f[0], f[2], v});
  }
  return Graph::from_edges(n, std::move(edges));
}

/// Connected planar subgraph with exactly m edges (n-1 <= m <= 3n-6): sample
/// a random triangulation, keep a random spanning tree, then add random
/// surviving edges until m.
inline Graph random_planar(int n, int m, Rng& rng) {
  const Graph tri = random_maximal_planar(n, rng);
  n = tri.n();  // defends against negative n (from_edges clamps it to 0)
  std::vector<std::pair<int, int>> pool = tri.edges();
  // Fisher-Yates shuffle.
  for (int i = static_cast<int>(pool.size()) - 1; i > 0; --i) {
    std::swap(pool[i], pool[rng.uniform_int(0, i)]);
  }
  std::vector<int> parent(n);
  for (int v = 0; v < n; ++v) parent[v] = v;
  const auto find = [&parent](int v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  std::vector<std::pair<int, int>> keep, rest;
  for (const auto& [u, v] : pool) {
    const int ru = find(u), rv = find(v);
    if (ru != rv) {
      parent[ru] = rv;
      keep.push_back({u, v});
    } else {
      rest.push_back({u, v});
    }
  }
  for (std::size_t i = 0; i < rest.size() && static_cast<int>(keep.size()) < m;
       ++i) {
    keep.push_back(rest[i]);
  }
  return Graph::from_edges(n, std::move(keep));
}

/// Random maximal outerplanar graph (2n-3 edges, n >= 3): the n-cycle plus a
/// uniform recursive triangulation of its interior.
inline Graph random_maximal_outerplanar(int n, Rng& rng) {
  if (n <= 2) return path_graph(n);
  std::vector<std::pair<int, int>> edges;
  for (int v = 0; v < n; ++v) edges.emplace_back(v, (v + 1) % n);
  // Triangulate the polygon spanned by boundary vertices i..j (edge (i, j)
  // already present as base).
  std::vector<std::pair<int, int>> stack = {{0, n - 1}};
  while (!stack.empty()) {
    const auto [i, j] = stack.back();
    stack.pop_back();
    if (j - i < 2) continue;
    const int k = rng.uniform_int(i + 1, j - 1);
    if (k > i + 1) edges.emplace_back(i, k);
    if (k < j - 1) edges.emplace_back(k, j);
    stack.push_back({i, k});
    stack.push_back({k, j});
  }
  return Graph::from_edges(n, std::move(edges));
}

/// Random k-tree: start from a (k+1)-clique; each new vertex is joined to a
/// uniformly random existing k-clique. Treewidth exactly k.
inline Graph random_ktree(int n, int k, Rng& rng) {
  assert(n >= k + 1);
  std::vector<std::pair<int, int>> edges;
  std::vector<std::vector<int>> cliques;
  for (int u = 0; u <= k; ++u) {
    for (int v = u + 1; v <= k; ++v) edges.emplace_back(u, v);
  }
  for (int skip = 0; skip <= k; ++skip) {
    std::vector<int> c;
    for (int u = 0; u <= k; ++u) {
      if (u != skip) c.push_back(u);
    }
    cliques.push_back(std::move(c));
  }
  for (int v = k + 1; v < n; ++v) {
    const auto& base =
        cliques[rng.uniform_int(0, static_cast<int>(cliques.size()) - 1)];
    const std::vector<int> chosen = base;  // base may reallocate below
    for (int u : chosen) edges.emplace_back(u, v);
    for (int skip = 0; skip < k; ++skip) {
      std::vector<int> c;
      for (int i = 0; i < k; ++i) {
        if (i != skip) c.push_back(chosen[i]);
      }
      c.push_back(v);
      cliques.push_back(std::move(c));
    }
  }
  return Graph::from_edges(n, std::move(edges));
}

/// Random series-parallel graph (K4-minor-free, m <= 2n-3): grow from a
/// single edge by either subdividing a random edge (series) or attaching a
/// new 2-path in parallel with a random edge.
inline Graph random_series_parallel(int n, Rng& rng) {
  if (n <= 2) return path_graph(n);
  std::vector<std::pair<int, int>> edges = {{0, 1}};
  for (int v = 2; v < n; ++v) {
    const int ei = rng.uniform_int(0, static_cast<int>(edges.size()) - 1);
    const auto [a, b] = edges[ei];
    if (rng.coin()) {
      // Series: subdivide (a, b) into a-v-b.
      edges[ei] = {a, v};
      edges.emplace_back(v, b);
    } else {
      // Parallel: keep (a, b), add the 2-path a-v-b beside it.
      edges.emplace_back(a, v);
      edges.emplace_back(v, b);
    }
  }
  return Graph::from_edges(n, std::move(edges));
}

}  // namespace mfd
