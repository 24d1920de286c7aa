// CSR (compressed sparse row) undirected graph.
//
// Immutable after construction; every algorithm in the repo works on this
// representation. `from_edges` deduplicates and drops self-loops, so
// generators can emit edges carelessly and still produce a simple graph.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <queue>
#include <string>
#include <utility>
#include <vector>

namespace mfd {

class Graph {
 public:
  Graph() = default;

  /// Build from an undirected edge list. Self-loops and out-of-range
  /// endpoints are dropped, duplicate edges (in either orientation) are
  /// merged; negative n is treated as the empty graph. O(n + m) apart from
  /// the per-row sorts: the kept arcs are counted per endpoint, scattered
  /// into their rows, and each row is sorted and deduplicated in place
  /// while the offsets are compacted.
  static Graph from_edges(int n, std::vector<std::pair<int, int>> edges) {
    n = std::max(n, 0);
    const auto kept = [n](int u, int v) {
      return u != v && u >= 0 && v >= 0 && u < n && v < n;
    };
    Graph g;
    g.n_ = n;
    std::vector<std::int64_t>& off = g.offset_;
    off.assign(static_cast<std::size_t>(n) + 1, 0);
    for (const auto& [u, v] : edges) {
      if (!kept(u, v)) continue;
      ++off[u + 1];
      ++off[v + 1];
    }
    for (int i = 0; i < n; ++i) off[i + 1] += off[i];
    g.adj_.resize(static_cast<std::size_t>(off[n]));
    // Scatter with off[v] as v's write cursor; afterwards off[v] is the
    // end of v's row, i.e. the start of row v + 1.
    for (const auto& [u, v] : edges) {
      if (!kept(u, v)) continue;
      g.adj_[off[u]++] = v;
      g.adj_[off[v]++] = u;
    }
    edges = {};
    std::int64_t row = 0, out = 0;  // row v's scattered start, compacted end
    for (int v = 0; v < n; ++v) {
      const std::int64_t row_end = off[v];
      const auto first = g.adj_.begin() + row;
      const auto last = g.adj_.begin() + row_end;
      std::sort(first, last);
      const auto uniq = std::unique(first, last);
      if (out != row) std::copy(first, uniq, g.adj_.begin() + out);
      off[v] = out;
      out += uniq - first;
      row = row_end;
    }
    off[n] = out;
    if (static_cast<std::size_t>(out) != g.adj_.size()) {
      g.adj_.resize(static_cast<std::size_t>(out));
      g.adj_.shrink_to_fit();
    }
    g.m_ = out / 2;
    return g;
  }

  int n() const { return n_; }
  std::int64_t m() const { return m_; }

  int degree(int v) const {
    return static_cast<int>(offset_[v + 1] - offset_[v]);
  }

  /// Neighbors of v, usable as `for (int w : g.neighbors(v))`.
  struct NeighborRange {
    const int* first;
    const int* last;
    const int* begin() const { return first; }
    const int* end() const { return last; }
    int size() const { return static_cast<int>(last - first); }
  };

  NeighborRange neighbors(int v) const {
    return {adj_.data() + offset_[v], adj_.data() + offset_[v + 1]};
  }

  bool has_edge(int u, int v) const {
    const auto nb = neighbors(u);
    return std::binary_search(nb.begin(), nb.end(), v);
  }

  /// Slot of the directed arc u->v in the CSR adjacency array, or -1 when
  /// the edge is absent. Slots are dense in [0, 2m) and laid out in
  /// (source, sorted-neighbor) order, so per-edge state can live in a flat
  /// array indexed by arc slot instead of a hash map keyed by endpoint pair
  /// — the certify replay paths index congestion counters this way.
  std::int64_t arc_index(int u, int v) const {
    const int* lo = adj_.data() + offset_[u];
    const int* hi = adj_.data() + offset_[u + 1];
    const int* it = std::lower_bound(lo, hi, v);
    if (it == hi || *it != v) return -1;
    return offset_[u] + (it - lo);
  }

  int max_degree() const {
    int d = 0;
    for (int v = 0; v < n_; ++v) d = std::max(d, degree(v));
    return d;
  }

  /// Recover the undirected edge list (u < v, sorted).
  std::vector<std::pair<int, int>> edges() const {
    std::vector<std::pair<int, int>> out;
    out.reserve(static_cast<std::size_t>(m_));
    for (int u = 0; u < n_; ++u) {
      for (int v : neighbors(u)) {
        if (u < v) out.emplace_back(u, v);
      }
    }
    return out;
  }

  std::string summary() const {
    const double avg = n_ == 0 ? 0.0 : 2.0 * static_cast<double>(m_) / n_;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "graph: n=%d  m=%lld  avg_deg=%.2f  max_deg=%d",
                  n_, static_cast<long long>(m_), avg, max_degree());
    return buf;
  }

 private:
  int n_ = 0;
  std::int64_t m_ = 0;
  std::vector<std::int64_t> offset_;
  std::vector<int> adj_;
};

/// BFS distances from `src`; unreachable vertices get -1.
inline std::vector<int> bfs_distances(const Graph& g, int src) {
  std::vector<int> dist(g.n(), -1);
  std::queue<int> q;
  dist[src] = 0;
  q.push(src);
  while (!q.empty()) {
    const int u = q.front();
    q.pop();
    for (int w : g.neighbors(u)) {
      if (dist[w] < 0) {
        dist[w] = dist[u] + 1;
        q.push(w);
      }
    }
  }
  return dist;
}

/// Connected-component labels in [0, k); returns k via out-param-free pair.
inline std::pair<std::vector<int>, int> connected_components(const Graph& g) {
  std::vector<int> comp(g.n(), -1);
  int k = 0;
  std::vector<int> stack;
  for (int s = 0; s < g.n(); ++s) {
    if (comp[s] >= 0) continue;
    comp[s] = k;
    stack.push_back(s);
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      for (int w : g.neighbors(u)) {
        if (comp[w] < 0) {
          comp[w] = k;
          stack.push_back(w);
        }
      }
    }
    ++k;
  }
  return {std::move(comp), k};
}

/// BFS 2-coloring of every component: side[v] is the parity of v's BFS
/// distance from its component's smallest vertex (which gets side 0).
/// bipartite is false iff some edge joins two vertices of equal parity
/// (an odd cycle); the sides are still the BFS parities then.
struct TwoColoring {
  std::vector<char> side;
  int components = 0;
  bool bipartite = true;

  /// A graph with m edges is a forest iff m == n - components.
  bool forest(const Graph& g) const {
    return g.m() == static_cast<std::int64_t>(g.n()) - components;
  }
};

inline TwoColoring two_coloring(const Graph& g) {
  TwoColoring out;
  out.side.assign(g.n(), 0);
  std::vector<char> seen(g.n(), 0);
  std::vector<int> queue;
  queue.reserve(g.n());
  for (int s = 0; s < g.n(); ++s) {
    if (seen[s]) continue;
    ++out.components;
    seen[s] = 1;
    queue.assign(1, s);
    for (std::size_t h = 0; h < queue.size(); ++h) {
      const int u = queue[h];
      for (int w : g.neighbors(u)) {
        if (!seen[w]) {
          seen[w] = 1;
          out.side[w] = static_cast<char>(out.side[u] ^ 1);
          queue.push_back(w);
        } else if (out.side[w] == out.side[u]) {
          out.bipartite = false;
        }
      }
    }
  }
  return out;
}

inline bool is_connected(const Graph& g) {
  if (g.n() == 0) return true;
  const auto dist = bfs_distances(g, 0);
  return std::none_of(dist.begin(), dist.end(), [](int d) { return d < 0; });
}

}  // namespace mfd
