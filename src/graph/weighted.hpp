// Weighted CSR graph for cluster graphs (heavy-stars contraction, §4).
//
// Two ways in, one resident form (offsets + arcs, every row in ascending
// neighbour id):
//   * the edge-list constructor — same contract as Graph::from_edges
//     (self-loops and out-of-range endpoints are dropped) except that
//     duplicate edges MERGE BY SUMMING their weights: a cluster graph's edge
//     weight is the number (or total weight) of original edges between two
//     clusters, so careless emission of one entry per original edge is the
//     intended usage;
//   * rebuild() — the caller writes offsets and arcs in that canonical form
//     into the graph's own buffers (decomp/ldd_local.hpp contracts the
//     vertex CSR straight into them), which keep their capacity from one
//     rebuild to the next.
// Both produce the same arcs for the same edge multiset.
//
// Arc weights are 32-bit. A contraction weight counts the G-edges between
// two clusters, so it is at most m, and the contraction rejects graphs with
// m > INT32_MAX; the edge-list constructor throws std::invalid_argument on
// a merged weight outside int32_t. total_weight() sums in 64 bits.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace mfd {

struct WeightedEdge {
  int u = 0;
  int v = 0;
  std::int64_t w = 1;
};

class WeightedGraph {
 public:
  struct Arc {
    // No zero-fill: an arc array is sized, then its builder writes every
    // slot. On a 1M-vertex grid at 4 threads, zeroing the first
    // contraction's arcs took longer than filling them.
    Arc() {}
    Arc(int to_, std::int32_t w_) : to(to_), w(w_) {}
    int to;
    std::int32_t w;  // 32 bits, so an arc is 8 bytes
  };

  WeightedGraph() = default;

  WeightedGraph(int n, std::vector<WeightedEdge> edges) {
    n_ = std::max(n, 0);
    for (auto& e : edges) {
      if (e.u > e.v) std::swap(e.u, e.v);
    }
    std::sort(edges.begin(), edges.end(), [](const auto& a, const auto& b) {
      return a.u != b.u ? a.u < b.u : a.v < b.v;
    });
    // Merge duplicates by summing, drop self-loops / out-of-range, in place.
    std::size_t kept = 0;
    for (const auto& e : edges) {
      if (e.u == e.v || e.u < 0 || e.v >= n_) continue;
      if (kept > 0 && edges[kept - 1].u == e.u && edges[kept - 1].v == e.v) {
        edges[kept - 1].w += e.w;
      } else {
        edges[kept++] = e;
      }
    }
    edges.resize(kept);
    offset_.assign(n_ + 1, 0);
    for (const auto& e : edges) {
      ++offset_[e.u + 1];
      ++offset_[e.v + 1];
    }
    for (int i = 0; i < n_; ++i) offset_[i + 1] += offset_[i];
    arcs_.resize(2 * kept);
    std::vector<std::int64_t> cursor(offset_.begin(), offset_.end() - 1);
    // Edges are sorted by (u, v), so row x receives its smaller neighbours
    // (edges (u, x)) before its larger ones, each run ascending.
    for (const auto& e : edges) {
      if (e.w < std::numeric_limits<std::int32_t>::min() ||
          e.w > std::numeric_limits<std::int32_t>::max()) {
        throw std::invalid_argument(
            "WeightedGraph: weight " + std::to_string(e.w) + " of edge (" +
            std::to_string(e.u) + ", " + std::to_string(e.v) +
            ") does not fit in int32_t");
      }
      const auto w = static_cast<std::int32_t>(e.w);
      arcs_[cursor[e.u]++] = {e.v, w};
      arcs_[cursor[e.v]++] = {e.u, w};
    }
    finish();
  }

  /// Refill the graph in place: `build(offsets, arcs)` must leave
  /// offsets.size() == n + 1 with offsets[0] == 0, row v = arcs[offsets[v],
  /// offsets[v+1]) in ascending neighbour id, no self-loops, no repeated
  /// neighbour, and symmetric (arc u->v of weight w iff arc v->u of weight
  /// w). Both vectors arrive holding the previous graph, capacity included,
  /// so resizing them reuses the memory. m() and total_weight() are read
  /// off the arcs.
  template <class Build>
  void rebuild(int n, Build&& build) {
    n_ = std::max(n, 0);
    build(offset_, arcs_);
    finish();
  }

  int n() const { return n_; }
  std::int64_t m() const { return m_; }
  std::int64_t total_weight() const { return total_weight_; }

  struct ArcRange {
    const Arc* first;
    const Arc* last;
    const Arc* begin() const { return first; }
    const Arc* end() const { return last; }
    int size() const { return static_cast<int>(last - first); }
  };

  ArcRange arcs(int v) const {
    return {arcs_.data() + offset_[v], arcs_.data() + offset_[v + 1]};
  }

  int degree(int v) const {
    return static_cast<int>(offset_[v + 1] - offset_[v]);
  }

 private:
  void finish() {
    m_ = static_cast<std::int64_t>(arcs_.size()) / 2;
    std::int64_t twice = 0;
    for (const Arc& a : arcs_) twice += a.w;
    total_weight_ = twice / 2;
  }

  int n_ = 0;
  std::int64_t m_ = 0;
  std::int64_t total_weight_ = 0;
  std::vector<std::int64_t> offset_;
  std::vector<Arc> arcs_;
};

}  // namespace mfd
