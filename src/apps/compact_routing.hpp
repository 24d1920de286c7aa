// Compact routing from the low-diameter decomposition — the [AGM05, AGMW07]
// application the paper's introduction cites for (ε, O(1/ε)) decompositions
// of minor-free graphs.
//
// Two-level scheme over an (ε, D, T)-decomposition, both levels using
// interval tree routing (walk up until the target's DFS interval is below
// you, then descend into the child interval containing it):
//   * level 0 (intra-cluster): every cluster carries a BFS tree rooted at
//     its center; a vertex stores its cluster id, parent port, its own DFS
//     interval and one interval per tree child — O(log n) bits plus
//     O(deg_tree log n), which averages O(log n) over the cluster.
//   * level 1 (inter-cluster): the clusters of each component form a BFS
//     spanning tree of the cluster graph; a cluster's *center* additionally
//     stores the cluster-tree interval labels and one portal edge per
//     tree-adjacent cluster — O(k log n) bits summed over ALL centers (not
//     per center), which is the compact-table claim the bench audits.
// A packet for v tree-routes to the portal of the next cluster on the
// cluster-tree path, crosses it, and repeats; inside the final cluster it
// tree-routes to v. Cost is at most 2D + 1 hops per cluster-tree hop — the
// O(D)-per-hop stretch shape the bench measures.
//
// One engine: build_routing_scheme fills FlatRoutingTables directly — both
// levels as contiguous record arrays plus CSR child lists keyed by
// DFS-interval entry time, so the descend step is a binary search over a
// cache-resident slice and a climb touches one 24-byte record. The same
// arrays answer the table-bit accounting, the stretch sample and the query
// server. The tables are immutable once built, so serve_route_queries fans
// fixed-size query chunks over a lent congest::ShardPool through
// congest::for_each_task with zero locks on the hot path (each chunk writes
// a disjoint output slice). The pointer-walk formulation the flat engine
// replaced (per-vertex child vectors, an ordered map of portals) is the
// oracle in tests/oracles.hpp; tests/test_route_serve.cpp pins these tables
// field for field, and every route hop for hop, to it on every family.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "congest/runtime.hpp"
#include "congest/shard.hpp"
#include "decomp/clustering.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace mfd::apps {

/// The two-level scheme as contiguous, cache-friendly arrays: one record
/// array plus one CSR child-list array per level. Child lists are stored in
/// ascending DFS-entry-time order (which is how the builder emits them), so
/// the interval descend step is a binary search for the last child whose
/// entry time is <= the target's — child intervals tile the parent's, so
/// that child is the unique containing one. Immutable after
/// build_routing_scheme; safe for concurrent readers.
struct FlatRoutingTables {
  /// Level-0 per-vertex record: everything a climb/descend step reads.
  struct VertexRec {
    std::int32_t cluster = -1;  // cluster id
    std::int32_t up = -1;       // BFS-tree parent toward the center
    std::int32_t tin = 0, tout = 0;            // own DFS interval
    std::int32_t kids_begin = 0, kids_end = 0; // slice of `child`
  };
  /// Level-0 CSR payload: (entry time, vertex id) per tree child.
  struct ChildRec {
    std::int32_t tin = 0;  // the binary-search key
    std::int32_t id = -1;  // the hop target
  };
  /// Level-1 per-cluster record (what the cluster's center stores),
  /// including the portal toward the cluster-tree parent.
  struct ClusterRec {
    std::int32_t parent = -1;
    std::int32_t ctin = 0, ctout = 0;
    std::int32_t kids_begin = 0, kids_end = 0;  // slice of `cchild`
    std::int32_t portal_src = -1, portal_dst = -1;  // toward parent
  };
  /// Level-1 CSR payload: child cluster + the portal edge into it.
  struct ClusterChildRec {
    std::int32_t ctin = 0;
    std::int32_t id = -1;
    std::int32_t portal_src = -1, portal_dst = -1;
  };

  int n = 0, k = 0;
  std::vector<VertexRec> vertex;       // size n
  std::vector<ChildRec> child;         // size n - #cluster-centers
  std::vector<ClusterRec> cluster;     // size k
  std::vector<ClusterChildRec> cchild; // size k - #cluster-tree-roots

  /// Measured footprint of the four arrays — what the serving bench
  /// reports as bytes/vertex (the in-memory analogue of table_bits()).
  std::int64_t table_bytes() const {
    return static_cast<std::int64_t>(vertex.size() * sizeof(VertexRec)) +
           static_cast<std::int64_t>(child.size() * sizeof(ChildRec)) +
           static_cast<std::int64_t>(cluster.size() * sizeof(ClusterRec)) +
           static_cast<std::int64_t>(cchild.size() * sizeof(ClusterChildRec));
  }
  double bytes_per_vertex() const {
    return n == 0 ? 0.0
                  : static_cast<double>(table_bytes()) / static_cast<double>(n);
  }

  /// Bits vertex v stores: cluster id + parent port + own interval + one
  /// interval per tree child; a center (the vertex with no tree parent)
  /// adds the cluster-tree labels and one portal id per tree-adjacent
  /// cluster.
  std::int64_t table_bits(int v) const {
    const int logn = congest::ceil_log2(std::max(n, 2));
    const int logk = congest::ceil_log2(std::max(k, 2));
    const VertexRec& r = vertex[static_cast<std::size_t>(v)];
    std::int64_t bits = logk + logn + 2 * logn;  // id, port, interval
    bits += static_cast<std::int64_t>(r.kids_end - r.kids_begin) * 2 * logn;
    if (r.up < 0) {
      const ClusterRec& c = cluster[static_cast<std::size_t>(r.cluster)];
      bits += 2 * logk + logn;  // own cluster interval + parent portal
      bits += static_cast<std::int64_t>(c.kids_end - c.kids_begin) *
              (2 * logk + logn);
    }
    return bits;
  }

  double avg_table_bits() const {
    if (n == 0) return 0.0;
    std::int64_t sum = 0;
    for (int v = 0; v < n; ++v) sum += table_bits(v);
    return static_cast<double>(sum) / n;
  }

  std::int64_t max_table_bits() const {
    std::int64_t best = 0;
    for (int v = 0; v < n; ++v) best = std::max(best, table_bits(v));
    return best;
  }
};

struct StretchStats {
  double avg_stretch = 0.0;
  double max_stretch = 0.0;
  double delivered_fraction = 0.0;
};

namespace detail {

/// DFS entry/exit times over a CSR forest — rec[v]'s children are the ids
/// in kids[rec[v].kids_begin, rec[v].kids_end) — entering the trees in
/// `roots` order with one timer across all of them, so labels stay globally
/// unique. `tin` / `tout` name the record's interval fields.
template <class Rec, class Kid>
void assign_intervals(std::vector<Rec>& rec, const std::vector<Kid>& kids,
                      const std::vector<int>& roots, std::int32_t Rec::*tin,
                      std::int32_t Rec::*tout) {
  std::int32_t timer = 0;
  std::vector<std::pair<int, std::int32_t>> stack;  // (node, next child slot)
  for (int root : roots) {
    rec[root].*tin = timer++;
    stack.emplace_back(root, rec[root].kids_begin);
    while (!stack.empty()) {
      const int v = stack.back().first;
      std::int32_t& slot = stack.back().second;
      if (slot < rec[v].kids_end) {
        const int ch = kids[slot++].id;
        rec[ch].*tin = timer++;
        stack.emplace_back(ch, rec[ch].kids_begin);
      } else {
        rec[v].*tout = timer - 1;
        stack.pop_back();
      }
    }
  }
}

}  // namespace detail

/// Build the two-level tables over a (connected-cluster) decomposition,
/// straight into the flat layout:
///   * level 0 — a FIFO BFS per cluster from its minimum-id member (the
///     center); child slices laid out in vertex-id order and filled in
///     discovery order; DFS intervals with one timer across clusters;
///   * level 1 — the cluster graph from one ascending-id scan of each
///     cluster's members (a stamp keeps the first-seen edge per ordered
///     cluster pair as its portal), a BFS spanning forest over it, and its
///     DFS intervals. A cluster's record keeps its first-seen edge toward
///     the parent; the parent's child record keeps its first-seen edge in.
inline FlatRoutingTables build_routing_scheme(const Graph& g,
                                              const decomp::Clustering& parts) {
  using Tables = FlatRoutingTables;
  Tables t;
  t.n = g.n();
  t.k = parts.k;
  const int n = t.n, k = t.k;
  t.vertex.resize(static_cast<std::size_t>(n));
  std::vector<int> center(static_cast<std::size_t>(k), -1);
  std::vector<int> members_begin(static_cast<std::size_t>(k) + 1, 0);
  for (int v = 0; v < n; ++v) {
    const int c = parts.cluster[v];
    t.vertex[v].cluster = c;
    if (center[c] < 0) center[c] = v;
    ++members_begin[c + 1];
  }

  // Level 0: one BFS tree per cluster, toward its center. kids_end counts
  // children until the slices are laid out, then serves as the fill cursor.
  std::vector<int> order;  // BFS discovery order, cluster by cluster
  order.reserve(static_cast<std::size_t>(n));
  std::vector<int> roots;
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  for (int c = 0; c < k; ++c) {
    const int root = center[c];
    if (root < 0) continue;
    roots.push_back(root);
    seen[root] = 1;
    std::size_t head = order.size();
    order.push_back(root);
    while (head < order.size()) {
      const int u = order[head++];
      for (int w : g.neighbors(u)) {
        if (!seen[w] && parts.cluster[w] == c) {
          seen[w] = 1;
          t.vertex[w].up = u;
          ++t.vertex[u].kids_end;
          order.push_back(w);
        }
      }
    }
  }
  std::int32_t slots = 0;
  for (Tables::VertexRec& r : t.vertex) {
    r.kids_begin = slots;
    slots += r.kids_end;
    r.kids_end = r.kids_begin;
  }
  t.child.resize(static_cast<std::size_t>(slots));
  for (int w : order) {
    const int u = t.vertex[w].up;
    if (u >= 0) t.child[t.vertex[u].kids_end++].id = w;
  }
  detail::assign_intervals(t.vertex, t.child, roots, &Tables::VertexRec::tin,
                           &Tables::VertexRec::tout);
  for (Tables::ChildRec& ch : t.child) ch.tin = t.vertex[ch.id].tin;

  // Cluster graph: per cluster, each neighbouring cluster once, in the order
  // an ascending-id scan of the members first meets it, with that first
  // edge as the portal.
  for (int c = 0; c < k; ++c) members_begin[c + 1] += members_begin[c];
  std::vector<int> members(static_cast<std::size_t>(n));
  {
    std::vector<int> fill(members_begin.begin(), members_begin.end() - 1);
    for (int v = 0; v < n; ++v) members[fill[parts.cluster[v]]++] = v;
  }
  struct Arc {
    int to, src, dst;
  };
  std::vector<Arc> arcs;
  std::vector<int> arcs_begin(static_cast<std::size_t>(k) + 1, 0);
  std::vector<int> stamp(static_cast<std::size_t>(k), -1);
  for (int a = 0; a < k; ++a) {
    for (int i = members_begin[a]; i < members_begin[a + 1]; ++i) {
      const int u = members[i];
      for (int w : g.neighbors(u)) {
        const int b = parts.cluster[w];
        if (b != a && stamp[b] != a) {
          stamp[b] = a;
          arcs.push_back({b, u, w});
        }
      }
    }
    arcs_begin[a + 1] = static_cast<int>(arcs.size());
  }

  // Level 1: BFS spanning forest of the cluster graph; `down[d]` is the arc
  // through which d's parent discovered it.
  t.cluster.resize(static_cast<std::size_t>(k));
  std::vector<int> corder, croots;
  corder.reserve(static_cast<std::size_t>(k));
  std::vector<int> down(static_cast<std::size_t>(k), -1);
  std::vector<char> cseen(static_cast<std::size_t>(k), 0);
  for (int root = 0; root < k; ++root) {
    if (cseen[root]) continue;
    croots.push_back(root);
    cseen[root] = 1;
    std::size_t head = corder.size();
    corder.push_back(root);
    while (head < corder.size()) {
      const int c = corder[head++];
      for (int i = arcs_begin[c]; i < arcs_begin[c + 1]; ++i) {
        const int d = arcs[i].to;
        if (cseen[d]) continue;
        cseen[d] = 1;
        t.cluster[d].parent = c;
        ++t.cluster[c].kids_end;
        down[d] = i;
        corder.push_back(d);
      }
    }
  }
  slots = 0;
  for (int c = 0; c < k; ++c) {
    Tables::ClusterRec& r = t.cluster[c];
    r.kids_begin = slots;
    slots += r.kids_end;
    r.kids_end = r.kids_begin;
    for (int i = arcs_begin[c]; r.parent >= 0 && i < arcs_begin[c + 1]; ++i) {
      if (arcs[i].to == r.parent) {
        r.portal_src = arcs[i].src;
        r.portal_dst = arcs[i].dst;
        break;
      }
    }
  }
  t.cchild.resize(static_cast<std::size_t>(slots));
  for (int d : corder) {
    const int c = t.cluster[d].parent;
    if (c < 0) continue;
    Tables::ClusterChildRec& cc = t.cchild[t.cluster[c].kids_end++];
    cc.id = d;
    cc.portal_src = arcs[down[d]].src;
    cc.portal_dst = arcs[down[d]].dst;
  }
  detail::assign_intervals(t.cluster, t.cchild, croots,
                           &Tables::ClusterRec::ctin,
                           &Tables::ClusterRec::ctout);
  for (Tables::ClusterChildRec& cc : t.cchild) cc.ctin = t.cluster[cc.id].ctin;
  return t;
}

// Kept only for pipebench's set-up; goes at the benchmark's next change.
using RoutingScheme = FlatRoutingTables;
/// A copy of `s` for pipebench's set-up; goes at the benchmark's next change.
inline FlatRoutingTables flatten_routing_scheme(const RoutingScheme& s) {
  return s;
}

namespace detail {

/// Tree route src -> dst inside one cluster tree: climb while dst's interval
/// is not below, then descend into the containing child — resolved by
/// binary search over the CSR child slice. Child intervals tile the
/// parent's interval, so "last child with tin <= dst's tin" is the unique
/// containing child. If `path` is given, every vertex after src is appended
/// in visit order.
inline int flat_tree_route_hops(const FlatRoutingTables& t, int src, int dst,
                                std::vector<int>* path = nullptr) {
  const std::int32_t dtin = t.vertex[static_cast<std::size_t>(dst)].tin;
  int hops = 0, cur = src;
  while (cur != dst) {
    const FlatRoutingTables::VertexRec& r =
        t.vertex[static_cast<std::size_t>(cur)];
    if (r.tin <= dtin && dtin <= r.tout) {
      const FlatRoutingTables::ChildRec* first = t.child.data() + r.kids_begin;
      const FlatRoutingTables::ChildRec* last = t.child.data() + r.kids_end;
      const FlatRoutingTables::ChildRec* it = std::upper_bound(
          first, last, dtin,
          [](std::int32_t key, const FlatRoutingTables::ChildRec& c) {
            return key < c.tin;
          });
      if (it == first) return -1;  // corrupt labels; cannot happen on a tree
      cur = (it - 1)->id;
    } else {
      if (r.up < 0) return -1;
      cur = r.up;
    }
    if (path != nullptr) path->push_back(cur);
    ++hops;
  }
  return hops;
}

}  // namespace detail

/// Route u -> v through the tables; returns the hop count, or -1 if
/// undeliverable (different components, or an endpoint outside [0, n)).
/// Never inspects the graph beyond the tables; if `path` is given, every
/// vertex after u is appended in visit order. Read-only: safe to call
/// concurrently from many threads.
inline int flat_route_hops(const FlatRoutingTables& t, int u, int v,
                           std::vector<int>* path = nullptr) {
  if (u < 0 || u >= t.n || v < 0 || v >= t.n) return -1;
  int hops = 0, cur = u;
  int guard = 8 * t.n + 8;  // defensive loop cap
  const std::int32_t tc = t.vertex[static_cast<std::size_t>(v)].cluster;
  const std::int32_t tctin = t.cluster[static_cast<std::size_t>(tc)].ctin;
  while (t.vertex[static_cast<std::size_t>(cur)].cluster != tc) {
    const FlatRoutingTables::ClusterRec& cr =
        t.cluster[static_cast<std::size_t>(
            t.vertex[static_cast<std::size_t>(cur)].cluster)];
    std::int32_t psrc = -1, pdst = -1;
    if (cr.ctin <= tctin && tctin <= cr.ctout) {
      const FlatRoutingTables::ClusterChildRec* first =
          t.cchild.data() + cr.kids_begin;
      const FlatRoutingTables::ClusterChildRec* last =
          t.cchild.data() + cr.kids_end;
      const FlatRoutingTables::ClusterChildRec* it = std::upper_bound(
          first, last, tctin,
          [](std::int32_t key, const FlatRoutingTables::ClusterChildRec& c) {
            return key < c.ctin;
          });
      if (it == first) return -1;
      psrc = (it - 1)->portal_src;
      pdst = (it - 1)->portal_dst;
    } else {
      if (cr.parent < 0) return -1;  // different components
      psrc = cr.portal_src;
      pdst = cr.portal_dst;
    }
    if (psrc < 0 || pdst < 0) return -1;
    const int up_hops = detail::flat_tree_route_hops(t, cur, psrc, path);
    if (up_hops < 0) return -1;
    hops += up_hops + 1;  // to the portal vertex, then across the edge
    cur = pdst;
    if (path != nullptr) path->push_back(cur);
    if ((guard -= up_hops + 1) < 0) return -1;
  }
  const int down = detail::flat_tree_route_hops(t, cur, v, path);
  return down < 0 ? -1 : hops + down;
}

/// First hop from cur toward v — the per-packet forwarding primitive a
/// router node would evaluate. Returns cur when cur == v, -1 when
/// undeliverable.
inline int flat_next_hop(const FlatRoutingTables& t, int cur, int v) {
  if (cur == v) return cur;
  std::vector<int> path;
  path.reserve(1);
  // One walk step is enough: route the packet and take the first vertex.
  // (flat_route_hops appends hops in order, so path[0] is the next hop.)
  const int hops = flat_route_hops(t, cur, v, &path);
  return hops <= 0 || path.empty() ? -1 : path.front();
}

/// Sample `pairs` connected (u, v) pairs and compare route length against
/// BFS distance. Stretch of a pair = route hops / dist(u, v).
inline StretchStats measure_stretch(const Graph& g, const FlatRoutingTables& t,
                                    int pairs, Rng& rng) {
  StretchStats st;
  if (g.n() < 2 || pairs <= 0) return st;
  int sampled = 0, delivered = 0;
  double sum = 0.0;
  for (int trial = 0; trial < 8 * pairs && sampled < pairs; ++trial) {
    const int u = static_cast<int>(rng.next_below(g.n()));
    const int v = static_cast<int>(rng.next_below(g.n()));
    if (u == v) continue;
    const std::vector<int> dist = bfs_distances(g, u);
    if (dist[v] < 0) continue;  // different components: not a routing pair
    ++sampled;
    const int hops = flat_route_hops(t, u, v);
    if (hops < 0) continue;
    ++delivered;
    const double stretch =
        static_cast<double>(hops) / static_cast<double>(dist[v]);
    sum += stretch;
    st.max_stretch = std::max(st.max_stretch, stretch);
  }
  st.delivered_fraction =
      sampled == 0 ? 0.0
                   : static_cast<double>(delivered) / static_cast<double>(sampled);
  st.avg_stretch = delivered == 0 ? 0.0 : sum / delivered;
  return st;
}

/// Queries per serve_route_queries task: large enough that claiming a chunk
/// is noise next to routing it, small enough that skewed route lengths
/// still balance across workers.
inline constexpr std::int64_t kServeGrain = 4096;

/// Serve a batch of (s, t) queries, kServeGrain per task, fanned across a
/// lent ShardPool through congest::for_each_task (inline without one). The
/// tables are immutable and every task writes only its own slice of
/// `out_hops`, so the hot path takes no locks and the output is independent
/// of the thread count (the determinism gate in tests/test_route_serve.cpp).
inline void serve_route_queries(const FlatRoutingTables& t,
                                const std::vector<std::pair<int, int>>& queries,
                                std::vector<int>& out_hops,
                                congest::ShardPool* pool = nullptr) {
  const std::int64_t total = static_cast<std::int64_t>(queries.size());
  out_hops.assign(queries.size(), -1);
  const int tasks = static_cast<int>((total + kServeGrain - 1) / kServeGrain);
  congest::for_each_task(pool, tasks, [&](int task, int /*worker*/) {
    const std::int64_t lo = task * kServeGrain;
    const std::int64_t hi = std::min(lo + kServeGrain, total);
    for (std::int64_t i = lo; i < hi; ++i) {
      const auto& [qs, qt] = queries[static_cast<std::size_t>(i)];
      out_hops[static_cast<std::size_t>(i)] = flat_route_hops(t, qs, qt);
    }
  });
}

}  // namespace mfd::apps
