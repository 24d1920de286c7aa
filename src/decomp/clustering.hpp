// Shared clustering type + quality measurement for every LDD variant.
//
// A decomposition is a partition of V into clusters; its quality is the
// fraction of inter-cluster ("cut") edges and the maximum strong (induced)
// diameter over clusters. Round accounting lives in congest/runtime.hpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "congest/runtime.hpp"
#include "congest/shard.hpp"
#include "graph/graph.hpp"

namespace mfd::decomp {

/// A partition of V into clusters.
///
/// Invariants (checked by is_valid_partition and the decomposition tests):
/// cluster.size() == n, every id lies in [0, k), and every decomposition
/// algorithm in decomp/ additionally guarantees that each cluster induces a
/// connected subgraph. Cluster ids carry no geometric meaning; expander/
/// consumers (split, routing) only compare them for equality.
struct Clustering {
  int k = 0;                 // number of clusters
  std::vector<int> cluster;  // cluster[v] in [0, k)

  /// Relabel arbitrary non-negative ids to a dense [0, k) range, ranking
  /// them in ascending order: one pass finds the ids in use (sized by the
  /// largest, so `k` on entry is not trusted), a prefix sum ranks them.
  void compact() {
    std::vector<int> rank;
    for (int c : cluster) {
      if (c >= static_cast<int>(rank.size())) {
        rank.resize(static_cast<std::size_t>(c) + 1, 0);
      }
      rank[static_cast<std::size_t>(c)] = 1;
    }
    int next = 0;
    for (int& r : rank) {
      const int used = r;
      r = next;
      next += used;
    }
    for (int& c : cluster) c = rank[static_cast<std::size_t>(c)];
    k = next;
  }
};

/// The vertices of each cluster, ascending: members[id] for id in [0, k).
inline std::vector<std::vector<int>> cluster_members(const Clustering& c) {
  std::vector<std::vector<int>> members(static_cast<std::size_t>(c.k));
  for (int v = 0; v < static_cast<int>(c.cluster.size()); ++v) {
    members[static_cast<std::size_t>(c.cluster[v])].push_back(v);
  }
  return members;
}

/// Measured quality of a Clustering, as produced by evaluate_clustering.
///
/// Units: eps_fraction is dimensionless (cut edges / m); max_diameter is in
/// BFS hops of the *induced* (strong) cluster subgraph — never simulated
/// rounds; max_cluster_size is in vertices. For clusters above
/// kEvalExactCap vertices the diameter is a sampled-eccentricity estimate
/// (iterated double sweep plus spread sources — a lower bound within 2x,
/// exact on trees), so max_diameter is exact on small-cluster
/// decompositions and conservative on large ones.
struct ClusterQuality {
  double eps_fraction = 0.0;  // cut edges / m
  int max_diameter = 0;       // max induced diameter over clusters (BFS hops)
  std::int64_t cut_edges = 0;
  bool clusters_connected = true;
  int max_cluster_size = 0;
};

namespace detail {

/// Counting sort of the vertices by cluster id (ids in [0, k)): cluster
/// id's vertices, ascending, land in members[off[id], off[id + 1]). A lent
/// pool splits the vertices into contiguous slices, each counted into its
/// own row of k slots (at most n / k slices, so the rows fit in n slots);
/// a slice's members of id go after those of the slices before it, so
/// the result is the same at every thread count.
inline void group_members(const std::vector<int>& cluster, int k,
                          std::vector<int>& off, std::vector<int>& members,
                          congest::ShardPool* pool = nullptr) {
  const int n = static_cast<int>(cluster.size());
  const int threads = pool != nullptr ? pool->threads() : 1;
  const int slices = std::max(1, std::min(threads, k > 0 ? n / k : 1));
  // at[s * k + id]: slice s's count of id, then its first write slot.
  std::vector<int> at(static_cast<std::size_t>(slices) * k, 0);
  congest::parallel_ranges(pool, n, slices, [&](int lo, int hi, int s) {
    int* row = at.data() + static_cast<std::size_t>(s) * k;
    for (int v = lo; v < hi; ++v) ++row[cluster[v]];
  });
  off.assign(static_cast<std::size_t>(k) + 1, 0);
  congest::parallel_ranges(pool, k, threads, [&](int lo, int hi, int) {
    for (int id = lo; id < hi; ++id) {
      int size = 0;
      for (int s = 0; s < slices; ++s) {
        int& slot = at[static_cast<std::size_t>(s) * k + id];
        const int count = slot;
        slot = size;
        size += count;
      }
      off[id + 1] = size;
    }
  });
  for (int id = 0; id < k; ++id) off[id + 1] += off[id];
  members.resize(static_cast<std::size_t>(n));
  congest::parallel_ranges(pool, n, slices, [&](int lo, int hi, int s) {
    int* row = at.data() + static_cast<std::size_t>(s) * k;
    for (int v = lo; v < hi; ++v) {
      members[off[cluster[v]] + row[cluster[v]]++] = v;
    }
  });
}

/// Edges of g whose endpoints carry different labels. A lent pool shards
/// the vertices into one contiguous range per thread; the per-range counts
/// fold in range order, so the total is the same at every thread count.
inline std::int64_t count_cut_edges(const Graph& g,
                                    const std::vector<int>& label,
                                    congest::ShardPool* pool) {
  const int tasks = pool != nullptr ? pool->threads() : 1;
  std::vector<std::int64_t> cuts(static_cast<std::size_t>(tasks), 0);
  congest::parallel_ranges(pool, g.n(), tasks, [&](int lo, int hi, int task) {
    std::int64_t local = 0;
    for (int u = lo; u < hi; ++u) {
      for (int v : g.neighbors(u)) {
        if (u < v && label[u] != label[v]) ++local;
      }
    }
    cuts[static_cast<std::size_t>(task)] = local;
  });
  std::int64_t cut = 0;
  for (std::int64_t x : cuts) cut += x;
  return cut;
}

}  // namespace detail

/// Clusters of at most this many vertices get their exact diameter from
/// one 64-bit reachability mask per vertex; larger ones are estimated.
inline constexpr int kEvalExactCap = 64;
/// The sampled-eccentricity estimator's probes per large cluster.
inline constexpr int kEvalSweeps = 4;
inline constexpr int kEvalSampleSources = 8;

namespace detail {

static_assert(kEvalExactCap <= 64, "one cluster's vertices fit one word");

/// Per-worker buffers of the word-parallel exact diameter.
struct MaskScratch {
  std::uint64_t adj[kEvalExactCap], reach[kEvalExactCap], next[kEvalExactCap];
};

/// Exact induced diameter of one cluster of size <= kEvalExactCap (the
/// largest component diameter when the cluster is disconnected) and
/// whether it is connected. Local id i is verts[i]; dist serves as the
/// vertex -> local id map and is reset to -1 before returning. Each round
/// grows every vertex's mask by its neighbours' masks of the last round,
/// so after t rounds reach[i] is the radius-t ball around i: the number of
/// rounds in which some mask grows is the largest eccentricity.
inline std::pair<int, bool> mask_diameter(const Graph& g,
                                          const std::vector<int>& cluster,
                                          const int* verts, int size,
                                          std::vector<int>& dist,
                                          MaskScratch& ms) {
  const int id = cluster[verts[0]];
  for (int i = 0; i < size; ++i) dist[verts[i]] = i;
  for (int i = 0; i < size; ++i) {
    std::uint64_t adj = 0;
    for (int w : g.neighbors(verts[i])) {
      if (cluster[w] == id) adj |= std::uint64_t{1} << dist[w];
    }
    ms.adj[i] = adj;
    ms.reach[i] = std::uint64_t{1} << i;
  }
  for (int i = 0; i < size; ++i) dist[verts[i]] = -1;
  int rounds = 0;
  for (bool grew = true; grew;) {
    grew = false;
    for (int i = 0; i < size; ++i) {
      std::uint64_t r = ms.reach[i];
      for (std::uint64_t a = ms.adj[i]; a != 0; a &= a - 1) {
        r |= ms.reach[__builtin_ctzll(a)];
      }
      ms.next[i] = r;
      grew = grew || r != ms.reach[i];
    }
    std::copy(ms.next, ms.next + size, ms.reach);
    rounds += grew ? 1 : 0;
  }
  const std::uint64_t full =
      size == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << size) - 1;
  bool connected = true;
  for (int i = 0; i < size; ++i) connected = connected && ms.reach[i] == full;
  return {rounds, connected};
}

/// Per-worker buffers of the sampled estimate: one cluster's local CSR and
/// its BFS arrays, reused from cluster to cluster.
struct LocalCsr {
  std::vector<int> off, adj, dist, queue;
};

/// Sampled induced diameter of one cluster of more than kEvalExactCap
/// vertices — kEvalSweeps alternating double-sweep BFSes, then
/// kEvalSampleSources evenly spread sources — and whether every BFS reached
/// the whole cluster. The BFSes run on a cluster-local CSR built once:
/// local id i is verts[i] (dist maps vertex -> local id while the rows are
/// built, and is reset to -1 before returning). verts ascend, so each
/// local row keeps its global neighbour order, and every BFS reaches the
/// same farthest vertex as one restricted to the cluster on g's rows.
inline std::pair<int, bool> sampled_diameter(const Graph& g,
                                             const std::vector<int>& cluster,
                                             const int* verts, int size,
                                             std::vector<int>& dist,
                                             LocalCsr& lc) {
  const int id = cluster[verts[0]];
  for (int i = 0; i < size; ++i) dist[verts[i]] = i;
  lc.off.assign(1, 0);
  lc.adj.clear();
  for (int i = 0; i < size; ++i) {
    for (int w : g.neighbors(verts[i])) {
      if (cluster[w] == id) lc.adj.push_back(dist[w]);
    }
    lc.off.push_back(static_cast<int>(lc.adj.size()));
  }
  for (int i = 0; i < size; ++i) dist[verts[i]] = -1;
  lc.dist.assign(static_cast<std::size_t>(size), -1);
  int diam = 0;
  bool connected = true;
  // Eccentricity of local vertex src; the last vertex reached is the
  // farthest.
  const auto probe = [&](int src) {
    lc.queue.assign(1, src);
    lc.dist[src] = 0;
    for (std::size_t h = 0; h < lc.queue.size(); ++h) {
      const int u = lc.queue[h];
      for (int a = lc.off[u]; a < lc.off[u + 1]; ++a) {
        const int w = lc.adj[a];
        if (lc.dist[w] < 0) {
          lc.dist[w] = lc.dist[u] + 1;
          lc.queue.push_back(w);
        }
      }
    }
    const int far = lc.queue.back();
    diam = std::max(diam, lc.dist[far]);
    connected = connected && static_cast<int>(lc.queue.size()) == size;
    for (int u : lc.queue) lc.dist[u] = -1;
    return far;
  };
  // Alternating double sweep: hop to the farthest vertex found so far.
  int src = 0;
  for (int sweep = 0; sweep < kEvalSweeps; ++sweep) src = probe(src);
  // Evenly spread extra sources guard against sweeps stuck on a limb.
  const int stride = std::max(1, size / kEvalSampleSources);
  for (int i = stride / 2; i < size; i += stride) probe(i);
  return {diam, connected};
}

}  // namespace detail

/// Measure cut fraction and per-cluster strong diameter.
///
/// Diameter is exact for clusters up to kEvalExactCap vertices
/// (detail::mask_diameter: word-parallel reachability masks, no BFS);
/// larger clusters use sampled eccentricity (detail::sampled_diameter:
/// kEvalSweeps alternating double-sweep BFSes plus kEvalSampleSources
/// evenly spread extra sources on a cluster-local CSR — a lower bound
/// within 2x, exact on trees), so the measurement stays near-linear even
/// when clusters are large.
///
/// An optional lent pool shards the cut count by vertex and the clusters
/// by size: the clusters above kEvalExactCap go out first, largest first,
/// one task each (certify_parts' heavy-first rule), then the small ones in
/// contiguous chunks of equal cluster count.
/// Clusters are disjoint, so they share one dist array (a cluster reads
/// and resets only its own entries); the results fold by sum, max and AND,
/// so the quality is the same at every thread count.
inline ClusterQuality evaluate_clustering(const Graph& g, const Clustering& c,
                                          congest::ShardPool* pool = nullptr) {
  ClusterQuality q;
  const int n = g.n();
  const int threads = pool != nullptr ? pool->threads() : 1;
  q.cut_edges = detail::count_cut_edges(g, c.cluster, pool);
  q.eps_fraction = g.m() == 0 ? 0.0
                              : static_cast<double>(q.cut_edges) /
                                    static_cast<double>(g.m());

  std::vector<int> off, members;
  detail::group_members(c.cluster, c.k, off, members, pool);
  // The large clusters, largest first (ties by id). The small ones cost
  // at most a 64-vertex mask pass each, so they go in chunks of equal
  // cluster count; chunks of equal member count measured slower end to
  // end on the 1M grid, which has no large clusters.
  std::vector<int> large;
  for (int id = 0; id < c.k; ++id) {
    if (off[id + 1] - off[id] > kEvalExactCap) large.push_back(id);
  }
  std::sort(large.begin(), large.end(), [&off](int a, int b) {
    const int sa = off[a + 1] - off[a], sb = off[b + 1] - off[b];
    return sa != sb ? sa > sb : a < b;
  });
  const congest::ShardPlan chunks(c.k, congest::chunk_count(pool));
  const int heavy = static_cast<int>(large.size());

  struct alignas(64) Fold {
    int max_diameter = 0;
    int max_cluster_size = 0;
    bool connected = true;
    detail::LocalCsr local;  // the worker's sampled-estimate scratch
    detail::MaskScratch masks;
  };
  std::vector<Fold> folds(static_cast<std::size_t>(threads));
  std::vector<int> dist(static_cast<std::size_t>(n), -1);
  congest::for_each_task(
      pool, heavy + chunks.shards, [&](int t, int worker) {
        Fold& f = folds[static_cast<std::size_t>(worker)];
        if (t < heavy) {
          const int id = large[static_cast<std::size_t>(t)];
          const int size = off[id + 1] - off[id];
          const auto [diam, connected] = detail::sampled_diameter(
              g, c.cluster, members.data() + off[id], size, dist, f.local);
          f.max_cluster_size = std::max(f.max_cluster_size, size);
          f.max_diameter = std::max(f.max_diameter, diam);
          f.connected = f.connected && connected;
          return;
        }
        for (int id = chunks.begin(t - heavy); id < chunks.end(t - heavy);
             ++id) {
          const int size = off[id + 1] - off[id];
          if (size == 0 || size > kEvalExactCap) continue;
          f.max_cluster_size = std::max(f.max_cluster_size, size);
          const auto [diam, connected] = detail::mask_diameter(
              g, c.cluster, members.data() + off[id], size, dist, f.masks);
          f.max_diameter = std::max(f.max_diameter, diam);
          f.connected = f.connected && connected;
        }
      });
  for (const Fold& f : folds) {
    q.max_diameter = std::max(q.max_diameter, f.max_diameter);
    q.max_cluster_size = std::max(q.max_cluster_size, f.max_cluster_size);
    q.clusters_connected = q.clusters_connected && f.connected;
  }
  return q;
}

/// True iff every vertex carries a cluster id in [0, k). Connectivity of the
/// induced clusters is reported separately by evaluate_clustering
/// (ClusterQuality::clusters_connected).
inline bool is_valid_partition(const Graph& g, const Clustering& c) {
  if (static_cast<int>(c.cluster.size()) != g.n()) return false;
  for (int v = 0; v < g.n(); ++v) {
    if (c.cluster[v] < 0 || c.cluster[v] >= c.k) return false;
  }
  return true;
}

}  // namespace mfd::decomp
