// Theorem 1.1 LOCAL pipeline: iterated heavy-stars contraction with a
// diameter guard — the engine of build_edt_decomposition (decomp/edt.hpp),
// which runs it at the guard 2w (w = detail::edt_band_width(ε)), and the
// replacement for the global-BFS chop. This header also declares the
// EdtParams / EdtDecomposition types that entry point takes and returns.
//
// The global chop pays its BFS depth in simulated rounds every pass, which
// on a √n-diameter grid makes construction cost Θ(√n). This pipeline never
// runs a global BFS: it starts from singleton clusters and repeatedly
//   1. takes the weighted cluster graph (edge weight = number of G-edges
//      between two clusters). While every cluster is a singleton (the
//      first iteration, and any stalled ones right after it) that graph is
//      G with unit weights, and heavy_stars reads G's rows directly; no
//      copy is built. Afterwards detail::contract_clusters builds it
//      straight from G's CSR, with no edge list: the vertices are
//      counting-sorted into per-cluster member slices, each cluster's row
//      is aggregated with a stamp array and sorted by neighbour id, and the
//      per-task rows are copied into one offsets/arcs pair of 8-byte arcs
//      (32-bit weights, which fit because a weight is at most m). That
//      pair and every other contraction buffer live in a ContractScratch
//      that is reused across iterations,
//   2. marks heavy stars on it (Lemma 4.2, >= 1/(8α) of the remaining cut
//      weight, O(log* n) Cole–Vishkin rounds),
//   3. merges each marked tree top-down, one depth level per pass, under
//      an eccentricity guard that keeps every cluster's certified radius
//      <= ecc_cap, so the final strong diameter is <= 2*ecc_cap = O(1/ε)
//      by construction.
// Each accepted merge moves its captured edges from the cut into a cluster,
// so the cut weight shrinks geometrically; the loop stops once at most ε·m
// edges remain cut (a hard budget, like the chop's). If the guard ever
// blocks every merge while the budget is unmet, ecc_cap doubles — the
// escape hatch that guarantees termination on adversarial instances (the
// bench families never trigger it at the 2w guard). Each doubling leaves a
// zero-round "stalled, ecc-cap doubled" marker in the ledger, so the final
// diameter bound 2*ecc_cap*2^(stalls) can be read off the result.
//
// Rounds charged per iteration: the heavy-stars rounds (pointing +
// Cole–Vishkin + star formation) plus 2*ecc_cap for the intra-cluster
// aggregation a CONGEST implementation pays to act as one cluster-graph
// node. Total: O((log* n + 1/ε) · iterations), independent of the graph
// diameter — the fidelity gap ROADMAP flags is exactly this.
//
// Bandwidth is measured, not symbolic: every iteration opens a ChargeScope
// ("heavy-stars iter N: ...") that absorbs the heavy-stars phase ledger
// (pointer exchange, Cole–Vishkin colors, bipartition vote, star formation)
// and adds the merge/re-measure sweep — label announcements from every
// relabeled vertex to its neighbors plus the designee-ecc BFS wave, each
// directed edge carrying at most one O(log n)-bit message per round.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "congest/runtime.hpp"
#include "congest/shard.hpp"
#include "decomp/clustering.hpp"
#include "decomp/heavy_stars.hpp"
#include "graph/graph.hpp"
#include "graph/weighted.hpp"

namespace mfd::decomp {

/// Theorem 1.1 offers two T tradeoffs: kOverlapRouting multiplies the cluster
/// diameter by a log Δ factor, kPolylogRouting pays an additive
/// polylog(Δ, 1/ε) term instead.
enum class EdtVariant { kPolylogRouting, kOverlapRouting };

/// Knobs of build_edt_decomposition (decomp/edt.hpp).
struct EdtParams {
  EdtVariant variant = EdtVariant::kPolylogRouting;
  // Optional lent pool: partitions the per-iteration work (cluster-graph
  // rows, heavy-stars phases and Cole–Vishkin rounds, merge-walk levels,
  // relabel sweep, cut recount, per-cluster designee BFS) and the final
  // evaluate_clustering across its threads.
  // Results are bit-identical to the inline run (nullptr) for every thread
  // count (gated by tests/test_shard.cpp); only wall time changes.
  congest::ShardPool* pool = nullptr;
  // Hard cap on contraction iterations; the eps budget normally stops the
  // loop first. Tests lower it to read every intermediate clustering.
  int max_iterations = 100;
};

/// Output of build_edt_decomposition (Theorem 1.1 / Corollary 6.1) and of
/// the ldd_global_chop baseline. Invariants the tests pin down: clustering
/// partitions V into connected clusters, quality.eps_fraction <= eps (hard
/// budget, deterministic), quality.max_diameter = O(1/eps) in BFS hops,
/// ledger totals simulated CONGEST rounds, and the whole construction is
/// deterministic.
struct EdtDecomposition {
  Clustering clustering;
  ClusterQuality quality;
  congest::Runtime ledger;  // phase-attributed simulated CONGEST rounds
  int T_measured = 0;  // measured routing time (rounds) of the chosen variant
  int iterations = 0;  // contraction iterations (chop passes for the chop)
  int merges = 0;      // star merges (light-link merges for the chop)
};

namespace detail {

/// Buffers of contract_clusters, kept across heavy-stars iterations.
struct ContractScratch {
  // Cluster c's members, ascending: members[member_off[c], member_off[c+1]).
  std::vector<int> member_off, members;
  std::vector<std::int64_t> row_len;  // arcs in cluster c's row
  struct Task {
    std::vector<WeightedGraph::Arc> run;  // rows of the task's clusters
    // stamp[d] == c: cluster d already has an arc in row c, at slot[d]
    // relative to the row's start.
    std::vector<int> stamp, slot;
  };
  std::vector<Task> tasks;
  // The cluster graph itself, rebuilt in place: its offsets and arcs keep
  // their capacity, so only a graph larger than every earlier one maps and
  // faults fresh pages.
  WeightedGraph graph;
};

/// The weighted cluster graph of g under the dense labelling cid (cid[v] in
/// [0, k)): row c holds one arc per neighbouring cluster d, weighted by the
/// number of G-edges between c and d, in ascending d — exactly the arcs
/// WeightedGraph(k, edges) builds from one unit edge per cut G-edge, without
/// the edge list. Clusters shard over the pool in contiguous ranges of
/// equal member count (congest::WeightedPlan over the member offsets); the
/// per-task runs land in the arc array in task order, so the graph is the
/// same for every thread count. The result is sc.graph, valid until the
/// next call with the same scratch.
inline const WeightedGraph& contract_clusters(const Graph& g,
                                              const std::vector<int>& cid,
                                              int k, congest::ShardPool* pool,
                                              ContractScratch& sc) {
  const int tasks = pool != nullptr ? pool->threads() : 1;
  group_members(cid, k, sc.member_off, sc.members, pool);
  const std::vector<int>& off = sc.member_off;
  sc.row_len.resize(static_cast<std::size_t>(k));
  sc.tasks.resize(static_cast<std::size_t>(tasks));
  // One plan for both passes, so task t's run is rows [begin(t), end(t)).
  const congest::WeightedPlan plan(off, tasks);
  const auto for_each_range = [&](auto&& fn) {
    congest::for_each_task(pool, tasks, [&](int t, int) {
      if (plan.begin(t) < plan.end(t)) fn(plan.begin(t), plan.end(t), t);
    });
  };
  for_each_range([&](int lo, int hi, int t) {
    ContractScratch::Task& tk = sc.tasks[static_cast<std::size_t>(t)];
    tk.run.clear();
    tk.stamp.assign(static_cast<std::size_t>(k), -1);
    tk.slot.resize(static_cast<std::size_t>(k));
    for (int c = lo; c < hi; ++c) {
      const std::size_t row = tk.run.size();
      for (int i = off[c]; i < off[c + 1]; ++i) {
        for (int w : g.neighbors(sc.members[static_cast<std::size_t>(i)])) {
          const int d = cid[w];
          if (d == c) continue;
          if (tk.stamp[d] != c) {
            tk.stamp[d] = c;
            tk.slot[d] = static_cast<int>(tk.run.size() - row);
            tk.run.push_back({d, 1});
          } else {
            ++tk.run[row + static_cast<std::size_t>(tk.slot[d])].w;
          }
        }
      }
      std::sort(tk.run.begin() + static_cast<std::ptrdiff_t>(row),
                tk.run.end(),
                [](const WeightedGraph::Arc& a, const WeightedGraph::Arc& b) {
                  return a.to < b.to;
                });
      sc.row_len[static_cast<std::size_t>(c)] =
          static_cast<std::int64_t>(tk.run.size() - row);
    }
  });
  sc.graph.rebuild(k, [&](std::vector<std::int64_t>& offsets,
                          std::vector<WeightedGraph::Arc>& arcs) {
    offsets.resize(static_cast<std::size_t>(k) + 1);
    offsets[0] = 0;
    for (int c = 0; c < k; ++c) offsets[c + 1] = offsets[c] + sc.row_len[c];
    arcs.resize(static_cast<std::size_t>(offsets[k]));
    for_each_range([&](int lo, int, int t) {
      const auto& run = sc.tasks[static_cast<std::size_t>(t)].run;
      std::copy(run.begin(), run.end(), arcs.begin() + offsets[lo]);
    });
  });
  return sc.graph;
}

/// The guarded heavy-stars contraction of g down to at most eps*m cut edges,
/// under the eccentricity guard cap (doubled on a stall). Appends one
/// "heavy-stars iter N: ..." group of charges per iteration to out.ledger
/// and fills out.clustering, out.quality, out.iterations and out.merges.
inline void contract_heavy_stars(const Graph& g, double eps, int cap,
                                 const EdtParams& params,
                                 EdtDecomposition& out) {
  const int n = g.n();
  // Cluster-graph arc weights count G-edges, so they are <= m and fit the
  // 32-bit WeightedGraph::Arc weight whenever m does.
  if (g.m() > std::numeric_limits<std::int32_t>::max()) {
    throw std::invalid_argument(
        "build_edt_decomposition: m above INT32_MAX overflows the 32-bit "
        "cluster-graph weights");
  }
  const std::int64_t allowance =
      static_cast<std::int64_t>(eps * static_cast<double>(g.m()));

  // Sharding setup: one vertex slice per pool thread (no pool, or a
  // one-thread pool, runs every loop inline).
  congest::ShardPool* pool = params.pool;
  const int tasks = pool != nullptr ? pool->threads() : 1;

  // Per cluster (indexed by its label, one of its vertices): a designated
  // center vertex and that center's exact eccentricity inside the cluster.
  // The guard reasons about distances from the center, so diameter <=
  // 2 * ecc_est always holds.
  std::vector<int> designee(n), ecc_est(n, 0);
  std::iota(designee.begin(), designee.end(), 0);
  std::int64_t cut = g.m();

  // Dense cluster ids: cid[v] in [0, k), numbered in order of each
  // cluster's first vertex; rep[c] is cluster c's label. Every vertex
  // starts as its own cluster, labelled by itself.
  std::vector<int> cid(n), rep(n);
  std::iota(cid.begin(), cid.end(), 0);
  std::iota(rep.begin(), rep.end(), 0);
  // Per dense cluster: the merge walk's guard bound, verdict and new root,
  // and the renumbering of the merged clusters.
  std::vector<int> bound, new_root, next_id, next_rep;
  std::vector<char> accepted;
  std::vector<int> dist(n, -1);  // shared BFS scratch (clusters are disjoint)
  ContractScratch contract_scratch;
  while (cut > allowance && out.iterations < params.max_iterations) {
    const int k = static_cast<int>(rep.size());
    // While every cluster is a singleton, dense ids follow first vertices,
    // so cid[v] == v and the cluster graph is G itself with unit weights:
    // heavy_stars reads G's rows, and no copy of G is built.
    const HeavyStarsResult hs =
        k == n ? heavy_stars(g, pool)
               : heavy_stars(contract_clusters(g, cid, k, pool,
                                               contract_scratch),
                             pool);
    ++out.iterations;
    // All of this iteration's charges close into the ledger under one
    // "heavy-stars iter N: " prefix — the heavy-stars phases verbatim, then
    // the measured merge/re-measure sweep below.
    congest::ChargeScope scope(out.ledger,
                               "heavy-stars iter " + std::to_string(out.iterations));
    scope.absorb(hs.ledger);

    // Merge marked trees top-down under the eccentricity guard. bound[c] is
    // a certified upper bound on the distance from the tree root's cluster
    // center to any vertex of cluster c after the merge: entering c costs
    // the parent's bound, one crossing edge, and a detour through c's own
    // center (<= 2*ecc of the center). A cluster's accept, bound and new
    // root read only its parent's, so the trees go one depth level per
    // pooled pass (hs.max_marked_depth + 1 passes); a rejected cluster
    // stays its own root, and so do its children. Merge counts fold in task
    // order.
    bound.resize(static_cast<std::size_t>(k));
    accepted.resize(static_cast<std::size_t>(k));
    new_root.resize(static_cast<std::size_t>(k));
    std::vector<int> merged(static_cast<std::size_t>(tasks), 0);
    for (int level = 0; level <= hs.max_marked_depth; ++level) {
      congest::parallel_ranges(pool, k, tasks, [&](int lo, int hi, int task) {
        int local = 0;
        for (int c = lo; c < hi; ++c) {
          if (hs.depth[c] != level) continue;
          const int p = hs.kept_parent[c];
          const bool root = p < 0;
          bound[c] = root ? ecc_est[rep[c]] : bound[p] + 1 + 2 * ecc_est[rep[c]];
          const bool merge = !root && accepted[p] && bound[c] <= cap;
          accepted[c] = root || merge ? 1 : 0;
          new_root[c] = merge ? new_root[p] : c;
          local += merge ? 1 : 0;
        }
        merged[static_cast<std::size_t>(task)] += local;
      });
    }
    int accepted_any = 0;
    for (int m2 : merged) accepted_any += m2;
    out.merges += accepted_any;
    if (accepted_any == 0) {
      // Guard blocked everything: relax and retry. The iteration still ran
      // its pointing + Cole–Vishkin + (empty) formation phases — already
      // absorbed above; leave a zero-cost marker so the breakdown shows why
      // the iteration merged nothing.
      cap *= 2;
      scope.charge("stalled, ecc-cap doubled", 0);
      continue;
    }

    // Apply: accepted clusters adopt their tree root's label (and its
    // designated center), then every cluster re-measures its center's exact
    // eccentricity with one intra-cluster BFS — the 2*max_ecc charge above
    // pays for this sweep, and the exact value keeps the guard from
    // compounding the additive overestimates across iterations.
    //
    // A merged cluster's first vertex is that of its smallest old id (old
    // ids follow first vertices), so numbering the trees in order of their
    // smallest member keeps the dense ids in first-vertex order.
    //
    // next_off sums the merged clusters' member counts into a prefix, which
    // weights the designee BFS chunks: singletons while k == n, otherwise
    // the old clusters' counts from this iteration's contract_clusters. It
    // lives in bound's storage, which the merge walk is done with: at least
    // one merge happened, so at most k - 1 clusters remain and their prefix
    // fits bound's k slots. A fresh array raised the 1M grid's peak RSS by
    // 3 MB, or cost page faults on every iteration.
    const std::vector<int>& old_off = contract_scratch.member_off;
    std::vector<int>& next_off = bound;
    next_id.assign(static_cast<std::size_t>(k), -1);
    next_rep.clear();
    next_off.assign(static_cast<std::size_t>(k), 0);
    for (int c = 0; c < k; ++c) {
      const int r = new_root[c];
      int& id = next_id[r];
      if (id < 0) {
        id = static_cast<int>(next_rep.size());
        next_rep.push_back(rep[r]);
      }
      next_off[id + 1] += k == n ? 1 : old_off[c + 1] - old_off[c];
    }
    next_off.resize(next_rep.size() + 1);
    std::partial_sum(next_off.begin(), next_off.end(), next_off.begin());
    // Measured sweep traffic: every relabeled vertex (its cluster merged
    // into another root) announces its new label to all neighbors (one
    // O(log n)-bit message per incident directed edge), then the designee
    // BFS wave crosses each intra-cluster directed edge once and the
    // eccentricity converges back along the BFS tree. Relabel + cut
    // recount shard by vertex (cid[v] reads/writes are per-vertex; the
    // recount runs after the relabel barrier); sums fold in task order —
    // integer addition, so totals are sharding-invariant.
    std::int64_t sweep_msgs = 0;
    {
      std::vector<std::int64_t> msgs(static_cast<std::size_t>(tasks), 0);
      congest::parallel_ranges(pool, n, tasks, [&](int lo, int hi, int task) {
        std::int64_t local = 0;
        for (int v = lo; v < hi; ++v) {
          const int r = new_root[cid[v]];
          if (r != cid[v]) local += g.degree(v);
          cid[v] = next_id[r];
        }
        msgs[static_cast<std::size_t>(task)] = local;
      });
      for (std::int64_t m2 : msgs) sweep_msgs += m2;
    }
    rep.swap(next_rep);
    cut = count_cut_edges(g, cid, pool);
    // One BFS per cluster from its designee. Clusters are vertex-disjoint,
    // so concurrent cluster BFSes share the dist array without racing: a
    // BFS only touches dist[w2] when cid[w2] is its own cluster, and resets
    // its touched entries to -1 before finishing. Clusters go out in
    // contiguous chunks of equal member count: the dense ids follow first
    // vertices, so the large clusters crowd the low ids, and chunks of
    // equal cluster count would leave the first chunk most of the work.
    // Per-cluster message counts and eccentricities fold by sum and max,
    // identical to the serial sweep.
    int max_ecc = 1;
    {
      const std::vector<int>& roots = rep;  // the surviving labels
      const int workers = pool != nullptr ? pool->threads() : 1;
      struct alignas(64) Scratch {
        std::vector<int> frontier, nxt, touched;
      };
      std::vector<Scratch> scratch(static_cast<std::size_t>(workers));
      std::vector<std::int64_t> bfs_msgs(roots.size(), 0);
      std::vector<int> ecc_of(roots.size(), 0);
      const auto bfs_cluster = [&](std::size_t idx, Scratch& sc,
                                   std::vector<int>& dist_arr) {
        const int v = roots[idx];
        const int src = designee[v];
        dist_arr[src] = 0;
        sc.frontier.assign(1, src);
        sc.touched.assign(1, src);
        int ecc = 0;
        std::int64_t msgs = 0;
        while (!sc.frontier.empty()) {
          sc.nxt.clear();
          for (int u : sc.frontier) {
            for (int w2 : g.neighbors(u)) {
              if (cid[w2] != static_cast<int>(idx)) continue;
              ++msgs;  // the BFS wave crosses directed edge (u, w2) once
              if (dist_arr[w2] < 0) {
                dist_arr[w2] = dist_arr[u] + 1;
                ecc = dist_arr[w2];
                sc.nxt.push_back(w2);
                sc.touched.push_back(w2);
              }
            }
          }
          std::swap(sc.frontier, sc.nxt);
        }
        // Convergecast of the measured eccentricity along the BFS tree.
        msgs += static_cast<std::int64_t>(sc.touched.size()) - 1;
        for (int u : sc.touched) dist_arr[u] = -1;
        ecc_of[idx] = ecc;
        bfs_msgs[idx] = msgs;
      };
      congest::for_each_chunk(
          pool, next_off, [&](int lo, int hi, int worker) {
            for (int t = lo; t < hi; ++t) {
              bfs_cluster(static_cast<std::size_t>(t),
                          scratch[static_cast<std::size_t>(worker)], dist);
            }
          });
      for (std::size_t i = 0; i < roots.size(); ++i) {
        ecc_est[roots[i]] = ecc_of[i];
        max_ecc = std::max(max_ecc, ecc_of[i]);
        sweep_msgs += bfs_msgs[i];
      }
    }
    // A CONGEST node of the cluster graph is a whole cluster: acting as one
    // (electing the pick, spreading the color, re-measuring the center's
    // eccentricity) costs a sweep to the post-merge BFS depth per cluster,
    // in parallel across clusters, plus one label-announcement round.
    // Clusters are vertex-disjoint, so no directed edge carries more than
    // one message in any sweep round.
    scope.charge("merge + ecc re-measure", 1 + 2 * max_ecc, sweep_msgs,
                 sweep_msgs > 0 ? 1 : 0);
  }

  out.clustering.cluster.resize(static_cast<std::size_t>(n));
  congest::parallel_ranges(pool, n, tasks, [&](int lo, int hi, int) {
    for (int v = lo; v < hi; ++v) out.clustering.cluster[v] = rep[cid[v]];
  });
  out.clustering.k = n;
  out.clustering.compact();
  out.quality = evaluate_clustering(g, out.clustering, pool);
}

}  // namespace detail

}  // namespace mfd::decomp
