// Reference implementations the production engines are pinned against.
//
// Each layer in src/ ships one engine; the simpler, slower formulation it
// replaced lives here as a test-only oracle, so every equivalence gate keeps
// comparing two independent code paths:
//
//   * simulate_serial — the token-serial lazy-walk loop of Lemma 2.5: one
//     walk at a time, one MessageMeter. expander::detail::simulate (walks
//     bucketed by vertex, vertices sharded over a pool) must reproduce its
//     SimOutcome bit for bit at every thread count;
//     gather_random_walks_serial wraps it in the published seed search.
//   * dense_mixing_alpha — the resident n x n KRV mixing matrix rebuilt from
//     a certificate's matchings. The cut-matching game never holds that
//     matrix (it replays column blocks); its cert.alpha must equal this
//     dense scan bit for bit.
//   * MisSolver / MdsBranch — the exact MIS and MDS branch-and-bound
//     searches as whole-array rescans per branch node. The production
//     searches (apps/exact.hpp, apps/domination.hpp) keep incremental state
//     so a node costs what it touches; their witnesses, node counts and
//     exact() flags must equal these at every budget.
//   * PointerRoutingScheme / pointer_route_hops — the two-level compact
//     routing scheme with per-vertex child vectors and a std::map of portals,
//     walked pointer by pointer. apps::build_routing_scheme builds the flat
//     tables directly; they must equal flatten_pointer_routing of this
//     scheme field for field, and apps::flat_route_hops must reproduce
//     pointer_route_hops' hop counts and visited vertices.
//   * cluster_graph_by_sort — the Theorem 1.1 contraction's cluster graph as
//     an edge-list round trip: one unit WeightedEdge per cut G-edge, then
//     WeightedGraph(k, edges) sorts, merges and scatters them.
//     decomp::detail::contract_clusters builds the CSR straight from the
//     vertex CSR; every offset, arc, m() and total_weight() must equal this
//     at every thread count.
//   * graph_by_sort — Graph::from_edges as a global pair sort: orient,
//     sort, deduplicate, filter, scatter. from_edges counts and scatters
//     arcs per endpoint and deduplicates row by row; its offsets and
//     adjacency must equal this CSR on every input.
//   * cluster_diameters_by_bfs — evaluate_clustering's quality with one
//     BFS per source in every cluster, whatever its size.
//     evaluate_clustering's word-parallel masks must match all five fields
//     on clusters of at most kEvalExactCap vertices, and its sampled
//     estimate must stay within 2x below this on larger ones.
//   * sampled_quality_by_global_probes — evaluate_clustering as one serial
//     loop over the cluster ids whose sampled probes are BFSes on g's own
//     rows, filtered by cluster id. evaluate_clustering runs the clusters
//     above kEvalExactCap largest first, each on a cluster-local CSR; all
//     five fields must equal this at every thread count.
//   * tree_decomposition_by_set_game — the treewidth probe on a std::set
//     adjacency game rebuilt for every greedy order, the sweep width, every
//     refinement candidate (each swap re-simulates the whole order) and the
//     bag build, with O(n)-per-step greedy scans. apps::tree_decomposition
//     runs one flat game, heap-driven greedy orders and O(deg x + deg y)
//     swap scoring; its bags, parent, width and complete flag must equal
//     this on every input and cap, and greedy_order_by_set_game pins both
//     greedy orders.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "apps/compact_routing.hpp"
#include "apps/domination.hpp"
#include "apps/exact.hpp"
#include "apps/treewidth.hpp"
#include "congest/runtime.hpp"
#include "decomp/clustering.hpp"
#include "expander/cut_matching.hpp"
#include "expander/rw_routing.hpp"
#include "graph/graph.hpp"
#include "graph/weighted.hpp"

namespace mfd::oracles {

/// Run every walk for up to `T` rounds under seed `seed`, one walk at a
/// time, metering per-round directed-edge congestion through one
/// congest::MessageMeter (every token move is one O(log n)-bit message over
/// its edge slot). Stops early once the target fraction is in.
inline expander::detail::SimOutcome simulate_serial(
    const expander::detail::Arena& a, std::uint64_t seed, int T,
    double laziness, double target_fraction) {
  expander::detail::SimOutcome out;
  std::vector<int> pos(a.start);
  std::vector<char> active(a.start.size(), 1);
  out.route.assign(a.start.size(), -1);
  std::int64_t delivered_walks = 0;
  const expander::detail::SimTargets targets(a, target_fraction);
  const auto lazy_cut =
      static_cast<std::uint32_t>(laziness * 4294967296.0);
  congest::MessageMeter meter(a.slots);
  for (int t = 1; t <= T; ++t) {
    if (static_cast<double>(delivered_walks) >= targets.walk_target_scaled) {
      break;
    }
    bool any_active = false;
    for (std::size_t w = 0; w < pos.size(); ++w) {
      if (!active[w]) continue;
      any_active = true;
      ++out.steps;
      const std::uint64_t z =
          expander::detail::rw_mix(seed, w, static_cast<std::uint64_t>(t));
      if (static_cast<std::uint32_t>(z >> 32) < lazy_cut) continue;
      const int u = pos[w];
      const int deg = static_cast<int>(a.nbr[u].size());
      if (deg == 0) continue;
      const int j = static_cast<int>((z & 0xffffffffULL) % deg);
      meter.send(a.slot[u][j]);
      pos[w] = a.nbr[u][j];
      if (pos[w] == a.star) {
        active[w] = 0;
        out.route[w] = a.star;
        ++delivered_walks;
      }
    }
    if (!any_active) break;
    ++out.walk_rounds;
    out.rounds += std::max<std::int64_t>(1, meter.round_peak());
    meter.end_round();
  }
  for (std::size_t w = 0; w < pos.size(); ++w) {
    if (out.route[w] < 0) out.route[w] = pos[w];
  }
  out.moves = meter.total_messages();
  out.peak_load = meter.peak_congestion();
  targets.finish(a, delivered_walks, out);
  return out;
}

/// expander::gather_random_walks with every seed simulated by
/// simulate_serial: the same published seed sequence, walk-length doubling
/// and budgets, so its RwResult must equal the production gather's field for
/// field (shard_messages aside — the serial meter has no lanes).
inline expander::RwResult gather_random_walks_serial(
    const expander::ExpanderSplit& sp, int v_star, double f,
    const expander::RwParams& p = {}) {
  namespace ed = expander::detail;
  expander::RwResult out;
  f = std::min(std::max(f, 1e-9), 1.0);
  const int pid = sp.part_of(v_star);
  const double phi =
      std::min(1.0, std::max(sp.phi_cert[pid], kRoutingPhiFloor));
  ed::Arena arena(sp, v_star);
  arena.spawn_walks(p.max_walks_total);
  out.schedule.walks = static_cast<int>(arena.start.size());
  out.schedule.domain_bits = congest::ceil_log2(sp.g.n());
  if (arena.population == 0 || arena.start.empty()) {
    out.delivered_fraction = 1.0;
    return out;
  }
  int T = ed::walk_length(arena, phi, f, p);
  std::int64_t steps_spent = 0;
  ed::SimOutcome best;
  for (int attempt = 1; attempt <= p.max_seed_tries; ++attempt) {
    const std::uint64_t seed = ed::rw_mix(expander::kRwBaseSeed, attempt, 0);
    ed::SimOutcome sim =
        simulate_serial(arena, seed, T, expander::kRwLaziness, 1.0 - f);
    steps_spent += sim.steps;
    out.schedule.seed_tries = attempt;
    if (sim.delivered_fraction > best.delivered_fraction || attempt == 1) {
      best = std::move(sim);
      out.schedule.seed = seed;
      out.walk_length = T;
    }
    if (best.delivered_fraction >= 1.0 - f) break;
    if (steps_spent >= p.search_budget) break;
    if (attempt % 2 == 0) {
      const std::int64_t cap = std::max<std::int64_t>(
          1, p.step_budget / static_cast<std::int64_t>(arena.start.size()));
      T = static_cast<int>(std::min<std::int64_t>(2LL * T, cap));
    }
  }
  out.delivered_fraction = best.delivered_fraction;
  out.rounds = best.rounds;
  out.route = std::move(best.route);
  for (int& r : out.route) r = arena.parent[r];
  out.ledger.charge("walk rounds", best.walk_rounds, best.moves, best.peak_load);
  out.ledger.charge("congestion surplus", best.rounds - best.walk_rounds);
  return out;
}

/// n * (min entry of the mixing matrix) after applying `matchings` to the
/// n x n identity, matched rows averaged in recorded order — the quantity a
/// certificate's alpha claims, computed on a resident dense matrix.
inline double dense_mixing_alpha(
    int n, const std::vector<std::vector<expander::MatchedPair>>& matchings) {
  if (n <= 0) return 0.0;
  const std::size_t stride = static_cast<std::size_t>(n);
  std::vector<double> mix(stride * stride, 0.0);
  for (std::size_t v = 0; v < stride; ++v) mix[v * stride + v] = 1.0;
  for (const std::vector<expander::MatchedPair>& round : matchings) {
    for (const expander::MatchedPair& p : round) {
      double* ru = mix.data() + static_cast<std::size_t>(p.u) * stride;
      double* rv = mix.data() + static_cast<std::size_t>(p.v) * stride;
      for (std::size_t j = 0; j < stride; ++j) {
        const double avg = 0.5 * (ru[j] + rv[j]);
        ru[j] = rv[j] = avg;
      }
    }
  }
  double mn = 1.0;
  for (double e : mix) mn = std::min(mn, e);
  return static_cast<double>(n) * mn;
}

/// The weighted cluster graph of g under the labelling cid (cid[v] in
/// [0, k)): every cut G-edge emitted as one unit edge between its endpoints'
/// clusters, duplicates merged by the edge-list constructor.
inline WeightedGraph cluster_graph_by_sort(const Graph& g,
                                           const std::vector<int>& cid,
                                           int k) {
  std::vector<WeightedEdge> edges;
  for (int u = 0; u < g.n(); ++u) {
    for (int v : g.neighbors(u)) {
      if (u < v && cid[u] != cid[v]) edges.push_back({cid[u], cid[v], 1});
    }
  }
  return WeightedGraph(k, std::move(edges));
}

/// The CSR of the simple graph an edge list describes, built by one global
/// sort of the oriented pairs.
struct SortedCsr {
  int n = 0;
  std::int64_t m = 0;
  std::vector<std::int64_t> offset;
  std::vector<int> adj;
};

/// Self-loops and out-of-range endpoints dropped, duplicates in either
/// orientation merged, negative n treated as 0 — Graph::from_edges' contract.
inline SortedCsr graph_by_sort(int n, std::vector<std::pair<int, int>> edges) {
  n = std::max(n, 0);
  for (auto& [u, v] : edges) {
    if (u > v) std::swap(u, v);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  edges.erase(std::remove_if(edges.begin(), edges.end(),
                             [n](const auto& e) {
                               return e.first == e.second || e.first < 0 ||
                                      e.second >= n;
                             }),
              edges.end());
  SortedCsr out;
  out.n = n;
  out.m = static_cast<std::int64_t>(edges.size());
  out.offset.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [u, v] : edges) {
    ++out.offset[u + 1];
    ++out.offset[v + 1];
  }
  for (int i = 0; i < n; ++i) out.offset[i + 1] += out.offset[i];
  out.adj.resize(2 * edges.size());
  std::vector<std::int64_t> cursor(out.offset.begin(), out.offset.end() - 1);
  for (const auto& [u, v] : edges) {
    out.adj[cursor[u]++] = v;
    out.adj[cursor[v]++] = u;
  }
  for (int v = 0; v < n; ++v) {
    std::sort(out.adj.begin() + out.offset[v], out.adj.begin() + out.offset[v + 1]);
  }
  return out;
}

/// The quality of c on g with exact diameters everywhere: one BFS from
/// every vertex, restricted to its cluster.
inline decomp::ClusterQuality cluster_diameters_by_bfs(
    const Graph& g, const decomp::Clustering& c) {
  decomp::ClusterQuality q;
  q.cut_edges = decomp::detail::count_cut_edges(g, c.cluster, nullptr);
  q.eps_fraction = g.m() == 0 ? 0.0
                              : static_cast<double>(q.cut_edges) /
                                    static_cast<double>(g.m());
  std::vector<int> size(static_cast<std::size_t>(c.k), 0);
  for (int id : c.cluster) ++size[static_cast<std::size_t>(id)];
  for (int s : size) q.max_cluster_size = std::max(q.max_cluster_size, s);
  std::vector<int> dist(static_cast<std::size_t>(g.n()), -1), queue;
  for (int src = 0; src < g.n(); ++src) {
    queue.assign(1, src);
    dist[src] = 0;
    for (std::size_t h = 0; h < queue.size(); ++h) {
      const int u = queue[h];
      for (int w : g.neighbors(u)) {
        if (c.cluster[w] == c.cluster[src] && dist[w] < 0) {
          dist[w] = dist[u] + 1;
          q.max_diameter = std::max(q.max_diameter, dist[w]);
          queue.push_back(w);
        }
      }
    }
    if (static_cast<int>(queue.size()) !=
        size[static_cast<std::size_t>(c.cluster[src])]) {
      q.clusters_connected = false;
    }
    for (int u : queue) dist[u] = -1;
  }
  return q;
}

/// evaluate_clustering's quality with the sampled estimate of every
/// cluster above kEvalExactCap taken on the global arrays: each probe is a
/// level-by-level BFS over g's rows that skips other clusters' vertices.
/// Clusters of at most kEvalExactCap vertices take the same word-parallel
/// masks.
inline decomp::ClusterQuality sampled_quality_by_global_probes(
    const Graph& g, const decomp::Clustering& c) {
  decomp::ClusterQuality q;
  q.cut_edges = decomp::detail::count_cut_edges(g, c.cluster, nullptr);
  q.eps_fraction = g.m() == 0 ? 0.0
                              : static_cast<double>(q.cut_edges) /
                                    static_cast<double>(g.m());
  std::vector<int> off, members;
  decomp::detail::group_members(c.cluster, c.k, off, members);
  std::vector<int> dist(static_cast<std::size_t>(g.n()), -1), frontier, next;
  decomp::detail::MaskScratch masks;
  // Eccentricity of src within its cluster, the last vertex reached and
  // how many were reached.
  const auto cluster_ecc = [&](int src, int* far) {
    const int id = c.cluster[src];
    dist[src] = 0;
    frontier.assign(1, src);
    int ecc = 0, reached = 1;
    *far = src;
    while (!frontier.empty()) {
      next.clear();
      for (int u : frontier) {
        for (int w : g.neighbors(u)) {
          if (c.cluster[w] == id && dist[w] < 0) {
            dist[w] = dist[u] + 1;
            ecc = dist[w];
            *far = w;
            ++reached;
            next.push_back(w);
          }
        }
      }
      std::swap(frontier, next);
    }
    return std::pair<int, int>{ecc, reached};
  };
  for (int id = 0; id < c.k; ++id) {
    const int* verts = members.data() + off[id];
    const int size = off[id + 1] - off[id];
    if (size == 0) continue;
    q.max_cluster_size = std::max(q.max_cluster_size, size);
    if (size <= decomp::kEvalExactCap) {
      const auto [diam, connected] =
          decomp::detail::mask_diameter(g, c.cluster, verts, size, dist, masks);
      q.max_diameter = std::max(q.max_diameter, diam);
      q.clusters_connected = q.clusters_connected && connected;
      continue;
    }
    const auto probe = [&](int src) {
      int far = src;
      const auto [ecc, reached] = cluster_ecc(src, &far);
      q.max_diameter = std::max(q.max_diameter, ecc);
      if (reached != size) q.clusters_connected = false;
      for (int i = 0; i < size; ++i) dist[verts[i]] = -1;
      return far;
    };
    int src = verts[0];
    for (int sweep = 0; sweep < decomp::kEvalSweeps; ++sweep) src = probe(src);
    const int stride = std::max(1, size / decomp::kEvalSampleSources);
    for (int i = stride / 2; i < size; i += stride) probe(verts[i]);
  }
  return q;
}

/// The exact MIS branch and bound with full O(n) rescans: every branch node
/// re-runs the degree-0/1 reduction as whole-array passes, scans all
/// vertices for the leftmost max-degree pivot (and, once the budget is
/// spent, for the leftmost min-degree greedy pick), and every leaf walks all
/// n vertices with a fresh seen array. apps::detail::MisSolver keeps that
/// state incrementally; its set, nodes() and exact() must equal this one's
/// at every budget.
class MisSolver {
 public:
  explicit MisSolver(const Graph& g, std::int64_t node_budget = -1)
      : g_(g), budget_(node_budget), alive_(g.n(), 1), deg_(g.n()) {
    for (int v = 0; v < g.n(); ++v) deg_[v] = g.degree(v);
  }

  std::vector<int> solve() {
    std::vector<int> chosen;
    branch(chosen);
    std::sort(chosen.begin(), chosen.end());
    return chosen;
  }

  std::int64_t nodes() const { return nodes_; }
  bool exact() const { return exact_; }

 private:
  void remove(int v, std::vector<int>& removed) {
    alive_[v] = 0;
    removed.push_back(v);
    for (int w : g_.neighbors(v)) {
      if (alive_[w]) --deg_[w];
    }
  }

  void restore(std::vector<int>& removed, std::size_t mark) {
    while (removed.size() > mark) {
      const int v = removed.back();
      removed.pop_back();
      alive_[v] = 1;
      for (int w : g_.neighbors(v)) {
        if (alive_[w]) ++deg_[w];
      }
    }
  }

  // Solve the remaining graph exactly (or greedily once the node budget is
  // spent); appends a valid — optimal while exact_ holds — set for it to
  // `chosen`. Mutates alive_/deg_ and restores them before returning.
  int branch(std::vector<int>& chosen) {
    ++nodes_;
    std::vector<int> removed;
    int taken = 0;
    // Reduce: repeatedly take degree-0/1 vertices (always optimal).
    bool changed = true;
    while (changed) {
      changed = false;
      for (int v = 0; v < g_.n(); ++v) {
        if (!alive_[v] || deg_[v] > 1) continue;
        ++taken;
        chosen.push_back(v);
        changed = true;
        if (deg_[v] == 1) {
          for (int w : g_.neighbors(v)) {
            if (alive_[w]) {
              remove(w, removed);
              break;
            }
          }
        }
        remove(v, removed);
      }
    }
    // Pick a branching vertex; leftovers (max degree <= 2) are exact.
    int pivot = -1;
    for (int v = 0; v < g_.n(); ++v) {
      if (alive_[v] && deg_[v] >= 3 && (pivot < 0 || deg_[v] > deg_[pivot])) {
        pivot = v;
      }
    }
    int best;
    if (pivot < 0) {
      best = taken + paths_and_cycles(chosen);
    } else if (budget_ >= 0 && nodes_ >= budget_) {
      // Budget spent: greedy completion. Repeatedly take a min-degree
      // vertex and delete its closed neighborhood until the leftovers are
      // paths/cycles (solved exactly). Valid, not necessarily optimal.
      exact_ = false;
      int extra = 0;
      for (;;) {
        int v = -1;
        for (int u = 0; u < g_.n(); ++u) {
          if (alive_[u] && deg_[u] >= 3 && (v < 0 || deg_[u] < deg_[v])) {
            v = u;
          }
        }
        if (v < 0) break;
        ++extra;
        chosen.push_back(v);
        for (int w : g_.neighbors(v)) {
          if (alive_[w]) remove(w, removed);
        }
        remove(v, removed);
      }
      best = taken + extra + paths_and_cycles(chosen);
    } else {
      // Exclude pivot.
      const std::size_t mark = removed.size();
      std::vector<int> without_set, with_set;
      remove(pivot, removed);
      const int without = branch(without_set);
      restore(removed, mark);
      // Include pivot: drop its closed neighborhood.
      remove(pivot, removed);
      for (int w : g_.neighbors(pivot)) {
        if (alive_[w]) remove(w, removed);
      }
      const int with = 1 + branch(with_set);
      if (with >= without) {
        chosen.push_back(pivot);
        chosen.insert(chosen.end(), with_set.begin(), with_set.end());
        best = taken + with;
      } else {
        chosen.insert(chosen.end(), without_set.begin(), without_set.end());
        best = taken + without;
      }
    }
    restore(removed, 0);
    return best;
  }

  // All remaining components have max degree <= 2: alpha(path_k) =
  // ceil(k/2), alpha(cycle_k) = floor(k/2). Walk each component in path
  // order and take every other vertex (odd cycles drop the last).
  int paths_and_cycles(std::vector<int>& chosen) {
    int total = 0;
    std::vector<char> seen(g_.n(), 0);
    for (int s = 0; s < g_.n(); ++s) {
      if (!alive_[s] || seen[s]) continue;
      // Find an endpoint if the component is a path; else it is a cycle.
      int start = s;
      bool is_cycle = true;
      {
        std::vector<int> stack = {s};
        std::vector<int> comp;
        seen[s] = 1;
        while (!stack.empty()) {
          const int v = stack.back();
          stack.pop_back();
          comp.push_back(v);
          if (deg_[v] < 2) {
            is_cycle = false;
            start = v;
          }
          for (int w : g_.neighbors(v)) {
            if (alive_[w] && !seen[w]) {
              seen[w] = 1;
              stack.push_back(w);
            }
          }
        }
      }
      // Ordered walk from `start` (an endpoint for paths, arbitrary for
      // cycles); take even positions, skipping an odd cycle's last slot.
      std::vector<int> order;
      int prev = -1, cur = start;
      for (;;) {
        order.push_back(cur);
        int nxt = -1;
        for (int w : g_.neighbors(cur)) {
          if (alive_[w] && w != prev && (w != start || order.size() <= 1)) {
            nxt = w;
            break;
          }
        }
        prev = cur;
        if (nxt < 0 || nxt == start) break;
        cur = nxt;
      }
      const int size = static_cast<int>(order.size());
      const int take = is_cycle ? size / 2 : (size + 1) / 2;
      for (int i = 0; i < take; ++i) chosen.push_back(order[2 * i]);
      total += take;
    }
    return total;
  }

  const Graph& g_;
  std::int64_t budget_;      // max branch nodes; -1 = unbounded
  std::int64_t nodes_ = 0;   // branch nodes explored
  bool exact_ = true;        // false once a greedy completion ran
  std::vector<char> alive_;
  std::vector<int> deg_;
};

/// The exact MDS branch and bound with full O(n) rescans: every node
/// rebuilds the 2-packing marks and scans all n vertices for the packing
/// bound and the fewest-candidates pivot. apps::detail::MdsBranch keeps a
/// white-vertex bitset and epoch-stamped marks instead; its set, nodes()
/// and exact() must equal this one's at every budget.
class MdsBranch {
 public:
  MdsBranch(const Graph& g, std::int64_t node_budget)
      : g_(g),
        n_(g.n()),
        white_(g.n()),
        dominated_(n_, 0),
        banned_(n_, 0),
        budget_(node_budget) {}

  /// Runs the search; exact() reports whether the budget survived.
  std::vector<int> solve() {
    best_ = apps::detail::greedy_mds(g_);
    apps::detail::prune_redundant(g_, best_);
    std::vector<int> chosen;
    descend(chosen);
    return best_;
  }

  bool exact() const { return exact_; }
  std::int64_t nodes() const { return nodes_; }

 private:
  int coverage(int v) const {
    int c = dominated_[v] ? 0 : 1;
    for (int w : g_.neighbors(v)) c += dominated_[w] ? 0 : 1;
    return c;
  }

  /// Greedy 2-packing of white vertices: closed neighborhoods of packed
  /// vertices are disjoint, and every dominating set spends a distinct
  /// vertex per packed vertex — a lower bound on what remains to pay.
  int packing_bound() {
    pack_mark_.assign(n_, 0);
    int packed = 0;
    for (int v = 0; v < n_; ++v) {
      if (dominated_[v]) continue;
      bool free = !pack_mark_[v];
      if (free) {
        for (int w : g_.neighbors(v)) {
          if (pack_mark_[w]) {
            free = false;
            break;
          }
        }
      }
      if (!free) continue;
      ++packed;
      // Block everything within distance 2 (mark the closed neighborhood;
      // a later candidate checks its own closed neighborhood against it).
      pack_mark_[v] = 1;
      for (int w : g_.neighbors(v)) pack_mark_[w] = 1;
    }
    return packed;
  }

  void descend(std::vector<int>& chosen) {
    if (!exact_) return;
    ++nodes_;
    if (budget_ >= 0 && nodes_ > budget_) {
      exact_ = false;
      return;
    }
    if (static_cast<int>(chosen.size()) +
            (white_ > 0 ? packing_bound() : 0) >=
        static_cast<int>(best_.size())) {
      return;
    }
    // Fewest-candidates white vertex.
    int pivot = -1, pivot_cands = n_ + 1;
    for (int v = 0; v < n_; ++v) {
      if (dominated_[v]) continue;
      int cands = banned_[v] ? 0 : 1;
      for (int w : g_.neighbors(v)) cands += banned_[w] ? 0 : 1;
      if (cands < pivot_cands) {
        pivot = v;
        pivot_cands = cands;
      }
    }
    if (pivot < 0) {  // everything dominated: chosen is a full solution
      best_ = chosen;
      std::sort(best_.begin(), best_.end());
      return;
    }
    if (pivot_cands == 0) return;  // infeasible branch
    std::vector<int> cands;
    if (!banned_[pivot]) cands.push_back(pivot);
    for (int w : g_.neighbors(pivot)) {
      if (!banned_[w]) cands.push_back(w);
    }
    std::sort(cands.begin(), cands.end(), [this](int a, int b) {
      const int ca = coverage(a), cb = coverage(b);
      return ca != cb ? ca > cb : a < b;
    });
    std::vector<int> newly_banned;
    for (int u : cands) {
      std::vector<int> newly_dominated;
      const auto mark = [&](int x) {
        if (!dominated_[x]) {
          dominated_[x] = 1;
          --white_;
          newly_dominated.push_back(x);
        }
      };
      mark(u);
      for (int w : g_.neighbors(u)) mark(w);
      chosen.push_back(u);
      descend(chosen);
      chosen.pop_back();
      for (int x : newly_dominated) dominated_[x] = 0;
      white_ += static_cast<int>(newly_dominated.size());
      // Completeness: some dominator of pivot is in an optimal solution;
      // having explored "u in", the remaining branches may assume "u out".
      banned_[u] = 1;
      newly_banned.push_back(u);
      if (!exact_) break;
    }
    for (int u : newly_banned) banned_[u] = 0;
  }

  const Graph& g_;
  int n_;
  int white_ = 0;
  std::vector<char> dominated_, banned_, pack_mark_;
  std::vector<int> best_;
  std::int64_t nodes_ = 0, budget_;
  bool exact_ = true;
};

// ---------------------------------------------------------------------------
// The pointer-walk compact-routing scheme.
// ---------------------------------------------------------------------------

/// The assembled two-level scheme; table-bit accessors count what each
/// vertex would actually store.
struct PointerRoutingScheme {
  int n = 0, k = 0;
  std::vector<int> cluster;            // cluster[v]
  std::vector<int> center;             // center[c] = root vertex of cluster c
  std::vector<int> up;                 // BFS-tree parent toward center (-1 at it)
  std::vector<int> tin, tout;          // DFS interval of v on its cluster tree
  std::vector<std::vector<int>> kids;  // tree children of v
  // Level 1: BFS spanning forest of the cluster graph with DFS intervals,
  // plus one portal edge per tree-adjacent cluster pair (both directions).
  std::vector<int> cparent;            // cluster-tree parent (-1 at roots)
  std::vector<int> ctin, ctout;        // cluster-tree DFS interval
  std::vector<std::vector<int>> ckids; // cluster-tree children
  std::map<std::pair<int, int>, std::pair<int, int>> portal;

  /// Bits vertex v stores: cluster id + parent port + own interval + one
  /// interval per tree child; centers add the cluster-tree labels and one
  /// portal id per tree-adjacent cluster.
  std::int64_t table_bits(int v) const {
    const int logn = congest::ceil_log2(std::max(n, 2));
    const int logk = congest::ceil_log2(std::max(k, 2));
    std::int64_t bits = logk + logn + 2 * logn;  // id, port, interval
    bits += static_cast<std::int64_t>(kids[v].size()) * 2 * logn;
    const int c = cluster[v];
    if (center[c] == v) {
      bits += 2 * logk + logn;  // own cluster interval + parent portal
      bits += static_cast<std::int64_t>(ckids[c].size()) * (2 * logk + logn);
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

namespace detail {

/// Hops of the tree route src -> dst inside one cluster tree: climb while
/// dst's interval is not below, then descend into the containing child.
/// If `path` is given, every vertex after src is appended in visit order —
/// the equivalence gate compares these sequences against the flat engine.
inline int tree_route_hops(const PointerRoutingScheme& s, int src, int dst,
                           std::vector<int>* path = nullptr) {
  int hops = 0, cur = src;
  while (cur != dst) {
    if (s.tin[cur] <= s.tin[dst] && s.tin[dst] <= s.tout[cur]) {
      int next = -1;  // descend: the unique child interval containing dst
      for (int ch : s.kids[cur]) {
        if (s.tin[ch] <= s.tin[dst] && s.tin[dst] <= s.tout[ch]) {
          next = ch;
          break;
        }
      }
      if (next < 0) return -1;  // corrupt labels; cannot happen on a tree
      cur = next;
    } else {
      if (s.up[cur] < 0) return -1;
      cur = s.up[cur];
    }
    if (path != nullptr) path->push_back(cur);
    ++hops;
  }
  return hops;
}

}  // namespace detail

/// Build the two-level scheme over a (connected-cluster) decomposition.
inline PointerRoutingScheme build_pointer_routing(
    const Graph& g, const decomp::Clustering& parts) {
  PointerRoutingScheme s;
  s.n = g.n();
  s.k = parts.k;
  s.cluster = parts.cluster;
  s.center.assign(s.k, -1);
  s.up.assign(s.n, -1);
  s.tin.assign(s.n, 0);
  s.tout.assign(s.n, 0);
  s.kids.assign(s.n, {});

  // Centers (minimum-id member) and per-cluster BFS trees toward them.
  for (int v = 0; v < s.n; ++v) {
    if (s.center[s.cluster[v]] < 0) s.center[s.cluster[v]] = v;
  }
  std::vector<int> frontier, next;
  std::vector<char> seen(s.n, 0);
  for (int c = 0; c < s.k; ++c) {
    const int root = s.center[c];
    if (root < 0) continue;
    seen[root] = 1;
    frontier.assign(1, root);
    while (!frontier.empty()) {
      next.clear();
      for (int u : frontier) {
        for (int w : g.neighbors(u)) {
          if (!seen[w] && s.cluster[w] == c) {
            seen[w] = 1;
            s.up[w] = u;
            s.kids[u].push_back(w);
            next.push_back(w);
          }
        }
      }
      std::swap(frontier, next);
    }
  }
  // DFS intervals per tree (one shared counter keeps labels globally unique).
  {
    int timer = 0;
    std::vector<std::pair<int, std::size_t>> stack;  // (vertex, child slot)
    for (int c = 0; c < s.k; ++c) {
      if (s.center[c] < 0) continue;
      stack.push_back({s.center[c], 0});
      s.tin[s.center[c]] = timer++;
      while (!stack.empty()) {
        auto& [v, slot] = stack.back();
        if (slot < s.kids[v].size()) {
          const int ch = s.kids[v][slot++];
          s.tin[ch] = timer++;
          stack.push_back({ch, 0});
        } else {
          s.tout[v] = timer - 1;
          stack.pop_back();
        }
      }
    }
  }

  // Cluster graph: adjacency + the first-seen portal edge per cluster pair.
  std::vector<std::vector<int>> cadj(s.k);
  std::map<std::pair<int, int>, std::pair<int, int>> any_portal;
  for (int u = 0; u < s.n; ++u) {
    for (int w : g.neighbors(u)) {
      const int a = s.cluster[u], b = s.cluster[w];
      if (a == b) continue;
      if (any_portal.emplace(std::make_pair(a, b), std::make_pair(u, w))
              .second) {
        cadj[a].push_back(b);
      }
    }
  }
  // BFS spanning forest of the cluster graph; keep portals only along tree
  // edges (that is all the scheme ever crosses).
  s.cparent.assign(s.k, -1);
  s.ckids.assign(s.k, {});
  s.ctin.assign(s.k, 0);
  s.ctout.assign(s.k, 0);
  std::vector<char> cseen(s.k, 0);
  for (int root = 0; root < s.k; ++root) {
    if (cseen[root]) continue;
    cseen[root] = 1;
    frontier.assign(1, root);
    while (!frontier.empty()) {
      next.clear();
      for (int c : frontier) {
        for (int d : cadj[c]) {
          if (cseen[d]) continue;
          cseen[d] = 1;
          s.cparent[d] = c;
          s.ckids[c].push_back(d);
          s.portal[{c, d}] = any_portal[{c, d}];
          s.portal[{d, c}] = any_portal[{d, c}];
          next.push_back(d);
        }
      }
      std::swap(frontier, next);
    }
  }
  {
    int timer = 0;
    std::vector<std::pair<int, std::size_t>> stack;
    for (int root = 0; root < s.k; ++root) {
      if (s.cparent[root] >= 0) continue;
      stack.push_back({root, 0});
      s.ctin[root] = timer++;
      while (!stack.empty()) {
        auto& [c, slot] = stack.back();
        if (slot < s.ckids[c].size()) {
          const int ch = s.ckids[c][slot++];
          s.ctin[ch] = timer++;
          stack.push_back({ch, 0});
        } else {
          s.ctout[c] = timer - 1;
          stack.pop_back();
        }
      }
    }
  }
  return s;
}

/// Route u -> v through the scheme; returns hop count, or -1 if
/// undeliverable (different components). Never inspects the graph beyond
/// the tables. This is the pointer-walk reference apps::flat_route_hops is
/// equivalence-gated against; if `path` is given, every vertex after u is
/// appended in visit order.
inline int pointer_route_hops(const PointerRoutingScheme& s, int u, int v,
                              std::vector<int>* path = nullptr) {
  int hops = 0, cur = u;
  int guard = 8 * s.n + 8;  // defensive loop cap
  while (s.cluster[cur] != s.cluster[v]) {
    const int c = s.cluster[cur], tc = s.cluster[v];
    // Cluster-tree step: descend toward tc's interval, else climb.
    int d = -1;
    if (s.ctin[c] <= s.ctin[tc] && s.ctin[tc] <= s.ctout[c]) {
      for (int ch : s.ckids[c]) {
        if (s.ctin[ch] <= s.ctin[tc] && s.ctin[tc] <= s.ctout[ch]) {
          d = ch;
          break;
        }
      }
    } else {
      d = s.cparent[c];
    }
    if (d < 0) return -1;  // different components
    const auto it = s.portal.find({c, d});
    if (it == s.portal.end()) return -1;
    const int up_hops = detail::tree_route_hops(s, cur, it->second.first, path);
    if (up_hops < 0) return -1;
    hops += up_hops + 1;  // to the portal vertex, then across the edge
    cur = it->second.second;
    if (path != nullptr) path->push_back(cur);
    if ((guard -= up_hops + 1) < 0) return -1;
  }
  const int down = detail::tree_route_hops(s, cur, v, path);
  return down < 0 ? -1 : hops + down;
}

/// Flatten a built PointerRoutingScheme. Pure layout transformation: every
/// field is copied, none recomputed, so these tables route exactly as the
/// pointer walk does.
inline apps::FlatRoutingTables flatten_pointer_routing(
    const PointerRoutingScheme& s) {
  apps::FlatRoutingTables t;
  t.n = s.n;
  t.k = s.k;
  t.vertex.resize(static_cast<std::size_t>(s.n));
  std::size_t kids_total = 0;
  for (int v = 0; v < s.n; ++v) kids_total += s.kids[v].size();
  t.child.reserve(kids_total);
  for (int v = 0; v < s.n; ++v) {
    apps::FlatRoutingTables::VertexRec& r =
        t.vertex[static_cast<std::size_t>(v)];
    r.cluster = s.cluster[v];
    r.up = s.up[v];
    r.tin = s.tin[v];
    r.tout = s.tout[v];
    r.kids_begin = static_cast<std::int32_t>(t.child.size());
    for (int ch : s.kids[v]) {  // already in ascending-tin (DFS) order
      t.child.push_back({s.tin[ch], ch});
    }
    r.kids_end = static_cast<std::int32_t>(t.child.size());
  }
  t.cluster.resize(static_cast<std::size_t>(s.k));
  std::size_t ckids_total = 0;
  for (int c = 0; c < s.k; ++c) ckids_total += s.ckids[c].size();
  t.cchild.reserve(ckids_total);
  for (int c = 0; c < s.k; ++c) {
    apps::FlatRoutingTables::ClusterRec& r =
        t.cluster[static_cast<std::size_t>(c)];
    r.parent = s.cparent[c];
    r.ctin = s.ctin[c];
    r.ctout = s.ctout[c];
    if (r.parent >= 0) {
      const auto it = s.portal.find({c, r.parent});
      if (it != s.portal.end()) {
        r.portal_src = it->second.first;
        r.portal_dst = it->second.second;
      }
    }
    r.kids_begin = static_cast<std::int32_t>(t.cchild.size());
    for (int d : s.ckids[c]) {  // ascending-ctin order by construction
      apps::FlatRoutingTables::ClusterChildRec cc;
      cc.ctin = s.ctin[d];
      cc.id = d;
      const auto it = s.portal.find({c, d});
      if (it != s.portal.end()) {
        cc.portal_src = it->second.first;
        cc.portal_dst = it->second.second;
      }
      t.cchild.push_back(cc);
    }
    r.kids_end = static_cast<std::int32_t>(t.cchild.size());
  }
  return t;
}

/// The elimination game on std::set adjacency: eliminating v turns its
/// current neighborhood into a clique and removes v.
class SetEliminationGame {
 public:
  explicit SetEliminationGame(const Graph& g) : adj_(g.n()), alive_(g.n(), 1) {
    for (int v = 0; v < g.n(); ++v) {
      for (int w : g.neighbors(v)) adj_[v].insert(w);
    }
  }

  int degree(int v) const { return static_cast<int>(adj_[v].size()); }
  bool alive(int v) const { return alive_[v] != 0; }
  const std::set<int>& neighbors(int v) const { return adj_[v]; }

  /// Fill-in of v: pairs of current neighbors not yet adjacent.
  std::int64_t fill(int v) const {
    std::int64_t f = 0;
    const std::set<int>& nb = adj_[v];
    for (auto it = nb.begin(); it != nb.end(); ++it) {
      auto jt = it;
      for (++jt; jt != nb.end(); ++jt) {
        if (adj_[*it].count(*jt) == 0) ++f;
      }
    }
    return f;
  }

  /// Eliminate v; returns its closed bag {v} + N(v), sorted.
  std::vector<int> eliminate(int v) {
    std::vector<int> nb(adj_[v].begin(), adj_[v].end());
    for (std::size_t i = 0; i < nb.size(); ++i) {
      adj_[nb[i]].erase(v);
      for (std::size_t j = i + 1; j < nb.size(); ++j) {
        adj_[nb[i]].insert(nb[j]);
        adj_[nb[j]].insert(nb[i]);
      }
    }
    adj_[v].clear();
    alive_[v] = 0;
    nb.push_back(v);
    std::sort(nb.begin(), nb.end());
    return nb;
  }

 private:
  std::vector<std::set<int>> adj_;
  std::vector<char> alive_;
};

/// One greedy elimination order by a full O(n) scan per step. strategy 0 =
/// min-degree (tie: smaller id); strategy 1 = min-fill (tie: smaller degree,
/// then smaller id). With abort_width >= 0 only vertices of degree <=
/// abort_width are candidates, and the search aborts (width n, incomplete)
/// once none is left. Fill counts are cached and invalidated for the bag
/// members and all their neighbors after each step.
inline apps::detail::ElimOrder greedy_order_by_set_game(const Graph& g,
                                                        int strategy,
                                                        int abort_width) {
  const int n = g.n();
  apps::detail::ElimOrder out;
  SetEliminationGame game(g);
  const int deg_cap =
      abort_width >= 0 ? abort_width : std::numeric_limits<int>::max();
  std::vector<std::int64_t> fill(n, -1);  // -1 = stale
  for (int step = 0; step < n; ++step) {
    int best = -1;
    std::int64_t best_fill = 0;
    for (int v = 0; v < n; ++v) {
      if (!game.alive(v)) continue;
      const int d = game.degree(v);
      if (d > deg_cap) continue;
      if (strategy == 0) {
        if (best < 0 || d < game.degree(best)) best = v;
      } else {
        if (fill[v] < 0) fill[v] = game.fill(v);
        if (best < 0 || fill[v] < best_fill ||
            (fill[v] == best_fill && d < game.degree(best))) {
          best = v;
          best_fill = fill[v];
        }
      }
    }
    if (best < 0) {
      out.width = n;
      out.complete = false;
      return out;
    }
    out.width = std::max(out.width, game.degree(best));
    const std::vector<int> bag = game.eliminate(best);
    if (strategy == 1) {
      for (int u : bag) {
        if (u == best || !game.alive(u)) continue;
        fill[u] = -1;
        for (int w : game.neighbors(u)) fill[w] = -1;
      }
    }
    out.order.push_back(best);
  }
  out.complete = true;
  if (n == 0) out.width = -1;
  return out;
}

/// Width of an elimination order by simulating it on a fresh set game;
/// per_degree[i] receives the elimination degree at position i when
/// non-null. With abort_width >= 0 it returns the first degree above it.
inline int order_width_by_set_game(const Graph& g, const std::vector<int>& order,
                                   std::vector<int>* per_degree = nullptr,
                                   int abort_width = -1) {
  SetEliminationGame game(g);
  int width = g.n() == 0 ? -1 : 0;
  if (per_degree != nullptr) per_degree->assign(order.size(), 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const int d = game.degree(order[i]);
    if (per_degree != nullptr) (*per_degree)[i] = d;
    width = std::max(width, d);
    if (abort_width >= 0 && width > abort_width) return width;
    game.eliminate(order[i]);
  }
  return width;
}

/// apps::tree_decomposition's search on set games: min-fill, min-degree and
/// the BFS sweep (first strictly smallest complete width wins), then on
/// n <= 512 two refinement passes that try up to 32 adjacent swaps at
/// peak-degree positions, scoring each by re-simulating the whole order and
/// keeping the first strict improvement; bags from one last simulation.
inline apps::TreeDecomposition tree_decomposition_by_set_game(
    const Graph& g, int abort_width = -1) {
  apps::TreeDecomposition td;
  const int n = g.n();
  if (n == 0) {
    td.width = -1;
    td.complete = true;
    return td;
  }
  apps::detail::ElimOrder fill = greedy_order_by_set_game(g, 1, abort_width);
  apps::detail::ElimOrder deg = greedy_order_by_set_game(g, 0, abort_width);
  apps::detail::ElimOrder sweep;
  sweep.order = apps::detail::bfs_sweep_order(g);
  sweep.width = order_width_by_set_game(g, sweep.order, nullptr, abort_width);
  sweep.complete = abort_width < 0 || sweep.width <= abort_width;
  apps::detail::ElimOrder* best = nullptr;
  for (apps::detail::ElimOrder* cand : {&fill, &deg, &sweep}) {
    if (!cand->complete) continue;
    if (best == nullptr || cand->width < best->width) best = cand;
  }
  if (best == nullptr) {
    td.width = n;
    td.complete = false;
    return td;
  }
  std::vector<int> order = std::move(best->order);
  int width = best->width;
  if (n <= 512) {
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<int> degs;
      width = order_width_by_set_game(g, order, &degs);
      bool improved = false;
      int tried = 0;
      for (int i = 0; i < n && tried < 32; ++i) {
        if (degs[i] != width) continue;
        for (const int j : {i - 1, i + 1}) {
          if (j < 0 || j >= n) continue;
          ++tried;
          std::swap(order[i], order[j]);
          const int w2 = order_width_by_set_game(g, order);
          if (w2 < width) {
            width = w2;
            improved = true;
            break;
          }
          std::swap(order[i], order[j]);
        }
        if (improved) break;
      }
      if (!improved) break;
    }
  }
  SetEliminationGame game(g);
  std::vector<int> elim_pos(n, -1);
  td.bags.resize(n);
  for (int i = 0; i < n; ++i) {
    elim_pos[order[i]] = i;
    td.bags[i] = game.eliminate(order[i]);
  }
  td.parent.assign(n, -1);
  td.width = 0;
  for (int i = 0; i < n; ++i) {
    td.width = std::max(td.width, static_cast<int>(td.bags[i].size()) - 1);
    int best_pos = n;
    for (int u : td.bags[i]) {
      if (u == order[i]) continue;
      best_pos = std::min(best_pos, elim_pos[u]);
    }
    td.parent[i] = best_pos < n ? best_pos : -1;
  }
  td.complete = true;
  return td;
}

}  // namespace mfd::oracles
