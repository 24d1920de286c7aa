// The treewidth-DP solver tier — width-bounded exact kernels for the apps/
// cluster ladder (ROADMAP: "Treewidth-DP solver tier for medium clusters").
//
// The paper's decompositions emit clusters from minor-free families whose
// treewidth is structurally bounded (outerplanar tw <= 2, k-trees tw = k,
// R x C grids tw = min(R, C)), so an exponential per-cluster search
// (MdsBranch, MisSolver, gray-code max-cut) is the wrong tool exactly where
// the ladder needs it most: medium clusters that blow the branch-and-bound
// budget but have small width. This header turns those solves into
// O(f(w) * n) dynamic programs:
//
//   * tree_decomposition — deterministic greedy elimination-order search
//     (min-fill and min-degree candidates, best width wins, plus a bounded
//     width-improving local refinement pass that retries adjacent-position
//     swaps around the peak bags). The branch-decomposition-flavored search
//     strategy mirrors the treedec exemplar (SNIPPETS.md): enumerate cheap
//     candidate strategies, keep the best certificate. An abort_width makes
//     the ladder's probe cheap on wide clusters: the greedy bails the moment
//     every remaining choice would exceed the cap.
//   * nice_tree_decomposition — conversion to the introduce/forget/join
//     normal form every kernel programs against. Node children always have
//     smaller ids than their parent, so a plain ascending loop IS the
//     bottom-up DP order and reconstruction is a top-down stack walk.
//   * Three DP kernels, each reconstructing a witness (not just a value):
//     MIS and max-cut run one 2^w subset DP (detail::subset_dp — a state
//     labels each bag vertex in/out of the set, or its cut side) and supply
//     only their introduce gain and join overlap; MDS uses the
//     covered/dominated 3-state encoding (black = in set, white = must be
//     dominated, gray = no requirement — monotone tables make the join a
//     4^w white-split enumeration). Vertex cover is the complement of the
//     MIS witness (exact on every graph).
//
// Memory contract: DP value tables live only while a parent still needs
// them (children are consumed in the ascending loop and freed); witnesses
// are reconstructed from per-forget choice bits and per-join white-split
// masks, so peak memory is O(3^w * w) per live table, not O(3^w * n).
//
// The ladder itself lives here too: run_ladder is the one width-gated
// skeleton with the shared vocabulary (LadderConfig / SolveTier /
// TierReport / accumulate_tier). One BFS 2-coloring per cluster gates its
// structural rungs; the order is forest tree-DP (m == n - components) ->
// König matching on the remaining bipartite clusters (MIS and VC only) ->
// treewidth DP when the computed width is <= tw_cap -> budgeted exact
// search -> greedy. approx.hpp (MIS, VC), domination.hpp (MDS) and
// maxcut.hpp supply only their tier bodies, and report per-tier cluster
// counts plus B&B effort into congest::SolverStats.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "congest/runtime.hpp"
#include "graph/graph.hpp"

namespace mfd::apps {

/// A tree decomposition as bags plus a parent forest over bag ids. Bag i is
/// the closed neighborhood of the i-th eliminated vertex at its elimination;
/// parent[i] is always > i (the bag of the earliest-eliminated later bag
/// member), which makes ascending bag order a valid children-first order.
struct TreeDecomposition {
  std::vector<std::vector<int>> bags;  // each sorted ascending
  std::vector<int> parent;             // parent bag id; -1 for roots
  int width = -1;                      // max |bag| - 1 (-1 for empty graphs)
  bool complete = false;               // false iff the search hit abort_width
};

/// Nice tree decomposition: every node is a leaf (empty bag), introduce
/// (child bag + vertex), forget (child bag - vertex) or join (two children
/// with identical bags). Children ids are strictly smaller than the parent
/// id; the root has an empty bag.
struct NiceTreeDecomposition {
  enum Kind : int { kLeaf = 0, kIntroduce = 1, kForget = 2, kJoin = 3 };
  struct Node {
    int kind = kLeaf;
    int vertex = -1;  // the introduced/forgotten vertex (kIntroduce/kForget)
    int left = -1;    // child id (all kinds but kLeaf)
    int right = -1;   // second child id (kJoin only)
    std::vector<int> bag;  // sorted ascending
  };
  std::vector<Node> nodes;
  int root = -1;
  int width = -1;
};

/// Which rung of the cluster ladder solved a cluster.
enum class SolveTier : int {
  kForest = 0,       // polynomial structural rung: forest tree-DP (parity
                     // sides for max-cut), König matching on bipartite
                     // clusters (MIS, VC)
  kTreewidthDp = 1,  // width-gated nice-tree-decomposition DP (exact)
  kBranchBound = 2,  // budgeted exact search that finished within budget
  kGreedy = 3,       // fallback (no exact tier applied or budget blown)
};

/// The ladder's one knob, the benches' --tw_cap: the width gate. The DP
/// runs only when the computed decomposition width is <= tw_cap, so
/// tw_cap 0 is the no-DP ladder (forest -> König -> exact search ->
/// greedy). It is HARD-CLAMPED to 13 inside the ladder — the MDS kernel's
/// tables are 3^(w+1) entries and its join enumerates 4^(w+1) white-splits,
/// so a generous knob must not silently ask for gigabytes (same rationale
/// as max_cut's exact_cap clamp).
struct LadderConfig {
  int tw_cap = 10;
};

/// The B&B tier's node budget (survived nodes before the search gives up).
inline constexpr std::int64_t kLadderNodeBudget = 250'000;
/// The largest cluster the width probe decomposes — the greedy elimination
/// search is quadratic in the worst case.
inline constexpr int kLadderTwMaxN = 4096;

/// What one cluster solve reports back to the fold: the tier that produced
/// the answer, the computed width (when a decomposition was attempted), and
/// the B&B effort (nodes explored, budget survived) when that tier ran.
struct TierReport {
  bool solved = false;
  SolveTier tier = SolveTier::kGreedy;
  int width = -1;
  bool bb_ran = false;
  bool bb_exact = false;
  std::int64_t bb_nodes = 0;
  double ms = 0.0;  // wall time of this cluster's solve
};

/// Fold one cluster's report into the solver's stats (always in cluster
/// order — the callers' determinism contract).
inline void accumulate_tier(congest::SolverStats& stats, const TierReport& r) {
  if (!r.solved) return;
  switch (r.tier) {
    case SolveTier::kForest: ++stats.tier_forest; break;
    case SolveTier::kTreewidthDp: ++stats.tier_tw_dp; break;
    case SolveTier::kBranchBound: ++stats.tier_bb; break;
    case SolveTier::kGreedy: ++stats.tier_greedy; break;
  }
  if (r.tier == SolveTier::kTreewidthDp) {
    stats.max_width_dp = std::max(stats.max_width_dp, r.width);
  }
  if (r.bb_ran) {
    ++stats.bb_runs;
    stats.bb_nodes += r.bb_nodes;
    if (r.bb_exact) ++stats.bb_exact_runs;
  }
  stats.solve_ms += r.ms;
}

namespace detail {

/// The elimination game both greedy strategies and the bag construction
/// simulate: eliminating v turns its current neighborhood into a clique and
/// removes v. Set-based adjacency — clusters are small and sparse, and the
/// ladder's abort_width caps the cliques the game ever builds.
class EliminationGame {
 public:
  explicit EliminationGame(const Graph& g) : adj_(g.n()), alive_(g.n(), 1) {
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

struct ElimOrder {
  std::vector<int> order;
  int width = -1;
  bool complete = false;
};

/// One greedy elimination order. strategy 0 = min-degree (tie: smaller id);
/// strategy 1 = min-fill (tie: smaller degree, then smaller id). With an
/// abort_width >= 0 the search bails as soon as every remaining choice
/// would create a bag wider than abort_width + 1 — and min-fill only scores
/// candidates within the cap, so hub vertices never cost a quadratic fill
/// count during a capped ladder probe.
inline ElimOrder greedy_elimination_order(const Graph& g, int strategy,
                                          int abort_width) {
  const int n = g.n();
  ElimOrder out;
  out.order.reserve(n);
  EliminationGame game(g);
  const int deg_cap =
      abort_width >= 0 ? abort_width : std::numeric_limits<int>::max();
  std::vector<std::int64_t> fill(n, -1);  // -1 = stale, recompute on demand
  for (int step = 0; step < n; ++step) {
    int best = -1;
    std::int64_t best_fill = 0;
    for (int v = 0; v < n; ++v) {
      if (!game.alive(v)) continue;
      const int d = game.degree(v);
      if (d > deg_cap) continue;  // can never be the capped choice
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
    if (best < 0) {  // every alive vertex exceeds the cap: abort
      out.width = n;
      out.complete = false;
      return out;
    }
    out.width = std::max(out.width, game.degree(best));
    const std::vector<int> bag = game.eliminate(best);
    if (strategy == 1) {
      // Elimination rewires the neighborhood: fill counts of the bag members
      // and everything adjacent to them are stale.
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

/// Width of a full elimination order (simulate and take the max bag - 1);
/// per_degree[i] receives the elimination degree at position i when non-null.
/// With abort_width >= 0 the simulation stops (and returns the offending
/// degree) the moment a step exceeds the cap — no oversized clique is ever
/// materialized, so evaluating a bad order on a wide cluster stays cheap.
inline int elimination_order_width(const Graph& g, const std::vector<int>& order,
                                   std::vector<int>* per_degree = nullptr,
                                   int abort_width = -1) {
  EliminationGame game(g);
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

/// BFS-layer sweep order: per connected component, BFS from a
/// pseudo-peripheral vertex (double BFS, ties to the smaller id) and
/// eliminate in (distance, id) order. This is the separator-shaped order
/// greedy fill/degree plateau on: a k x k grid eliminates layer by layer at
/// width exactly k where min-fill stalls around 4k/3 — and grid-like
/// clusters are precisely the bench_mds showcase the DP tier targets.
inline std::vector<int> bfs_sweep_order(const Graph& g) {
  const int n = g.n();
  std::vector<int> dist(n, -1), comp(n, -1), order;
  order.reserve(n);
  std::vector<int> queue;
  // BFS from s over vertices with comp == mark; returns the farthest vertex
  // (ties to the smaller id, which BFS queue order delivers for free).
  const auto bfs = [&](int s, int mark) {
    queue.assign(1, s);
    dist[s] = 0;
    int far = s;
    for (std::size_t h = 0; h < queue.size(); ++h) {
      const int v = queue[h];
      if (dist[v] > dist[far]) far = v;
      for (int w : g.neighbors(v)) {
        if (comp[w] == mark && dist[w] < 0) {
          dist[w] = dist[v] + 1;
          queue.push_back(w);
        }
      }
    }
    return far;
  };
  for (int s = 0; s < n; ++s) {
    if (comp[s] >= 0) continue;
    // Pass 1 marks the component and finds a peripheral start.
    queue.assign(1, s);
    comp[s] = s;
    for (std::size_t h = 0; h < queue.size(); ++h) {
      for (int w : g.neighbors(queue[h])) {
        if (comp[w] < 0) {
          comp[w] = s;
          queue.push_back(w);
        }
      }
    }
    const std::vector<int> members = queue;
    for (int v : members) dist[v] = -1;
    const int start = bfs(s, s);
    for (int v : members) dist[v] = -1;
    bfs(start, s);
    // (distance, id) order — stable sort over the id-sorted member list.
    std::vector<int> layer = members;
    std::sort(layer.begin(), layer.end());
    std::stable_sort(layer.begin(), layer.end(),
                     [&dist](int a, int b) { return dist[a] < dist[b]; });
    order.insert(order.end(), layer.begin(), layer.end());
  }
  return order;
}

}  // namespace detail

/// Deterministic tree-decomposition search: run the min-fill and min-degree
/// greedy orders plus a BFS-layer sweep order (optimal on grid-like clusters
/// where greedy plateaus), keep the smallest complete width, then (on
/// clusters small enough to afford re-simulation) a local refinement pass
/// that tries adjacent swaps around peak-width positions and keeps strict
/// improvements. abort_width >= 0 makes the search a cheap probe: it returns
/// complete = false the moment every candidate exceeds the cap (the ladder
/// then skips the DP without having paid for a full decomposition of a wide
/// cluster).
inline TreeDecomposition tree_decomposition(const Graph& g,
                                            int abort_width = -1) {
  TreeDecomposition td;
  const int n = g.n();
  if (n == 0) {
    td.width = -1;
    td.complete = true;
    return td;
  }
  detail::ElimOrder fill = detail::greedy_elimination_order(g, 1, abort_width);
  detail::ElimOrder deg = detail::greedy_elimination_order(g, 0, abort_width);
  detail::ElimOrder sweep;
  sweep.order = detail::bfs_sweep_order(g);
  sweep.width =
      detail::elimination_order_width(g, sweep.order, nullptr, abort_width);
  sweep.complete = abort_width < 0 || sweep.width <= abort_width;
  detail::ElimOrder* best = nullptr;
  for (detail::ElimOrder* cand : {&fill, &deg, &sweep}) {
    if (!cand->complete) continue;
    if (best == nullptr || cand->width < best->width) best = cand;
  }
  if (best == nullptr) {
    td.width = n;  // sentinel: wider than any cap that asked for the probe
    td.complete = false;
    return td;
  }
  std::vector<int> order = std::move(best->order);
  int width = best->width;

  // Width-improving local refinement: re-simulation is O(n * w^2 * log n),
  // so only clusters small enough to afford a few dozen probes refine.
  if (n <= 512) {
    for (int pass = 0; pass < 2; ++pass) {
      std::vector<int> degs;
      width = detail::elimination_order_width(g, order, &degs);
      bool improved = false;
      int tried = 0;
      for (int i = 0; i < n && tried < 32; ++i) {
        if (degs[i] != width) continue;  // only attack peak positions
        for (const int j : {i - 1, i + 1}) {
          if (j < 0 || j >= n) continue;
          ++tried;
          std::swap(order[i], order[j]);
          const int w2 = detail::elimination_order_width(g, order);
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

  // Build bags and the parent forest from the final order: bag i is the
  // closed neighborhood of order[i] at its elimination; its parent is the
  // bag of the earliest-eliminated other bag member.
  detail::EliminationGame game(g);
  std::vector<int> elim_pos(n, -1);
  td.bags.resize(n);
  for (int i = 0; i < n; ++i) {
    elim_pos[order[i]] = i;
    td.bags[i] = game.eliminate(order[i]);
  }
  td.parent.assign(n, -1);
  td.width = n == 0 ? -1 : 0;
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

/// Validity checker (the tests' oracle): every vertex in some bag, every
/// edge inside some bag, and for every vertex the bags containing it form a
/// connected subtree of the (forest-shaped) bag tree.
inline bool valid_tree_decomposition(const Graph& g,
                                     const TreeDecomposition& td) {
  const int n = g.n();
  const int k = static_cast<int>(td.bags.size());
  std::vector<char> seen(n, 0);
  for (const std::vector<int>& bag : td.bags) {
    for (int v : bag) {
      if (v < 0 || v >= n) return false;
      seen[v] = 1;
    }
    if (!std::is_sorted(bag.begin(), bag.end())) return false;
  }
  for (int v = 0; v < n; ++v) {
    if (!seen[v]) return false;
  }
  // Edge coverage: some bag contains both endpoints.
  for (int u = 0; u < n; ++u) {
    for (int v : g.neighbors(u)) {
      if (u > v) continue;
      bool covered = false;
      for (int b = 0; b < k && !covered; ++b) {
        covered = std::binary_search(td.bags[b].begin(), td.bags[b].end(), u) &&
                  std::binary_search(td.bags[b].begin(), td.bags[b].end(), v);
      }
      if (!covered) return false;
    }
  }
  // Connectivity: within the bag forest (acyclic by parent construction),
  // the bags containing v induce a connected subgraph iff their induced
  // edge count is exactly their count minus one per... they must form ONE
  // tree: nodes - edges == 1.
  for (int v = 0; v < n; ++v) {
    int nodes = 0, edges = 0;
    for (int b = 0; b < k; ++b) {
      if (!std::binary_search(td.bags[b].begin(), td.bags[b].end(), v)) continue;
      ++nodes;
      const int p = td.parent[b];
      if (p >= 0 &&
          std::binary_search(td.bags[p].begin(), td.bags[p].end(), v)) {
        ++edges;
      }
    }
    if (nodes == 0 || edges != nodes - 1) return false;
  }
  int width = -1;
  for (const std::vector<int>& bag : td.bags) {
    width = std::max(width, static_cast<int>(bag.size()) - 1);
  }
  return width == td.width;
}

/// Convert a (complete) tree decomposition to nice form. Children always
/// get smaller node ids than their parents, so `for (i = 0..nodes)` is the
/// DP order and no recursion is ever needed.
inline NiceTreeDecomposition nice_tree_decomposition(
    const TreeDecomposition& td) {
  NiceTreeDecomposition nd;
  nd.width = td.width;
  const int k = static_cast<int>(td.bags.size());
  if (k == 0) return nd;

  const auto add_node = [&nd](int kind, int vertex, int left, int right,
                              std::vector<int> bag) {
    NiceTreeDecomposition::Node node;
    node.kind = kind;
    node.vertex = vertex;
    node.left = left;
    node.right = right;
    node.bag = std::move(bag);
    nd.nodes.push_back(std::move(node));
    return static_cast<int>(nd.nodes.size()) - 1;
  };

  // Forget/introduce chain from one bag to another along a tree edge.
  const auto lift = [&](int nice_id, const std::vector<int>& from,
                        const std::vector<int>& to) {
    std::vector<int> bag = from;
    for (int v : from) {
      if (std::binary_search(to.begin(), to.end(), v)) continue;
      bag.erase(std::find(bag.begin(), bag.end(), v));
      nice_id = add_node(NiceTreeDecomposition::kForget, v, nice_id, -1, bag);
    }
    for (int v : to) {
      if (std::binary_search(from.begin(), from.end(), v)) continue;
      bag.insert(std::upper_bound(bag.begin(), bag.end(), v), v);
      nice_id = add_node(NiceTreeDecomposition::kIntroduce, v, nice_id, -1, bag);
    }
    return nice_id;
  };

  std::vector<std::vector<int>> children(k);
  std::vector<int> roots;
  for (int i = 0; i < k; ++i) {
    if (td.parent[i] >= 0) {
      children[td.parent[i]].push_back(i);
    } else {
      roots.push_back(i);
    }
  }
  // Ascending bag order is children-first (parent[i] > i by construction).
  std::vector<int> top(k, -1);
  for (int i = 0; i < k; ++i) {
    int acc = -1;
    for (int c : children[i]) {
      const int branch = lift(top[c], td.bags[c], td.bags[i]);
      acc = acc < 0 ? branch
                    : add_node(NiceTreeDecomposition::kJoin, -1, acc, branch,
                               td.bags[i]);
    }
    if (acc < 0) {  // leaf bag: build up from the empty bag
      acc = add_node(NiceTreeDecomposition::kLeaf, -1, -1, -1, {});
      acc = lift(acc, {}, td.bags[i]);
    }
    top[i] = acc;
  }
  // Forget every root bag down to the empty bag, then join the components.
  int acc = -1;
  for (int r : roots) {
    const int t = lift(top[r], td.bags[r], {});
    acc = acc < 0 ? t
                  : add_node(NiceTreeDecomposition::kJoin, -1, acc, t, {});
  }
  nd.root = acc;
  return nd;
}

/// The ladder's width gate: true iff the cluster is small enough (n <=
/// kLadderTwMaxN) and the capped decomposition search certifies width <=
/// the clamped tw_cap; fills `nd` with the nice decomposition the kernels
/// consume (nd.width is the certified width). A cap below 1 declines
/// without probing: a width-0 cluster is edgeless, a forest the ladder's
/// first tier already solved.
/// The probe passes abort_width = cap + 2 — slack for greedy suboptimality —
/// and re-checks the final width against the cap, so a wide cluster costs
/// only the aborted greedy, never a full decomposition.
inline bool ladder_tw_probe(const Graph& g, const LadderConfig& cfg,
                            NiceTreeDecomposition& nd) {
  if (g.n() > kLadderTwMaxN) return false;
  const int cap = std::min(cfg.tw_cap, 13);  // see LadderConfig::tw_cap
  if (cap < 1) return false;
  const TreeDecomposition td = tree_decomposition(g, cap + 2);
  if (!td.complete || td.width > cap) return false;
  nd = nice_tree_decomposition(td);
  return true;
}

/// What an exact-search tier body hands run_ladder: its witness (the
/// incumbent when the budget blew), whether the search finished, and the
/// nodes it explored.
template <class Sol>
struct LadderSearch {
  Sol sol;
  bool exact = false;
  std::int64_t nodes = 0;
};

/// run_ladder's bipartite body for the problems without a König rung: MDS,
/// and max-cut, whose bipartite clusters stay on the width DP on purpose
/// (the benches' DP-tier coverage gates read max-cut's grid trail).
template <class Sol>
std::optional<Sol> no_bipartite_rung(const TwoColoring& /*col*/) {
  return std::nullopt;
}

/// The width-gated cluster ladder — the one place the tier policy lives.
/// One BFS 2-coloring per cluster (two_coloring) gates the structural rungs;
/// each problem supplies only its tier bodies:
///   forest(col)     the exact solve of a forest cluster (m == n - components);
///   bipartite(col)  the exact polynomial solve of a bipartite cluster that
///                   is not a forest (König matching for MIS / VC), nullopt
///                   when the problem has no such rung;
///   tw(nd)          the treewidth-DP kernel on the certified nice
///                   decomposition;
///   search()        the exact search as std::optional<LadderSearch<Sol>>,
///                   nullopt when it does not apply to this cluster;
///   greedy()        the fallback.
/// Order: forest -> bipartite -> width probe -> exact search -> greedy. Both
/// structural rungs count as SolveTier::kForest. A search that blew its
/// budget lands on the greedy tier with the witness it returned. Fills `rep`
/// with the tier, the certified width when the DP ran, the search effort
/// when that tier ran, and the wall time.
template <class Forest, class Bipartite, class Tw, class Search, class Greedy>
auto run_ladder(const Graph& h, const LadderConfig& cfg, TierReport& rep,
                Forest&& forest, Bipartite&& bipartite, Tw&& tw,
                Search&& search, Greedy&& greedy) {
  using Sol = decltype(greedy());
  rep = TierReport{};
  if (h.n() == 0) return Sol{};
  const auto t0 = std::chrono::steady_clock::now();
  rep.solved = true;
  Sol sol;
  NiceTreeDecomposition nd;
  std::optional<Sol> konig;
  std::optional<LadderSearch<Sol>> found;
  const TwoColoring col = two_coloring(h);
  if (col.forest(h)) {
    sol = forest(col);
    rep.tier = SolveTier::kForest;
  } else if (col.bipartite && (konig = bipartite(col))) {
    sol = std::move(*konig);
    rep.tier = SolveTier::kForest;
  } else if (ladder_tw_probe(h, cfg, nd)) {
    sol = tw(nd);
    rep.tier = SolveTier::kTreewidthDp;
    rep.width = nd.width;
  } else if ((found = search())) {
    sol = std::move(found->sol);
    rep.bb_ran = true;
    rep.bb_exact = found->exact;
    rep.bb_nodes = found->nodes;
    rep.tier = found->exact ? SolveTier::kBranchBound : SolveTier::kGreedy;
  } else {  // no exact search applies to this cluster
    sol = greedy();
    rep.tier = SolveTier::kGreedy;
  }
  rep.ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
               .count();
  return sol;
}

namespace detail {

inline int remove_bit(int s, int p) {
  return (s & ((1 << p) - 1)) | ((s >> (p + 1)) << p);
}
inline int insert_bit(int s, int p, int bit) {
  const int low = s & ((1 << p) - 1);
  return low | (bit << p) | ((s >> p) << (p + 1));
}

/// Position of v in a sorted bag (must be present).
inline int bag_pos(const std::vector<int>& bag, int v) {
  return static_cast<int>(
      std::lower_bound(bag.begin(), bag.end(), v) - bag.begin());
}

/// Bitmask (over bag positions) of g-neighbors of v inside the bag.
inline int bag_neighbor_mask(const Graph& g, const std::vector<int>& bag,
                             int v) {
  int mask = 0;
  for (int w : g.neighbors(v)) {
    const auto it = std::lower_bound(bag.begin(), bag.end(), w);
    if (it != bag.end() && *it == w) {
      mask |= 1 << static_cast<int>(it - bag.begin());
    }
  }
  return mask;
}

inline int popcount(unsigned x) {
  int c = 0;
  while (x != 0) {
    x &= x - 1;
    ++c;
  }
  return c;
}

/// The subset DP's infeasible-state sentinel (far from overflow when two
/// branch values are summed).
template <class T>
inline constexpr T kNeg = std::numeric_limits<T>::min() / 4;

/// The 2^w subset DP over a nice decomposition that MIS and max-cut share:
/// bit p of a state labels the p-th bag vertex 1 (in the set, or on cut
/// side 1). The problems supply only
///   gain(bit, nb, s)     what introducing a vertex labeled `bit` adds in
///                        parent state s, where nb masks its bag neighbors
///                        (kNeg<T> forbids the state);
///   overlap(s, edges)    what both join branches counted under state s,
///                        given the bag-internal edges as position pairs.
/// A forget keeps label 1 only on a strict gain. Returns the optimum and
/// writes the witness labels top-down from the per-forget choice bits.
template <class T, class Gain, class Overlap>
T subset_dp(const Graph& g, const NiceTreeDecomposition& nd, Gain&& gain,
            Overlap&& overlap, std::vector<char>& labels) {
  labels.assign(g.n(), 0);
  if (g.n() == 0 || nd.root < 0) return 0;
  constexpr T kNone = kNeg<T>;
  const int m = static_cast<int>(nd.nodes.size());
  std::vector<std::vector<T>> table(m);
  std::vector<std::vector<std::uint64_t>> forget_one(m);  // bit: label 1
  const auto release = [&table](int c) {
    table[c].clear();
    table[c].shrink_to_fit();
  };
  std::vector<std::pair<int, int>> bag_edges;

  for (int i = 0; i < m; ++i) {
    const NiceTreeDecomposition::Node& x = nd.nodes[i];
    const int b = static_cast<int>(x.bag.size());
    switch (x.kind) {
      case NiceTreeDecomposition::kLeaf:
        table[i] = {0};
        break;
      case NiceTreeDecomposition::kIntroduce: {
        const int p = bag_pos(x.bag, x.vertex);
        const int nb = bag_neighbor_mask(g, x.bag, x.vertex) & ~(1 << p);
        const std::vector<T>& child = table[x.left];
        table[i].resize(std::size_t{1} << b);
        for (int s = 0; s < (1 << b); ++s) {
          const T c = child[remove_bit(s, p)];
          const T add = gain((s >> p) & 1, nb, s);
          table[i][s] = c == kNone || add == kNone ? kNone : c + add;
        }
        release(x.left);
        break;
      }
      case NiceTreeDecomposition::kForget: {
        const int p = bag_pos(nd.nodes[x.left].bag, x.vertex);
        const std::vector<T>& child = table[x.left];
        table[i].resize(std::size_t{1} << b);
        forget_one[i].assign(((std::size_t{1} << b) + 63) / 64, 0);
        for (int s = 0; s < (1 << b); ++s) {
          const T c0 = child[insert_bit(s, p, 0)];
          const T c1 = child[insert_bit(s, p, 1)];
          if (c1 > c0) {
            table[i][s] = c1;
            forget_one[i][static_cast<std::size_t>(s) / 64] |=
                std::uint64_t{1} << (s % 64);
          } else {
            table[i][s] = c0;
          }
        }
        release(x.left);
        break;
      }
      case NiceTreeDecomposition::kJoin: {
        bag_edges.clear();
        for (int pi = 0; pi < b; ++pi) {
          for (int w : g.neighbors(x.bag[pi])) {
            const auto it = std::lower_bound(x.bag.begin(), x.bag.end(), w);
            if (it != x.bag.end() && *it == w) {
              const int pj = static_cast<int>(it - x.bag.begin());
              if (pi < pj) bag_edges.emplace_back(pi, pj);
            }
          }
        }
        const std::vector<T>& a = table[x.left];
        const std::vector<T>& c = table[x.right];
        table[i].resize(std::size_t{1} << b);
        for (int s = 0; s < (1 << b); ++s) {
          table[i][s] = a[s] == kNone || c[s] == kNone
                            ? kNone
                            : a[s] + c[s] - overlap(s, bag_edges);
        }
        release(x.left);
        release(x.right);
        break;
      }
    }
  }

  // Top-down witness reconstruction from the root (empty bag, state 0).
  std::vector<std::pair<int, int>> stack = {{nd.root, 0}};
  while (!stack.empty()) {
    const auto [i, s] = stack.back();
    stack.pop_back();
    const NiceTreeDecomposition::Node& x = nd.nodes[i];
    switch (x.kind) {
      case NiceTreeDecomposition::kLeaf:
        break;
      case NiceTreeDecomposition::kIntroduce: {
        const int p = bag_pos(x.bag, x.vertex);
        labels[x.vertex] = static_cast<char>((s >> p) & 1);
        stack.emplace_back(x.left, remove_bit(s, p));
        break;
      }
      case NiceTreeDecomposition::kForget: {
        const int p = bag_pos(nd.nodes[x.left].bag, x.vertex);
        const int bit = static_cast<int>(
            (forget_one[i][static_cast<std::size_t>(s) / 64] >> (s % 64)) & 1);
        stack.emplace_back(x.left, insert_bit(s, p, bit));
        break;
      }
      case NiceTreeDecomposition::kJoin:
        stack.emplace_back(x.left, s);
        stack.emplace_back(x.right, s);
        break;
    }
  }
  return table[nd.root][0];
}

}  // namespace detail

/// Maximum independent set via the subset DP: an introduce may take its
/// vertex only when no bag neighbor is taken, and a join subtracts the
/// bag vertices both branches took. Returns the witness set (sorted).
/// Exact on every graph the decomposition is valid for.
inline std::vector<int> tw_max_independent_set(
    const Graph& g, const NiceTreeDecomposition& nd) {
  constexpr std::int32_t kNone = detail::kNeg<std::int32_t>;
  std::vector<char> in_set;
  detail::subset_dp<std::int32_t>(
      g, nd,
      [](int bit, int nb, int s) -> std::int32_t {
        return bit == 0 ? 0 : (s & nb) == 0 ? 1 : kNone;
      },
      [](int s, const std::vector<std::pair<int, int>>& /*bag_edges*/) {
        return detail::popcount(static_cast<unsigned>(s));
      },
      in_set);
  std::vector<int> out;
  for (int v = 0; v < g.n(); ++v) {
    if (in_set[v]) out.push_back(v);
  }
  return out;
}

/// Minimum dominating set via the covered/dominated 3-state encoding over a
/// nice decomposition (black = in set, white = must be dominated, gray = no
/// requirement; monotone tables, so the join splits white duties between
/// the branches — a 4^w enumeration). Reconstructs the witness from
/// per-forget choice bits and per-join white-split masks.
inline std::vector<int> tw_min_dominating_set(const Graph& g,
                                              const NiceTreeDecomposition& nd) {
  if (g.n() == 0 || nd.root < 0) return {};
  using detail::bag_pos;
  constexpr std::int32_t kInf = std::numeric_limits<std::int32_t>::max() / 4;
  // pow3 up to the widest bag (+1 slack for insertion arithmetic).
  std::vector<int> pow3 = {1};
  for (int i = 0; i < nd.width + 3; ++i) pow3.push_back(pow3.back() * 3);
  const auto digit = [&pow3](int s, int p) { return (s / pow3[p]) % 3; };
  const int m = static_cast<int>(nd.nodes.size());
  std::vector<std::vector<std::int32_t>> table(m);
  std::vector<std::vector<std::uint64_t>> forget_black(m);  // bit: v black
  std::vector<std::vector<std::uint16_t>> join_split(m);    // white-split mask

  // Neighbor POSITIONS of the introduced vertex within the introduce bag
  // (the MDS transitions need positions, not a bitmask, for digit edits).
  const auto neighbor_positions = [&](const NiceTreeDecomposition::Node& x) {
    std::vector<int> nbp;
    for (int w : g.neighbors(x.vertex)) {
      const auto it = std::lower_bound(x.bag.begin(), x.bag.end(), w);
      if (it != x.bag.end() && *it == w) {
        nbp.push_back(static_cast<int>(it - x.bag.begin()));
      }
    }
    return nbp;
  };

  for (int i = 0; i < m; ++i) {
    const NiceTreeDecomposition::Node& x = nd.nodes[i];
    const int b = static_cast<int>(x.bag.size());
    switch (x.kind) {
      case NiceTreeDecomposition::kLeaf:
        table[i] = {0};
        break;
      case NiceTreeDecomposition::kIntroduce: {
        const int p = bag_pos(x.bag, x.vertex);
        const std::vector<int> nbp = neighbor_positions(x);
        std::vector<int> nbq;  // bag neighbors of v, in CHILD-bag coordinates
        for (int q : nbp) {
          if (q != p) nbq.push_back(q < p ? q : q - 1);
        }
        const std::vector<std::int32_t>& child = table[x.left];
        table[i].assign(static_cast<std::size_t>(pow3[b]), kInf);
        // Division-free hot loop: enumerate CHILD states cs with a base-3
        // odometer (digs) and write the three parent states that re-insert
        // digit p. base = cs with a zero digit spliced in at p; the nested
        // high/low loops keep cs sequential so the odometer is O(1)/step.
        const int bc = b - 1;
        std::vector<int> digs(bc + 1, 0);
        int cs = 0;
        for (int high = 0; high < pow3[bc - p]; ++high) {
          const int base_hi = high * pow3[p + 1];
          for (int low = 0; low < pow3[p]; ++low, ++cs) {
            const int base = base_hi + low;
            const std::int32_t cv = child[cs];
            // Gray introduce: no requirement on v, child value carries over.
            table[i][base + 2 * pow3[p]] = cv;
            bool black_nb = false;
            int cs2 = cs;
            for (int qq : nbq) {
              if (digs[qq] == 0) black_nb = true;
              if (digs[qq] == 1) cs2 += pow3[qq];  // white -> gray
            }
            // White introduce: v must already have a black bag neighbor —
            // nothing below the bag can be adjacent to a fresh vertex.
            if (black_nb) table[i][base + pow3[p]] = cv;
            // Black introduce: v dominates its white bag neighbors, so the
            // child may leave them gray (monotone tables: gray <= white).
            if (child[cs2] < kInf) table[i][base] = child[cs2] + 1;
            for (int t = 0; ++digs[t] == 3; ++t) digs[t] = 0;
          }
        }
        table[x.left].clear();
        table[x.left].shrink_to_fit();
        break;
      }
      case NiceTreeDecomposition::kForget: {
        const int p = bag_pos(nd.nodes[x.left].bag, x.vertex);
        const std::vector<std::int32_t>& child = table[x.left];
        table[i].assign(static_cast<std::size_t>(pow3[b]), kInf);
        forget_black[i].assign((static_cast<std::size_t>(pow3[b]) + 63) / 64,
                               0);
        // Insert digit p: forgotten vertices must end black or white
        // (dominated) — gray would leave the requirement unchecked. Parent
        // states s stay sequential as high strides over digit p, so the
        // loop body is division-free.
        int s = 0;
        for (int high = 0; high < pow3[b - p]; ++high) {
          const int base_hi = high * pow3[p + 1];
          for (int low = 0; low < pow3[p]; ++low, ++s) {
            const int base = base_hi + low;
            const std::int32_t cb = child[base];            // v black
            const std::int32_t cw = child[base + pow3[p]];  // v white
            if (cb < cw) {
              table[i][s] = cb;
              forget_black[i][static_cast<std::size_t>(s) / 64] |=
                  std::uint64_t{1} << (s % 64);
            } else {
              table[i][s] = cw;
            }
          }
        }
        table[x.left].clear();
        table[x.left].shrink_to_fit();
        break;
      }
      case NiceTreeDecomposition::kJoin: {
        const std::vector<std::int32_t>& a = table[x.left];
        const std::vector<std::int32_t>& c = table[x.right];
        table[i].assign(static_cast<std::size_t>(pow3[b]), kInf);
        join_split[i].assign(static_cast<std::size_t>(pow3[b]), 0);
        std::vector<int> digs(b + 1, 0);  // base-3 odometer over s
        std::vector<int> wp;  // white positions of the current state
        for (int s = 0; s < pow3[b]; ++s) {
          int blacks = 0;
          wp.clear();
          for (int p = 0; p < b; ++p) {
            if (digs[p] == 0) ++blacks;
            if (digs[p] == 1) wp.push_back(p);
          }
          const int nw = static_cast<int>(wp.size());
          std::int32_t best = kInf;
          std::uint16_t best_mask = 0;
          for (int mask = 0; mask < (1 << nw); ++mask) {
            // mask bit j set: white wp[j] stays white in the LEFT child
            // (gray on the right); clear: white on the right, gray left.
            int f1 = s, f2 = s;
            for (int j = 0; j < nw; ++j) {
              if ((mask >> j) & 1) {
                f2 += pow3[wp[j]];  // white -> gray on the right
              } else {
                f1 += pow3[wp[j]];  // white -> gray on the left
              }
            }
            if (a[f1] >= kInf || c[f2] >= kInf) continue;
            const std::int32_t v = a[f1] + c[f2] - blacks;
            if (v < best) {
              best = v;
              best_mask = static_cast<std::uint16_t>(mask);
            }
          }
          table[i][s] = best;
          join_split[i][s] = best_mask;
          for (int t = 0; ++digs[t] == 3; ++t) digs[t] = 0;
        }
        table[x.left].clear();
        table[x.left].shrink_to_fit();
        table[x.right].clear();
        table[x.right].shrink_to_fit();
        break;
      }
    }
  }

  // Reconstruction: walk root -> leaves replaying the recorded choices.
  std::vector<char> in_set(g.n(), 0);
  std::vector<std::pair<int, int>> stack = {{nd.root, 0}};
  while (!stack.empty()) {
    const auto [i, s] = stack.back();
    stack.pop_back();
    const NiceTreeDecomposition::Node& x = nd.nodes[i];
    const int b = static_cast<int>(x.bag.size());
    switch (x.kind) {
      case NiceTreeDecomposition::kLeaf:
        break;
      case NiceTreeDecomposition::kIntroduce: {
        const int p = bag_pos(x.bag, x.vertex);
        const int dv = digit(s, p);
        int cs = s % pow3[p] + (s / pow3[p + 1]) * pow3[p];
        if (dv == 0) {
          in_set[x.vertex] = 1;
          const std::vector<int> nbp = neighbor_positions(x);
          for (int q : nbp) {
            if (q == p) continue;
            const int qq = q < p ? q : q - 1;
            if ((cs / pow3[qq]) % 3 == 1) cs += pow3[qq];
          }
        }
        stack.emplace_back(x.left, cs);
        break;
      }
      case NiceTreeDecomposition::kForget: {
        const int p = bag_pos(nd.nodes[x.left].bag, x.vertex);
        const int black = static_cast<int>(
            (forget_black[i][static_cast<std::size_t>(s) / 64] >> (s % 64)) &
            1);
        const int base = s % pow3[p] + (s / pow3[p]) * pow3[p + 1];
        stack.emplace_back(x.left, black ? base : base + pow3[p]);
        break;
      }
      case NiceTreeDecomposition::kJoin: {
        const int mask = join_split[i][s];
        int f1 = s, f2 = s, j = 0;
        for (int p = 0; p < b; ++p) {
          if (digit(s, p) != 1) continue;
          if ((mask >> j) & 1) {
            f2 += pow3[p];
          } else {
            f1 += pow3[p];
          }
          ++j;
        }
        stack.emplace_back(x.left, f1);
        stack.emplace_back(x.right, f2);
        break;
      }
    }
  }
  std::vector<int> out;
  for (int v = 0; v < g.n(); ++v) {
    if (in_set[v]) out.push_back(v);
  }
  return out;
}

/// Max-cut witness from the treewidth DP.
struct TwCut {
  std::int64_t cut_edges = 0;
  std::vector<char> side;
};

/// Maximum cut via the subset DP over side assignments. Every edge is
/// counted at the introduce of its later endpoint; joins subtract the
/// bag-internal cut that both branches counted once each.
inline TwCut tw_max_cut(const Graph& g, const NiceTreeDecomposition& nd) {
  TwCut out;
  out.cut_edges = detail::subset_dp<std::int64_t>(
      g, nd,
      [](int bit, int nb, int s) -> std::int64_t {
        return detail::popcount(static_cast<unsigned>(nb & (bit ? ~s : s)));
      },
      [](int s, const std::vector<std::pair<int, int>>& bag_edges) {
        std::int64_t bag_cut = 0;
        for (const auto& [pi, pj] : bag_edges) {
          bag_cut += ((s >> pi) ^ (s >> pj)) & 1;
        }
        return bag_cut;
      },
      out.side);
  return out;
}

}  // namespace mfd::apps
