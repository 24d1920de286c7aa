// Exact maximum independent set (and the exact covers derived from it) —
// the centralized baselines the Section-6 approximation applications are
// graded against (bench_mis, bench_matching_vc), and the per-cluster solver
// apps/approx.hpp runs inside decomposition clusters.
// Branch and bound with the standard reductions: degree-0/1 vertices are
// always taken, components whose maximum degree is at most 2 (cycles after
// the reduction) are solved in closed form, and branching picks the
// leftmost maximum-degree vertex (include N[v]-deleted vs exclude
// v-deleted). The solver reconstructs an actual optimal set, not just its
// size.
// The search state is incremental, so a branch node costs O(vertices it
// touches + n/64) rather than O(n): every alive vertex sits in a bitset
// bucket for its degree (exact buckets for small degrees, one overflow
// bucket scanned for the exact extreme), which serves the reduction's
// "alive and degree <= 1" walk (cyclic from the last vertex taken, the
// order of repeated ascending passes), the leftmost max-degree pivot, the
// leftmost min-degree greedy pick, and the leaves' alive scan; removals
// and restores move only the touched vertices between buckets, leaves
// use an epoch-stamped seen array, and chosen vertices live on one shared
// stack. State is O(n + m) whatever the maximum degree.
// Exponential worst case — intended for the small-n exact baselines and
// decomposition clusters only (the benches stay at n <= a few hundred on
// sparse minor-free instances, where the reductions keep the tree tiny).
// An optional node budget turns the search anytime: once the budget is
// spent, open subproblems finish with a greedy min-degree completion (still
// a valid independent set) and the solver reports exact() == false.
// tests/oracles.hpp keeps the whole-array-rescan search this one must match
// set for set, node for node.
// Bipartite graphs need no search: bipartite_matching (Hopcroft–Karp,
// O(m sqrt(n)), iterative) and konig_cover (the alternating-path
// construction) give a minimum vertex cover of size nu and, as its
// complement, a maximum independent set (alpha = n - nu). The cluster
// ladder runs them after its forest test and before its width probe, so
// the branch and bound only sees non-bipartite clusters.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace mfd::apps {

/// An optimal independent set (max_independent_set) or vertex cover
/// (min_vertex_cover), as a sorted vertex list.
struct MisResult {
  std::vector<int> set;
};

/// Search-effort report from a budgeted MIS run: branch nodes explored
/// and whether the search finished inside its budget (exact result).
struct MisSearchReport {
  std::int64_t nodes = 0;
  bool exact = true;
};

namespace detail {

/// Vertex bitset with ascending scans; the degree buckets and the MDS white
/// set are built from these.
class VertexBits {
 public:
  explicit VertexBits(int n = 0)
      : words_((static_cast<std::size_t>(n) + 63) / 64, 0) {}

  void set(int v) { words_[v >> 6] |= std::uint64_t{1} << (v & 63); }
  void reset(int v) { words_[v >> 6] &= ~(std::uint64_t{1} << (v & 63)); }
  bool test(int v) const { return (words_[v >> 6] >> (v & 63)) & 1; }
  std::size_t words() const { return words_.size(); }
  std::uint64_t word(std::size_t i) const { return words_[i]; }

  /// Smallest member >= from, or -1.
  int next(int from) const {
    std::size_t i = static_cast<std::size_t>(from) >> 6;
    if (i >= words_.size()) return -1;
    std::uint64_t w = words_[i] & (~std::uint64_t{0} << (from & 63));
    while (w == 0) {
      if (++i == words_.size()) return -1;
      w = words_[i];
    }
    return static_cast<int>(i * 64) + __builtin_ctzll(w);
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// Per-vertex marks that clear in O(1): a vertex is marked when its stamp
/// equals the current epoch, and clear() starts a new epoch.
class EpochMarks {
 public:
  explicit EpochMarks(int n = 0) : stamp_(n, 0) {}

  void clear() {
    if (++epoch_ == 0) {  // wrapped: old stamps could read as current
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }
  void mark(int v) { stamp_[v] = epoch_; }
  bool marked(int v) const { return stamp_[v] == epoch_; }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 1;
};

class MisSolver {
 public:
  explicit MisSolver(const Graph& g, std::int64_t node_budget = -1)
      : g_(g),
        budget_(node_budget),
        alive_(g.n(), 1),
        deg_(g.n()),
        bucket_(kOverflow + 1, VertexBits(g.n())),
        count_(kOverflow + 1, 0),
        seen_(g.n()) {
    for (int v = 0; v < g.n(); ++v) {
      deg_[v] = g.degree(v);
      enter(v);
    }
  }

  std::vector<int> solve() {
    branch();
    std::vector<int> chosen = std::move(sol_);
    std::sort(chosen.begin(), chosen.end());
    return chosen;
  }

  std::int64_t nodes() const { return nodes_; }
  bool exact() const { return exact_; }

 private:
  // Degrees below kOverflow have an exact bucket; the rest share one.
  static constexpr int kOverflow = 16;

  static int bucket_of(int d) { return d < kOverflow ? d : kOverflow; }
  void enter(int v) {
    const int b = bucket_of(deg_[v]);
    bucket_[b].set(v);
    ++count_[b];
  }
  void leave(int v) {
    const int b = bucket_of(deg_[v]);
    bucket_[b].reset(v);
    --count_[b];
  }
  void shift_degree(int w, int delta) {
    leave(w);
    deg_[w] += delta;
    enter(w);
  }

  // Smallest alive vertex >= from whose degree is at most max_deg (< 3),
  // or -1: a word scan over the union of buckets 0..max_deg.
  int next_low(int from, int max_deg) const {
    const std::size_t words = bucket_[0].words();
    std::size_t i = static_cast<std::size_t>(from) >> 6;
    if (i >= words) return -1;
    std::uint64_t mask = ~std::uint64_t{0} << (from & 63);
    for (; i < words; ++i, mask = ~std::uint64_t{0}) {
      std::uint64_t w = 0;
      for (int d = 0; d <= max_deg; ++d) w |= bucket_[d].word(i);
      w &= mask;
      if (w != 0) return static_cast<int>(i * 64) + __builtin_ctzll(w);
    }
    return -1;
  }

  // Leftmost alive vertex of maximum (want_max) or minimum degree among
  // those of degree >= 3, or -1 when none is left. Only the overflow bucket
  // needs a member scan; an exact bucket's leftmost member is its first bit.
  int extreme_degree(bool want_max) const {
    if (want_max && count_[kOverflow] > 0) return scan_overflow(true);
    for (int i = 0; i < kOverflow - 3; ++i) {
      const int d = want_max ? kOverflow - 1 - i : 3 + i;
      if (count_[d] > 0) return bucket_[d].next(0);
    }
    return !want_max && count_[kOverflow] > 0 ? scan_overflow(false) : -1;
  }

  int scan_overflow(bool want_max) const {
    int pick = -1;
    const VertexBits& over = bucket_[kOverflow];
    for (int v = over.next(0); v >= 0; v = over.next(v + 1)) {
      if (pick < 0 || (want_max ? deg_[v] > deg_[pick] : deg_[v] < deg_[pick])) {
        pick = v;
      }
    }
    return pick;
  }

  void remove(int v) {
    leave(v);
    alive_[v] = 0;
    removed_.push_back(v);
    for (int w : g_.neighbors(v)) {
      if (alive_[w]) shift_degree(w, -1);
    }
  }

  void restore(std::size_t mark) {
    while (removed_.size() > mark) {
      const int v = removed_.back();
      removed_.pop_back();
      alive_[v] = 1;
      enter(v);
      for (int w : g_.neighbors(v)) {
        if (alive_[w]) shift_degree(w, +1);
      }
    }
  }

  // Solve the remaining graph exactly (or greedily once the node budget is
  // spent); pushes a valid — optimal while exact_ holds — set for it onto
  // sol_ and returns its size. Mutates the alive state and restores it
  // before returning.
  int branch() {
    ++nodes_;
    const std::size_t base = removed_.size();
    int taken = 0;
    // Reduce: repeatedly take degree-0/1 vertices (always optimal), in the
    // order of ascending passes repeated until one takes nothing — a cyclic
    // walk from the last vertex taken that ends once no such vertex is left.
    for (int cursor = 0;;) {
      int v = next_low(cursor, 1);
      if (v < 0 && cursor > 0) v = next_low(0, 1);
      if (v < 0) break;
      cursor = v + 1;
      ++taken;
      sol_.push_back(v);
      if (deg_[v] == 1) {
        for (int w : g_.neighbors(v)) {
          if (alive_[w]) {
            remove(w);
            break;
          }
        }
      }
      remove(v);
    }
    // Pick a branching vertex; leftovers (max degree <= 2) are exact.
    const int pivot = extreme_degree(/*want_max=*/true);
    int best;
    if (pivot < 0) {
      best = taken + paths_and_cycles();
    } else if (budget_ >= 0 && nodes_ >= budget_) {
      // Budget spent: greedy completion. Repeatedly take a min-degree
      // vertex and delete its closed neighborhood until the leftovers are
      // paths/cycles (solved exactly). Valid, not necessarily optimal.
      exact_ = false;
      int extra = 0;
      for (;;) {
        const int v = extreme_degree(/*want_max=*/false);
        if (v < 0) break;
        ++extra;
        sol_.push_back(v);
        for (int w : g_.neighbors(v)) {
          if (alive_[w]) remove(w);
        }
        remove(v);
      }
      best = taken + extra + paths_and_cycles();
    } else {
      // Exclude pivot; its set lands at sol_[at, at + without).
      const std::size_t mark = removed_.size();
      const std::size_t at = sol_.size();
      remove(pivot);
      const int without = branch();
      restore(mark);
      // Include pivot: drop its closed neighborhood; the set follows.
      remove(pivot);
      for (int w : g_.neighbors(pivot)) {
        if (alive_[w]) remove(w);
      }
      sol_.push_back(pivot);
      const int with = 1 + branch();
      if (with >= without) {
        if (without > 0) {
          std::copy(sol_.begin() + at + without, sol_.end(), sol_.begin() + at);
        }
        sol_.resize(at + with);
        best = taken + with;
      } else {
        sol_.resize(at + without);
        best = taken + without;
      }
    }
    restore(base);
    return best;
  }

  // All remaining components have max degree <= 2: alpha(path_k) =
  // ceil(k/2), alpha(cycle_k) = floor(k/2). Walk each component in path
  // order and take every other vertex (odd cycles drop the last).
  int paths_and_cycles() {
    int total = 0;
    seen_.clear();
    for (int s = next_low(0, 2); s >= 0; s = next_low(s + 1, 2)) {
      if (seen_.marked(s)) continue;
      // Find an endpoint if the component is a path; else it is a cycle.
      int start = s;
      bool is_cycle = true;
      stack_.assign(1, s);
      seen_.mark(s);
      while (!stack_.empty()) {
        const int v = stack_.back();
        stack_.pop_back();
        if (deg_[v] < 2) {
          is_cycle = false;
          start = v;
        }
        for (int w : g_.neighbors(v)) {
          if (alive_[w] && !seen_.marked(w)) {
            seen_.mark(w);
            stack_.push_back(w);
          }
        }
      }
      // Ordered walk from `start` (an endpoint for paths, arbitrary for
      // cycles); take even positions, skipping an odd cycle's last slot.
      order_.clear();
      int prev = -1, cur = start;
      for (;;) {
        order_.push_back(cur);
        int nxt = -1;
        for (int w : g_.neighbors(cur)) {
          if (alive_[w] && w != prev && (w != start || order_.size() <= 1)) {
            nxt = w;
            break;
          }
        }
        prev = cur;
        if (nxt < 0 || nxt == start) break;
        cur = nxt;
      }
      const int size = static_cast<int>(order_.size());
      const int take = is_cycle ? size / 2 : (size + 1) / 2;
      for (int i = 0; i < take; ++i) sol_.push_back(order_[2 * i]);
      total += take;
    }
    return total;
  }

  const Graph& g_;
  std::int64_t budget_;      // max branch nodes; -1 = unbounded
  std::int64_t nodes_ = 0;   // branch nodes explored
  bool exact_ = true;        // false once a greedy completion ran
  std::vector<char> alive_;
  std::vector<int> deg_;     // alive-neighbor count (frozen once removed)
  std::vector<VertexBits> bucket_;  // alive vertices by bucket_of(degree)
  std::vector<int> count_;          // bucket sizes
  std::vector<int> removed_;        // removal stack, undone by restore()
  std::vector<int> sol_;            // chosen-vertex stack (see branch())
  EpochMarks seen_;                 // visited by the current leaf
  std::vector<int> stack_, order_;  // leaf scratch
};

}  // namespace detail

/// A maximum independent set of g (the actual set, sorted). Exponential
/// worst case; intended for the exact small-instance baselines and
/// decomposition clusters.
inline MisResult max_independent_set(const Graph& g) {
  return {detail::MisSolver(g).solve()};
}

/// Budget-bounded variant: explores at most `node_budget` branch nodes,
/// finishing over-budget subproblems with a greedy min-degree completion
/// (always a valid independent set). Fills `report` with nodes explored and
/// whether the search stayed exact. node_budget < 0 means unbounded.
inline MisResult max_independent_set(const Graph& g, std::int64_t node_budget,
                                     MisSearchReport* report) {
  detail::MisSolver solver(g, node_budget);
  MisResult out{solver.solve()};
  if (report) {
    report->nodes = solver.nodes();
    report->exact = solver.exact();
  }
  return out;
}

/// The sorted complement V \ set of a vertex set of g. The complement of
/// any independent set covers every edge, so this turns each MIS witness
/// into a vertex cover — minimum whenever the set was maximum.
inline std::vector<int> vertex_complement(const Graph& g,
                                          const std::vector<int>& set) {
  std::vector<char> in_set(g.n(), 0);
  for (int v : set) in_set[v] = 1;
  std::vector<int> out;
  for (int v = 0; v < g.n(); ++v) {
    if (!in_set[v]) out.push_back(v);
  }
  return out;
}

/// A minimum vertex cover of g: the complement of a maximum independent set
/// (König-free exactness — valid on every graph since V \ I covers all
/// edges and |V| - alpha(G) is optimal).
inline MisResult min_vertex_cover(const Graph& g) {
  return {vertex_complement(g, max_independent_set(g).set)};
}

/// Hopcroft–Karp maximum matching of a bipartite graph whose proper
/// 2-coloring is `side` (two_coloring(g).side): mate[v] is v's partner, or
/// -1. Each phase layers the side-0 vertices by BFS from the free ones up to
/// the first layer that sees a free side-1 vertex, then augments along
/// vertex-disjoint shortest paths with an iterative DFS (per-vertex edge
/// cursors, so a phase is O(m) and no recursion depth grows with n):
/// O(m sqrt(n)) in all. Deterministic: starts and edges in ascending order.
inline std::vector<int> bipartite_matching(const Graph& g,
                                           const std::vector<char>& side) {
  const int n = g.n();
  constexpr int kInf = std::numeric_limits<int>::max();
  std::vector<int> mate(n, -1), dist(n, kInf), cursor(n), queue, stack;
  for (;;) {
    queue.clear();
    for (int u = 0; u < n; ++u) {
      dist[u] = kInf;
      if (side[u] == 0 && mate[u] < 0) {
        dist[u] = 0;
        queue.push_back(u);
      }
    }
    int limit = kInf;  // layer of the shortest augmenting paths
    for (std::size_t h = 0; h < queue.size(); ++h) {
      const int u = queue[h];
      if (dist[u] >= limit) break;
      for (int w : g.neighbors(u)) {
        const int m = mate[w];
        if (m < 0) {
          limit = dist[u];
        } else if (dist[m] == kInf) {
          dist[m] = dist[u] + 1;
          queue.push_back(m);
        }
      }
    }
    if (limit == kInf) return mate;
    std::fill(cursor.begin(), cursor.end(), 0);
    for (int s = 0; s < n; ++s) {
      if (side[s] != 0 || mate[s] >= 0 || dist[s] != 0) continue;
      stack.assign(1, s);
      while (!stack.empty()) {
        const int x = stack.back();
        const auto nb = g.neighbors(x);
        if (cursor[x] == nb.size()) {  // dead end for this phase
          dist[x] = kInf;
          stack.pop_back();
          if (!stack.empty()) ++cursor[stack.back()];
          continue;
        }
        const int w = nb.begin()[cursor[x]];
        const int m = mate[w];
        if (m < 0 && dist[x] == limit) {  // augment along the stack
          for (int y : stack) {
            const int partner = g.neighbors(y).begin()[cursor[y]];
            mate[y] = partner;
            mate[partner] = y;
          }
          break;
        }
        if (m >= 0 && dist[x] < limit && dist[m] == dist[x] + 1) {
          stack.push_back(m);
        } else {
          ++cursor[x];
        }
      }
    }
  }
}

/// König's minimum vertex cover of a bipartite graph from a maximum
/// matching: Z is every vertex an alternating path (non-matching edges out
/// of side `from`, matching edges back) reaches from the unmatched vertices
/// of side `from`, and the cover is (side from \ Z) + (other side ∩ Z), of
/// size |matching| (sorted). Its complement is a maximum independent set
/// (alpha = n - nu); the two choices of `from` give the two covers one
/// matching yields.
inline std::vector<int> konig_cover(const Graph& g,
                                    const std::vector<char>& side,
                                    const std::vector<int>& mate, int from) {
  const int n = g.n();
  std::vector<char> reached(n, 0);
  std::vector<int> queue;
  for (int v = 0; v < n; ++v) {
    if (side[v] == from && mate[v] < 0) {
      reached[v] = 1;
      queue.push_back(v);
    }
  }
  for (std::size_t h = 0; h < queue.size(); ++h) {
    const int v = queue[h];
    if (side[v] != from) {  // matched (maximality), so follow its mate
      if (!reached[mate[v]]) {
        reached[mate[v]] = 1;
        queue.push_back(mate[v]);
      }
      continue;
    }
    for (int w : g.neighbors(v)) {
      if (!reached[w]) {
        reached[w] = 1;
        queue.push_back(w);
      }
    }
  }
  std::vector<int> cover;
  for (int v = 0; v < n; ++v) {
    if ((side[v] == from) != (reached[v] != 0)) cover.push_back(v);
  }
  return cover;
}

}  // namespace mfd::apps
