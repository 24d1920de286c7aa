// The covering-IP application (§1 motivation; the MDS line of [LPW13,
// AASS16, ASS19, CHWW20] the paper's framework subsumes): a deterministic
// (1+eps)-approximate minimum dominating set on H-minor-free networks, plus
// the exact and greedy centralized baselines it is graded against.
//
// Approximation shape: decompose at eps* = eps / (alpha * (Delta + 1)) and
// dominate every cluster within itself. Restricting a global optimum D* to
// a cluster C and adding the border vertices of C that D* dominated from
// outside yields a dominating set of C, so sum_C gamma(C) <= gamma(G) +
// O(cut) and the additive eps*·m loss becomes multiplicative via
// gamma(G) >= n / (Delta + 1) and m <= alpha * n.
//
// Per-cluster solver ladder (all deterministic; apps/treewidth.hpp's
// run_ladder with the MDS tier bodies, fanned over the pool by approx.hpp's
// detail::solve_clusters): exact tree DP on forest clusters of any size;
// the treewidth DP when the capped decomposition probe certifies width <=
// tw_cap; branch-and-bound — candidate branching on a fewest-dominator
// white vertex with a greedy 2-packing lower bound (closed neighborhoods of
// a 2-packing are disjoint, so any dominating set spends one vertex per
// packed vertex) — inside a node budget; greedy plus redundancy pruning
// when the budget blows (or the B&B incumbent, if smaller). Per-tier
// cluster counts and B&B effort land in congest::SolverStats.
// min_dominating_set (the exact baseline) runs the same B&B with an
// unbounded budget.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "apps/approx.hpp"
#include "apps/exact.hpp"
#include "apps/treewidth.hpp"
#include "congest/runtime.hpp"
#include "congest/shard.hpp"
#include "graph/graph.hpp"
#include "graph/ops.hpp"

namespace mfd::apps {

/// An exact minimum dominating set (sorted vertex list).
struct MdsResult {
  std::vector<int> set;
};

/// The approximate solver's output; eps_star is the decomposition budget the
/// eps -> eps* scaling chose (the bench prints it).
struct MdsSolution {
  std::vector<int> vertices;
  double eps_star = 0.0;
  congest::SolverStats stats;
};

namespace detail {

/// Exact MDS of a tree (or forest) by the standard 3-state DP:
/// state 0 = v in the set, 1 = v dominated from within its subtree,
/// 2 = v not yet dominated (its parent must take it). Reconstructs a set.
inline std::vector<int> tree_mds(const Graph& t) {
  const int n = t.n();
  std::vector<int> chosen;
  if (n == 0) return chosen;
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
  std::vector<std::int64_t> c0(n), c1(n), c2(n);
  std::vector<int> parent(n, -2), order;
  std::vector<std::vector<int>> kids(n);
  order.reserve(n);
  for (int root = 0; root < n; ++root) {
    if (parent[root] != -2) continue;
    parent[root] = -1;
    const std::size_t first = order.size();
    order.push_back(root);
    for (std::size_t i = first; i < order.size(); ++i) {
      const int v = order[i];
      for (int w : t.neighbors(v)) {
        if (parent[w] == -2) {
          parent[w] = v;
          kids[v].push_back(w);
          order.push_back(w);
        }
      }
    }
  }
  // Bottom-up costs (order is BFS, so reverse order is a valid postorder).
  for (int i = n - 1; i >= 0; --i) {
    const int v = order[i];
    std::int64_t sum_min3 = 0, sum_min01 = 0, sum_c1 = 0;
    std::int64_t best_force = kInf;  // min c0 - min(c0, c1) over children
    for (int ch : kids[v]) {
      sum_min3 += std::min({c0[ch], c1[ch], c2[ch]});
      const std::int64_t m01 = std::min(c0[ch], c1[ch]);
      sum_min01 = std::min(sum_min01 + m01, kInf);
      sum_c1 = std::min(sum_c1 + c1[ch], kInf);
      best_force = std::min(best_force, c0[ch] - m01);
    }
    c0[v] = 1 + sum_min3;
    c2[v] = kids[v].empty() ? 0 : sum_c1;
    c1[v] = kids[v].empty()
                ? kInf
                : std::min(sum_min01 + best_force, kInf);
  }
  // Top-down reconstruction.
  std::vector<int> state(n, -1);
  for (std::size_t i = 0; i < order.size(); ++i) {
    const int v = order[i];
    if (parent[v] < 0) state[v] = c0[v] <= c1[v] ? 0 : 1;
    const int s = state[v];
    if (s == 0) chosen.push_back(v);
    if (kids[v].empty()) continue;
    if (s == 0) {
      for (int ch : kids[v]) {
        state[ch] = c0[ch] <= c1[ch] && c0[ch] <= c2[ch]
                        ? 0
                        : (c1[ch] <= c2[ch] ? 1 : 2);
      }
    } else if (s == 2) {
      for (int ch : kids[v]) state[ch] = 1;
    } else {  // s == 1: at least one child must enter the set
      bool have_zero = false;
      for (int ch : kids[v]) {
        state[ch] = c0[ch] <= c1[ch] ? 0 : 1;
        have_zero = have_zero || state[ch] == 0;
      }
      if (!have_zero) {
        int fc = kids[v].front();
        for (int ch : kids[v]) {
          if (c0[ch] - std::min(c0[ch], c1[ch]) <
              c0[fc] - std::min(c0[fc], c1[fc])) {
            fc = ch;
          }
        }
        state[fc] = 0;
      }
    }
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

/// Greedy max-coverage dominating set of the whole graph (the ln(Delta)
/// baseline); ties break toward the smaller id.
inline std::vector<int> greedy_mds(const Graph& g) {
  const int n = g.n();
  std::vector<char> dominated(n, 0), in_set(n, 0);
  std::vector<int> cover(n);
  int undominated = n;
  const auto coverage = [&](int v) {
    int c = dominated[v] ? 0 : 1;
    for (int w : g.neighbors(v)) c += dominated[w] ? 0 : 1;
    return c;
  };
  for (int v = 0; v < n; ++v) cover[v] = coverage(v);
  std::vector<int> out;
  while (undominated > 0) {
    int best = -1;
    for (int v = 0; v < n; ++v) {
      if (!in_set[v] && cover[v] > 0 && (best < 0 || cover[v] > cover[best])) {
        best = v;
      }
    }
    in_set[best] = 1;
    out.push_back(best);
    // Mark N[best] dominated; refresh coverages in the 2-neighborhood.
    const auto mark = [&](int u) {
      if (dominated[u]) return;
      dominated[u] = 1;
      --undominated;
      cover[u] -= 1;
      for (int w : g.neighbors(u)) cover[w] -= 1;
    };
    mark(best);
    for (int w : g.neighbors(best)) mark(w);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Drop set members whose closed neighborhood stays dominated without them.
inline void prune_redundant(const Graph& g, std::vector<int>& set) {
  const int n = g.n();
  std::vector<int> cnt(n, 0);
  std::vector<char> in_set(n, 0);
  for (int v : set) in_set[v] = 1;
  for (int v : set) {
    ++cnt[v];
    for (int w : g.neighbors(v)) ++cnt[w];
  }
  std::vector<int> kept;
  // Scan in reverse id order so earlier (greedy-higher-value) picks survive.
  for (auto it = set.rbegin(); it != set.rend(); ++it) {
    const int v = *it;
    bool removable = cnt[v] >= 2;
    for (int w : g.neighbors(v)) {
      if (cnt[w] < 2) {
        removable = false;
        break;
      }
    }
    if (removable) {
      --cnt[v];
      for (int w : g.neighbors(v)) --cnt[w];
    } else {
      kept.push_back(v);
    }
  }
  std::sort(kept.begin(), kept.end());
  set = std::move(kept);
}

/// Branch and bound for exact MDS. Branches over the candidate dominators
/// of a fewest-candidates white vertex; prunes with a greedy 2-packing
/// lower bound. node_budget < 0 means unlimited (the exact baseline); every
/// node counts toward nodes() either way.
/// Incremental state keeps a node at O(vertices it touches + n/64): a
/// white (undominated) bitset drives the packing and pivot scans, each
/// vertex's candidate count |N[v] \ banned| moves only when a neighbor is
/// banned or unbanned, packing marks are epoch stamps, and the packing
/// stops once it reaches best - chosen — the bound feeds only that one
/// prune comparison, so every decision matches the whole-array search
/// (tests/oracles.hpp).
class MdsBranch {
 public:
  MdsBranch(const Graph& g, std::int64_t node_budget)
      : g_(g),
        n_(g.n()),
        white_(g.n()),
        white_bits_(g.n()),
        banned_(n_, 0),
        cands_(n_),
        packed_near_(n_),
        budget_(node_budget) {
    for (int v = 0; v < n_; ++v) {
      white_bits_.set(v);
      cands_[v] = g.degree(v) + 1;
    }
  }

  /// Runs the search; exact() reports whether the budget survived.
  std::vector<int> solve() {
    best_ = greedy_mds(g_);
    prune_redundant(g_, best_);
    descend();
    return best_;
  }

  bool exact() const { return exact_; }
  std::int64_t nodes() const { return nodes_; }

 private:
  int coverage(int v) const {
    int c = white_bits_.test(v) ? 1 : 0;
    for (int w : g_.neighbors(v)) c += white_bits_.test(w) ? 1 : 0;
    return c;
  }

  /// Greedy 2-packing of white vertices: closed neighborhoods of packed
  /// vertices are disjoint, and every dominating set spends a distinct
  /// vertex per packed vertex — a lower bound on what remains to pay.
  /// Returns whether the packing reaches `target` (it stops there).
  bool packing_reaches(int target) {
    packed_near_.clear();
    int packed = 0;
    for (int v = white_bits_.next(0); v >= 0; v = white_bits_.next(v + 1)) {
      bool free = !packed_near_.marked(v);
      if (free) {
        for (int w : g_.neighbors(v)) {
          if (packed_near_.marked(w)) {
            free = false;
            break;
          }
        }
      }
      if (!free) continue;
      if (++packed >= target) return true;
      // Block everything within distance 2 (mark the closed neighborhood;
      // a later candidate checks its own closed neighborhood against it).
      packed_near_.mark(v);
      for (int w : g_.neighbors(v)) packed_near_.mark(w);
    }
    return false;
  }

  void set_banned(int u, bool on) {
    banned_[u] = on ? 1 : 0;
    const int delta = on ? -1 : 1;
    cands_[u] += delta;
    for (int w : g_.neighbors(u)) cands_[w] += delta;
  }

  void dominate(int x) {
    if (!white_bits_.test(x)) return;
    white_bits_.reset(x);
    --white_;
    newly_dominated_.push_back(x);
  }

  void descend() {
    if (!exact_) return;
    ++nodes_;
    if (budget_ >= 0 && nodes_ > budget_) {
      exact_ = false;
      return;
    }
    const int gap =
        static_cast<int>(best_.size()) - static_cast<int>(chosen_.size());
    if (gap <= 0 || (white_ > 0 && packing_reaches(gap))) return;
    // Fewest-candidates white vertex (the leftmost one on ties).
    int pivot = -1, pivot_cands = n_ + 1;
    for (int v = white_bits_.next(0); v >= 0; v = white_bits_.next(v + 1)) {
      if (cands_[v] < pivot_cands) {
        pivot = v;
        pivot_cands = cands_[v];
      }
    }
    if (pivot < 0) {  // everything dominated: chosen is a full solution
      best_ = chosen_;
      std::sort(best_.begin(), best_.end());
      return;
    }
    if (pivot_cands == 0) return;  // infeasible branch
    // Candidates on a shared stack as (-coverage, id): ascending order is
    // coverage descending, then id ascending.
    const std::size_t first = cand_.size();
    if (!banned_[pivot]) cand_.emplace_back(-coverage(pivot), pivot);
    for (int w : g_.neighbors(pivot)) {
      if (!banned_[w]) cand_.emplace_back(-coverage(w), w);
    }
    const std::size_t last = cand_.size();
    std::sort(cand_.begin() + first, cand_.end());
    std::size_t done = first;
    while (done < last) {
      const int u = cand_[done++].second;
      const std::size_t mark = newly_dominated_.size();
      dominate(u);
      for (int w : g_.neighbors(u)) dominate(w);
      chosen_.push_back(u);
      descend();
      chosen_.pop_back();
      for (std::size_t i = mark; i < newly_dominated_.size(); ++i) {
        white_bits_.set(newly_dominated_[i]);
      }
      white_ += static_cast<int>(newly_dominated_.size() - mark);
      newly_dominated_.resize(mark);
      // Completeness: some dominator of pivot is in an optimal solution;
      // having explored "u in", the remaining branches may assume "u out".
      set_banned(u, true);
      if (!exact_) break;
    }
    for (std::size_t i = first; i < done; ++i) {
      set_banned(cand_[i].second, false);
    }
    cand_.resize(first);
  }

  const Graph& g_;
  int n_;
  int white_ = 0;                 // undominated vertex count
  VertexBits white_bits_;         // undominated vertices
  std::vector<char> banned_;
  std::vector<int> cands_;        // |N[v] \ banned| per vertex
  EpochMarks packed_near_;        // closed neighborhoods of packed vertices
  std::vector<int> best_, chosen_;
  std::vector<int> newly_dominated_;       // undo stack
  std::vector<std::pair<int, int>> cand_;  // per-node candidates
  std::int64_t nodes_ = 0, budget_;
  bool exact_ = true;
};

/// The cluster MDS ladder (run_ladder's tiers): forest tree-DP ->
/// treewidth DP -> budgeted B&B -> greedy + pruning. A blown B&B budget
/// keeps the smaller of its incumbent and greedy + pruning.
inline std::vector<int> cluster_mds(const Graph& h, const LadderConfig& cfg,
                                    TierReport& rep) {
  const auto greedy = [&h] {
    std::vector<int> sol = greedy_mds(h);
    prune_redundant(h, sol);
    return sol;
  };
  return run_ladder(
      h, cfg, rep, [&h](const TwoColoring& /*col*/) { return tree_mds(h); },
      no_bipartite_rung<std::vector<int>>,
      [&h](const NiceTreeDecomposition& nd) {
        return tw_min_dominating_set(h, nd);
      },
      [&]() -> std::optional<LadderSearch<std::vector<int>>> {
        MdsBranch bb(h, kLadderNodeBudget);
        std::vector<int> sol = bb.solve();
        if (!bb.exact()) {
          std::vector<int> fallback = greedy();
          if (fallback.size() < sol.size()) sol = std::move(fallback);
        }
        return LadderSearch<std::vector<int>>{std::move(sol), bb.exact(),
                                              bb.nodes()};
      },
      greedy);
}

}  // namespace detail

/// Exact minimum dominating set: tree DP per forest component, unbounded
/// branch and bound otherwise. Exponential worst case — baseline sizes only.
inline MdsResult min_dominating_set(const Graph& g) {
  MdsResult out;
  const auto [comp, k] = connected_components(g);
  std::vector<std::vector<int>> members(k);
  for (int v = 0; v < g.n(); ++v) members[comp[v]].push_back(v);
  for (const auto& verts : members) {
    const InducedSubgraph sub = induced_subgraph(g, verts);
    std::vector<int> local;
    if (sub.graph.m() == sub.graph.n() - 1) {
      local = detail::tree_mds(sub.graph);
    } else {
      detail::MdsBranch bb(sub.graph, -1);
      local = bb.solve();
    }
    for (int i : local) out.set.push_back(sub.to_parent[i]);
  }
  std::sort(out.set.begin(), out.set.end());
  return out;
}

/// The ln(Delta)-factor greedy baseline the decomposition is graded against.
inline std::vector<int> greedy_dominating_set(const Graph& g) {
  return detail::greedy_mds(g);
}

/// The covering application: deterministic (1+eps)-approximate minimum
/// dominating set via per-cluster domination on the (ε*, D, T)-decomposition
/// with eps* = eps / (alpha * (Delta + 1)). `pool` fans the per-cluster
/// ladder solves (detail::solve_clusters: bit-identical at every thread
/// count — test_shard gates it); `ladder` sets the ladder's width gate
/// (the benches' --tw_cap).
inline MdsSolution approx_min_dominating_set(const Graph& g, double eps,
                                             int alpha,
                                             congest::ShardPool* pool = nullptr,
                                             const LadderConfig& ladder = {}) {
  MdsSolution out;
  const double a = std::max(alpha, 1);
  out.eps_star =
      detail::clamp_eps_star(eps / (a * (g.max_degree() + 1.0)));
  const detail::AppDecomposition dec =
      detail::decompose_for_app(g, out.eps_star, out.stats);

  const std::vector<char> in_set = detail::cluster_union(
      g, dec, pool, out.stats,
      [&ladder](const InducedSubgraph& sub, TierReport& rep) {
        return detail::cluster_mds(sub.graph, ladder, rep);
      });
  for (int v = 0; v < g.n(); ++v) {
    if (in_set[v]) out.vertices.push_back(v);
  }
  out.stats.finish();
  return out;
}

}  // namespace mfd::apps
