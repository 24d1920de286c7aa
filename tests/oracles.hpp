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
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "apps/domination.hpp"
#include "apps/exact.hpp"
#include "congest/runtime.hpp"
#include "expander/cut_matching.hpp"
#include "expander/rw_routing.hpp"

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
  const double phi = std::min(1.0, std::max(sp.phi_cert[pid], p.phi_floor));
  ed::Arena arena(sp, v_star);
  arena.spawn_walks(p.max_walks_total);
  out.schedule.walks = static_cast<int>(arena.start.size());
  out.schedule.domain_bits = ed::ceil_log2(sp.g.n());
  if (arena.population == 0 || arena.start.empty()) {
    out.delivered_fraction = 1.0;
    return out;
  }
  int T = ed::walk_length(arena, phi, f, p);
  std::int64_t steps_spent = 0;
  ed::SimOutcome best;
  for (int attempt = 1; attempt <= p.max_seed_tries; ++attempt) {
    const std::uint64_t seed = ed::rw_mix(p.base_seed, attempt, 0);
    ed::SimOutcome sim = simulate_serial(arena, seed, T, p.laziness, 1.0 - f);
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

}  // namespace mfd::oracles
