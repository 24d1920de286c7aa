// Exact maximum matching in general graphs — Edmonds' blossom algorithm,
// O(V^3). The exact baseline the Theorem 1.2 matching application is
// graded against (bench_matching_vc), and the per-cluster solver of
// apps/approx.hpp's (1-eps)-matching.
//
// Standard contract-blossoms-implicitly formulation: repeated BFS
// augmenting-path search where `base[v]` tracks the base of the blossom
// containing v and lowest-common-ancestor marking contracts odd cycles on
// the fly.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/graph.hpp"

namespace mfd::apps {

/// match[v] = partner of v, or -1 if v is unmatched.
struct Matching {
  std::vector<int> match;
  int size = 0;  // number of matched edges
};

namespace detail {

class Blossom {
 public:
  explicit Blossom(const Graph& g)
      : g_(g), n_(g.n()), match_(n_, -1), p_(n_), base_(n_), q_(n_) {}

  Matching run() {
    for (int v = 0; v < n_; ++v) {
      if (match_[v] < 0) {
        const int u = find_augmenting_path(v);
        if (u >= 0) augment(u);
      }
    }
    Matching out;
    out.match = match_;
    for (int v = 0; v < n_; ++v) {
      if (match_[v] > v) ++out.size;
    }
    return out;
  }

 private:
  int lca(int a, int b) {
    std::vector<char> used(n_, 0);
    for (;;) {
      a = base_[a];
      used[a] = 1;
      if (match_[a] < 0) break;
      a = p_[match_[a]];
    }
    for (;;) {
      b = base_[b];
      if (used[b]) return b;
      b = p_[match_[b]];
    }
  }

  void mark_path(std::vector<char>& blossom, int v, int b, int child) {
    while (base_[v] != b) {
      blossom[base_[v]] = 1;
      blossom[base_[match_[v]]] = 1;
      p_[v] = child;
      child = match_[v];
      v = p_[match_[v]];
    }
  }

  int find_augmenting_path(int root) {
    std::vector<char> used(n_, 0);
    std::fill(p_.begin(), p_.end(), -1);
    for (int v = 0; v < n_; ++v) base_[v] = v;
    int head = 0, tail = 0;
    q_[tail++] = root;
    used[root] = 1;
    while (head < tail) {
      const int v = q_[head++];
      for (int to : g_.neighbors(v)) {
        if (base_[v] == base_[to] || match_[v] == to) continue;
        if (to == root || (match_[to] >= 0 && p_[match_[to]] >= 0)) {
          // Odd cycle: contract the blossom around the LCA.
          const int b = lca(v, to);
          std::vector<char> blossom(n_, 0);
          mark_path(blossom, v, b, to);
          mark_path(blossom, to, b, v);
          for (int u = 0; u < n_; ++u) {
            if (blossom[base_[u]]) {
              base_[u] = b;
              if (!used[u]) {
                used[u] = 1;
                q_[tail++] = u;
              }
            }
          }
        } else if (p_[to] < 0) {
          p_[to] = v;
          if (match_[to] < 0) return to;  // augmenting path found
          used[match_[to]] = 1;
          q_[tail++] = match_[to];
        }
      }
    }
    return -1;
  }

  void augment(int v) {
    while (v >= 0) {
      const int pv = p_[v], ppv = match_[pv];
      match_[v] = pv;
      match_[pv] = v;
      v = ppv;
    }
  }

  const Graph& g_;
  int n_;
  std::vector<int> match_, p_, base_, q_;
};

}  // namespace detail

inline Matching max_matching(const Graph& g) {
  return detail::Blossom(g).run();
}

/// A maximum matching as an explicit (u, v) edge list with u < v — the
/// shape the approximation benches compare their per-cluster unions against.
inline std::vector<std::pair<int, int>> max_matching_edges(const Graph& g) {
  const Matching m = max_matching(g);
  std::vector<std::pair<int, int>> out;
  out.reserve(static_cast<std::size_t>(m.size));
  for (int v = 0; v < g.n(); ++v) {
    if (m.match[v] > v) out.emplace_back(v, m.match[v]);
  }
  return out;
}

}  // namespace mfd::apps
