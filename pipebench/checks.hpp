// Output checks of the pipeline benchmark. Each check is named for the
// invariant it guards; a failed check prints that name (and a detail) on
// stderr and counts toward the run's failed/attempted tally. The checks are
// independent re-derivations from the graph, not calls back into the
// library's own validators, so a library bug cannot vouch for itself.
#pragma once

#include <cstdint>
#include <iostream>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "congest/runtime.hpp"
#include "decomp/clustering.hpp"
#include "graph/graph.hpp"

namespace pipebench {

class Checks {
 public:
  /// Record one check; on failure print the invariant's name.
  bool expect(bool ok, const char* invariant, const std::string& detail = "") {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failed_ <= 20) {
        std::cerr << "check FAILED: " << invariant
                  << (detail.empty() ? "" : " (" + detail + ")") << "\n";
      }
    }
    return ok;
  }

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  double fail_rate() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

namespace detail {

inline int find_root(std::vector<int>& parent, int v) {
  while (parent[v] != v) {
    parent[v] = parent[parent[v]];
    v = parent[v];
  }
  return v;
}

}  // namespace detail

/// Every vertex carries an id in [0, k), every id is used, and each cluster
/// induces a connected subgraph (union-find over intra-cluster edges leaves
/// exactly k components).
inline void check_partition(Checks& c, const mfd::Graph& g,
                            const mfd::decomp::Clustering& cl,
                            const std::string& ctx) {
  bool ids_ok = static_cast<int>(cl.cluster.size()) == g.n();
  std::vector<char> used(static_cast<std::size_t>(std::max(cl.k, 0)), 0);
  for (int v = 0; ids_ok && v < g.n(); ++v) {
    const int id = cl.cluster[v];
    if (id < 0 || id >= cl.k) {
      ids_ok = false;
    } else {
      used[static_cast<std::size_t>(id)] = 1;
    }
  }
  for (char u : used) ids_ok = ids_ok && u;
  if (!c.expect(ids_ok, "partition_valid", ctx)) return;
  std::vector<int> parent(static_cast<std::size_t>(g.n()));
  std::iota(parent.begin(), parent.end(), 0);
  int components = g.n();
  for (int u = 0; u < g.n(); ++u) {
    for (int v : g.neighbors(u)) {
      if (u < v && cl.cluster[u] == cl.cluster[v]) {
        const int a = detail::find_root(parent, u);
        const int b = detail::find_root(parent, v);
        if (a != b) {
          parent[a] = b;
          --components;
        }
      }
    }
  }
  c.expect(components == cl.k, "clusters_connected",
           ctx + ": " + std::to_string(components) + " pieces for " +
               std::to_string(cl.k) + " clusters");
}

/// Recount the inter-cluster edges; Theorem 1.1 allows at most eps * m.
inline std::int64_t check_cut_budget(Checks& c, const mfd::Graph& g,
                                     const mfd::decomp::Clustering& cl,
                                     double eps, const std::string& ctx) {
  std::int64_t cut = 0;
  for (int u = 0; u < g.n(); ++u) {
    for (int v : g.neighbors(u)) {
      if (u < v && cl.cluster[u] != cl.cluster[v]) ++cut;
    }
  }
  c.expect(static_cast<double>(cut) <= eps * static_cast<double>(g.m()),
           "cut_within_eps_m",
           ctx + ": cut " + std::to_string(cut) + " of m " +
               std::to_string(g.m()));
  return cut;
}

inline void check_audit(Checks& c, const mfd::congest::Runtime& rt,
                        std::int64_t directed_edges, const std::string& ctx) {
  const mfd::congest::AuditResult a = rt.audit(directed_edges);
  c.expect(a.ok, "runtime_audit_ok", ctx + ": " + a.violation);
}

/// Every vertex is in the set or has a neighbour in it.
inline void check_dominating(Checks& c, const mfd::Graph& g,
                             const std::vector<int>& set) {
  std::vector<char> in(static_cast<std::size_t>(g.n()), 0);
  bool ok = true;
  for (int v : set) {
    if (v < 0 || v >= g.n()) ok = false;
    else in[static_cast<std::size_t>(v)] = 1;
  }
  for (int v = 0; ok && v < g.n(); ++v) {
    if (in[static_cast<std::size_t>(v)]) continue;
    bool dominated = false;
    for (int w : g.neighbors(v)) dominated = dominated || in[w];
    ok = dominated;
  }
  c.expect(ok, "mds_dominates");
}

/// No edge has both endpoints in the set (and no vertex repeats).
inline void check_independent(Checks& c, const mfd::Graph& g,
                              const std::vector<int>& set) {
  std::vector<char> in(static_cast<std::size_t>(g.n()), 0);
  bool ok = true;
  for (int v : set) {
    if (v < 0 || v >= g.n() || in[static_cast<std::size_t>(v)]) ok = false;
    else in[static_cast<std::size_t>(v)] = 1;
  }
  for (int u = 0; ok && u < g.n(); ++u) {
    if (!in[static_cast<std::size_t>(u)]) continue;
    for (int v : g.neighbors(u)) ok = ok && !in[v];
  }
  c.expect(ok, "mis_independent");
}

/// Every edge has an endpoint in the set.
inline void check_cover(Checks& c, const mfd::Graph& g,
                        const std::vector<int>& set) {
  std::vector<char> in(static_cast<std::size_t>(g.n()), 0);
  bool ok = true;
  for (int v : set) {
    if (v < 0 || v >= g.n()) ok = false;
    else in[static_cast<std::size_t>(v)] = 1;
  }
  for (int u = 0; ok && u < g.n(); ++u) {
    for (int v : g.neighbors(u)) ok = ok && (in[u] || in[v]);
  }
  c.expect(ok, "vc_covers");
}

/// Recount the cut of a side assignment and compare with the claimed value.
inline void check_cut_recount(Checks& c, const mfd::Graph& g,
                              const std::vector<char>& side,
                              std::int64_t claimed) {
  std::int64_t cut = 0;
  const bool sized = static_cast<int>(side.size()) == g.n();
  for (int u = 0; sized && u < g.n(); ++u) {
    for (int v : g.neighbors(u)) {
      if (u < v && side[u] != side[v]) ++cut;
    }
  }
  c.expect(sized && cut == claimed, "maxcut_recount_matches",
           "recount " + std::to_string(cut) + " vs claimed " +
               std::to_string(claimed));
}

}  // namespace pipebench
