// The sharded per-round engine's determinism contract (congest/shard.hpp):
// every sharded path must produce BIT-IDENTICAL results to its serial
// reference for every shard count. These cases sweep thread counts
// {1, 2, 7, hardware_concurrency} over
//   * the primitives (ShardPlan coverage, WeightedPlan's equal-weight cuts,
//     ShardPool task completion and its CPU placement trace, ShardedMeter
//     merge vs a serial MessageMeter fed the same traffic),
//   * the pooled Cole–Vishkin rounds vs their inline run,
//   * heavy-stars contraction on a weighted cluster graph, and on G itself
//     (the singleton iterations) vs a unit-weight WeightedGraph copy of G,
//   * the full Theorem 1.1 local LDD on grid, torus and random planar
//     graphs (clusterings, cut edges, per-phase ledger entries,
//     Runtime::audit totals, and the pooled evaluate_clustering's quality),
//   * the contraction's direct CSR build (decomp::detail::contract_clusters)
//     vs the edge-list oracle of tests/oracles.hpp, arc for arc, and the
//     pooled evaluate_clustering vs its inline run and, where its masks are
//     exact, vs the per-source BFS oracle; on a clustering with a giant
//     cluster at id 0, both against their oracles (the sampled estimate vs
//     the probe loop on the global arrays),
//   * the pooled walk engine vs the token-serial oracle of tests/oracles.hpp
//     (routes, rounds, accepted seed, and the merged-meter congestion gate),
//   * certify_parts' cluster schedule, including the heavy-first pass that
//     lends the pool to a dominating cluster's game.
// They also run under ThreadSanitizer in CI — the race gate for the pool and
// the per-shard meter lanes.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "apps/approx.hpp"
#include "apps/domination.hpp"
#include "apps/maxcut.hpp"
#include "congest/cole_vishkin.hpp"
#include "congest/shard.hpp"
#include "decomp/edt.hpp"
#include "decomp/expander_decomp.hpp"
#include "decomp/heavy_stars.hpp"
#include "decomp/ldd_local.hpp"
#include "expander/rw_routing.hpp"
#include "expander/split.hpp"
#include "graph/generators.hpp"
#include "graph/ops.hpp"
#include "graph/weighted.hpp"
#include "oracles.hpp"
#include "test_main.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace mfd;
using namespace mfd::congest;

namespace {

// The sweep every equivalence case runs: serial, two, an odd count that does
// not divide the test sizes, and whatever the host machine has.
const std::vector<int> kThreadSweep = {1, 2, 7, 0};

bool same_charges(const Runtime& a, const Runtime& b, const std::string& ctx) {
  if (a.entries().size() != b.entries().size()) return false;
  for (std::size_t i = 0; i < a.entries().size(); ++i) {
    const RoundCharge& x = a.entries()[i];
    const RoundCharge& y = b.entries()[i];
    if (x.phase != y.phase || x.rounds != y.rounds ||
        x.messages != y.messages || x.max_congestion != y.max_congestion) {
      CHECK_MSG(false, ctx + ": charge " + std::to_string(i) + " (" + x.phase +
                           ") diverged");
      return false;
    }
  }
  return true;
}

void same_report(const decomp::PartCertifyReport& a,
                 const decomp::PartCertifyReport& b, const std::string& ctx) {
  CHECK_MSG(a.ok == b.ok && a.violation == b.violation, ctx);
  CHECK_MSG(a.clusters_certified == b.clusters_certified, ctx);
  CHECK_MSG(a.clusters_estimated == b.clusters_estimated, ctx);
  CHECK_MSG(a.min_phi_lower == b.min_phi_lower, ctx);
  CHECK_MSG(a.min_phi_estimate == b.min_phi_estimate, ctx);
  CHECK_MSG(a.max_certified_cluster == b.max_certified_cluster, ctx);
  CHECK_MSG(a.state_bytes_peak == b.state_bytes_peak, ctx);
  same_charges(a.ledger, b.ledger, ctx);
}

void same_quality(const decomp::ClusterQuality& a,
                  const decomp::ClusterQuality& b, const std::string& ctx) {
  CHECK_MSG(a.max_diameter == b.max_diameter, ctx + ": max_diameter");
  CHECK_MSG(a.max_cluster_size == b.max_cluster_size,
            ctx + ": max_cluster_size");
  CHECK_MSG(a.cut_edges == b.cut_edges, ctx + ": cut_edges");
  CHECK_MSG(a.eps_fraction == b.eps_fraction, ctx + ": eps_fraction");
  CHECK_MSG(a.clusters_connected == b.clusters_connected,
            ctx + ": clusters_connected");
}

// Every row (hence every offset), arc, m() and total_weight() of two
// cluster graphs.
void same_cluster_graph(const WeightedGraph& a, const WeightedGraph& b,
                        const std::string& ctx) {
  CHECK_MSG(a.n() == b.n(), ctx + ": n");
  CHECK_MSG(a.m() == b.m(), ctx + ": m");
  CHECK_MSG(a.total_weight() == b.total_weight(), ctx + ": total_weight");
  if (a.n() != b.n()) return;
  for (int v = 0; v < a.n(); ++v) {
    if (a.degree(v) != b.degree(v)) {  // equal degrees: equal offsets
      CHECK_MSG(false, ctx + ": degree of " + std::to_string(v));
      return;
    }
  }
  for (int v = 0; v < a.n(); ++v) {
    const WeightedGraph::Arc* x = a.arcs(v).begin();
    for (const WeightedGraph::Arc& y : b.arcs(v)) {
      if (x->to != y.to || x->w != y.w) {
        CHECK_MSG(false, ctx + ": arc of " + std::to_string(v));
        return;
      }
      ++x;
    }
  }
}

// Every field of two heavy-stars results, ledger entries included.
void same_heavy_stars(const decomp::HeavyStarsResult& a,
                      const decomp::HeavyStarsResult& b,
                      const std::string& ctx) {
  CHECK_MSG(a.star == b.star, ctx + ": star");
  CHECK_MSG(a.kept_parent == b.kept_parent, ctx + ": kept_parent");
  CHECK_MSG(a.depth == b.depth, ctx + ": depth");
  CHECK_MSG(a.stars == b.stars, ctx + ": stars");
  CHECK_MSG(a.captured_weight == b.captured_weight, ctx + ": captured_weight");
  CHECK_MSG(a.total_weight == b.total_weight, ctx + ": total_weight");
  CHECK_MSG(a.cv_rounds == b.cv_rounds, ctx + ": cv_rounds");
  CHECK_MSG(a.max_marked_depth == b.max_marked_depth,
            ctx + ": max_marked_depth");
  same_charges(a.ledger, b.ledger, ctx);
}

// The small graphs the contraction equivalence cases run on: grid, torus,
// random planar, isolated vertices between short paths, n = 0 and n = 1.
struct Family {
  const char* name;
  Graph g;
};

std::vector<Family> contraction_families() {
  Rng rng(5);
  std::vector<std::pair<int, int>> sparse;  // isolated vertices between
  for (int v = 0; v + 3 < 60; v += 3) sparse.emplace_back(v, v + 3);
  std::vector<Family> families;
  families.push_back({"grid", grid_graph(30, 30)});
  families.push_back({"torus", torus_graph(20, 20)});
  families.push_back({"planar", random_planar(600, 1400, rng)});
  families.push_back({"isolated", Graph::from_edges(60, sparse)});
  families.push_back({"n=0", Graph::from_edges(0, {})});
  families.push_back({"n=1", Graph::from_edges(1, {})});
  return families;
}

// A deterministic weighted graph for the heavy-stars sweep: grid edges with
// weights spread over [1, 9] so the pointing phase has real ties to break.
WeightedGraph weighted_grid(int rows, int cols) {
  const Graph g = grid_graph(rows, cols);
  std::vector<WeightedEdge> edges;
  for (int u = 0; u < g.n(); ++u) {
    for (int v : g.neighbors(u)) {
      if (u < v) edges.push_back({u, v, (u * 7 + v * 13) % 9 + 1});
    }
  }
  return WeightedGraph(g.n(), std::move(edges));
}

// A clustering of g skewed the way the Theorem 1.1 contraction's are: a
// giant cluster at id 0, then clusters of exactly kEvalExactCap and
// kEvalExactCap + 1 vertices, one cluster of two far-apart pieces of 10
// (disconnected), and clusters of at most three for the rest, numbered in
// first-vertex order. Each piece grows as a BFS ball over the unlabelled
// vertices from the first seed in [seed, last] that fits all of it, so
// every other cluster is connected; the caller checks the sizes.
decomp::Clustering skewed_clustering(const Graph& g, int giant) {
  decomp::Clustering c;
  c.cluster.assign(static_cast<std::size_t>(g.n()), -1);
  const auto grow = [&](int seed, int size, int id, int last) {
    std::vector<int> queue;
    for (; seed <= last; ++seed) {
      if (c.cluster[seed] >= 0) continue;
      queue.assign(1, seed);
      c.cluster[seed] = id;
      for (std::size_t h = 0;
           h < queue.size() && static_cast<int>(queue.size()) < size; ++h) {
        for (int w : g.neighbors(queue[h])) {
          if (c.cluster[w] < 0 && static_cast<int>(queue.size()) < size) {
            c.cluster[w] = id;
            queue.push_back(w);
          }
        }
      }
      if (static_cast<int>(queue.size()) == size) return;
      for (int v : queue) c.cluster[v] = -1;  // a pocket: try the next seed
    }
  };
  const int last = g.n() - 1;
  grow(0, giant, 0, last);
  grow(0, decomp::kEvalExactCap, 1, last);
  grow(0, decomp::kEvalExactCap + 1, 2, last);
  grow(g.n() / 2, 10, 3, last);
  grow(last - 10, 10, 3, last);
  c.k = 4;
  for (int v = 0; v < g.n(); ++v) {
    for (int size = 3; c.cluster[v] < 0; --size) grow(v, size, c.k, v);
    if (c.cluster[v] == c.k) ++c.k;
  }
  return c;
}

// Serial and pooled build_edt_decomposition on one graph: every field of
// the result, the ledger and its audit.
void check_ldd_sharded(const Family& fam, double eps) {
  const decomp::EdtDecomposition serial =
      decomp::build_edt_decomposition(fam.g, eps);
  for (int threads : kThreadSweep) {
    ShardPool pool(threads);
    decomp::EdtParams p;
    p.pool = &pool;
    const decomp::EdtDecomposition sharded =
        decomp::build_edt_decomposition(fam.g, eps, p);
    const std::string ctx = std::string(fam.name) +
                            " threads=" + std::to_string(pool.threads());
    CHECK_MSG(serial.clustering.cluster == sharded.clustering.cluster, ctx);
    CHECK_MSG(serial.T_measured == sharded.T_measured, ctx);
    CHECK_MSG(serial.iterations == sharded.iterations, ctx);
    CHECK_MSG(serial.merges == sharded.merges, ctx);
    same_quality(serial.quality, sharded.quality, ctx);
    same_charges(serial.ledger, sharded.ledger, ctx);
    const AuditResult sa = serial.ledger.audit(2 * fam.g.m());
    const AuditResult ha = sharded.ledger.audit(2 * fam.g.m());
    CHECK_MSG(sa.ok && ha.ok, ctx);
    CHECK_MSG(serial.ledger.total() == sharded.ledger.total(), ctx);
    CHECK_MSG(
        serial.ledger.total_messages() == sharded.ledger.total_messages(),
        ctx);
    CHECK_MSG(
        serial.ledger.peak_congestion() == sharded.ledger.peak_congestion(),
        ctx);
  }
}

}  // namespace

TEST_CASE(shard_plan_covers_range) {
  for (int n : {0, 1, 5, 16, 4096, 4097}) {
    for (int shards : {1, 2, 7, 8, 64}) {
      const ShardPlan plan(n, shards);
      const std::string ctx = "n=" + std::to_string(n) +
                              " shards=" + std::to_string(shards);
      CHECK_MSG(plan.begin(0) == 0, ctx);
      CHECK_MSG(plan.end(shards - 1) == n, ctx);
      int lo = n, hi = 0;
      for (int s = 0; s < shards; ++s) {
        CHECK_MSG(plan.end(s) == plan.begin(s + 1), ctx);  // contiguity
        const int size = plan.end(s) - plan.begin(s);
        CHECK_MSG(size >= 0, ctx);
        lo = std::min(lo, size);
        hi = std::max(hi, size);
      }
      CHECK_MSG(hi - lo <= 1, ctx + ": uneven partition");
    }
  }
}

TEST_CASE(weighted_plan_cuts_at_equal_shares) {
  // Prefixes: no items, zero weights, unit weights, a giant first, a giant
  // last, and a seeded mix with zero-weight items. Every item must sit in
  // the range its starting weight falls in: prefix[i] * S in
  // [total * s, total * (s + 1)), the last range also taking the
  // zero-weight tail.
  std::vector<std::vector<int>> weights = {
      {}, {0, 0, 0}, std::vector<int>(4097, 1), {1000, 1, 1, 1, 1},
      {1, 1, 1, 1, 1000}};
  Rng rng(3);
  std::vector<int> mixed;
  for (int i = 0; i < 500; ++i) {
    mixed.push_back(i % 7 == 0 ? 0 : rng.uniform_int(1, i % 50 == 0 ? 400 : 9));
  }
  weights.push_back(mixed);
  for (std::size_t w = 0; w < weights.size(); ++w) {
    std::vector<int> prefix(weights[w].size() + 1, 0);
    std::partial_sum(weights[w].begin(), weights[w].end(), prefix.begin() + 1);
    const int k = static_cast<int>(weights[w].size());
    const std::int64_t total = prefix.back();
    for (int shards : {1, 2, 7, 8, 64}) {
      const WeightedPlan plan(prefix, shards);
      const std::string ctx = "weights " + std::to_string(w) +
                              " shards=" + std::to_string(shards);
      CHECK_MSG(plan.shards() == shards, ctx);
      CHECK_MSG(plan.begin(0) == 0 && plan.end(shards - 1) == k, ctx);
      for (int s = 0; s < shards; ++s) {
        CHECK_MSG(plan.begin(s) <= plan.end(s), ctx);
        for (int i = plan.begin(s); i < plan.end(s); ++i) {
          const std::int64_t at = std::int64_t{prefix[i]} * shards;
          const bool tail = s == shards - 1 && prefix[i] == total;
          CHECK_MSG(at >= total * s && (at < total * (s + 1) || tail),
                    ctx + " item " + std::to_string(i));
        }
      }
    }
  }
}

TEST_CASE(shard_pool_traces_cpus) {
  // The trace counts the CPUs the pool's threads claimed tasks on, only
  // while it is on; switching it on clears it. A one-thread pool runs its
  // tasks inline and traces none.
  for (int threads : kThreadSweep) {
    ShardPool pool(threads);
    const std::string ctx = "threads=" + std::to_string(pool.threads());
    const auto fan_out = [&pool] {
      std::atomic<int> done{0};
      pool.run(4 * pool.threads(), [&done](int, int) { ++done; });
      return done.load();
    };
    pool.trace_cpus(true);
    CHECK_MSG(pool.traced_cpus() == 0, ctx);
    CHECK_MSG(fan_out() == 4 * pool.threads(), ctx);
    pool.trace_cpus(false);
    const int traced = pool.traced_cpus();
#if defined(__linux__)
    CHECK_MSG(pool.threads() == 1 ? traced == 0 : traced >= 1, ctx);
#endif
    CHECK_MSG(traced <= 4 * pool.threads(), ctx);  // at most one per task
    fan_out();
    CHECK_MSG(pool.traced_cpus() == traced, ctx + ": traced while off");
    pool.trace_cpus(true);
    CHECK_MSG(pool.traced_cpus() == 0, ctx + ": not cleared");
  }
}

TEST_CASE(shard_pool_runs_every_task_once) {
  for (int threads : kThreadSweep) {
    ShardPool pool(threads);
    CHECK(pool.threads() >= 1);
    const int tasks = 3 * pool.threads() + 5;
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(tasks));
    for (auto& h : hits) h.store(0);
    // Reuse across run() calls is the per-round pattern: barriers between.
    for (int round = 0; round < 3; ++round) {
      pool.run(tasks, [&](int t, int worker) {
        CHECK(worker >= 0 && worker < pool.threads());
        hits[static_cast<std::size_t>(t)].fetch_add(1);
      });
    }
    for (int t = 0; t < tasks; ++t) {
      CHECK_MSG(hits[static_cast<std::size_t>(t)].load() == 3,
                "task " + std::to_string(t) + " threads=" +
                    std::to_string(threads));
    }
  }
}

TEST_CASE(sharded_meter_merge_matches_serial_meter) {
  // Drive a serial MessageMeter and a ShardedMeter with identical traffic
  // (including zero-count queries, which must meter nothing on either) and
  // compare every merged view per round and at the end.
  const std::int64_t slots = 100;
  for (int shards : {1, 2, 7}) {
    std::vector<std::int64_t> slot_begin;
    const ShardPlan plan(static_cast<int>(slots), shards);
    for (int s = 0; s <= shards; ++s) slot_begin.push_back(plan.begin(s));
    MessageMeter serial(slots);
    ShardedMeter sharded(slot_begin);
    CHECK(sharded.shards() == shards);
    std::uint64_t state = 12345;
    const auto owner_of = [&](std::int64_t slot) {
      int s = 0;
      while (plan.end(s) <= slot) ++s;
      return s;
    };
    for (int round = 0; round < 17; ++round) {
      for (int i = 0; i < 400; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::int64_t slot =
            static_cast<std::int64_t>(state >> 33) % slots;
        const std::int64_t count = static_cast<std::int64_t>(state >> 29) % 4;
        // count == 0 exercises the no-op query contract under sharding too.
        const std::int64_t a = serial.send(slot, count);
        const std::int64_t b = sharded.send(owner_of(slot), slot, count);
        CHECK(a == b);
      }
      CHECK_MSG(serial.round_peak() == sharded.round_peak(),
                "round " + std::to_string(round) + " shards=" +
                    std::to_string(shards));
      serial.end_round();
      sharded.end_round();
    }
    CHECK(serial.total_messages() == sharded.total_messages());
    CHECK(serial.peak_congestion() == sharded.peak_congestion());
    CHECK(serial.rounds() == sharded.rounds());
    std::int64_t lane_sum = 0;
    for (int s = 0; s < shards; ++s) lane_sum += sharded.shard_messages(s);
    CHECK(lane_sum == sharded.total_messages());  // the offline merge trail
  }
}

TEST_CASE(heavy_stars_sharded_bit_identical) {
  const WeightedGraph wg = weighted_grid(40, 37);
  const decomp::HeavyStarsResult serial = decomp::heavy_stars(wg);
  for (int threads : kThreadSweep) {
    ShardPool pool(threads);
    same_heavy_stars(serial, decomp::heavy_stars(wg, &pool),
                     "threads=" + std::to_string(pool.threads()));
  }
}

TEST_CASE(heavy_stars_on_graph_matches_unit_copy) {
  // heavy_stars(g) reads G's rows as unit-weight arcs (the contraction's
  // singleton iterations); it must equal heavy_stars on a unit-weight
  // WeightedGraph copy of g, inline and over the pool.
  for (const Family& fam : contraction_families()) {
    std::vector<WeightedEdge> edges;
    for (const auto& [u, v] : fam.g.edges()) edges.push_back({u, v, 1});
    const WeightedGraph unit(fam.g.n(), std::move(edges));
    const decomp::HeavyStarsResult reference = decomp::heavy_stars(unit);
    same_heavy_stars(reference, decomp::heavy_stars(fam.g),
                     std::string(fam.name) + " inline");
    for (int threads : kThreadSweep) {
      ShardPool pool(threads);
      same_heavy_stars(reference, decomp::heavy_stars(fam.g, &pool),
                       std::string(fam.name) + " threads=" +
                           std::to_string(pool.threads()));
    }
  }
}

TEST_CASE(cole_vishkin_pooled_matches_inline) {
  // Rooted forests in both root encodings (parent < 0 and parent == v): a
  // 10^5-vertex path, a star, a random forest whose parents are random
  // vertices under a shuffled order (so parents sit on both sides of their
  // children in every slice), and the tiny cases below the 6-color palette.
  struct Forest {
    std::string name;
    std::vector<int> parent;
  };
  std::vector<Forest> forests;
  {
    const int n = 100000;
    std::vector<int> path(n);
    for (int v = 0; v < n; ++v) path[v] = v - 1;
    forests.push_back({"path", path});
    std::vector<int> star(n, 0);
    star[0] = -1;
    forests.push_back({"star", star});
    Rng rng(29);
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    for (int i = n - 1; i > 0; --i) std::swap(order[i], order[rng.uniform_int(0, i)]);
    std::vector<int> forest(n, -1);
    for (int i = 1; i < n; ++i) {
      if (rng.next_below(50) != 0) forest[order[i]] = order[rng.uniform_int(0, i - 1)];
    }
    forests.push_back({"random forest", forest});
  }
  forests.push_back({"n=0", {}});
  forests.push_back({"n=1", {-1}});
  forests.push_back({"n=5 path", {-1, 0, 1, 2, 3}});
  forests.push_back({"n=9 two paths", {-1, 0, 1, 2, -1, 4, 5, 6, 7}});
  const std::size_t encodings = forests.size();
  for (std::size_t i = 0; i < encodings; ++i) {
    Forest self = forests[i];
    self.name += " (roots parent == v)";
    for (int v = 0; v < static_cast<int>(self.parent.size()); ++v) {
      if (self.parent[v] < 0) self.parent[v] = v;
    }
    forests.push_back(self);
  }
  for (const Forest& f : forests) {
    const int n = static_cast<int>(f.parent.size());
    const ColeVishkinResult inline_cv = cole_vishkin_3color_forest(n, f.parent);
    for (int v = 0; v < n; ++v) {
      const int p = f.parent[v];
      if (inline_cv.color[v] < 0 || inline_cv.color[v] > 2 ||
          (p >= 0 && p != v && inline_cv.color[v] == inline_cv.color[p])) {
        CHECK_MSG(false, f.name + ": improper at " + std::to_string(v));
        break;
      }
    }
    for (int threads : kThreadSweep) {
      ShardPool pool(threads);
      const ColeVishkinResult pooled =
          cole_vishkin_3color_forest(n, f.parent, &pool);
      const std::string ctx = f.name + " threads=" + std::to_string(pool.threads());
      CHECK_MSG(pooled.color == inline_cv.color, ctx + ": colors");
      CHECK_MSG(pooled.rounds == inline_cv.rounds, ctx + ": rounds");
      CHECK_MSG(pooled.messages == inline_cv.messages, ctx + ": messages");
      CHECK_MSG(pooled.max_congestion == inline_cv.max_congestion,
                ctx + ": max_congestion");
    }
  }
}

TEST_CASE(ldd_sharded_bit_identical_grid_torus) {
  check_ldd_sharded({"grid", grid_graph(64, 64)}, 0.25);
  check_ldd_sharded({"torus", torus_graph(40, 40)}, 0.25);
}

TEST_CASE(ldd_sharded_bit_identical_random_planar) {
  // The compact-routing instance's shape (m = 2n, ε = 0.3): its large
  // clusters sit at low ids, so the size-weighted chunks of the
  // contraction's sweeps and the heavy-first evaluation differ most from
  // an even split here.
  Rng rng(11);
  check_ldd_sharded({"planar", random_planar(20000, 40000, rng)}, 0.3);
}

TEST_CASE(contract_clusters_matches_sort_oracle) {
  // Labellings: the singletons in vertex order (k == n; the contraction
  // hands those to heavy_stars(g) instead, but contract_clusters must still
  // aggregate them correctly), the same singletons reversed, every
  // contraction iteration's clustering, the last one with two unused ids
  // appended, then the first iteration's clustering and the reversed
  // singletons again: k grows after it shrank, so the reused scratch must
  // carry no stale offsets or arcs into a larger graph. Last, on the
  // families large enough for it, the skewed clustering with a giant of a
  // quarter of the vertices at id 0: it covers several member shares at 7
  // threads, so some of contract_clusters' weighted ranges are empty.
  for (const Family& fam : contraction_families()) {
    const int n = fam.g.n();
    std::vector<std::pair<std::vector<int>, int>> labellings;
    std::vector<int> ids(static_cast<std::size_t>(n));
    std::iota(ids.begin(), ids.end(), 0);
    labellings.emplace_back(ids, n);
    std::reverse(ids.begin(), ids.end());
    labellings.emplace_back(ids, n);
    for (int it = 1;; ++it) {
      decomp::EdtParams p;
      p.max_iterations = it;
      const decomp::EdtDecomposition ldd =
          decomp::build_edt_decomposition(fam.g, 0.25, p);
      if (ldd.iterations < it) break;
      labellings.emplace_back(ldd.clustering.cluster, ldd.clustering.k);
    }
    labellings.emplace_back(labellings.back().first,
                            labellings.back().second + 2);
    // Entry 2 is the first iteration's clustering (or, with no iteration,
    // the singletons with two unused ids).
    const auto regrow = labellings[2];
    labellings.push_back(regrow);
    labellings.emplace_back(ids, n);
    if (n >= 400) {
      const decomp::Clustering skewed = skewed_clustering(fam.g, n / 4);
      labellings.emplace_back(skewed.cluster, skewed.k);
    }
    for (int threads : kThreadSweep) {
      ShardPool pool(threads);
      decomp::detail::ContractScratch scratch;  // reused, as across iterations
      for (std::size_t i = 0; i < labellings.size(); ++i) {
        const auto& [cid, k] = labellings[i];
        const std::string ctx = std::string(fam.name) + " labelling " +
                                std::to_string(i) + " threads=" +
                                std::to_string(pool.threads());
        same_cluster_graph(
            decomp::detail::contract_clusters(fam.g, cid, k, &pool, scratch),
            oracles::cluster_graph_by_sort(fam.g, cid, k), ctx);
      }
    }
  }
}

TEST_CASE(evaluate_clustering_pooled_matches_inline) {
  // 4x4 blocks of a 48x48 grid: 144 clusters, more than the chunks of any
  // swept pool. Variants: the blocks as they are; block 0 and the far
  // corner block sharing id 0 (a disconnected cluster, id 143 unused);
  // every id tripled (gaps); whole rows (48-vertex clusters); 8x12 blocks
  // (96 vertices, above the exact cap, so the sampled path) with and
  // without the corner blocks sharing id 0.
  const int side = 48;
  const Graph g = grid_graph(side, side);
  decomp::Clustering blocks;
  blocks.k = (side / 4) * (side / 4);
  for (int v = 0; v < side * side; ++v) {
    blocks.cluster.push_back((v / side / 4) * (side / 4) + (v % side) / 4);
  }
  decomp::Clustering split = blocks;
  for (int& c : split.cluster) {
    if (c == blocks.k - 1) c = 0;
  }
  decomp::Clustering gaps = blocks;
  gaps.k = 3 * blocks.k;
  for (int& c : gaps.cluster) c *= 3;
  decomp::Clustering rows;
  rows.k = side;
  for (int v = 0; v < side * side; ++v) rows.cluster.push_back(v / side);
  decomp::Clustering big;
  big.k = (side / 8) * (side / 12);
  for (int v = 0; v < side * side; ++v) {
    big.cluster.push_back((v / side / 8) * (side / 12) + (v % side) / 12);
  }
  decomp::Clustering big_split = big;
  for (int& c : big_split.cluster) {
    if (c == big.k - 1) c = 0;
  }
  const decomp::Clustering ldd =
      decomp::build_edt_decomposition(g, 0.25).clustering;
  struct Case {
    const char* name;
    const decomp::Clustering* c;
    bool connected;
  };
  const Case cases[] = {{"blocks", &blocks, true},  {"split", &split, false},
                        {"gaps", &gaps, true},      {"rows", &rows, true},
                        {"big", &big, true},        {"big split", &big_split, false},
                        {"ldd", &ldd, true}};
  for (const Case& cs : cases) {
    const decomp::ClusterQuality inline_q = decomp::evaluate_clustering(g, *cs.c);
    const decomp::ClusterQuality exact = oracles::cluster_diameters_by_bfs(g, *cs.c);
    const std::string base = cs.name;
    CHECK_MSG(inline_q.clusters_connected == cs.connected, base);
    if (exact.max_cluster_size <= decomp::kEvalExactCap) {
      same_quality(exact, inline_q, base + " vs BFS oracle");
    } else {
      CHECK_MSG(inline_q.max_diameter <= exact.max_diameter &&
                    2 * inline_q.max_diameter >= exact.max_diameter,
                base + ": sampled diameter outside [exact / 2, exact]");
    }
    for (int threads : kThreadSweep) {
      ShardPool pool(threads);
      same_quality(inline_q, decomp::evaluate_clustering(g, *cs.c, &pool),
                   base + " threads=" + std::to_string(pool.threads()));
    }
  }
}

TEST_CASE(evaluate_word_parallel_matches_bfs_oracle) {
  // One cluster of each size around the 64-bit mask width — a run of
  // row-major cells of an 8-wide grid (connected, with cycles) and a path
  // segment (diameter size - 1, the most growing rounds) — the rest of the
  // vertices singletons; a cluster of two far-apart runs (disconnected:
  // the largest component diameter counts); and LDD clusterings. Size 65
  // takes the sampled path, so only its path segment (a tree, where the
  // double sweep is exact) is here. All five quality fields must match the
  // per-source BFS oracle, inline and pooled.
  struct Case {
    std::string name;
    Graph g;
    decomp::Clustering c;
  };
  std::vector<Case> cases;
  const auto run_cluster = [](const Graph& g, int lo, int size) {
    decomp::Clustering c;
    c.k = g.n() - size + 1;
    int next = 1;
    for (int v = 0; v < g.n(); ++v) {
      c.cluster.push_back(v >= lo && v < lo + size ? 0 : next++);
    }
    return c;
  };
  for (int size : {1, 2, 63, 64, 65}) {
    const Graph grid = grid_graph(12, 8);
    const Graph path = path_graph(80);
    if (size <= decomp::kEvalExactCap) {
      cases.push_back({"grid run " + std::to_string(size), grid,
                       run_cluster(grid, 3, size)});
    }
    cases.push_back({"path run " + std::to_string(size), path,
                     run_cluster(path, 7, size)});
  }
  {
    const Graph grid = grid_graph(12, 8);
    decomp::Clustering c = run_cluster(grid, 0, 20);
    for (int v = 70; v < 90; ++v) c.cluster[v] = 0;  // ids 71..90 unused
    cases.push_back({"disconnected", grid, c});
  }
  {
    const Graph torus = torus_graph(36, 36);
    const Graph grid = grid_graph(40, 40);
    cases.push_back({"ldd torus", torus,
                     decomp::build_edt_decomposition(torus, 0.3).clustering});
    cases.push_back({"ldd grid", grid,
                     decomp::build_edt_decomposition(grid, 0.3).clustering});
  }
  for (const Case& cs : cases) {
    const decomp::ClusterQuality exact = oracles::cluster_diameters_by_bfs(cs.g, cs.c);
    const decomp::ClusterQuality inline_q = decomp::evaluate_clustering(cs.g, cs.c);
    CHECK_MSG(exact.max_cluster_size <= decomp::kEvalExactCap ||
                  cs.name == "path run 65",
              cs.name + ": cluster above the exact cap");
    same_quality(exact, inline_q, cs.name);
    for (int threads : kThreadSweep) {
      ShardPool pool(threads);
      same_quality(exact, decomp::evaluate_clustering(cs.g, cs.c, &pool),
                   cs.name + " threads=" + std::to_string(pool.threads()));
    }
  }
}

TEST_CASE(evaluate_skewed_matches_global_probe_oracle) {
  // The skewed clustering of a random planar graph as a whole, then each
  // of its first four clusters alone among singletons, so the giant's
  // diameter cannot hide the others': the giant (sampled, on a local
  // CSR), the exact-cap cluster (masks), the one just above it (sampled)
  // and the disconnected one. All five fields must equal the oracle that
  // probes on the global arrays, inline and pooled.
  Rng rng(23);
  const Graph g = random_planar(3000, 6000, rng);
  const int giant = 1000;
  const decomp::Clustering skewed = skewed_clustering(g, giant);
  std::vector<int> size(static_cast<std::size_t>(skewed.k), 0);
  for (int id : skewed.cluster) ++size[static_cast<std::size_t>(id)];
  CHECK(size[0] == giant);
  CHECK(size[1] == decomp::kEvalExactCap);
  CHECK(size[2] == decomp::kEvalExactCap + 1);
  CHECK(size[3] == 20);
  std::vector<std::pair<std::string, decomp::Clustering>> cases = {
      {"skewed", skewed}};
  const char* names[] = {"giant", "exact cap", "exact cap + 1",
                         "disconnected"};
  for (int keep = 0; keep < 4; ++keep) {
    decomp::Clustering alone;
    alone.k = 1;
    for (int id : skewed.cluster) {
      alone.cluster.push_back(id == keep ? 0 : alone.k++);
    }
    cases.emplace_back(names[keep], alone);
  }
  for (const auto& [name, c] : cases) {
    const decomp::ClusterQuality oracle =
        oracles::sampled_quality_by_global_probes(g, c);
    CHECK_MSG(oracle.clusters_connected ==
                  (name != "skewed" && name != "disconnected"),
              name + ": connectivity of the construction");
    same_quality(oracle, decomp::evaluate_clustering(g, c), name);
    for (int threads : kThreadSweep) {
      ShardPool pool(threads);
      same_quality(oracle, decomp::evaluate_clustering(g, c, &pool),
                   name + " threads=" + std::to_string(pool.threads()));
    }
  }
  // BFS balls of 65 to 1000 vertices in two more random planar graphs,
  // each alone among singletons: which farthest vertex a sweep hops to
  // changes the estimate of only a few clusters, so a max over many would
  // hide a local row out of global order.
  for (int seed : {5, 7}) {
    Rng r(static_cast<std::uint64_t>(seed));
    const Graph h = random_planar(3000, 6000, r);
    ShardPool pool(7);
    for (int ball : {65, 80, 100, 150, 200, 300, 500, 1000}) {
      for (int start = 0; start < h.n(); start += 97) {
        decomp::Clustering c;
        c.cluster.assign(static_cast<std::size_t>(h.n()), -1);
        std::vector<int> queue = {start};
        c.cluster[start] = 0;
        for (std::size_t i = 0; i < queue.size(); ++i) {
          for (int w : h.neighbors(queue[i])) {
            if (c.cluster[w] < 0 && static_cast<int>(queue.size()) < ball) {
              c.cluster[w] = 0;
              queue.push_back(w);
            }
          }
        }
        c.k = 1;
        for (int& id : c.cluster) id = id < 0 ? c.k++ : id;
        const std::string ctx = "seed " + std::to_string(seed) + " ball " +
                                std::to_string(ball) + " from " +
                                std::to_string(start);
        const decomp::ClusterQuality oracle =
            oracles::sampled_quality_by_global_probes(h, c);
        same_quality(oracle, decomp::evaluate_clustering(h, c), ctx);
        same_quality(oracle, decomp::evaluate_clustering(h, c, &pool),
                     ctx + " pooled");
      }
    }
  }
}

TEST_CASE(rw_pooled_matches_serial_oracle) {
  for (int cycle_n : {24, 257, 2047}) {
    Rng rng(17);
    const expander::ExpanderSplit sp =
        expander::expander_split(add_apex(cycle_graph(cycle_n)), rng);
    for (double f : {0.25, 0.05}) {
      const expander::RwResult serial =
          oracles::gather_random_walks_serial(sp, cycle_n, f);
      for (int threads : kThreadSweep) {
        ShardPool pool(threads);
        expander::RwParams p;
        p.pool = &pool;
        const expander::RwResult sharded =
            expander::gather_random_walks(sp, cycle_n, f, p);
        const std::string ctx = "n=" + std::to_string(cycle_n) +
                                " f=" + Table::num(f, 2) +
                                " threads=" + std::to_string(pool.threads());
        CHECK_MSG(serial.delivered_fraction == sharded.delivered_fraction, ctx);
        CHECK_MSG(serial.rounds == sharded.rounds, ctx);
        CHECK_MSG(serial.walk_length == sharded.walk_length, ctx);
        CHECK_MSG(serial.schedule.seed == sharded.schedule.seed, ctx);
        CHECK_MSG(serial.schedule.seed_tries == sharded.schedule.seed_tries,
                  ctx);
        CHECK_MSG(serial.route == sharded.route, ctx);
        same_charges(serial.ledger, sharded.ledger, ctx);
        // Merged-meter congestion gate: the sharded engine's per-lane merge
        // trail must re-derive the serial "walk rounds" phase exactly.
        CHECK_MSG(static_cast<int>(sharded.shard_messages.size()) ==
                      pool.threads(),
                  ctx);
        std::int64_t lane_sum = 0;
        for (std::int64_t m : sharded.shard_messages) lane_sum += m;
        CHECK_MSG(lane_sum == serial.ledger.entries()[0].messages, ctx);
      }
    }
  }
}

TEST_CASE(shard_pool_nested_run_inlines) {
  // A task that re-enters run() on its own pool must execute the nested
  // tasks inline (the workers are busy with the outer level, so queueing
  // would deadlock) — every task at both levels runs exactly once.
  for (int threads : kThreadSweep) {
    ShardPool pool(threads);
    std::atomic<int> outer{0}, inner{0}, nested_worker_sum{0};
    pool.run(5, [&](int /*task*/, int /*worker*/) {
      outer.fetch_add(1, std::memory_order_relaxed);
      pool.run(3, [&](int /*t*/, int w) {
        inner.fetch_add(1, std::memory_order_relaxed);
        nested_worker_sum.fetch_add(w, std::memory_order_relaxed);
      });
    });
    const std::string ctx = "threads=" + std::to_string(threads);
    CHECK_MSG(outer.load() == 5, ctx);
    CHECK_MSG(inner.load() == 15, ctx);
    // Inline execution always reports worker 0 to the nested tasks.
    CHECK_MSG(nested_worker_sum.load() == 0, ctx);
    // The pool still works after the nested episode.
    std::atomic<int> after{0};
    pool.run(4, [&](int, int) { after.fetch_add(1); });
    CHECK_MSG(after.load() == 4, ctx);
  }
}

TEST_CASE(certify_parts_pooled_bit_identical) {
  // certify_parts fans whole clusters over the pool; the report fold runs in
  // cluster order, so every field — counts, mins, the state high-water, the
  // ledger charge — must equal the serial loop at every thread count.
  for (const auto& [name, g] :
       {std::pair<std::string, Graph>{"grid", grid_graph(16, 16)},
        {"torus", torus_graph(12, 14)}}) {
    const decomp::ExpanderDecomp ed =
        decomp::expander_decomposition_minor_free(g, 0.5);
    const std::vector<std::vector<int>> members =
        decomp::cluster_members(ed.clustering);
    expander::PhiCertParams pc;
    const decomp::PartCertifyReport serial =
        decomp::certify_parts(g, members, pc);
    CHECK_MSG(serial.ok, name);
    for (int threads : kThreadSweep) {
      ShardPool pool(threads);
      same_report(serial, decomp::certify_parts(g, members, pc, &pool),
                  name + " threads=" + std::to_string(threads));
    }
  }
}

TEST_CASE(certify_parts_heavy_first_bit_identical) {
  // A part family with dominating clusters: a 400- and a 200-vertex maximal
  // planar cluster among 5x5 grids. certify_parts runs a cluster whose
  // size^2 * threads exceeds the sum of size^2 on its own with the pool lent
  // to its game, largest first, before fanning the rest out; the report must
  // still equal the serial loop field for field.
  Rng rng(11);
  const std::vector<Graph> blocks = {
      grid_graph(5, 5), grid_graph(5, 5), random_maximal_planar(200, rng),
      grid_graph(5, 5), random_maximal_planar(400, rng), grid_graph(5, 5),
      grid_graph(5, 5), grid_graph(5, 5)};
  std::vector<std::pair<int, int>> edges;
  std::vector<std::vector<int>> parts;
  int n = 0;
  std::int64_t total = 0, largest = 0;
  for (const Graph& b : blocks) {
    for (const auto& [u, v] : b.edges()) edges.emplace_back(n + u, n + v);
    parts.emplace_back(b.n());
    std::iota(parts.back().begin(), parts.back().end(), n);
    n += b.n();
    const std::int64_t sq = static_cast<std::int64_t>(b.n()) * b.n();
    total += sq;
    largest = std::max(largest, sq);
  }
  const Graph g = Graph::from_edges(n, edges);
  expander::PhiCertParams pc;
  const decomp::PartCertifyReport serial = decomp::certify_parts(g, parts, pc);
  CHECK(serial.ok);
  CHECK_MSG(serial.max_certified_cluster == 400, "the dominating game did not certify");
  for (int threads : kThreadSweep) {
    ShardPool pool(threads);
    const std::string ctx = "threads=" + std::to_string(pool.threads());
    if (pool.threads() >= 2) {
      CHECK_MSG(largest * pool.threads() > total, ctx + ": no heavy cluster");
    }
    same_report(serial, decomp::certify_parts(g, parts, pc, &pool), ctx);
  }
}

TEST_CASE(apps_seam_repair_sharded_bit_identical) {
  // The apps' seam-repair sweeps (MIS conflict drops, VC patches, the maxcut
  // cluster-flip gain scan) are serial passes that run after the pooled
  // cluster fan-out; with a pool lent, solutions and charges (the seam
  // repair's conflict count among them) must match the unpooled run bit
  // for bit.
  std::int64_t seam_messages = 0;  // non-vacuity: some sweep must act
  for (const auto& [name, g] :
       {std::pair<std::string, Graph>{"grid", grid_graph(8, 9)},
        {"cycle", cycle_graph(601)},
        {"torus", torus_graph(6, 8)}}) {
    const apps::SetSolution mis_serial =
        apps::approx_max_independent_set(g, 0.3, 3);
    const apps::SetSolution vc_serial = apps::approx_min_vertex_cover(g, 0.3, 3);
    const apps::CutSolution cut_serial = apps::approx_max_cut(g, 0.3);
    for (const congest::Runtime* rt :
         {&mis_serial.stats.runtime, &vc_serial.stats.runtime}) {
      for (const RoundCharge& e : rt->entries()) {
        if (e.phase.find("seam repair") != std::string::npos) {
          seam_messages += e.messages;
        }
      }
    }
    for (int threads : kThreadSweep) {
      ShardPool pool(threads);
      const std::string ctx = name + " threads=" + std::to_string(threads);
      const apps::SetSolution mis =
          apps::approx_max_independent_set(g, 0.3, 3, &pool);
      CHECK_MSG(mis.vertices == mis_serial.vertices, ctx + ": mis set");
      same_charges(mis_serial.stats.runtime, mis.stats.runtime, ctx + ": mis");
      const apps::SetSolution vc =
          apps::approx_min_vertex_cover(g, 0.3, 3, &pool);
      CHECK_MSG(vc.vertices == vc_serial.vertices, ctx + ": vc set");
      same_charges(vc_serial.stats.runtime, vc.stats.runtime, ctx + ": vc");
      const apps::CutSolution cut = apps::approx_max_cut(g, 0.3, 24, &pool);
      CHECK_MSG(cut.value == cut_serial.value, ctx + ": cut value");
      CHECK_MSG(cut.side == cut_serial.side, ctx + ": cut sides");
      same_charges(cut_serial.stats.runtime, cut.stats.runtime, ctx + ": cut");
    }
  }
  CHECK_MSG(seam_messages > 0, "no graph exercised the seam sweeps");
}

TEST_CASE(apps_cluster_ladder_sharded_bit_identical) {
  // The per-cluster solver ladder (apps/treewidth.hpp tiers) fans over the
  // pool: clusters are vertex-disjoint, every tier is deterministic, and the
  // fold runs in cluster order — so solutions, round charges, AND the
  // SolverStats tier audit trail must match the serial sweep bit for bit at
  // every thread count. solve_ms is wall time and deliberately excluded
  // from the contract.
  const auto same_tiers = [](const congest::SolverStats& a,
                             const congest::SolverStats& b,
                             const std::string& ctx) {
    CHECK_MSG(a.tier_forest == b.tier_forest && a.tier_tw_dp == b.tier_tw_dp &&
                  a.tier_bb == b.tier_bb && a.tier_greedy == b.tier_greedy,
              ctx + ": tier counts diverged");
    CHECK_MSG(a.max_width_dp == b.max_width_dp, ctx + ": max_width_dp");
    CHECK_MSG(a.bb_runs == b.bb_runs && a.bb_nodes == b.bb_nodes &&
                  a.bb_exact_runs == b.bb_exact_runs,
              ctx + ": search effort diverged");
  };
  Rng rng(97);
  std::int64_t tw_solves = 0;  // non-vacuity: the DP tier must fire somewhere
  for (const auto& [name, g] :
       {std::pair<std::string, Graph>{"outerplanar",
                                      random_maximal_outerplanar(260, rng)},
        {"grid", grid_graph(13, 11)},
        {"cactus", random_cactus(300, rng)}}) {
    // All five solvers share one cluster driver: each must reproduce its
    // unpooled solution, round charges and tier trail at every thread count.
    struct Run {
      std::vector<int> set;                    // MDS / MIS / VC
      std::vector<std::pair<int, int>> edges;  // matching
      std::vector<char> side;                  // max-cut
      congest::SolverStats stats;
    };
    const auto run_all = [&g = g](ShardPool* pool) {
      std::vector<std::pair<std::string, Run>> runs;
      apps::MdsSolution mds = apps::approx_min_dominating_set(g, 0.25, 2, pool);
      runs.push_back({"mds", {mds.vertices, {}, {}, mds.stats}});
      apps::SetSolution mis = apps::approx_max_independent_set(g, 0.25, 2, pool);
      runs.push_back({"mis", {mis.vertices, {}, {}, mis.stats}});
      apps::SetSolution vc = apps::approx_min_vertex_cover(g, 0.25, 2, pool);
      runs.push_back({"vc", {vc.vertices, {}, {}, vc.stats}});
      apps::MatchingSolution mm = apps::approx_max_matching(g, 0.25, 2, pool);
      runs.push_back({"mm", {{}, mm.edges, {}, mm.stats}});
      apps::CutSolution cut = apps::approx_max_cut(g, 0.25, 24, pool);
      runs.push_back({"cut", {{}, {}, cut.side, cut.stats}});
      return runs;
    };
    const auto serial = run_all(nullptr);
    for (const auto& [solver, r] : serial) tw_solves += r.stats.tier_tw_dp;
    for (int threads : kThreadSweep) {
      ShardPool pool(threads);
      const auto pooled = run_all(&pool);
      for (std::size_t i = 0; i < serial.size(); ++i) {
        const Run& a = serial[i].second;
        const Run& b = pooled[i].second;
        const std::string ctx = name + " threads=" + std::to_string(threads) +
                                ": " + serial[i].first;
        CHECK_MSG(a.set == b.set && a.edges == b.edges && a.side == b.side,
                  ctx + " solution");
        same_charges(a.stats.runtime, b.stats.runtime, ctx);
        same_tiers(a.stats, b.stats, ctx);
      }
    }
  }
  CHECK_MSG(tw_solves > 0, "no family reached the treewidth-DP tier");
}
