// The compact-routing engine's contracts (apps/compact_routing.hpp):
//   * build_routing_scheme's tables equal, record field for record field,
//     the pointer-walk oracle's (tests/oracles.hpp) flattened two-step
//     build, and the table-bit accounting agrees — on all 11 graph families
//     across eps values, plus degenerate inputs;
//   * flat_route_hops is bit-identical to the oracle's pointer_route_hops —
//     hop counts AND visited-vertex sequences — on the same families;
//   * table byte accounting: the flat arrays have exactly the structural
//     sizes the two-level scheme implies, and table_bytes() sums them;
//   * serve_route_queries is deterministic across thread counts {1, 2, hw}
//     and equals the per-query serial loop;
//   * undeliverable queries answer -1: cross-component pairs in both
//     engines, and endpoints outside [0, n) in the flat engine.
#include <climits>
#include <string>
#include <utility>
#include <vector>

#include "apps/compact_routing.hpp"
#include "bench_common.hpp"
#include "congest/shard.hpp"
#include "decomp/edt.hpp"
#include "graph/ops.hpp"
#include "oracles.hpp"
#include "test_main.hpp"

using namespace mfd;

namespace {

const char* kFamilies[] = {"planar",  "planar-sparse", "grid",
                           "torus",   "outerplanar",   "tree",
                           "cycle",   "path",          "cactus",
                           "ktree3",  "series-parallel"};

struct Built {
  Graph g;
  decomp::Clustering parts;
  apps::FlatRoutingTables flat;
};

Built build(const std::string& family, int n, double eps, Rng& rng) {
  Built b;
  b.g = bench::make_family(family, n, rng);
  b.parts = decomp::build_edt_decomposition(b.g, eps).clustering;
  b.flat = apps::build_routing_scheme(b.g, b.parts);
  return b;
}

/// Every record field of the four arrays, and the table-bit accounting, of
/// the direct flat build against the oracle's build + flatten.
void check_matches_oracle(const Graph& g, const decomp::Clustering& parts,
                          const std::string& ctx) {
  using T = apps::FlatRoutingTables;
  const T got = apps::build_routing_scheme(g, parts);
  const oracles::PointerRoutingScheme ref_scheme =
      oracles::build_pointer_routing(g, parts);
  const T ref = oracles::flatten_pointer_routing(ref_scheme);
  CHECK_MSG(got.n == ref.n && got.k == ref.k, ctx + ": n/k");
  const bool same_sizes = got.vertex.size() == ref.vertex.size() &&
                          got.child.size() == ref.child.size() &&
                          got.cluster.size() == ref.cluster.size() &&
                          got.cchild.size() == ref.cchild.size();
  CHECK_MSG(same_sizes, ctx + ": array sizes");
  if (!same_sizes) return;
  for (std::size_t v = 0; v < got.vertex.size(); ++v) {
    const T::VertexRec &a = got.vertex[v], &b = ref.vertex[v];
    CHECK_MSG(a.cluster == b.cluster && a.up == b.up && a.tin == b.tin &&
                  a.tout == b.tout && a.kids_begin == b.kids_begin &&
                  a.kids_end == b.kids_end,
              ctx + ": vertex record " + std::to_string(v));
  }
  for (std::size_t i = 0; i < got.child.size(); ++i) {
    const T::ChildRec &a = got.child[i], &b = ref.child[i];
    CHECK_MSG(a.tin == b.tin && a.id == b.id,
              ctx + ": child record " + std::to_string(i));
  }
  for (std::size_t c = 0; c < got.cluster.size(); ++c) {
    const T::ClusterRec &a = got.cluster[c], &b = ref.cluster[c];
    CHECK_MSG(a.parent == b.parent && a.ctin == b.ctin && a.ctout == b.ctout &&
                  a.kids_begin == b.kids_begin && a.kids_end == b.kids_end &&
                  a.portal_src == b.portal_src && a.portal_dst == b.portal_dst,
              ctx + ": cluster record " + std::to_string(c));
  }
  for (std::size_t i = 0; i < got.cchild.size(); ++i) {
    const T::ClusterChildRec &a = got.cchild[i], &b = ref.cchild[i];
    CHECK_MSG(a.ctin == b.ctin && a.id == b.id &&
                  a.portal_src == b.portal_src && a.portal_dst == b.portal_dst,
              ctx + ": cluster-child record " + std::to_string(i));
  }
  CHECK_MSG(got.avg_table_bits() == ref_scheme.avg_table_bits(),
            ctx + ": avg_table_bits");
  CHECK_MSG(got.max_table_bits() == ref_scheme.max_table_bits(),
            ctx + ": max_table_bits");
}

}  // namespace

TEST_CASE(flat_routes_match_pointer_walk_all_families) {
  Rng rng(31);
  for (const char* fam : kFamilies) {
    for (double eps : {0.5, 0.25}) {
      const Built b = build(fam, 600, eps, rng);
      const oracles::PointerRoutingScheme scheme =
          oracles::build_pointer_routing(b.g, b.parts);
      const std::string ctx = std::string(fam) + " eps=" + Table::num(eps, 2);
      int delivered_ref = 0, delivered_flat = 0;
      std::vector<int> ref_path, flat_path;
      for (int trial = 0; trial < 300; ++trial) {
        const int u = static_cast<int>(rng.next_below(b.g.n()));
        const int v = static_cast<int>(rng.next_below(b.g.n()));
        ref_path.clear();
        flat_path.clear();
        const int rh = oracles::pointer_route_hops(scheme, u, v, &ref_path);
        const int fh = apps::flat_route_hops(b.flat, u, v, &flat_path);
        CHECK_MSG(rh == fh, ctx + ": hops diverged " + std::to_string(u) +
                                " -> " + std::to_string(v));
        CHECK_MSG(ref_path == flat_path,
                  ctx + ": path diverged " + std::to_string(u) + " -> " +
                      std::to_string(v));
        delivered_ref += rh >= 0 ? 1 : 0;
        delivered_flat += fh >= 0 ? 1 : 0;
        if (rh >= 0) {
          // A delivered path really is a hop sequence ending at the target.
          CHECK_MSG(static_cast<int>(flat_path.size()) == fh, ctx);
          if (fh > 0) CHECK_MSG(flat_path.back() == v, ctx);
        }
      }
      CHECK_MSG(delivered_ref == delivered_flat, ctx);
      CHECK_MSG(delivered_ref == 300, ctx + ": connected family must deliver");
    }
  }
}

TEST_CASE(flat_next_hop_first_step_of_route) {
  Rng rng(32);
  const Built b = build("grid", 900, 0.3, rng);
  std::vector<int> path;
  for (int trial = 0; trial < 200; ++trial) {
    const int u = static_cast<int>(rng.next_below(b.g.n()));
    const int v = static_cast<int>(rng.next_below(b.g.n()));
    path.clear();
    const int hops = apps::flat_route_hops(b.flat, u, v, &path);
    const int nh = apps::flat_next_hop(b.flat, u, v);
    if (u == v) {
      CHECK(nh == u);
    } else if (hops > 0) {
      CHECK(nh == path.front());
      CHECK(b.g.has_edge(u, nh));  // the next hop is a real neighbor
    }
  }
}

TEST_CASE(flat_table_byte_accounting) {
  Rng rng(33);
  for (const char* fam : {"grid", "tree", "cactus"}) {
    const Built b = build(fam, 700, 0.3, rng);
    const apps::FlatRoutingTables& t = b.flat;
    const std::string ctx = fam;
    CHECK_MSG(static_cast<int>(t.vertex.size()) == t.n, ctx);
    CHECK_MSG(static_cast<int>(t.cluster.size()) == t.k, ctx);
    // Every vertex except each cluster's center is someone's tree child,
    // and every cluster except each component's cluster-tree root is a
    // cluster-tree child: the CSR payloads account for exactly those. Each
    // non-empty cluster of the decomposition has exactly one center.
    std::vector<char> nonempty(static_cast<std::size_t>(b.parts.k), 0);
    for (int c : b.parts.cluster) nonempty[static_cast<std::size_t>(c)] = 1;
    int centers = 0;
    for (char ne : nonempty) centers += ne ? 1 : 0;
    int ctree_roots = 0;
    for (int c = 0; c < t.k; ++c) ctree_roots += t.cluster[c].parent < 0 ? 1 : 0;
    CHECK_MSG(static_cast<int>(t.child.size()) == t.n - centers, ctx);
    CHECK_MSG(static_cast<int>(t.cchild.size()) == t.k - ctree_roots, ctx);
    // table_bytes() must account every array — the bench's bytes/vertex
    // column is this sum and nothing else.
    const std::int64_t expect =
        static_cast<std::int64_t>(
            t.vertex.size() * sizeof(apps::FlatRoutingTables::VertexRec)) +
        static_cast<std::int64_t>(
            t.child.size() * sizeof(apps::FlatRoutingTables::ChildRec)) +
        static_cast<std::int64_t>(
            t.cluster.size() * sizeof(apps::FlatRoutingTables::ClusterRec)) +
        static_cast<std::int64_t>(
            t.cchild.size() * sizeof(apps::FlatRoutingTables::ClusterChildRec));
    CHECK_MSG(t.table_bytes() == expect, ctx);
    CHECK_MSG(t.bytes_per_vertex() * t.n == static_cast<double>(expect), ctx);
    // CSR slices tile the payload arrays in order.
    std::int32_t cursor = 0;
    for (int v = 0; v < t.n; ++v) {
      CHECK_MSG(t.vertex[v].kids_begin == cursor, ctx);
      CHECK_MSG(t.vertex[v].kids_end >= t.vertex[v].kids_begin, ctx);
      cursor = t.vertex[v].kids_end;
    }
    CHECK_MSG(cursor == static_cast<std::int32_t>(t.child.size()), ctx);
  }
}

TEST_CASE(serve_deterministic_across_thread_counts) {
  Rng rng(34);
  const Built b = build("grid", 2304, 0.3, rng);  // 48x48, n <= 4k
  // Uniform + zipf mix, including u == v queries.
  std::vector<std::pair<int, int>> queries;
  const ZipfSampler zipf(b.g.n(), 1.0);
  for (int i = 0; i < 20000; ++i) {
    if (i % 3 == 0) {
      queries.emplace_back(zipf.sample(rng), zipf.sample(rng));
    } else {
      queries.emplace_back(static_cast<int>(rng.next_below(b.g.n())),
                           static_cast<int>(rng.next_below(b.g.n())));
    }
  }
  // Serial per-query loop is the reference output.
  std::vector<int> expect(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expect[i] = apps::flat_route_hops(b.flat, queries[i].first,
                                      queries[i].second);
  }
  // 20000 queries are several kServeGrain chunks, so the pool fans out.
  CHECK(static_cast<std::int64_t>(queries.size()) > 4 * apps::kServeGrain);
  for (int threads : {1, 2, 0}) {  // 0 = hardware_concurrency
    congest::ShardPool pool(threads);
    std::vector<int> out;
    apps::serve_route_queries(b.flat, queries, out, &pool);
    CHECK_MSG(out == expect, "threads=" + std::to_string(pool.threads()));
  }
  // No pool at all is the inline serial path.
  std::vector<int> out;
  apps::serve_route_queries(b.flat, queries, out, nullptr);
  CHECK(out == expect);
}

TEST_CASE(cross_component_queries_undeliverable_in_both_engines) {
  Rng rng(35);
  const Graph g = disjoint_union(cycle_graph(40), path_graph(30));
  const decomp::EdtDecomposition edt = decomp::build_edt_decomposition(g, 0.4);
  const oracles::PointerRoutingScheme scheme =
      oracles::build_pointer_routing(g, edt.clustering);
  const apps::FlatRoutingTables flat =
      apps::build_routing_scheme(g, edt.clustering);
  int cross = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int u = static_cast<int>(rng.next_below(g.n()));
    const int v = static_cast<int>(rng.next_below(g.n()));
    const int rh = oracles::pointer_route_hops(scheme, u, v);
    const int fh = apps::flat_route_hops(flat, u, v);
    CHECK(rh == fh);
    const bool same_side = (u < 40) == (v < 40);
    if (!same_side) {
      CHECK(fh == -1);
      ++cross;
    } else {
      CHECK(fh >= 0);
    }
  }
  CHECK(cross > 0);  // the sweep really exercised cross-component pairs
}

TEST_CASE(flat_build_matches_pointer_oracle) {
  Rng rng(36);
  for (const char* fam : kFamilies) {
    for (double eps : {0.5, 0.25}) {
      const Graph g = bench::make_family(fam, 600, rng);
      check_matches_oracle(
          g, decomp::build_edt_decomposition(g, eps).clustering,
          std::string(fam) + " eps=" + Table::num(eps, 2));
    }
  }
  // Degenerate inputs: one vertex, two components, every vertex its own
  // cluster (the cluster graph is the graph itself).
  const Graph single = path_graph(1);
  check_matches_oracle(
      single, decomp::build_edt_decomposition(single, 0.5).clustering,
      "1-vertex path");
  const Graph two = disjoint_union(cycle_graph(40), path_graph(30));
  check_matches_oracle(
      two, decomp::build_edt_decomposition(two, 0.4).clustering,
      "cycle + path");
  const Graph grid = bench::make_family("grid", 100, rng);
  decomp::Clustering singletons;
  singletons.k = grid.n();
  for (int v = 0; v < grid.n(); ++v) singletons.cluster.push_back(v);
  check_matches_oracle(grid, singletons, "all-singleton grid");
}

TEST_CASE(out_of_range_endpoints_undeliverable) {
  Rng rng(37);
  const Built b = build("grid", 64, 0.3, rng);  // 8x8
  const int n = b.flat.n;
  const std::vector<int> bad = {-1, n, INT_MAX};
  std::vector<std::pair<int, int>> queries;
  for (int x : bad) {
    for (int y : {0, 1, n - 1}) {
      queries.emplace_back(x, y);
      queries.emplace_back(y, x);
    }
    queries.emplace_back(x, x);
  }
  queries.emplace_back(0, n - 1);  // one in-range pair still delivers
  std::vector<int> path;
  for (std::size_t i = 0; i + 1 < queries.size(); ++i) {
    path.clear();
    const auto [u, v] = queries[i];
    CHECK_MSG(apps::flat_route_hops(b.flat, u, v, &path) == -1,
              std::to_string(u) + " -> " + std::to_string(v));
    CHECK(path.empty());
  }
  congest::ShardPool pool(2);
  for (congest::ShardPool* p : {static_cast<congest::ShardPool*>(nullptr),
                                &pool}) {
    std::vector<int> out;
    apps::serve_route_queries(b.flat, queries, out, p);
    CHECK(out.size() == queries.size());
    for (std::size_t i = 0; i + 1 < out.size(); ++i) CHECK(out[i] == -1);
    CHECK(out.back() == apps::flat_route_hops(b.flat, 0, n - 1));
    CHECK(out.back() >= 14);  // the grid's corner-to-corner distance
  }
}
