// Heavy-stars (Lemma 4.2/4.3) and local-LDD (Theorem 1.1 pipeline)
// invariants:
//   * captured weight clears the 1/(8α) floor on weighted trees and grids
//     (α = 1 for trees, 2 for grids) across weight regimes and seeds,
//   * marked trees never exceed depth 4 (the implementation stays <= 2),
//   * star labels are consistent with kept_parent and captured_weight
//     matches the marked edges,
//   * WeightedGraph keeps 32-bit arc weights up to INT32_MAX and rejects a
//     merged weight outside int32_t,
//   * heavy_stars and build_edt_decomposition (the local pipeline at its
//     production guard 2w) are deterministic,
//   * the local pipeline meets its hard ε cut budget with strong diameter
//     <= 4w per guard doubling and connected clusters, while charging rounds
//     that do not scale with the graph diameter (sub-√n on grids).
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "decomp/edt.hpp"
#include "decomp/heavy_stars.hpp"
#include "test_main.hpp"

using namespace mfd;
using namespace mfd::decomp;
using mfd::bench::make_family;

namespace {

WeightedGraph weighted_copy(const Graph& g, Rng* rng) {
  std::vector<WeightedEdge> edges;
  for (const auto& [u, v] : g.edges()) {
    const std::int64_t w =
        rng == nullptr ? 1
                       : 1 + static_cast<std::int64_t>(rng->next_below(100));
    edges.push_back({u, v, w});
  }
  return WeightedGraph(g.n(), std::move(edges));
}

void check_star_consistency(const WeightedGraph& g, const HeavyStarsResult& hs,
                            const std::string& ctx) {
  // The construction's depth (2-cycle partner plus one leaf layer), inside
  // Lemma 4.3's budget of 4; ldd_local's merge walk runs one pass per level.
  CHECK_MSG(hs.max_marked_depth <= 2, ctx + ": marked depth");
  // Every vertex's star is the top of its kept_parent chain, depth counts
  // the chain's hops, and the captured weight equals the sum over marked
  // edges.
  std::int64_t marked = 0;
  for (int v = 0; v < g.n(); ++v) {
    const int p = hs.kept_parent[v];
    CHECK_MSG(hs.depth[v] <= hs.max_marked_depth, ctx + ": depth above max");
    if (p >= 0) {
      CHECK_MSG(hs.star[v] == hs.star[p], ctx + ": star label mismatch");
      CHECK_MSG(hs.depth[v] == hs.depth[p] + 1, ctx + ": depth of child");
      std::int64_t w = 0;
      for (const auto& a : g.arcs(v)) {
        if (a.to == p) w = a.w;
      }
      CHECK_MSG(w > 0, ctx + ": kept edge not in graph");
      marked += w;
    } else {
      CHECK_MSG(hs.star[v] == v, ctx + ": root labels itself");
      CHECK_MSG(hs.depth[v] == 0, ctx + ": root depth");
    }
  }
  CHECK_MSG(marked == hs.captured_weight, ctx + ": captured accounting");
  CHECK_MSG(hs.cv_rounds > 0 && hs.ledger.total() > hs.cv_rounds,
            ctx + ": rounds");
}

void run_capture_floor(const std::string& fam, int alpha) {
  for (int seed : {3, 11, 42}) {
    Rng rng(seed);
    const Graph g = make_family(fam, 1200, rng);
    for (const bool weighted : {false, true}) {
      const std::string ctx = fam + "/seed=" + std::to_string(seed) +
                              (weighted ? "/rand" : "/unit");
      Rng wrng(seed + 7);
      const WeightedGraph cg = weighted_copy(g, weighted ? &wrng : nullptr);
      const HeavyStarsResult hs = heavy_stars(cg);
      check_star_consistency(cg, hs, ctx);
      const double frac = static_cast<double>(hs.captured_weight) /
                          static_cast<double>(hs.total_weight);
      CHECK_MSG(frac >= 1.0 / (8.0 * alpha),
                ctx + ": capture " + Table::num(frac, 3));
    }
  }
}

}  // namespace

TEST_CASE(heavy_stars_capture_floor_tree) { run_capture_floor("tree", 1); }
TEST_CASE(heavy_stars_capture_floor_grid) { run_capture_floor("grid", 2); }

TEST_CASE(heavy_stars_deterministic) {
  Rng r1(9), r2(9);
  const Graph a = make_family("planar", 800, r1);
  const Graph b = make_family("planar", 800, r2);
  Rng w1(13), w2(13);
  const HeavyStarsResult ha = heavy_stars(weighted_copy(a, &w1));
  const HeavyStarsResult hb = heavy_stars(weighted_copy(b, &w2));
  CHECK(ha.star == hb.star);
  CHECK(ha.captured_weight == hb.captured_weight);
  CHECK(ha.cv_rounds == hb.cv_rounds);
}

TEST_CASE(heavy_stars_two_vertices) {
  // Mutual picks form the 2-cycle; the single edge must be captured.
  const WeightedGraph g(2, {{0, 1, 7}});
  const HeavyStarsResult hs = heavy_stars(g);
  CHECK(hs.captured_weight == 7);
  CHECK(hs.total_weight == 7);
  CHECK(hs.star[0] == hs.star[1]);
  CHECK(hs.stars == 1);
  CHECK(hs.max_marked_depth == 1);
}

TEST_CASE(weighted_graph_int32_weights) {
  // Arc weights are 32-bit: INT32_MAX itself is kept, a merged sum past it
  // (or any weight outside int32_t) is rejected instead of wrapping.
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  const WeightedGraph g(3, {{0, 1, kMax}, {1, 2, 1}});
  CHECK(g.arcs(0).begin()->w == kMax);
  CHECK(g.total_weight() == kMax + 1);
  const HeavyStarsResult hs = heavy_stars(g);
  CHECK(hs.captured_weight == kMax + 1);
  const auto rejects = [](std::vector<WeightedEdge> edges) {
    try {
      const WeightedGraph bad(3, std::move(edges));
    } catch (const std::invalid_argument&) {
      return true;
    }
    return false;
  };
  CHECK(rejects({{0, 1, kMax}, {1, 0, 1}}));  // duplicates merge past the cap
  CHECK(rejects({{1, 2, kMax + 1}}));
  CHECK(rejects({{1, 2, -kMax - 2}}));
  CHECK(!rejects({{0, 1, kMax}, {1, 2, kMax}}));  // the cap is per edge
}

TEST_CASE(ldd_local_budget_and_diameter) {
  Rng rng(23);
  for (const char* fam : {"grid", "tree"}) {
    const Graph g = make_family(fam, 2048, rng);
    for (double eps : {0.2, 0.4}) {
      const std::string ctx =
          std::string(fam) + "/eps=" + Table::num(eps, 1);
      const EdtDecomposition d = build_edt_decomposition(g, eps);
      CHECK_MSG(is_valid_partition(g, d.clustering), ctx);
      CHECK_MSG(d.quality.clusters_connected, ctx + ": connectivity");
      CHECK_MSG(d.quality.eps_fraction <= eps + 1e-12, ctx + ": budget");
      // The guard 2w keeps D <= 4w; each stall doubles it.
      int stalls = 0;
      std::int64_t cv_rounds = 0;
      for (const congest::RoundCharge& e : d.ledger.entries()) {
        if (e.phase.find("stalled, ecc-cap doubled") != std::string::npos) {
          ++stalls;
        }
        if (e.phase.find(": cole-vishkin") != std::string::npos) {
          cv_rounds += e.rounds;
        }
      }
      const int bound = (4 * detail::edt_band_width(eps)) << stalls;
      CHECK_MSG(d.quality.max_diameter <= bound, ctx + ": diameter vs guard");
      CHECK_MSG(d.iterations >= 1, ctx);
      CHECK_MSG(cv_rounds > 0, ctx);
    }
  }
}

TEST_CASE(ldd_local_rounds_diameter_free) {
  // The whole point of the pipeline: construction rounds must not grow like
  // the √n graph diameter. 16x more grid vertices, near-identical rounds.
  Rng rng(3);
  const Graph small = make_family("grid", 1024, rng);
  const Graph large = make_family("grid", 16384, rng);
  const EdtDecomposition ds = build_edt_decomposition(small, 0.3);
  const EdtDecomposition dl = build_edt_decomposition(large, 0.3);
  CHECK_MSG(dl.ledger.total() <= 2 * ds.ledger.total() + 64,
            "rounds grew: " + std::to_string(ds.ledger.total()) + " -> " +
                std::to_string(dl.ledger.total()));
  CHECK(dl.ledger.total() < 128);  // far under sqrt(16384) = 128
}

TEST_CASE(ldd_local_deterministic) {
  Rng r1(37), r2(37);
  const Graph a = make_family("planar", 1024, r1);
  const Graph b = make_family("planar", 1024, r2);
  const EdtDecomposition da = build_edt_decomposition(a, 0.3);
  const EdtDecomposition db = build_edt_decomposition(b, 0.3);
  CHECK(da.clustering.cluster == db.clustering.cluster);
  CHECK(da.ledger.total() == db.ledger.total());
  CHECK(da.iterations == db.iterations);
}
