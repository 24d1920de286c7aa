// Decomposition invariants for EDT (Cor 6.1), MPX13 and CHW08 on grid and
// random planar graphs at eps in {0.2, 0.4}:
//   * clusters partition V and induce connected subgraphs,
//   * cut fraction <= eps (deterministic for EDT/CHW; averaged over 5 seeds
//     for the randomized MPX),
//   * max cluster diameter respects each algorithm's advertised bound shape:
//     O(1/eps) for EDT, O(log_{1+eps} m) balls for CHW, O(log n / eps) for MPX.
#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "decomp/edt.hpp"
#include "decomp/ldd_chw.hpp"
#include "decomp/ldd_mpx.hpp"
#include "test_main.hpp"

using namespace mfd;
using namespace mfd::decomp;
using mfd::bench::make_family;

namespace {

constexpr int kN = 1024;

void check_partition(const Graph& g, const Clustering& c,
                     const ClusterQuality& q, const std::string& ctx) {
  CHECK_MSG(is_valid_partition(g, c), ctx);
  CHECK_MSG(c.k >= 1, ctx);
  CHECK_MSG(q.clusters_connected, ctx + ": cluster induces disconnected subgraph");
}

void run_edt(const std::string& fam) {
  Rng rng(23);
  // Triangulation-based planar families have O(log n) diameter, below the
  // chopping band width — EDT would return the identity clustering and the
  // test would be vacuous. Use a near-tree random planar graph (diameter
  // ~sqrt(n)) so the decomposition actually has to cut.
  const Graph g = fam == "planar" ? random_planar(4096, 4096 + 81, rng)
                                  : make_family(fam, kN, rng);
  for (double eps : {0.2, 0.4}) {
    const std::string ctx = "edt/" + fam + "/eps=" + Table::num(eps, 1);
    const EdtDecomposition d = build_edt_decomposition(g, eps);
    check_partition(g, d.clustering, d.quality, ctx);
    CHECK_MSG(d.quality.eps_fraction <= eps + 1e-12, ctx);
    // D = O(1/eps); the simulation's constant is ~4 band widths.
    const double bound = 20.0 / eps + 10.0;
    CHECK_MSG(d.quality.max_diameter <= bound, ctx + ": D=" +
                  Table::integer(d.quality.max_diameter));
    CHECK_MSG(d.iterations >= 1, ctx + ": decomposition never chopped");
    CHECK_MSG(d.clustering.k > 1, ctx);
    CHECK_MSG(d.ledger.total() > 0, ctx);
    CHECK_MSG(d.T_measured > 0, ctx);
    CHECK_MSG(d.iterations <= 8, ctx);
  }
}

void run_chw(const std::string& fam) {
  Rng rng(29);
  const Graph g = make_family(fam, kN, rng);
  for (double eps : {0.2, 0.4}) {
    const std::string ctx = "chw/" + fam + "/eps=" + Table::num(eps, 1);
    const ChwLdd d = ldd_chw_local_model(g, eps, 3);
    check_partition(g, d.clustering, d.quality, ctx);
    CHECK_MSG(d.quality.eps_fraction <= eps + 1e-12, ctx);
    // Ball radius <= log_{1+eps} m + 2, diameter twice that.
    const double bound =
        2.0 * (std::log(static_cast<double>(g.m())) / std::log1p(eps) + 2.0);
    CHECK_MSG(d.quality.max_diameter <= bound, ctx + ": D=" +
                  Table::integer(d.quality.max_diameter));
    CHECK_MSG(d.ledger.total() > 0, ctx);
  }
}

void run_mpx(const std::string& fam) {
  Rng rng(31);
  const Graph g = make_family(fam, kN, rng);
  for (double eps : {0.2, 0.4}) {
    const std::string ctx = "mpx/" + fam + "/eps=" + Table::num(eps, 1);
    Accumulator frac;
    for (int s = 0; s < 5; ++s) {
      const MpxLdd d = ldd_mpx(g, eps, rng);
      check_partition(g, d.clustering, d.quality, ctx);
      frac.add(d.quality.eps_fraction);
      // Radius <= max shift <= 2 ln n / (eps/2); diameter twice that, plus
      // slack for the fractional-start rounding.
      const double bound = 8.0 * std::log(static_cast<double>(g.n())) / eps + 8.0;
      CHECK_MSG(d.quality.max_diameter <= bound, ctx + ": D=" +
                    Table::integer(d.quality.max_diameter));
      CHECK_MSG(d.rounds > 0, ctx);
    }
    // Randomized guarantee holds in expectation: average with 25% slack.
    CHECK_MSG(frac.mean() <= eps * 1.25,
              ctx + ": mean cut " + Table::num(frac.mean(), 3));
  }
}

}  // namespace

TEST_CASE(quality_on_known_graph) {
  // Two triangles {0,1,2} and {3,4,5} joined by the edge 2-3.
  const Graph g = Graph::from_edges(
      6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}});
  Clustering c;
  c.k = 2;
  c.cluster = {0, 0, 0, 1, 1, 1};
  const ClusterQuality q = evaluate_clustering(g, c);
  CHECK(q.cut_edges == 1);
  CHECK(std::abs(q.eps_fraction - 1.0 / 7.0) < 1e-12);
  CHECK(q.max_diameter == 1);
  CHECK(q.clusters_connected);
  CHECK(q.max_cluster_size == 3);
}

TEST_CASE(clustering_compact) {
  Clustering c;
  c.cluster = {5, 9, 5, 2, 9};
  c.k = 10;
  c.compact();
  CHECK(c.k == 3);
  CHECK((c.cluster == std::vector<int>{1, 2, 1, 0, 2}));

  // The rank pass against the sort + lower_bound formula it replaced, on
  // gaps, all-equal ids, n = 0, and ids at or above the incoming k (k is
  // not a precondition: the pass sizes itself from the largest id).
  const auto by_sort = [](std::vector<int> ids) {
    std::vector<int> sorted(ids);
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    for (int& id : ids) {
      id = static_cast<int>(
          std::lower_bound(sorted.begin(), sorted.end(), id) - sorted.begin());
    }
    return std::make_pair(ids, static_cast<int>(sorted.size()));
  };
  struct Case {
    std::vector<int> ids;
    int k;
  };
  const Case cases[] = {{{0, 40, 7, 40, 1000, 7, 3}, 1001},
                        {{4, 4, 4, 4}, 5},
                        {{}, 0},
                        {{}, 3},
                        {{0}, 1},
                        {{12, 3, 99, 3}, 4},
                        {{6, 5, 4, 3, 2, 1, 0}, 0}};
  for (const Case& cs : cases) {
    Clustering d;
    d.cluster = cs.ids;
    d.k = cs.k;
    d.compact();
    const auto [want, want_k] = by_sort(cs.ids);
    CHECK(d.cluster == want);
    CHECK(d.k == want_k);
  }
}

TEST_CASE(edt_grid) { run_edt("grid"); }
TEST_CASE(edt_planar) { run_edt("planar"); }
TEST_CASE(chw_grid) { run_chw("grid"); }
TEST_CASE(chw_planar) { run_chw("planar"); }
TEST_CASE(mpx_grid) { run_mpx("grid"); }
TEST_CASE(mpx_planar) { run_mpx("planar"); }

TEST_CASE(edt_deterministic) {
  Rng r1(37), r2(37);
  const Graph a = make_family("planar", 512, r1);
  const Graph b = make_family("planar", 512, r2);
  const EdtDecomposition da = build_edt_decomposition(a, 0.3);
  const EdtDecomposition db = build_edt_decomposition(b, 0.3);
  CHECK(da.clustering.cluster == db.clustering.cluster);
  CHECK(da.quality.cut_edges == db.quality.cut_edges);
  CHECK(da.ledger.total() == db.ledger.total());
}
