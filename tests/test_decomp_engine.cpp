// Decomposition-engine invariants across the new Section-4 pipeline:
//   * EDT and the global-BFS chop baseline: both meet the hard ε budget
//     with connected clusters; the local engine's rounds stay diameter-free
//     while the global chop pays BFS depth; both are deterministic,
//   * (ε, φ) expander decomposition: valid partition, certified φ > 0,
//     cut fraction within budget, deterministic,
//   * (ε, φ, c) overlap decomposition: supports connected, overlap c
//     bounded by the level cap, uncovered fraction <= ε,
//   * evaluate_clustering: the sampled-eccentricity estimator is a lower
//     bound of (and close to) the exact diameter of
//     oracles::cluster_diameters_by_bfs, and cut counts agree exactly,
//   * golden outputs: the integer (and exact-quotient) outputs of every
//     decomposition, certification and gather entry point on fixed
//     instances.
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "decomp/cs22_baseline.hpp"
#include "decomp/edt.hpp"
#include "decomp/expander_decomp.hpp"
#include "decomp/ldd_chop.hpp"
#include "decomp/overlap_decomp.hpp"
#include "expander/cut_matching.hpp"
#include "expander/load_balance.hpp"
#include "expander/rw_routing.hpp"
#include "expander/split.hpp"
#include "graph/ops.hpp"
#include "oracles.hpp"
#include "test_main.hpp"

using namespace mfd;
using namespace mfd::decomp;
using mfd::bench::make_family;

TEST_CASE(edt_chop_modes_both_meet_budget) {
  Rng rng(23);
  const Graph g = make_family("grid", 1024, rng);
  for (const bool chop : {false, true}) {
    const std::string ctx = chop ? "global" : "local";
    for (double eps : {0.2, 0.4}) {
      const EdtDecomposition d = chop ? ldd_global_chop(g, eps)
                                      : build_edt_decomposition(g, eps);
      CHECK_MSG(is_valid_partition(g, d.clustering), ctx);
      CHECK_MSG(d.quality.clusters_connected, ctx);
      CHECK_MSG(d.quality.eps_fraction <= eps + 1e-12, ctx);
      CHECK_MSG(d.quality.max_diameter <= 20.0 / eps + 10.0, ctx);
      CHECK_MSG(d.clustering.k > 1, ctx);
      CHECK_MSG(d.T_measured > 0, ctx);
    }
  }
}

TEST_CASE(edt_local_rounds_beat_global_chop) {
  // On a 64x64 grid the chop pays ~sqrt(n) BFS depth per pass; the local
  // engine pays log* n + O(1/eps) per iteration.
  Rng rng(3);
  const Graph g = make_family("grid", 4096, rng);
  const EdtDecomposition dl = build_edt_decomposition(g, 0.3);
  const EdtDecomposition dg = ldd_global_chop(g, 0.3);
  CHECK_MSG(dl.ledger.total() < dg.ledger.total(),
            "local " + std::to_string(dl.ledger.total()) + " vs global " +
                std::to_string(dg.ledger.total()));
}

TEST_CASE(edt_local_deterministic) {
  Rng r1(37), r2(37);
  const Graph a = make_family("planar", 512, r1);
  const Graph b = make_family("planar", 512, r2);
  const EdtDecomposition da = build_edt_decomposition(a, 0.3);
  const EdtDecomposition db = build_edt_decomposition(b, 0.3);
  CHECK(da.clustering.cluster == db.clustering.cluster);
  CHECK(da.ledger.total() == db.ledger.total());
}

TEST_CASE(expander_decomp_certified) {
  Rng rng(4);
  const Graph g = make_family("grid", 1024, rng);
  for (double eps : {0.6, 0.4}) {
    const std::string ctx = "eps=" + Table::num(eps, 1);
    const ExpanderDecomp ed = expander_decomposition_minor_free(g, eps);
    CHECK_MSG(is_valid_partition(g, ed.clustering), ctx);
    const ClusterQuality q = evaluate_clustering(g, ed.clustering);
    CHECK_MSG(q.clusters_connected, ctx);
    CHECK_MSG(q.eps_fraction <= eps + 1e-12, ctx + ": cut budget");
    CHECK_MSG(ed.phi_target > 0.0, ctx);
    const PartCertifyReport rep =
        certify_parts(g, cluster_members(ed.clustering));
    CHECK_MSG(rep.ok, ctx + ": " + rep.violation);
    CHECK_MSG(rep.min_phi_estimate > 0.0, ctx + ": certificate");
    CHECK_MSG(ed.ledger.total() > 0, ctx);
  }
  // Determinism: no Rng flows into the pipeline.
  const ExpanderDecomp a = expander_decomposition_minor_free(g, 0.5);
  const ExpanderDecomp b = expander_decomposition_minor_free(g, 0.5);
  CHECK(a.clustering.cluster == b.clustering.cluster);
  const PartCertifyReport ra = certify_parts(g, cluster_members(a.clustering));
  const PartCertifyReport rb = certify_parts(g, cluster_members(b.clustering));
  CHECK(ra.min_phi_lower == rb.min_phi_lower);
  CHECK(ra.min_phi_estimate == rb.min_phi_estimate);
}

TEST_CASE(overlap_decomp_bounds) {
  Rng rng(4);
  const Graph g = make_family("grid", 1024, rng);
  for (double eps : {0.5, 0.25, 0.15}) {
    const std::string ctx = "eps=" + Table::num(eps, 2);
    const OverlapDecompResult od = overlap_expander_decomposition(g, eps);
    const OverlapQuality q = evaluate_overlap(g, od.oc);
    CHECK_MSG(q.base.clusters_connected, ctx + ": supports connected");
    CHECK_MSG(q.base.eps_fraction <= eps + 1e-12, ctx + ": uncovered");
    const int c_cap = static_cast<int>(std::ceil(std::log2(1.0 / eps))) + 2;
    CHECK_MSG(q.overlap_c >= 1 && q.overlap_c <= c_cap,
              ctx + ": c=" + std::to_string(q.overlap_c));
    CHECK_MSG(od.iterations >= 1 && od.iterations <= c_cap, ctx);
    const PartCertifyReport rep = certify_parts(g, od.oc.members);
    CHECK_MSG(rep.ok, ctx + ": " + rep.violation);
    CHECK_MSG(rep.min_phi_lower > 0.0, ctx);
    // Every cluster member id is a real vertex.
    for (const auto& mem : od.oc.members) {
      CHECK_MSG(!mem.empty(), ctx);
      for (int v : mem) CHECK_MSG(v >= 0 && v < g.n(), ctx);
    }
  }
}

TEST_CASE(evaluate_clustering_sampled_vs_exact) {
  // One big path cluster: sampled eccentricity must equal the exact
  // diameter on trees (double sweep is exact there), and in general stay a
  // lower bound that agrees on cut accounting.
  const Graph path = path_graph(500);
  Clustering one;
  one.k = 1;
  one.cluster.assign(500, 0);
  const ClusterQuality qe = oracles::cluster_diameters_by_bfs(path, one);
  const ClusterQuality qs = evaluate_clustering(path, one);  // 500 > cap
  CHECK(qe.max_diameter == 499);
  CHECK(qs.max_diameter == 499);
  CHECK(qe.cut_edges == qs.cut_edges);

  // An LDD's clusters all fit the exact masks: every field matches.
  Rng rng(8);
  const Graph g = make_family("grid", 2048, rng);
  const EdtDecomposition d = build_edt_decomposition(g, 0.3);
  const ClusterQuality a = oracles::cluster_diameters_by_bfs(g, d.clustering);
  const ClusterQuality b = evaluate_clustering(g, d.clustering);
  CHECK(a.max_cluster_size <= kEvalExactCap);
  CHECK(a.max_diameter == b.max_diameter);
  CHECK(a.cut_edges == b.cut_edges);
  CHECK(a.clusters_connected == b.clusters_connected);

  // 8x16 blocks of the same 46x46 grid: every cluster (84..128 vertices)
  // is above the exact cap, so every diameter is sampled.
  const int side = 46;
  Clustering blocks;
  blocks.k = (side / 8 + 1) * (side / 16 + 1);
  for (int v = 0; v < side * side; ++v) {
    blocks.cluster.push_back((v / side / 8) * (side / 16 + 1) +
                             (v % side) / 16);
  }
  const ClusterQuality be = oracles::cluster_diameters_by_bfs(g, blocks);
  const ClusterQuality bs = evaluate_clustering(g, blocks);
  CHECK(g.n() == side * side);
  CHECK(be.max_cluster_size == 128 && bs.max_cluster_size == 128);
  CHECK(be.cut_edges == bs.cut_edges);
  CHECK(be.clusters_connected && bs.clusters_connected);
  CHECK_MSG(bs.max_diameter <= be.max_diameter, "estimate exceeded exact");
  CHECK_MSG(2 * bs.max_diameter >= be.max_diameter, "estimate below 2x bound");
}

namespace {

struct LedgerPin {
  std::int64_t rounds, messages, peak;
};

void check_ledger(const congest::Runtime& r, const LedgerPin& pin,
                  const std::string& ctx) {
  CHECK_MSG(r.total() == pin.rounds,
            ctx + ": rounds " + std::to_string(r.total()));
  CHECK_MSG(r.total_messages() == pin.messages,
            ctx + ": messages " + std::to_string(r.total_messages()));
  CHECK_MSG(r.peak_congestion() == pin.peak,
            ctx + ": peak " + std::to_string(r.peak_congestion()));
}

// value repeated count times, run after run.
std::vector<int> runs(const std::vector<std::pair<int, int>>& value_count) {
  std::vector<int> out;
  for (const auto& [value, count] : value_count) {
    out.insert(out.end(), count, value);
  }
  return out;
}

}  // namespace

TEST_CASE(golden_entry_point_outputs) {
  // One fixed small instance per entry point, integer outputs and exact
  // quotients only, so g++ and clang++ agree (the one rounded value, the
  // Rayleigh estimate, gets a 1e-12 band): any change to a default, a
  // constant or a fold shows up here as a diff.
  const Graph grid = grid_graph(8, 8);
  const std::vector<int> edt_labels = {
      0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1,
      0, 0, 0, 2, 1, 1, 1, 3, 4, 4, 4, 4, 5, 5, 5, 5, 4, 4, 4, 4, 5, 5, 5, 5,
      4, 4, 6, 6, 5, 5, 7, 7, 4, 4, 6, 6, 5, 5, 7, 7};
  {
    const EdtDecomposition d = build_edt_decomposition(grid, 0.3);
    CHECK(d.clustering.cluster == edt_labels);
    CHECK(d.clustering.k == 8);
    CHECK(d.quality.cut_edges == 28);
    CHECK(d.quality.max_diameter == 6);
    CHECK(d.T_measured == 15);
    CHECK(d.iterations == 3);
    CHECK(d.merges == 56);
    check_ledger(d.ledger, {86, 9639, 6}, "edt");
  }
  {
    // bench_ablation's path + ladder composite at toy size: a 30-vertex
    // path glued to a 4 x 16 grid. c = 32 and c = 512 admit the same merges.
    std::vector<std::pair<int, int>> es;
    for (int v = 0; v + 1 < 30; ++v) es.emplace_back(v, v + 1);
    for (const auto& [u, v] : grid_graph(4, 16).edges()) {
      es.emplace_back(30 + u, 30 + v);
    }
    es.emplace_back(29, 30);
    const Graph g = Graph::from_edges(94, es);
    struct ChopPin {
      double c;
      std::vector<int> labels;
      std::int64_t cut;
      int diameter, T, merges;
      LedgerPin ledger;
    };
    const std::vector<int> two = runs({{0, 25}, {1, 69}});
    const ChopPin pins[] = {
        {8.0, runs({{0, 1}, {1, 12}, {2, 12}, {3, 69}}), 3, 23, 32, 1,
         {227, 15662, 1}},
        {32.0, two, 1, 24, 33, 3, {228, 16080, 1}},
        {512.0, two, 1, 24, 33, 3, {228, 16080, 1}}};
    for (const ChopPin& pin : pins) {
      const std::string ctx = "chop c=" + std::to_string(pin.c);
      const EdtDecomposition d = ldd_global_chop(g, 0.25, pin.c);
      CHECK_MSG(d.clustering.cluster == pin.labels, ctx);
      CHECK_MSG(d.clustering.k == pin.labels.back() + 1, ctx);
      CHECK_MSG(d.quality.cut_edges == pin.cut, ctx);
      CHECK_MSG(d.quality.max_diameter == pin.diameter, ctx);
      CHECK_MSG(d.T_measured == pin.T, ctx);
      CHECK_MSG(d.iterations == 1, ctx);
      CHECK_MSG(d.merges == pin.merges, ctx);
      check_ledger(d.ledger, pin.ledger, ctx);
    }
  }
  {
    // The split stage cuts nothing here, so the clusters are EDT's at ε/2.
    // The pinned ledger is the construction's followed by certify_parts'.
    const ExpanderDecomp ed = expander_decomposition_minor_free(grid, 0.5);
    CHECK(ed.clustering.cluster == edt_labels);
    CHECK(ed.clustering.k == 8);
    CHECK(ed.clusters_split == 0);
    const PartCertifyReport rep =
        certify_parts(grid, cluster_members(ed.clustering));
    CHECK(rep.clusters_certified == 8);
    CHECK(rep.clusters_estimated == 0);
    CHECK(rep.ok);
    congest::Runtime ledger = ed.ledger;
    ledger.absorb(rep.ledger);
    check_ledger(ledger, {524, 28703, 6}, "expander decomp");
  }
  {
    const OverlapDecompResult od = overlap_expander_decomposition(grid, 0.15);
    // Vertex v's first and second cluster (-1 when absent) at 2v, 2v + 1.
    std::vector<int> labels(2 * grid.n(), -1);
    for (int c = 0; c < od.oc.k(); ++c) {
      for (int v : od.oc.members[c]) labels[2 * v + (labels[2 * v] >= 0)] = c;
    }
    const std::vector<int> expected = {
        0,  -1, 0,  -1, 0,  -1, 0,  8,  1,  8,  1,  -1, 1,  -1, 1,  -1,
        0,  -1, 0,  -1, 0,  -1, 0,  9,  1,  9,  1,  -1, 1,  -1, 1,  -1,
        0,  -1, 0,  -1, 0,  -1, 0,  10, 1,  10, 1,  -1, 1,  -1, 1,  13,
        0,  14, 0,  15, 0,  11, 2,  11, 1,  11, 1,  18, 1,  12, 3,  13,
        4,  14, 4,  15, 4,  16, 4,  11, 5,  17, 5,  18, 5,  12, 5,  19,
        4,  -1, 4,  -1, 4,  21, 4,  20, 5,  20, 5,  -1, 5,  23, 5,  24,
        4,  -1, 4,  21, 6,  21, 6,  22, 5,  22, 5,  23, 7,  23, 7,  24,
        4,  -1, 4,  25, 6,  25, 6,  26, 5,  26, 5,  27, 7,  27, 7,  -1};
    CHECK(labels == expected);
    CHECK(od.oc.k() == 28);
    CHECK(od.iterations == 2);
    CHECK(od.uncovered_edges == 7);
    const PartCertifyReport rep = certify_parts(grid, od.oc.members);
    CHECK(rep.clusters_certified == 28);
    CHECK(rep.clusters_estimated == 0);
    const OverlapQuality q = evaluate_overlap(grid, od);
    CHECK(q.overlap_c == 2);
    CHECK(q.base.cut_edges == 7);
    CHECK(q.base.max_diameter == 5);
    congest::Runtime ledger = od.ledger;
    ledger.absorb(rep.ledger, "certify: ");
    check_ledger(ledger, {607, 32495, 6}, "overlap");
  }
  {
    // The certified bound alpha / (c * Delta) and the sweep cut 3/19 are
    // exact quotients; the Rayleigh estimate is pinned to 1e-12.
    const expander::PhiReport r = expander::certified_phi(grid_graph(6, 6));
    CHECK(r.cert.verdict == PhiVerdict::kCutMatching);
    CHECK(r.game_verdict == expander::CutMatchingVerdict::kCertified);
    CHECK(r.game_state_bytes == 4896);
    CHECK(r.cert.phi == 0x1.497p-7);
    CHECK(std::abs(r.estimate - 0x1.65703b7ba097p-5) <= 1e-12);
    CHECK(r.upper == 3.0 / 19.0);
    check_ledger(r.ledger, {715, 58368, 4}, "certified_phi");
  }
  {
    // Pipebench's path: the game's target pinned to 0.02. On this tree the
    // matching player gets stuck, so the headline stays the Cheeger
    // estimate and the upper bound is the game's witnessed cut, 1/187.
    Rng rng(311);
    const Graph tree = make_family("tree", 300, rng);
    expander::PhiCertParams pc;
    pc.game.phi_target = 0.02;
    const expander::PhiReport r = expander::certified_phi(tree, pc);
    CHECK(r.cert.verdict == PhiVerdict::kCheeger);
    CHECK(r.game_verdict == expander::CutMatchingVerdict::kSparseCut);
    CHECK(r.game_state_bytes == 172800);
    CHECK(r.cert.phi == r.estimate);
    CHECK(std::abs(r.estimate - 0x1.7e3ab513399b9p-8) <= 1e-12);
    CHECK(r.upper == 1.0 / 187.0);
    check_ledger(r.ledger, {844, 265840, 38}, "certified_phi target");
  }
  {
    Rng rng(7);
    const expander::ExpanderSplit sp =
        expander::expander_split(add_apex(cycle_graph(20)), rng);
    const expander::RwResult rw = expander::gather_random_walks(sp, 20, 0.1);
    const std::vector<int> route = {
        20, 20, 1,  1,  20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20,
        20, 20, 20, 20, 20, 20, 20, 5,  20, 9,  8,  20, 20, 20, 20,
        20, 20, 20, 11, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 13,
        20, 16, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20, 20};
    CHECK(rw.route == route);
    CHECK(rw.rounds == 20);
    CHECK(rw.schedule.seed == 10305275515898613374ULL);
    CHECK(rw.schedule.seed_tries == 1);
    CHECK(rw.schedule.walks == 60);
    CHECK(rw.walk_length == 208);
    check_ledger(rw.ledger, {20, 163, 4}, "random walks");

    const expander::LoadBalanceResult lb =
        expander::gather_load_balance(sp, 20, 0.1);
    CHECK(lb.rounds == 510);
    CHECK(lb.outer_iterations == 6);
    CHECK(lb.max_load == 3);
    CHECK(lb.splits_used == 3);
    CHECK(!lb.stalled);
    check_ledger(lb.ledger, {510, 540, 1}, "load balance");
  }
  {
    Rng rng(7);
    const Cs22Result cs = cs22_decompose_and_route(grid, 0.8, rng);
    const std::vector<int> labels = {
        1, 1, 1, 1, 2, 2, 2, 2, 1, 1, 1, 1, 2, 2, 2, 2, 1, 1, 1, 1, 2, 2, 2, 2,
        1, 1, 1, 1, 2, 2, 2, 2, 0, 0, 0, 0, 3, 3, 3, 3, 0, 0, 0, 0, 3, 3, 3, 3,
        0, 0, 0, 0, 3, 3, 3, 3, 0, 0, 0, 0, 3, 3, 3, 3};
    CHECK(cs.clustering.cluster == labels);
    CHECK(cs.clustering.k == 4);
    CHECK(cs.quality.cut_edges == 16);
    CHECK(cs.quality.max_diameter == 6);
    CHECK(cs.T_measured == 36);
    check_ledger(cs.ledger, {37, 8288, 1}, "cs22");

    // A certificate under the routing floor: T = log2(vol + 2) / floor =
    // 11 / 0.02 on this 1024-vertex tree's one cluster.
    Rng tree_rng(11);
    const Graph tree = make_family("tree", 1024, tree_rng);
    Rng cs_rng(7);
    const Cs22Result floored = cs22_decompose_and_route(tree, 0.05, cs_rng);
    CHECK(floored.clustering.k == 1);
    CHECK(floored.phi_certified < kRoutingPhiFloor);
    CHECK(floored.T_measured == 550);
    check_ledger(floored.ledger, {551, 1127346, 1}, "cs22 floored");
  }
}
