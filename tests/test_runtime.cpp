// congest/runtime invariants: the instrumented CONGEST accounting engine.
//   * log_star / ceil_log2 guards at the boundary values (0, 1, 2, 2^62,
//     negatives, NaN/inf),
//   * MessageMeter counting and per-round peaks,
//   * Runtime::audit() accepts measured pipelines and flags violations,
//     and its bandwidth products stay overflow-free near 2^62,
//   * ChargeScope nesting/prefixing is exactly manual absorb-with-prefix,
//   * message conservation on hand-computable graphs (path, star, cycle),
//   * heavy-stars messages <= c*m per iteration and O(1) LDD peak
//     congestion on bounded-degree families (the regression gates),
//   * determinism: two runs produce identical charge sequences.
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "apps/approx.hpp"
#include "congest/cole_vishkin.hpp"
#include "congest/runtime.hpp"
#include "decomp/edt.hpp"
#include "decomp/heavy_stars.hpp"
#include "decomp/ldd_chop.hpp"
#include "decomp/overlap_decomp.hpp"
#include "graph/generators.hpp"
#include "test_main.hpp"

using namespace mfd;

namespace {

bool same_charges(const congest::Runtime& a, const congest::Runtime& b) {
  if (a.entries().size() != b.entries().size()) return false;
  for (std::size_t i = 0; i < a.entries().size(); ++i) {
    const congest::RoundCharge& x = a.entries()[i];
    const congest::RoundCharge& y = b.entries()[i];
    if (x.phase != y.phase || x.rounds != y.rounds ||
        x.messages != y.messages || x.max_congestion != y.max_congestion) {
      return false;
    }
  }
  return true;
}

}  // namespace

TEST_CASE(log_star_guards) {
  CHECK(congest::log_star(0.0) == 0);
  CHECK(congest::log_star(-5.0) == 0);
  CHECK(congest::log_star(1.0) == 0);
  CHECK(congest::log_star(2.0) == 1);
  CHECK(congest::log_star(16.0) == 3);
  CHECK(congest::log_star(65536.0) == 4);
  CHECK(congest::log_star(std::numeric_limits<double>::quiet_NaN()) == 0);
  CHECK(congest::log_star(std::numeric_limits<double>::infinity()) == 0);
  CHECK(congest::log_star(-std::numeric_limits<double>::infinity()) == 0);
}

TEST_CASE(ceil_log2_boundaries) {
  CHECK(congest::ceil_log2(0) == 1);
  CHECK(congest::ceil_log2(-1) == 1);
  CHECK(congest::ceil_log2(1) == 1);
  CHECK(congest::ceil_log2(2) == 1);
  CHECK(congest::ceil_log2(3) == 2);
  CHECK(congest::ceil_log2(4) == 2);
  CHECK(congest::ceil_log2(5) == 3);
  const std::int64_t big = std::int64_t{1} << 62;
  CHECK(congest::ceil_log2(big) == 62);
  CHECK(congest::ceil_log2(big + 1) == 62);  // overflow-safe clamp
  CHECK(congest::ceil_log2(std::numeric_limits<std::int64_t>::max()) == 62);
}

TEST_CASE(message_meter_counts_and_peaks) {
  congest::MessageMeter m(4);
  m.send(0);
  m.send(0);
  m.send(1);
  CHECK(m.round_peak() == 2);
  m.end_round();
  CHECK(m.round_peak() == 0);  // loads reset at the round boundary
  m.send(3);
  CHECK(m.round_peak() == 1);
  m.end_round();
  CHECK(m.rounds() == 2);
  CHECK(m.total_messages() == 4);
  CHECK(m.peak_congestion() == 2);
}

TEST_CASE(meter_zero_count_send_is_pure_query) {
  // send(s, 0) is a no-op QUERY: it must not meter anything and — the
  // regression — must not push an untouched slot into the round's touched
  // list, which previously left a stale entry that end_round() would reset
  // redundantly and, worse, let a later real send on that slot skip its own
  // touched registration path's invariants. Negative counts are the same
  // no-op (metering is monotone; nothing ever "un-sends").
  congest::MessageMeter m(4);
  CHECK(m.send(2, 0) == 0);   // query on an idle slot: current load is 0
  CHECK(m.send(2, -5) == 0);  // negative count: identical no-op query
  CHECK(m.round_peak() == 0);
  CHECK(m.total_messages() == 0);
  m.end_round();
  CHECK(m.peak_congestion() == 0);  // the query round metered nothing
  m.send(2, 3);
  CHECK(m.send(2, 0) == 3);  // query reports the open round's load
  CHECK(m.send(1, 0) == 0);  // other slots unaffected
  CHECK(m.round_peak() == 3);
  m.end_round();
  CHECK(m.send(2, 0) == 0);  // loads reset at the boundary, query agrees
  CHECK(m.total_messages() == 3);
  CHECK(m.peak_congestion() == 3);
  // Out-of-range queries are tracked nowhere and return 0.
  CHECK(m.send(-1, 0) == 0);
  CHECK(m.send(99, 0) == 0);
}

TEST_CASE(congestion_floor_identity) {
  CHECK(congest::congestion_floor(0, 5, 10) == 0);
  CHECK(congest::congestion_floor(7, 5, 10) == 1);   // fits at peak 1
  CHECK(congest::congestion_floor(50, 5, 10) == 1);  // exactly full
  CHECK(congest::congestion_floor(51, 5, 10) == 2);  // needs a second slot
}

TEST_CASE(audit_flags_violations) {
  {
    congest::Runtime r;
    r.charge("ok", 3, 6, 2);
    CHECK(r.audit().ok);
    CHECK(r.audit(2).ok);  // 6 <= 3 rounds * 2 edges * 2 peak
    CHECK(r.audit(1).ok);  // boundary: 6 == 3 rounds * 1 edge * 2 peak
  }
  {
    congest::Runtime r;
    r.charge("messages without rounds", 0, 5, 1);
    CHECK(!r.audit().ok);
  }
  {
    congest::Runtime r;
    r.charge("messages without congestion", 2, 5, 0);
    CHECK(!r.audit().ok);
  }
  {
    congest::Runtime r;
    r.charge("congestion without messages", 2, 0, 1);
    CHECK(!r.audit().ok);
  }
  {
    congest::Runtime r;
    r.charge("peak exceeds total", 1, 2, 3);
    CHECK(!r.audit().ok);
  }
  {
    congest::Runtime r;
    r.charge("bandwidth blown", 1, 100, 1);
    CHECK(r.audit().ok);        // no edge count given: inequality unchecked
    CHECK(!r.audit(10).ok);     // 100 > 1 round * 10 edges * 1 peak
  }
  {
    congest::Runtime r;
    r.charge("negative", -1);
    CHECK(!r.audit().ok);
  }
}

TEST_CASE(audit_bandwidth_inequality) {
  // The exact boundary: messages == rounds * edges * peak passes, one more
  // message fails.
  congest::Runtime ok;
  ok.charge("full", 2, 12, 3);  // 12 == 2 * 2 * 3 with edges=2
  CHECK(ok.audit(2).ok);
  congest::Runtime bad;
  bad.charge("overfull", 2, 13, 3);
  CHECK(!bad.audit(2).ok);
}

TEST_CASE(audit_products_do_not_overflow) {
  // Charges near 2^62: every bandwidth product below passes 2^63, so the
  // audit, the envelope bill and the congestion floor must compare without
  // forming the product in signed 64-bit arithmetic.
  const std::int64_t big = std::int64_t{1} << 62;
  const std::int64_t max = std::numeric_limits<std::int64_t>::max();
  const std::int64_t wide = std::int64_t{1} << 31;
  congest::Runtime r;
  r.charge("huge but sound", wide, big, wide);  // 2^62 <= 2^31 * 2^31 * 2^31
  CHECK(r.audit(wide).ok);
  congest::Runtime bad;
  bad.charge("overfull", 2, big, 1);  // 2^62 > 2 * 2^30 * 1
  CHECK(!bad.audit(std::int64_t{1} << 30).ok);
  congest::Runtime env;
  env.charge_envelope("envelope", big, big);  // saturates at INT64_MAX
  CHECK(env.entries()[0].messages == max);
  CHECK(env.audit(big).ok);
  CHECK(congest::congestion_floor(big, big, big) == 1);
  CHECK(congest::congestion_floor(max, 1, 1) == max);
  CHECK(congest::congestion_floor(max, 2, 1) == big);
}

TEST_CASE(chargescope_equals_manual_absorb) {
  congest::Runtime sub;
  sub.charge("x", 3, 7, 1);
  sub.charge("y", 2);

  congest::Runtime manual;
  manual.charge("before", 1);
  manual.absorb(sub, "edt: ");
  manual.charge("after", 4, 8, 2);

  congest::Runtime scoped;
  scoped.charge("before", 1);
  {
    congest::ChargeScope scope(scoped, "edt");
    scope.absorb(sub);
  }
  scoped.charge("after", 4, 8, 2);

  CHECK(same_charges(manual, scoped));
  CHECK(scoped.audit().ok);
  CHECK(scoped.total() == manual.total());
  CHECK(scoped.total_messages() == manual.total_messages());
}

TEST_CASE(chargescope_nesting_prefixes) {
  congest::Runtime root;
  {
    congest::ChargeScope outer(root, "outer");
    {
      congest::ChargeScope inner(outer.runtime(), "inner");
      inner.charge("leaf", 5, 10, 1);
    }
    outer.charge("sibling", 1);
  }
  CHECK(root.entries().size() == 2);
  CHECK(root.entries()[0].phase == "outer: inner: leaf");
  CHECK(root.entries()[1].phase == "outer: sibling");
  CHECK(root.total() == 6);
  CHECK(root.total_messages() == 10);
  CHECK(root.audit().ok);
  // close() is idempotent and early-close works like destructor-close.
  congest::Runtime root2;
  congest::ChargeScope scope(root2, "p");
  scope.charge("q", 2);
  scope.close();
  scope.close();
  CHECK(root2.entries().size() == 1);
  CHECK(root2.entries()[0].phase == "p: q");
}

TEST_CASE(cv_messages_on_path) {
  // Hand-computable: a rooted path has n-1 forest edges and every round
  // sends exactly one color per edge, so messages == rounds * (n-1).
  for (int n : {2, 100, 4096}) {
    std::vector<int> parent(n);
    parent[0] = -1;
    for (int v = 1; v < n; ++v) parent[v] = v - 1;
    const auto cv = congest::cole_vishkin_3color_forest(n, parent);
    CHECK_MSG(cv.messages == static_cast<std::int64_t>(cv.rounds) * (n - 1),
              "n=" + std::to_string(n));
    CHECK(cv.max_congestion == 1);
  }
}

TEST_CASE(heavy_stars_message_conservation_star_cycle) {
  // Star graph: center 0, m = n-1 edges. Cycle: n edges. On both, the
  // pointing round sends exactly one pointer per directed edge (2m), and
  // the per-iteration total stays within the c*m regression gate.
  for (const bool cycle : {false, true}) {
    const int n = 200;
    std::vector<WeightedEdge> edges;
    for (int i = 1; i < n; ++i) {
      edges.push_back(cycle ? WeightedEdge{i - 1, i, 1}
                            : WeightedEdge{0, i, 1});
    }
    if (cycle) edges.push_back({n - 1, 0, 1});
    const WeightedGraph g(n, std::move(edges));
    const decomp::HeavyStarsResult hs = decomp::heavy_stars(g);
    const std::string ctx = cycle ? "cycle" : "star";
    CHECK_MSG(hs.ledger.entries().size() == 4, ctx);
    CHECK_MSG(hs.ledger.entries()[0].phase == "pointing", ctx);
    CHECK_MSG(hs.ledger.entries()[0].messages == 2 * g.m(), ctx);
    CHECK_MSG(hs.ledger.total() == 3 + hs.cv_rounds, ctx);
    CHECK_MSG(hs.ledger.audit(2 * g.m()).ok, ctx);
    // Regression gate: one heavy-stars run costs at most c*m messages
    // (pointing 2m + cv rounds * forest + vote 6*forest + formation), with
    // forest <= n-1 <= m on connected graphs and cv rounds O(log* n).
    const std::int64_t gate = (2 + hs.cv_rounds + 6 + 1) * g.m();
    const std::int64_t messages = hs.ledger.total_messages();
    CHECK_MSG(messages <= gate, ctx + " messages=" + std::to_string(messages));
    CHECK_MSG(messages > 0, ctx);
  }
}

TEST_CASE(ldd_local_peak_congestion_bounded) {
  // Bounded-degree family (grid): the measured peak per-edge congestion of
  // the whole pipeline is O(1) — the six-way bipartition vote is the
  // heaviest phase, so the peak is exactly 6 (and never more).
  const Graph g = grid_graph(20, 20);
  const decomp::EdtDecomposition ldd = decomp::build_edt_decomposition(g, 0.3);
  CHECK(ldd.ledger.total_messages() > 0);
  CHECK(ldd.ledger.peak_congestion() >= 1);
  CHECK_MSG(ldd.ledger.peak_congestion() <= 6,
            "peak=" + std::to_string(ldd.ledger.peak_congestion()));
  CHECK(ldd.ledger.audit(2 * g.m()).ok);
  // Per-iteration gate: every heavy-stars pointing phase sends at most one
  // pointer per directed G-edge (cluster-graph edges are G-edge classes).
  for (const congest::RoundCharge& e : ldd.ledger.entries()) {
    if (e.phase.find("pointing") != std::string::npos) {
      CHECK_MSG(e.messages <= 2 * g.m(), e.phase);
    }
  }
}

TEST_CASE(edt_all_live_phases_have_messages) {
  // Every phase that charges rounds must now carry messages — measured or
  // envelope — on the local engine and on the chop baseline.
  const Graph g = grid_graph(16, 16);
  for (const bool chop : {false, true}) {
    const decomp::EdtDecomposition edt =
        chop ? decomp::ldd_global_chop(g, 0.3)
             : decomp::build_edt_decomposition(g, 0.3);
    const std::string ctx = chop ? "chop" : "local";
    CHECK_MSG(edt.ledger.total_messages() > 0, ctx);
    CHECK_MSG(edt.ledger.peak_congestion() >= 1, ctx);
    CHECK_MSG(edt.ledger.audit(2 * g.m()).ok,
              ctx + ": " + edt.ledger.audit(2 * g.m()).violation);
    for (const congest::RoundCharge& e : edt.ledger.entries()) {
      if (e.rounds > 0) {
        CHECK_MSG(e.messages > 0, ctx + " phase '" + e.phase + "'");
      }
    }
  }
}

TEST_CASE(accounting_deterministic) {
  // Two identical runs must produce bit-identical charge sequences — the
  // determinism gate for the whole accounting path.
  const Graph g = grid_graph(18, 18);
  const decomp::EdtDecomposition a = decomp::build_edt_decomposition(g, 0.3);
  const decomp::EdtDecomposition b = decomp::build_edt_decomposition(g, 0.3);
  CHECK(same_charges(a.ledger, b.ledger));
  const decomp::EdtDecomposition la = decomp::build_edt_decomposition(g, 0.25);
  const decomp::EdtDecomposition lb = decomp::build_edt_decomposition(g, 0.25);
  CHECK(same_charges(la.ledger, lb.ledger));
}

TEST_CASE(overlap_budgeted_levels_halve) {
  const Graph g = grid_graph(14, 14);
  const decomp::OverlapDecompResult od =
      decomp::overlap_expander_decomposition(g, 0.25);
  CHECK(od.iterations >= 1);
  CHECK(od.budget_violations.empty());
  CHECK(od.level_edges.size() == static_cast<std::size_t>(od.iterations));
  for (std::size_t i = 0; i < od.level_edges.size(); ++i) {
    CHECK_MSG(2 * od.level_uncovered[i] <= od.level_edges[i],
              "level " + std::to_string(i));
  }
  const decomp::OverlapQuality q = decomp::evaluate_overlap(g, od);
  CHECK(q.level_budget_ok);
  // No level overshoots on this instance, so the surgical ladder never runs.
  CHECK(od.level_retries.size() == static_cast<std::size_t>(od.iterations));
  for (int r : od.level_retries) CHECK(r == 0);
  CHECK(od.ledger.total_messages() > 0);
  CHECK(od.ledger.audit(2 * g.m()).ok);
}

TEST_CASE(overlap_surgical_retry_repairs_level) {
  // Force the surgical retry ladder: level_eps = 3.0 gives the base pass an
  // allowance >= m, so the EDT inside it never merges anything — every edge
  // stays uncovered and the level is maximally over budget. The surgical
  // ladder must then re-partition ONLY the uncovered remainder at halved
  // eps, append those clusters (the overlap the object licenses), and bring
  // the level inside its halving budget — with the retry trail recorded and
  // every evaluate_overlap guarantee intact.
  const Graph g = grid_graph(14, 14);
  decomp::OverlapDecompParams p;
  p.level_eps = 3.0;
  const decomp::OverlapDecompResult od =
      decomp::overlap_expander_decomposition(g, 0.25, p);
  CHECK(od.iterations >= 1);
  CHECK(!od.level_retries.empty());
  CHECK_MSG(od.level_retries[0] >= 1, "ladder never ran");
  CHECK(od.budget_violations.empty());
  int total_retries = 0;
  for (std::size_t i = 0; i < od.level_edges.size(); ++i) {
    CHECK_MSG(2 * od.level_uncovered[i] <= od.level_edges[i],
              "level " + std::to_string(i));
    total_retries += od.level_retries[i];
  }
  const decomp::OverlapQuality q = decomp::evaluate_overlap(g, od);
  CHECK(q.level_budget_ok);
  CHECK(q.base.eps_fraction <= 0.25);
  // A vertex joins at most one cluster per pass: levels + retries bounds c.
  CHECK_MSG(q.overlap_c <= od.iterations + total_retries,
            "c=" + std::to_string(q.overlap_c));
  // The retry trail is visible in the ledger under the level's prefix.
  bool saw_retry_charge = false;
  for (const congest::RoundCharge& e : od.ledger.entries()) {
    if (e.phase.find("retry 1: ") != std::string::npos) saw_retry_charge = true;
  }
  CHECK(saw_retry_charge);
  CHECK(od.ledger.audit(2 * g.m()).ok);
}

TEST_CASE(solver_stats_audit_passes) {
  // An apps/-layer solve carries the full composed breakdown; the audit
  // must hold end to end (edt phases + cluster solve + seam repair).
  Rng rng(23);
  const Graph g = random_maximal_planar(80, rng);
  const apps::SetSolution sol = apps::approx_max_independent_set(g, 0.4, 3);
  CHECK(sol.stats.runtime.audit(2 * g.m()).ok);
  CHECK(sol.stats.runtime.total_messages() > 0);
  CHECK(sol.stats.total_rounds == sol.stats.runtime.total());
}
