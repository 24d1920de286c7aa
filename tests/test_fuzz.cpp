// Property-based invariant fuzzing — deterministic seeded sweeps instead of
// hand-picked instances.
//
// Every case walks a fixed seed list over the generator families and asserts
// the CONTRACT of the object under test on every draw:
//   * EDT: valid connected partition, hard eps cut budget, O(1/eps) diameter,
//     a clean Runtime::audit();
//   * overlap decomposition: covered-edge budget, overlap cap, connected
//     supports, the per-level halving audit of evaluate_overlap, and a
//     passing certify_parts report with a positive certified bound;
//   * phi_certificate / certified_phi: the three tiers bracket the exact
//     brute-force conductance on every connected graph with <= 12 vertices
//     (cut-matching lower <= exact <= witnessed sweep upper), degenerate
//     inputs resolve to their documented verdicts, and a tampered
//     cut-matching certificate is rejected by the replay audit;
//   * certify_parts on both engines' output: every emitted cluster
//     certifies, the certified/estimated split covers the cluster count, and
//     the games' CONGEST charges keep the ledger auditable;
//   * the exact MIS and MDS searches: the incremental engines return the
//     whole-array oracles' witnesses, node counts and exact() flags at every
//     budget, on every family and on the wide 36x36 grid clusters.
//
// Iteration counts are bounded (the whole binary is a few seconds in Release)
// and every draw derives from the case's fixed base seed, so a failure
// reproduces exactly from the printed context string.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "apps/approx.hpp"
#include "apps/domination.hpp"
#include "apps/exact.hpp"
#include "bench_common.hpp"
#include "congest/shard.hpp"
#include "decomp/edt.hpp"
#include "decomp/expander_decomp.hpp"
#include "decomp/overlap_decomp.hpp"
#include "expander/cut_matching.hpp"
#include "graph/ops.hpp"
#include "oracles.hpp"
#include "test_main.hpp"

using namespace mfd;
using namespace mfd::decomp;
using mfd::bench::make_family;

namespace {

const std::vector<std::string> kFamilies = {
    "planar", "planar-sparse", "grid",   "torus",  "outerplanar", "tree",
    "cycle",  "path",          "cactus", "ktree3", "series-parallel"};

/// Connected random graph on 3..12 vertices: a random spanning tree plus a
/// few extra edges, a pure function of the seed.
Graph small_connected(std::uint64_t seed, int* n_out = nullptr) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  const int n = 3 + static_cast<int>(rng.next_below(10));
  std::vector<std::pair<int, int>> edges;
  for (int v = 1; v < n; ++v) {
    edges.emplace_back(static_cast<int>(rng.next_below(v)), v);
  }
  const int extra = static_cast<int>(rng.next_below(n));
  for (int e = 0; e < extra; ++e) {
    int a = static_cast<int>(rng.next_below(n));
    int b = static_cast<int>(rng.next_below(n));
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    bool dup = false;
    for (const auto& [x, y] : edges) dup = dup || (x == a && y == b);
    if (!dup) edges.emplace_back(a, b);
  }
  if (n_out != nullptr) *n_out = n;
  return Graph::from_edges(n, edges);
}

/// Full bit-identity comparison of two game outcomes — verdict, certificate
/// (including every matched pair and path), sparse-cut witness, and the
/// CONGEST ledger. Replay block size and thread count only change how alpha
/// is computed, never a decision, so nothing may differ.
bool same_outcome(const expander::CutMatchingOutcome& a,
                  const expander::CutMatchingOutcome& b,
                  const std::string& ctx) {
  bool ok = a.verdict == b.verdict && a.rounds_played == b.rounds_played &&
            a.phi_target == b.phi_target && a.alpha_evals == b.alpha_evals &&
            a.cut_side == b.cut_side && a.cut_phi == b.cut_phi &&
            a.cert.congestion == b.cert.congestion &&
            a.cert.dilation == b.cert.dilation &&
            a.cert.alpha == b.cert.alpha &&
            a.cert.phi_lower == b.cert.phi_lower &&
            a.cert.matchings.size() == b.cert.matchings.size();
  if (ok) {
    for (std::size_t r = 0; r < a.cert.matchings.size(); ++r) {
      const auto& ra = a.cert.matchings[r];
      const auto& rb = b.cert.matchings[r];
      if (ra.size() != rb.size()) { ok = false; break; }
      for (std::size_t i = 0; i < ra.size(); ++i) {
        if (ra[i].u != rb[i].u || ra[i].v != rb[i].v ||
            ra[i].path != rb[i].path) { ok = false; break; }
      }
      if (!ok) break;
    }
  }
  if (ok && a.ledger.entries().size() == b.ledger.entries().size()) {
    for (std::size_t i = 0; i < a.ledger.entries().size(); ++i) {
      const congest::RoundCharge& x = a.ledger.entries()[i];
      const congest::RoundCharge& y = b.ledger.entries()[i];
      if (x.phase != y.phase || x.rounds != y.rounds ||
          x.messages != y.messages || x.max_congestion != y.max_congestion) {
        ok = false;
        break;
      }
    }
  } else if (a.ledger.entries().size() != b.ledger.entries().size()) {
    ok = false;
  }
  CHECK_MSG(ok, ctx + ": outcomes diverged");
  return ok;
}

}  // namespace

TEST_CASE(fuzz_edt_invariants) {
  for (std::uint64_t seed : {11u, 12u}) {
    for (const std::string& family : kFamilies) {
      for (int n : {192, 513}) {
        Rng rng(seed);
        const Graph g = make_family(family, n, rng);
        for (double eps : {0.25, 0.45}) {
          const std::string ctx = family + " n=" + std::to_string(n) +
                                  " eps=" + Table::num(eps, 2) +
                                  " seed=" + std::to_string(seed);
          const EdtDecomposition d = build_edt_decomposition(g, eps);
          CHECK_MSG(is_valid_partition(g, d.clustering), ctx);
          CHECK_MSG(d.quality.clusters_connected, ctx);
          CHECK_MSG(d.quality.eps_fraction <= eps + 1e-12, ctx + ": cut budget");
          CHECK_MSG(d.quality.max_diameter <= 20.0 / eps + 10.0,
                    ctx + ": diameter");
          CHECK_MSG(d.T_measured > 0, ctx);
          const congest::AuditResult audit = d.ledger.audit(2 * g.m());
          CHECK_MSG(audit.ok, ctx + ": " + audit.violation);
        }
      }
    }
  }
}

TEST_CASE(fuzz_overlap_invariants) {
  for (const std::string& family : kFamilies) {
    for (int n : {192, 400}) {
      Rng rng(29);
      const Graph g = make_family(family, n, rng);
      for (double eps : {0.5, 0.2}) {
        const std::string ctx =
            family + " n=" + std::to_string(n) + " eps=" + Table::num(eps, 2);
        const OverlapDecompResult od = overlap_expander_decomposition(g, eps);
        const OverlapQuality q = evaluate_overlap(g, od);
        CHECK_MSG(q.base.clusters_connected, ctx + ": supports connected");
        CHECK_MSG(q.base.eps_fraction <= eps + 1e-12, ctx + ": uncovered");
        CHECK_MSG(q.level_budget_ok, ctx + ": level budget");
        const PartCertifyReport rep = certify_parts(g, od.oc.members);
        CHECK_MSG(rep.ok, ctx + ": " + rep.violation);
        CHECK_MSG(rep.min_phi_lower > 0.0, ctx);
        // One cluster membership per level plus one per surgical retry.
        int retries = 0;
        for (int r : od.level_retries) retries += r;
        CHECK_MSG(q.overlap_c >= 1 && q.overlap_c <= od.iterations + retries,
                  ctx + ": c=" + std::to_string(q.overlap_c));
        for (const auto& mem : od.oc.members) {
          CHECK_MSG(!mem.empty(), ctx);
          for (int v : mem) CHECK_MSG(v >= 0 && v < g.n(), ctx);
        }
        const congest::AuditResult audit = od.ledger.audit(2 * g.m());
        CHECK_MSG(audit.ok, ctx + ": " + audit.violation);
      }
    }
  }
}

TEST_CASE(fuzz_phi_differential) {
  // The three certification tiers pinned against each other on every small
  // connected graph of a seeded sweep: cut-matching certified lower bound
  // <= exact brute-force conductance <= witnessed sweep upper bound.
  int certified = 0, sparse = 0;
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    int n = 0;
    const Graph g = small_connected(seed, &n);
    const std::string ctx = "seed=" + std::to_string(seed);
    const PhiCertificate exact = phi_certificate(g, 20);
    CHECK_MSG(exact.verdict == PhiVerdict::kExact, ctx);
    CHECK_MSG(exact.exact && exact.phi > 0.0 && exact.phi <= 1.0, ctx);

    // Force tier 2/3 by dropping the exact cap below every drawn size.
    expander::PhiCertParams pc;
    pc.exact_cap = 2;
    const expander::PhiReport rep = expander::certified_phi(g, pc);
    CHECK_MSG(rep.upper >= exact.phi - 1e-12, ctx + ": upper bracket");
    if (rep.cert.verdict == PhiVerdict::kCutMatching) {
      ++certified;
      CHECK_MSG(rep.cert.phi <= exact.phi + 1e-12, ctx + ": lower bracket");
      CHECK_MSG(rep.cert.phi > 0.0, ctx);
      CHECK_MSG(rep.cert.certified_lower(), ctx);
    }
    const congest::AuditResult audit = rep.ledger.audit(2 * g.m());
    CHECK_MSG(audit.ok, ctx + ": " + audit.violation);

    // The raw game with over-ambitious targets must either still certify
    // soundly or produce a genuine sparse cut (re-checked conductance below
    // the target and never below the true minimum). phi_target = 1.0 plays
    // with unit edge capacities, the regime where matching flows fail.
    for (double target : {std::min(1.0, exact.phi * 1.5), 1.0}) {
      expander::CutMatchingParams gp;
      gp.phi_target = target;
      const expander::CutMatchingOutcome out =
          expander::cut_matching_game(g, gp);
      if (out.verdict == expander::CutMatchingVerdict::kCertified) {
        const expander::EmbeddingAudit replay =
            expander::verify_cut_matching(g, out.cert);
        CHECK_MSG(replay.ok, ctx + ": " + replay.violation);
        CHECK_MSG(out.cert.phi_lower <= exact.phi + 1e-12, ctx + ": soundness");
      } else if (out.verdict == expander::CutMatchingVerdict::kSparseCut) {
        ++sparse;
        CHECK_MSG(out.cut_phi < out.phi_target, ctx + ": cut not sparse");
        CHECK_MSG(out.cut_phi >= exact.phi - 1e-12, ctx + ": cut below minimum");
      }
    }
  }
  // The sweep must actually exercise both outcomes, not vacuously pass.
  CHECK_MSG(certified >= 40, "only " + std::to_string(certified) + " certified");
  CHECK_MSG(sparse >= 5, "only " + std::to_string(sparse) + " sparse cuts");
}

TEST_CASE(fuzz_phi_degenerate) {
  // Documented verdicts on degenerate inputs (see graph/metrics.hpp):
  // <= 1 non-isolated vertex -> kTrivial phi=1; a disconnected edge-bearing
  // core -> kDisconnected phi=0; isolated vertices never create zero-volume
  // "cuts" (they carry no volume, so they are stripped, not counted).
  const auto expect = [](const Graph& g, PhiVerdict verdict, double phi,
                         const std::string& ctx) {
    const PhiCertificate cert = phi_certificate(g);
    CHECK_MSG(cert.verdict == verdict, ctx);
    CHECK_MSG(cert.phi == phi, ctx);
    CHECK_MSG(cert.exact, ctx);
    CHECK_MSG(cert.certified_lower(), ctx);
  };
  expect(Graph::from_edges(0, {}), PhiVerdict::kTrivial, 1.0, "empty");
  expect(Graph::from_edges(1, {}), PhiVerdict::kTrivial, 1.0, "one vertex");
  expect(Graph::from_edges(3, {}), PhiVerdict::kTrivial, 1.0, "edgeless");
  // K2 has two edge-bearing vertices, so it is exact, not trivial (its only
  // cut has conductance exactly 1).
  expect(Graph::from_edges(2, {{0, 1}}), PhiVerdict::kExact, 1.0, "K2");
  // Triangle + isolated vertex: the isolated vertex must NOT read as a
  // zero-volume disconnection — the certificate is the triangle's exact 1.
  expect(Graph::from_edges(4, {{0, 1}, {1, 2}, {0, 2}}), PhiVerdict::kExact,
         1.0, "triangle + isolated");
  expect(Graph::from_edges(4, {{0, 1}, {2, 3}}), PhiVerdict::kDisconnected,
         0.0, "two disjoint edges");
  expect(Graph::from_edges(6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}}),
         PhiVerdict::kDisconnected, 0.0, "two triangles");

  // certified_phi mirrors the verdicts and brackets them with upper bounds.
  const expander::PhiReport trivial =
      expander::certified_phi(Graph::from_edges(1, {}));
  CHECK(trivial.cert.verdict == PhiVerdict::kTrivial && trivial.upper == 1.0);
  const expander::PhiReport disc =
      expander::certified_phi(Graph::from_edges(4, {{0, 1}, {2, 3}}));
  CHECK(disc.cert.verdict == PhiVerdict::kDisconnected && disc.upper == 0.0);

  // The raw game refuses degenerate boards outright.
  CHECK(expander::cut_matching_game(Graph::from_edges(1, {})).verdict ==
        expander::CutMatchingVerdict::kInconclusive);
  CHECK(expander::cut_matching_game(Graph::from_edges(3, {})).verdict ==
        expander::CutMatchingVerdict::kInconclusive);
}

TEST_CASE(fuzz_certificate_replay_rejects_tampering) {
  // Replay semantics: the certificate is only as good as its recorded paths,
  // so every class of tampering must be caught by verify_cut_matching — by
  // both the serial replay and the pooled blocked replay.
  Rng rng(5);
  const Graph g = make_family("grid", 64, rng);
  congest::ShardPool pool(3);
  expander::CutMatchingParams gp;
  gp.phi_target = 0.05;
  const expander::CutMatchingOutcome out = expander::cut_matching_game(g, gp);
  CHECK(out.verdict == expander::CutMatchingVerdict::kCertified);
  CHECK(oracles::dense_mixing_alpha(g.n(), out.cert.matchings) ==
        out.cert.alpha);
  for (const bool pooled : {false, true}) {
    const int block = pooled ? 5 : 0;  // force multi-block on the pooled leg
    const auto verify = [&](const expander::CutMatchingCertificate& c) {
      return expander::verify_cut_matching(g, c, block,
                                           pooled ? &pool : nullptr);
    };
    CHECK(verify(out.cert).ok);

    {  // Inflated headline bound.
      expander::CutMatchingCertificate bad = out.cert;
      bad.phi_lower *= 2.0;
      CHECK(!verify(bad).ok);
    }
    {  // Understated congestion (the bound's denominator).
      expander::CutMatchingCertificate bad = out.cert;
      bad.congestion = std::max<std::int64_t>(1, bad.congestion - 1);
      bad.phi_lower = out.cert.phi_lower;
      CHECK(!verify(bad).ok);
    }
    {  // A path step that is not an edge of the graph.
      expander::CutMatchingCertificate bad = out.cert;
      bad.matchings.front().front().path.insert(
          bad.matchings.front().front().path.begin() + 1, g.n() - 1);
      CHECK(!verify(bad).ok);
    }
    {  // A duplicated pair breaks per-round vertex-disjointness.
      expander::CutMatchingCertificate bad = out.cert;
      bad.matchings.front().push_back(bad.matchings.front().front());
      CHECK(!verify(bad).ok);
    }
    {  // Claiming an extra (never-played) matching alters alpha.
      expander::CutMatchingCertificate bad = out.cert;
      bad.matchings.push_back(bad.matchings.front());
      CHECK(!verify(bad).ok);
    }
  }
}

TEST_CASE(fuzz_implicit_matches_dense_oracle) {
  // The implicit-matrix game (probe bank + blocked column replay) is a pure
  // re-representation of a resident mixing matrix: its certified alpha must
  // equal the dense matrix the oracle rebuilds from the recorded matchings,
  // bit for bit, on every family at a derived and a pinned target — and the
  // entire outcome must be invariant under the replay block size and the
  // pool's thread count.
  for (const std::string& family : kFamilies) {
    for (int n : {96, 160}) {
      Rng rng(23);
      const Graph g = make_family(family, n, rng);
      for (double target : {0.0, 0.08}) {
        const std::string ctx = family + " n=" + std::to_string(n) +
                                " target=" + Table::num(target, 2);
        expander::CutMatchingParams gp;
        gp.phi_target = target;
        const expander::CutMatchingOutcome serial =
            expander::cut_matching_game(g, gp);
        // The state high-water must beat the dense 8 n^2 bytes.
        CHECK_MSG(serial.state_bytes_peak <
                      8 * static_cast<std::int64_t>(g.n()) * g.n(),
                  ctx + ": state not smaller");
        if (serial.verdict == expander::CutMatchingVerdict::kCertified) {
          const auto& ms = serial.cert.matchings;
          CHECK_MSG(oracles::dense_mixing_alpha(g.n(), ms) == serial.cert.alpha,
                    ctx + ": alpha differs from the dense oracle");
          // Every checkpoint prefix the game can evaluate, at the default
          // and an awkward replay block width.
          for (std::size_t p = 1; p <= ms.size(); p *= 2) {
            const auto end = ms.begin() + static_cast<std::ptrdiff_t>(p);
            const double dense =
                oracles::dense_mixing_alpha(g.n(), {ms.begin(), end});
            for (int block : {0, 7}) {
              CHECK_MSG(g.n() * expander::detail_cm::replay_min_entry(
                                    g.n(), ms, p, block, nullptr) == dense,
                        ctx + " prefix=" + std::to_string(p));
            }
          }
          CHECK_MSG(expander::verify_cut_matching(g, serial.cert).ok, ctx);
        }

        // An awkward block size that does not divide n, plus a pool at every
        // sweep size: the replay is block- and thread-invariant by
        // construction.
        for (int threads : {1, 2, 7, 0}) {
          congest::ShardPool pool(threads);
          gp.replay_block = 7;
          const std::string tctx =
              ctx + " threads=" + std::to_string(pool.threads());
          const expander::CutMatchingOutcome blocked =
              expander::cut_matching_game(g, gp, &pool);
          same_outcome(serial, blocked, tctx + " [blocked+pooled]");
          if (serial.verdict == expander::CutMatchingVerdict::kCertified) {
            CHECK_MSG(
                expander::verify_cut_matching(g, blocked.cert, 11, &pool).ok,
                tctx);
          }
        }
      }
    }
  }
}

TEST_CASE(fuzz_support_zero_proof_matches_dense_oracle) {
  // The alpha replay's zero proof (detail_cm::support_has_zero) must report
  // a zero at exactly the prefixes whose dense mixing matrix holds a 0.0
  // entry — every prefix 1..|M|, not only the game's powers of two — and
  // replay_min_entry, shortcuts included, must equal the dense scan there.
  // Checked at the derived block and at one-word blocks (64 columns, so
  // several support blocks race to the first zero), serially and pooled.
  int zero = 0, positive = 0, beyond_count = 0;  // non-vacuity tallies
  for (const std::string& family : kFamilies) {
    for (int n : {96, 160}) {
      Rng rng(23);
      const Graph g = make_family(family, n, rng);
      expander::CutMatchingParams gp;
      gp.phi_target = 0.08;
      const auto ms = expander::cut_matching_game(g, gp).cert.matchings;
      for (std::size_t p = 1; p <= ms.size(); ++p) {
        const auto end = ms.begin() + static_cast<std::ptrdiff_t>(p);
        const double dense = oracles::dense_mixing_alpha(g.n(), {ms.begin(), end});
        (dense == 0.0 ? zero : positive) += 1;
        if (dense == 0.0 &&
            (p >= 31 || (std::size_t{1} << p) >= static_cast<std::size_t>(g.n()))) {
          ++beyond_count;  // only the bitset pass can prove this zero
        }
        for (int threads : {1, 2, 7, 0}) {
          congest::ShardPool pool(threads);
          for (int block : {0, 1}) {
            const std::string ctx = family + " n=" + std::to_string(g.n()) +
                                    " prefix=" + std::to_string(p) +
                                    " threads=" + std::to_string(pool.threads()) +
                                    " block=" + std::to_string(block);
            CHECK_MSG(expander::detail_cm::support_has_zero(g.n(), ms, p, block,
                                                            &pool) ==
                          (dense == 0.0),
                      ctx + ": zero proof disagrees with the dense oracle");
            CHECK_MSG(g.n() * expander::detail_cm::replay_min_entry(
                                  g.n(), ms, p, block, &pool) == dense,
                      ctx + ": replayed alpha differs from the dense oracle");
          }
        }
      }
    }
  }
  CHECK_MSG(zero > 0 && positive > 0, "no prefix on one side of the proof");
  CHECK_MSG(beyond_count > 0, "no zero past the 2^prefix < n counting bound");
}

TEST_CASE(fuzz_large_cluster_certify) {
  // A cluster far above the old 1024-vertex cap certifies end to end:
  // positive replayed bound, passing pooled verification, mixing state well
  // under a dense matrix's 8 n^2 bytes.
  Rng rng(7);
  const Graph g = make_family("planar", 700, rng);
  congest::ShardPool pool(3);
  expander::PhiCertParams pc;
  pc.game.phi_target = 0.02;
  const expander::PhiReport rep = expander::certified_phi(g, pc, &pool);
  CHECK_MSG(rep.cert.verdict == PhiVerdict::kCutMatching,
            "large cluster did not certify");
  CHECK(rep.cert.phi > 0.0);
  CHECK(rep.cert.certified_lower());
  CHECK_MSG(rep.cert.phi <= rep.upper + 1e-9, "bound above witnessed upper");
  CHECK_MSG(rep.game_state_bytes > 0 &&
                rep.game_state_bytes <
                    8 * static_cast<std::int64_t>(g.n()) * g.n(),
            "state bytes not sub-quadratic");
  // Pure function of the input: the pooled run equals a serial re-run.
  const expander::PhiReport again = expander::certified_phi(g, pc);
  CHECK(again.cert.phi == rep.cert.phi);
  CHECK(again.game_state_bytes == rep.game_state_bytes);
}

TEST_CASE(fuzz_certify_audit) {
  // certify_parts on both engines' real decompositions: the audit passes,
  // the certified/estimated split covers every cluster, and the game
  // charges keep the construction + certification ledger auditable.
  for (const std::string& family : {std::string("grid"), std::string("planar")}) {
    Rng rng(17);
    const Graph g = make_family(family, 256, rng);
    const ExpanderDecomp ed = expander_decomposition_minor_free(g, 0.5);
    const PartCertifyReport rep =
        certify_parts(g, cluster_members(ed.clustering));
    const std::string ctx = family + ": expander";
    CHECK_MSG(rep.ok, ctx);
    CHECK_MSG(rep.clusters_certified + rep.clusters_estimated ==
                  ed.clustering.k,
              ctx + ": split covers clusters");
    CHECK_MSG(rep.clusters_certified > 0, ctx);
    if (rep.clusters_certified == ed.clustering.k) {
      CHECK_MSG(rep.min_phi_lower > 0.0, ctx + ": positive certified bound");
    }
    CHECK_MSG(rep.min_phi_lower <= 1.0 && rep.min_phi_estimate <= 1.0, ctx);
    congest::Runtime ledger = ed.ledger;
    ledger.absorb(rep.ledger);
    congest::AuditResult audit = ledger.audit(2 * g.m());
    CHECK_MSG(audit.ok, ctx + ": " + audit.violation);
    bool saw_game_phase = false;
    for (const congest::RoundCharge& e : ledger.entries()) {
      saw_game_phase = saw_game_phase ||
                       e.phase.find("certify: cut-matching games") !=
                           std::string::npos;
    }
    CHECK_MSG(saw_game_phase, ctx + ": game phase charged");

    const OverlapDecompResult od = overlap_expander_decomposition(g, 0.4);
    const PartCertifyReport orep = certify_parts(g, od.oc.members);
    const std::string octx = family + ": overlap";
    CHECK_MSG(orep.ok, octx);
    CHECK_MSG(orep.clusters_certified + orep.clusters_estimated == od.oc.k(),
              octx + ": split covers clusters");
    CHECK_MSG(orep.clusters_certified > 0, octx);
    congest::Runtime oledger = od.ledger;
    oledger.absorb(orep.ledger, "certify: ");
    audit = oledger.audit(2 * g.m());
    CHECK_MSG(audit.ok, octx + ": " + audit.violation);

    // Determinism: certification is still a pure function of (g, eps).
    const ExpanderDecomp again = expander_decomposition_minor_free(g, 0.5);
    const PartCertifyReport again_rep =
        certify_parts(g, cluster_members(again.clustering));
    CHECK_MSG(again_rep.min_phi_lower == rep.min_phi_lower,
              ctx + ": deterministic");
    CHECK_MSG(again_rep.clusters_certified == rep.clusters_certified, ctx);
  }
}

namespace {

/// Both exact searches against their oracles on one graph and budget: the
/// same witness, the same nodes() and the same exact(). Returns the number
/// of comparisons made (MIS plus MDS).
int exact_searches_match(const Graph& g, std::int64_t budget,
                         const std::string& ctx, bool mis = true,
                         bool mds = true) {
  int compared = 0;
  if (mis) {
    apps::detail::MisSolver fast(g, budget);
    oracles::MisSolver ref(g, budget);
    const std::vector<int> a = fast.solve(), b = ref.solve();
    CHECK_MSG(a == b, ctx + ": MIS witness differs");
    CHECK_MSG(fast.nodes() == ref.nodes(), ctx + ": MIS nodes differ");
    CHECK_MSG(fast.exact() == ref.exact(), ctx + ": MIS exact() differs");
    ++compared;
  }
  if (mds) {
    apps::detail::MdsBranch fast(g, budget);
    oracles::MdsBranch ref(g, budget);
    const std::vector<int> a = fast.solve(), b = ref.solve();
    CHECK_MSG(a == b, ctx + ": MDS witness differs");
    CHECK_MSG(fast.nodes() == ref.nodes(), ctx + ": MDS nodes differ");
    CHECK_MSG(fast.exact() == ref.exact(), ctx + ": MDS exact() differs");
    ++compared;
  }
  return compared;
}

}  // namespace

TEST_CASE(fuzz_exact_search_matches_oracle) {
  // Every family at several sizes, plus hubs (degrees past the exact
  // buckets) and dense small graphs, over budgets that stop the search at
  // the root, a few nodes in, and deep in the tree; unbounded where small.
  const std::vector<std::int64_t> budgets = {-1, 0, 1, 2, 5, 37, 1000};
  std::vector<std::pair<std::string, Graph>> graphs;
  for (const std::string& family : kFamilies) {
    for (int n : {5, 17, 40, 60, 150, 400}) {
      for (std::uint64_t seed : {3, 41}) {
        Rng rng(seed);
        graphs.emplace_back(family + " n=" + std::to_string(n) + " seed=" +
                                std::to_string(seed),
                            make_family(family, n, rng));
      }
    }
  }
  graphs.emplace_back("wheel 40", add_apex(cycle_graph(40)));
  graphs.emplace_back("apex grid 7x7", add_apex(grid_graph(7, 7)));
  graphs.emplace_back("K20", complete_graph(20));
  graphs.emplace_back("empty 9", Graph::from_edges(9, {}));
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    graphs.emplace_back("small seed=" + std::to_string(seed),
                        small_connected(seed));
  }
  int compared = 0;
  for (const auto& [name, g] : graphs) {
    for (std::int64_t budget : budgets) {
      if (budget < 0 && g.n() > 60) continue;
      compared += exact_searches_match(
          g, budget, name + " budget=" + std::to_string(budget));
    }
  }

  // The wide clusters the Section-6 solvers hand their ladders on a 36x36
  // grid (eps 0.5, alpha 3, the eps* each solver derives), at the ladder's
  // default budget.
  const Graph grid = grid_graph(36, 36);
  const double eps = 0.5, a = 3.0, delta = grid.max_degree();
  const struct {
    const char* solver;
    double eps_star;
    bool mis;
  } runs[] = {{"mis", eps / (a * (2.0 * a + 1.0)), true},
              {"vc", eps / (2.0 * delta + 1.0), true},
              {"mds", eps / (a * (delta + 1.0)), false}};
  const std::int64_t ladder_budget = apps::kLadderNodeBudget;
  int wide = 0;
  for (const auto& run : runs) {
    congest::SolverStats stats;
    const apps::detail::AppDecomposition dec = apps::detail::decompose_for_app(
        grid, apps::detail::clamp_eps_star(run.eps_star), stats);
    for (std::size_t c = 0; c < dec.members.size(); ++c) {
      const Graph h = induced_subgraph(grid, dec.members[c]).graph;
      wide += h.n() >= 400 ? 1 : 0;
      compared += exact_searches_match(
          h, ladder_budget,
          std::string(run.solver) + " cluster " + std::to_string(c) +
              " n=" + std::to_string(h.n()),
          run.mis, !run.mis);
    }
  }
  CHECK_MSG(wide >= 3, "grid decompositions lost their wide clusters");
  std::printf("exact search: %d oracle comparisons\n", compared);
}
