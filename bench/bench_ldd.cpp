// Experiment E-LDD — Corollary 6.1 (low-diameter decomposition) and the
// baselines the paper positions against.
//
// Claims:
//   * ours (Cor 6.1): deterministic CONGEST, D = O(1/ε),
//     rounds O(log* n / ε) + min(T variants);
//   * CHW [CHW08]: LOCAL model (unbounded messages), poly(1/ε)·O(log* n);
//   * MPX [MPX13]: randomized CONGEST, D = O(log n / ε), O(log n / ε) rounds.
//
// The ε-sweep shows the qualitative separations: ours and CHW give
// O(1/ε)-diameter clusters; MPX diameters carry the extra log n factor;
// all meet the ε cut budget (MPX in expectation).
//
// The bandwidth audit section prints the full per-phase rounds x messages x
// peak-congestion breakdown of our pipeline (every decomposition phase
// meters its traffic — see docs/ARCHITECTURE.md "The bandwidth model") and
// fails the run if Runtime::audit() finds an accounting violation.
#include <cmath>

#include "bench_common.hpp"
#include "decomp/edt.hpp"
#include "decomp/ldd_chop.hpp"
#include "decomp/ldd_chw.hpp"
#include "decomp/ldd_mpx.hpp"

int main(int argc, char** argv) {
  using namespace mfd;
  using namespace mfd::bench;
  const Cli cli(argc, argv);
  const bool smoke = cli.has("smoke");  // trimmed instances for ctest/CI
  // Default to a large grid: its Θ(√n) diameter is what makes the paper's
  // separation visible (MPX's O(log n/ε) cluster radius would swallow a
  // random triangulation whole — diameter O(log n) — telling us nothing).
  const int n = static_cast<int>(cli.get_int("n", smoke ? 1024 : 10000));
  Rng rng(cli.get_int("seed", 3));
  const std::string family = cli.get("family", "grid");
  const Graph g = make_family(family, n, rng);
  BenchJson json(cli, "ldd");
  cli.warn_unrecognized(std::cerr);
  json.param("n", static_cast<std::int64_t>(g.n()));
  json.param("m", g.m());
  json.param("family", family);
  json.param("seed", cli.get_int("seed", 3));
  json.param("smoke", static_cast<std::int64_t>(smoke ? 1 : 0));

  print_header("E-LDD: Corollary 6.1 + baselines",
               "(eps, D) low-diameter decomposition: ours vs CHW(LOCAL) vs "
               "MPX(randomized)");
  std::cout << g.summary() << "\n\n";

  Table t({"algorithm", "model", "eps", "eps measured", "D measured",
           "rounds", "messages", "peak cong", "clusters"});
  // The eps = 0.3 decomposition is reused by the bandwidth-audit section
  // below (the construction is deterministic, so rebuilding would only
  // duplicate work).
  decomp::EdtDecomposition rep;
  for (double eps : {0.4, 0.3, 0.2}) {
    {
      decomp::EdtDecomposition edt = decomp::build_edt_decomposition(g, eps);
      t.add_row({"ours (Thm 1.1)", "CONGEST det", Table::num(eps, 2),
                 Table::num(edt.quality.eps_fraction, 3),
                 Table::integer(edt.quality.max_diameter),
                 Table::integer(edt.ledger.total()),
                 Table::integer(edt.ledger.total_messages()),
                 Table::integer(edt.ledger.peak_congestion()),
                 Table::integer(edt.clustering.k)});
      if (eps == 0.3) {
        json.phases(edt.ledger, 2 * g.m());
        json.metric("eps_target", eps);
        json.metric("eps_measured", edt.quality.eps_fraction);
        json.metric("max_diameter",
                    static_cast<std::int64_t>(edt.quality.max_diameter));
        json.metric("clusters", static_cast<std::int64_t>(edt.clustering.k));
        rep = std::move(edt);
      }
    }
    {
      const decomp::ChwLdd chw = decomp::ldd_chw_local_model(g, eps, 3);
      t.add_row({"CHW08", "LOCAL det", Table::num(eps, 2),
                 Table::num(chw.quality.eps_fraction, 3),
                 Table::integer(chw.quality.max_diameter),
                 Table::integer(chw.ledger.total()), "-", "-",
                 Table::integer(chw.clustering.k)});
    }
    {
      // MPX is randomized: average over seeds.
      Accumulator frac, diam, rounds, clusters;
      for (int s = 0; s < 5; ++s) {
        const decomp::MpxLdd mpx = decomp::ldd_mpx(g, eps, rng);
        frac.add(mpx.quality.eps_fraction);
        diam.add(mpx.quality.max_diameter);
        rounds.add(mpx.rounds);
        clusters.add(mpx.clustering.k);
      }
      t.add_row({"MPX13 (mean of 5)", "CONGEST rand", Table::num(eps, 2),
                 Table::num(frac.mean(), 3), Table::num(diam.mean(), 1),
                 Table::num(rounds.mean(), 1), "-", "-",
                 Table::num(clusters.mean(), 0)});
    }
  }
  t.print(std::cout);
  std::cout << "\nShape checks: our D and CHW's D scale like 1/eps; MPX's D "
               "carries the extra log n factor. CHW is LOCAL (unbounded "
               "messages) and MPX messages are envelope-only, so their "
               "message columns stay '-'.\n";

  // Bandwidth audit: the full phase breakdown of our pipeline at eps = 0.3 —
  // every phase must report nonzero messages and congestion, and the charge
  // sequence must pass the Runtime::audit() invariants.
  print_phase_table(std::cout, rep.ledger,
                    "ours (Thm 1.1), eps = 0.3 on " + family);
  check_runtime_audit(rep.ledger, 2 * g.m(), "edt eps=0.3");

  // Construction-rounds scaling: the Section-4 local pipeline (heavy-stars
  // contraction) against the retired global-BFS chop (ldd_global_chop). The
  // chop charges real BFS depth per pass, so its rounds track sqrt(n) on a
  // grid; the local pipeline's only n-dependence is the O(log* n)
  // Cole–Vishkin term.
  {
    std::cout << "\n-- EDT construction rounds vs n (eps = 0.3): local "
                 "pipeline vs global-BFS chop\n";
    Table s({"n", "sqrt(n)", "rounds (local)", "D (local)", "rounds (chop)",
             "D (chop)"});
    for (int sn : smoke ? std::vector<int>{1024, 4096}
                        : std::vector<int>{1024, 4096, 16384, 65536}) {
      Rng srng(cli.get_int("seed", 3));
      const Graph sg = make_family(family, sn, srng);
      const decomp::EdtDecomposition local =
          decomp::build_edt_decomposition(sg, 0.3);
      const decomp::EdtDecomposition chop = decomp::ldd_global_chop(sg, 0.3);
      check_runtime_audit(local.ledger, 2 * sg.m(),
                          "local n=" + std::to_string(sg.n()));
      check_runtime_audit(chop.ledger, 2 * sg.m(),
                          "chop n=" + std::to_string(sg.n()));
      s.add_row({Table::integer(sg.n()),
                 Table::num(std::sqrt(static_cast<double>(sg.n())), 0),
                 Table::integer(local.ledger.total()),
                 Table::integer(local.quality.max_diameter),
                 Table::integer(chop.ledger.total()),
                 Table::integer(chop.quality.max_diameter)});
    }
    s.print(std::cout);
    std::cout << "\nShape check: 'rounds (local)' stays near-flat while "
                 "'rounds (chop)' grows like sqrt(n).\n";
  }
  json.write();
  return 0;
}
