// Experiment E-CROUTE — compact routing from low-diameter decomposition
// (the [AGM05, AGMW07] application the paper's introduction cites for
// (ε, O(1/ε)) decompositions of minor-free graphs).
//
// Claim shape: with cluster diameter D = O(1/ε), the two-level scheme keeps
//   * per-vertex tables at O(log n) bits (the centers' cluster-tree labels
//     and portals add O(k log n) bits in total),
//   * delivery on every connected pair,
//   * stretch bounded by O(D) per cluster-tree hop — so the table/stretch
//     tradeoff runs through k: larger ε means more clusters, more
//     cluster-tree hops (higher stretch) and bigger total center tables;
//     smaller ε buys fewer hops at D = O(1/ε) per hop.
#include "apps/compact_routing.hpp"
#include "bench_common.hpp"
#include "decomp/edt.hpp"

int main(int argc, char** argv) {
  using namespace mfd;
  using namespace mfd::bench;
  const Cli cli(argc, argv);
  Rng rng(cli.get_int("seed", 19));
  const bool smoke = cli.has("smoke");  // trimmed instances for ctest/CI
  const int pairs =
      static_cast<int>(cli.get_int("pairs", smoke ? 100 : 300));
  const int nplanar = smoke ? 600 : 2000, nfam = smoke ? 500 : 1500;
  BenchJson json(cli, "compact_routing");
  cli.warn_unrecognized(std::cerr);
  json.param("pairs", static_cast<std::int64_t>(pairs));
  json.param("seed", cli.get_int("seed", 19));
  json.param("smoke", static_cast<std::int64_t>(smoke ? 1 : 0));

  print_header("E-CROUTE: compact routing",
               "two-level routing over the (eps, D, T)-decomposition");

  {
    std::cout << "-- stretch / table-size tradeoff vs eps (planar n="
              << nplanar << ")\n";
    const Graph g = random_maximal_planar(nplanar, rng);
    Table t({"eps", "D", "clusters", "avg stretch", "max stretch",
             "avg table bits", "max table bits", "delivered"});
    for (double eps : {0.5, 0.35, 0.25, 0.15}) {
      const decomp::EdtDecomposition edt =
          decomp::build_edt_decomposition(g, eps);
      const apps::FlatRoutingTables s =
          apps::build_routing_scheme(g, edt.clustering);
      const apps::StretchStats st = apps::measure_stretch(g, s, pairs, rng);
      if (eps == 0.25) {
        // The compact-table claim, re-derivable offline from n, k and the
        // cluster-tree root count (scripts/check_bench_json.py).
        std::int64_t roots = 0;
        for (const apps::FlatRoutingTables::ClusterRec& c : s.cluster) {
          roots += c.parent < 0 ? 1 : 0;
        }
        json.phases(edt.ledger, 2 * g.m());
        json.metric("eps", eps);
        json.metric("avg_stretch", st.avg_stretch);
        json.metric("delivered_fraction", st.delivered_fraction);
        json.metric("n", static_cast<std::int64_t>(g.n()));
        json.metric("clusters", static_cast<std::int64_t>(s.k));
        json.metric("cluster_tree_roots", roots);
        json.metric("avg_table_bits", s.avg_table_bits());
        json.metric("max_table_bits", s.max_table_bits());
      }
      t.add_row({Table::num(eps, 2), Table::integer(edt.quality.max_diameter),
                 Table::integer(edt.clustering.k),
                 Table::num(st.avg_stretch, 2), Table::num(st.max_stretch, 2),
                 Table::num(s.avg_table_bits(), 0),
                 Table::integer(s.max_table_bits()),
                 Table::num(st.delivered_fraction, 3)});
    }
    t.print(std::cout);
  }

  {
    std::cout << "\n-- families at eps = 0.3\n";
    Table t({"family", "n", "clusters", "avg stretch", "max stretch",
             "avg table bits", "delivered"});
    for (const char* fam :
         {"planar", "grid", "outerplanar", "tree", "series-parallel"}) {
      const Graph g = make_family(fam, nfam, rng);
      const decomp::EdtDecomposition edt =
          decomp::build_edt_decomposition(g, 0.3);
      const apps::FlatRoutingTables s =
          apps::build_routing_scheme(g, edt.clustering);
      const apps::StretchStats st = apps::measure_stretch(g, s, pairs, rng);
      t.add_row({fam, Table::integer(g.n()), Table::integer(edt.clustering.k),
                 Table::num(st.avg_stretch, 2), Table::num(st.max_stretch, 2),
                 Table::num(s.avg_table_bits(), 0),
                 Table::num(st.delivered_fraction, 3)});
    }
    t.print(std::cout);
  }

  std::cout << "\nShape checks: delivery 1.0 everywhere; avg table bits stay "
               "O(log n); stretch and table bits both track the cluster "
               "count k — large eps pays cluster-tree hops, small eps pays "
               "D = O(1/eps) per hop.\n";
  json.write();
  return 0;
}
