// Experiment E-SCALE — the sharded per-round engine at multi-million-vertex
// sizes (congest/shard.hpp).
//
// Claims this harness measures:
//   * correctness — the sharded Theorem 1.1 pipeline (build_edt_decomposition,
//     the configuration every caller ships) is BIT-IDENTICAL to the
//     serial reference at every size (clusterings, cut edges, per-phase
//     ledger entries, Runtime::audit totals, all five quality fields of the
//     pooled evaluate_clustering) — the run aborts on the first
//     divergence, so a scaling number from a wrong answer cannot ship;
//   * rounds stay flat — simulated-round totals depend on the algorithm, not
//     on the engine or the machine, so the serial and sharded columns agree
//     exactly and stay near-flat in n (Theorem 1.1's diameter-free bound);
//   * wall time per simulated round is the engine's own figure of merit, and
//     the serial/sharded ratio is the headline speedup column. Each size
//     runs kRepeats alternating serial/sharded pairs, each pair through the
//     equivalence gate, and the times are the medians of each side, so one
//     slow sample on a shared host cannot set the ratio. The speedup is
//     real only on multi-core hosts: with --threads above the machine's
//     core count (or on a 1-core CI box) expect ~1x plus scheduling noise —
//     the column reports what the host actually did, never a formula.
//     The JSON publishes hardware_threads next to threads_actual, so
//     scripts/check_bench_json.py can hold a full-size run on a host with
//     at least 4 cores to a speedup floor;
//   * minor page faults per sharded call (getrusage, median over the
//     repeats), report-only: a contraction that allocates its large
//     buffers anew every iteration shows here first;
//   * CPU placement per sharded call, report-only: how many distinct CPUs
//     the pool's threads claimed tasks on (ShardPool::trace_cpus), one
//     count per repeat. A call whose pooled loops all ran on one CPU
//     cannot speed up, whatever the engine does;
//   * a fixed last row on the compact-routing instance (random planar,
//     n = 262144, m = 2n, ε = 0.3; 16384 vertices under --smoke), whose
//     large clusters sit at low ids — the case the size-weighted cluster
//     sweeps exist for. Same gate; its speedup has no floor.
//
// A second section drives the walk engine (Lemma 2.5) over the pool and
// publishes its per-shard merged-meter trail: shard{i}_messages must sum to
// the "walk rounds" phase messages, which scripts/check_bench_json.py
// re-derives offline from the JSON.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "congest/shard.hpp"
#include "decomp/edt.hpp"
#include "expander/rw_routing.hpp"
#include "graph/ops.hpp"

namespace {

// Alternating serial/sharded pairs per size; the published times are the
// per-side medians.
constexpr int kRepeats = 3;

// ε of the compact-routing row (pipebench route-serve-planar's set-up).
constexpr double kRouteEps = 0.3;

double wall_ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

template <class T>
T median(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

bool same_charges(const mfd::congest::Runtime& a,
                  const mfd::congest::Runtime& b) {
  if (a.entries().size() != b.entries().size()) return false;
  for (std::size_t i = 0; i < a.entries().size(); ++i) {
    const mfd::congest::RoundCharge& x = a.entries()[i];
    const mfd::congest::RoundCharge& y = b.entries()[i];
    if (x.phase != y.phase || x.rounds != y.rounds ||
        x.messages != y.messages || x.max_congestion != y.max_congestion) {
      return false;
    }
  }
  return true;
}

bool same_quality(const mfd::decomp::ClusterQuality& a,
                  const mfd::decomp::ClusterQuality& b) {
  return a.max_diameter == b.max_diameter &&
         a.max_cluster_size == b.max_cluster_size &&
         a.cut_edges == b.cut_edges && a.eps_fraction == b.eps_fraction &&
         a.clusters_connected == b.clusters_connected;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mfd;
  using namespace mfd::bench;
  const Cli cli(argc, argv);
  const bool smoke = cli.has("smoke");  // trimmed instances for ctest/CI
  // --n caps the sweep; the full sweep covers {1M, 2M, 4M} up to the cap.
  const std::int64_t n_cap = cli.get_int("n", smoke ? 16384 : 1 << 22);
  const int threads = static_cast<int>(cli.get_int("threads", 8));
  const double eps = cli.get_double("eps", 0.3);
  const std::int64_t seed = cli.get_int("seed", 3);
  const std::string family_flag = cli.get("family", "grid");
  BenchJson json(cli, "scale");
  cli.warn_unrecognized(std::cerr);

  const std::vector<std::string> families =
      family_flag == "all"
          ? std::vector<std::string>{"grid", "torus", "planar-sparse"}
          : std::vector<std::string>{family_flag};
  std::vector<std::int64_t> sizes;
  for (std::int64_t s : smoke ? std::vector<std::int64_t>{4096, 16384}
                              : std::vector<std::int64_t>{1 << 20, 1 << 21,
                                                          1 << 22}) {
    if (s <= n_cap) sizes.push_back(s);
  }
  if (sizes.empty()) sizes.push_back(n_cap);

  json.param("n", n_cap);
  json.param("family", family_flag);
  json.param("threads", static_cast<std::int64_t>(threads));
  json.param("eps", eps);
  json.param("seed", seed);
  json.param("smoke", static_cast<std::int64_t>(smoke ? 1 : 0));
  json.param("repeats", static_cast<std::int64_t>(kRepeats));

  print_header("E-SCALE: sharded round engine vs serial reference",
               "wall time per simulated round, serial vs sharded, at "
               "multi-million-vertex sizes (Theorem 1.1 pipeline)");
  std::cout << "threads requested: " << threads << " (hardware has "
            << std::thread::hardware_concurrency()
            << "); speedup is host-bound, correctness is not\n\n";

  // One pool for the whole bench: thread startup is not free, and lending it
  // across runs is exactly how the benches are meant to use the engine.
  congest::ShardPool pool(threads);
  json.metric("threads_actual", static_cast<std::int64_t>(pool.threads()));
  json.metric("hardware_threads",
              static_cast<std::int64_t>(std::thread::hardware_concurrency()));

  Table t({"family", "n", "m", "rounds", "rounds (sharded)", "serial ms",
           "sharded ms", "ms/round", "ms/round (sharded)", "speedup",
           "minflt (sharded)", "CPUs (sharded)"});
  bool phases_recorded = false;
  // One row: kRepeats alternating serial/sharded pairs on g, each through
  // the equivalence gate. The JSON keys of a published row end in `label`.
  // Returns false on a divergence.
  const auto run_row = [&](const std::string& label, const Graph& g,
                           double row_eps, bool publish) {
    const std::string ctx = label + " n=" + std::to_string(g.n());
    decomp::EdtParams sp;
    sp.pool = &pool;
    std::vector<double> serial_times, sharded_times;
    std::vector<long> sharded_faults;
    std::vector<int> sharded_cpus;
    decomp::EdtDecomposition serial, sharded;
    for (int rep = 0; rep < kRepeats; ++rep) {
      const auto t_serial = std::chrono::steady_clock::now();
      serial = decomp::build_edt_decomposition(g, row_eps);
      serial_times.push_back(wall_ms_since(t_serial));

      const long faults0 = minor_faults();
      pool.trace_cpus(true);
      const auto t_sharded = std::chrono::steady_clock::now();
      sharded = decomp::build_edt_decomposition(g, row_eps, sp);
      sharded_times.push_back(wall_ms_since(t_sharded));
      pool.trace_cpus(false);
      sharded_faults.push_back(minor_faults() - faults0);
      sharded_cpus.push_back(pool.traced_cpus());

      // The equivalence gate, on every repeat: a sharded engine that
      // diverges from the serial reference in ANY observable fails the
      // bench before any timing ships.
      if (serial.clustering.cluster != sharded.clustering.cluster ||
          serial.T_measured != sharded.T_measured ||
          !same_charges(serial.ledger, sharded.ledger) ||
          !same_quality(serial.quality, sharded.quality)) {
        std::cerr << "sharded/serial DIVERGENCE (" << ctx << ", repeat "
                  << rep << ")\n";
        return false;
      }
    }
    const double serial_ms = median(serial_times);
    const double sharded_ms = median(sharded_times);
    const long faults = median(sharded_faults);
    check_runtime_audit(sharded.ledger, 2 * g.m(), ctx);
    const std::int64_t rounds = serial.ledger.total();
    const double per_round_serial =
        rounds > 0 ? serial_ms / static_cast<double>(rounds) : 0.0;
    const double per_round_sharded =
        rounds > 0 ? sharded_ms / static_cast<double>(rounds) : 0.0;
    const double speedup = sharded_ms > 0.0 ? serial_ms / sharded_ms : 0.0;
    std::string cpus;
    for (int c : sharded_cpus) {
      cpus += (cpus.empty() ? "" : "/") + std::to_string(c);
    }
    t.add_row({label, Table::integer(g.n()), Table::integer(g.m()),
               Table::integer(rounds), Table::integer(sharded.ledger.total()),
               Table::num(serial_ms, 1), Table::num(sharded_ms, 1),
               Table::num(per_round_serial, 3),
               Table::num(per_round_sharded, 3), Table::num(speedup, 2),
               Table::integer(faults), cpus});
    if (!publish) return true;
    json.metric("speedup_" + label, speedup);
    json.metric("minflt_sharded_" + label, static_cast<std::int64_t>(faults));
    json.metric("cpus_sharded_" + label,
                static_cast<std::int64_t>(*std::min_element(
                    sharded_cpus.begin(), sharded_cpus.end())));
    json.metric("rounds_" + label, rounds);
    json.metric("ms_per_round_serial_" + label, per_round_serial);
    json.metric("ms_per_round_sharded_" + label, per_round_sharded);
    if (!phases_recorded) {
      // Representative phase breakdown: the sharded run on the largest
      // instance of the first family (grid by default) — audit included.
      json.phases(sharded.ledger, 2 * g.m());
      phases_recorded = true;
    }
    return true;
  };
  for (const std::string& family : families) {
    for (std::int64_t size : sizes) {
      Rng rng(seed);
      const Graph g = make_family(family, static_cast<int>(size), rng);
      if (!run_row(family, g, eps, size == sizes.back())) return 1;
    }
  }
  // The compact-routing instance: pipebench route-serve-planar's set-up
  // EDT, whose big clusters crowd the low cluster ids. Its speedup is
  // report-only.
  {
    Rng rng(seed);
    const Graph g = make_family("planar-sparse", smoke ? 16384 : 262144, rng);
    if (!run_row("route", g, kRouteEps, true)) return 1;
  }
  t.print(std::cout);
  std::cout << "\nShape checks: the two rounds columns agree exactly (the "
               "engine cannot change the algorithm), rounds stay near-flat "
               "in n, and speedup approaches min(threads, cores) as the "
               "per-round work grows.\n";

  // The pooled walk engine and its merged-meter trail (Lemma 2.5): the
  // per-shard message totals are published so the JSON checker can re-derive
  // the merged "walk rounds" charge offline.
  {
    const int rw_n = smoke ? 2047 : 65535;
    Rng rng(17);
    const expander::ExpanderSplit sp =
        expander::expander_split(add_apex(cycle_graph(rw_n)), rng);
    expander::RwParams rp;
    rp.pool = &pool;
    const expander::RwResult rw =
        expander::gather_random_walks(sp, rw_n, 0.05, rp);
    std::cout << "\n-- pooled walk engine (apexed cycle, n=" << rw_n + 1
              << "): delivered " << Table::num(rw.delivered_fraction, 3)
              << ", rounds " << rw.rounds << ", meter shards "
              << rw.shard_messages.size() << "\n";
    check_runtime_audit(rw.ledger, 2 * sp.g.m(), "rw walk");
    std::int64_t lane_sum = 0;
    for (std::int64_t m : rw.shard_messages) lane_sum += m;
    const std::int64_t walk_messages = rw.ledger.entries()[0].messages;
    if (lane_sum != walk_messages) {
      std::cerr << "merged-meter trail FAILED: lanes sum to " << lane_sum
                << ", walk rounds charged " << walk_messages << "\n";
      return 1;
    }
    std::cout << "merged-meter trail: " << rw.shard_messages.size()
              << " lanes sum to " << lane_sum << " == walk-round messages\n";
    json.metric("meter_shards",
                static_cast<std::int64_t>(rw.shard_messages.size()));
    json.metric("walk_messages_merged", walk_messages);
    for (std::size_t s = 0; s < rw.shard_messages.size(); ++s) {
      json.metric("shard" + std::to_string(s) + "_messages",
                  rw.shard_messages[s]);
    }
  }

  json.write();
  return 0;
}
