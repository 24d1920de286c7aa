#!/usr/bin/env python3
"""Schema check for the machine-readable bench output (BENCH_*.json).

Usage: check_bench_json.py FILE [FILE ...]
       check_bench_json.py --glob DIR   # checks every BENCH_*.json under DIR

Validates schema version 1 as emitted by bench/bench_common.hpp::BenchJson:

    {
      "schema_version": 1,
      "bench": str,
      "params": {str: str|int|float, ...},
      "phases": [{"phase": str, "rounds": int >= 0,
                  "messages": int >= 0, "max_congestion": int >= 0}, ...],
      "totals": {"rounds": int, "messages": int, "peak_congestion": int},
      "audit_ok": true,
      "metrics": {str: int|float, ...},
      "wall_time_ms": float >= 0
    }

Beyond key/type checks it re-derives the totals from the phase list and
enforces the same bandwidth invariants Runtime::audit() checks, so a bench
that emits inconsistent accounting fails CI even if the binary forgot to
audit. No third-party dependencies — stdlib json only.

bench_scale (bench == "scale") additionally publishes its sharded-engine
merge trail, which is re-derived here: a positive thread count, a positive
meter-shard count, and one shard{i}_messages metric per lane whose sum must
equal walk_messages_merged — the offline proof that the per-shard meters
merged to the serial totals (docs/ARCHITECTURE.md, "The bandwidth model").
A full-size grid run (params.smoke == 0) whose pool had at least 4 threads,
none of them oversubscribed (4 <= threads_actual <= hardware_threads), must
also reach speedup_grid >= SCALE_SPEEDUP_FLOOR; smoke runs are exempt. The
speedup is a ratio of medians over params.repeats alternating serial/sharded
pairs, so repeats must be a positive integer; the minflt_sharded_<family>
page-fault counts and the cpus_sharded_<family> CPU-placement counts are
report-only and only need to be non-negative integers.

bench_expander_decomp (bench == "expander_decomp") additionally publishes
the certified-vs-estimated conductance split of its certify_parts reports
(docs/ARCHITECTURE.md, "Conductance certification"): certify_ok must
be 1, the certified/estimated cluster counts must be non-negative, sum to
the cluster count, and cover at least one cluster, and both phi columns
must be genuine conductances in [0, 1].

bench_route_serve (bench == "route_serve") additionally publishes the
query-serving columns (docs/BENCHMARKS.md, E-RSERVE): positive qps for
every mix, latency percentiles that are positive and ordered
(p50 <= p90 <= p99), a positive table bytes/vertex figure, the
flat-vs-pointer-walk equivalence gate (equiv_ok == 1 over >= 1 sampled
pairs), and multi-thread throughput no worse than single-thread. The
multi-thread floor tolerates 15% timing noise on few-core CI runners; on a
one-thread host the bench reports multi == single by construction.

bench_compact_routing (bench == "compact_routing") additionally publishes
its eps = 0.25 row's compact-table claim: delivery must be exactly 1, and
avg_table_bits is re-derived exactly from n, the cluster count k and the
cluster-tree root count with apps::FlatRoutingTables::table_bits' formula
(every vertex but the k centers is a tree child, every cluster but the
roots a cluster-tree child).

The four cluster-solver application benches (bench in {"mds", "mis",
"matching_vc", "maxcut"}) additionally publish the solver-ladder audit
trail (docs/ARCHITECTURE.md, "The solver ladder"): per-tier cluster counts
that sum to the cluster count, a DP-width high-water mark within the
--tw_cap gate, and a self-consistent exact-search effort trail. Whenever
the gate admits the DP tier (params.tw_cap > 0), the mis, matching_vc and
maxcut representatives are chosen so it must fire (tier_tw_dp >= 1);
--tw_cap 0 is the no-DP ladder. mds instead gates its dedicated
12x12-grid showcase: solved BY the DP tier, witness dominates every
vertex, under 10 seconds of wall time.
"""
import glob
import json
import os
import sys

INT = int
NUM = (int, float)

# bench_scale's sharded/serial speedup floor for full-size grid runs at
# 4+ threads. Measured on a shared 4-core VM, 4 threads: the 4.2M-vertex
# grid's speedup read 1.61-2.26 over five runs (1.40-2.02 before the
# contraction's serial passes were pooled); the floor sits below that
# spread, so it catches a pool that stops paying, not host noise.
SCALE_SPEEDUP_FLOOR = 1.3


def fail(path, msg):
    print(f"{path}: SCHEMA VIOLATION: {msg}", file=sys.stderr)
    return False


def check_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, f"unreadable or invalid JSON ({e})")

    if not isinstance(doc, dict):
        return fail(path, "top level is not an object")
    if doc.get("schema_version") != 1:
        return fail(path, f"schema_version != 1 ({doc.get('schema_version')!r})")
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        return fail(path, "missing/empty 'bench' name")

    for key in ("params", "metrics"):
        val = doc.get(key)
        if not isinstance(val, dict):
            return fail(path, f"'{key}' is not an object")
        for k, v in val.items():
            if not isinstance(k, str) or not isinstance(v, NUM + (str,)):
                return fail(path, f"'{key}.{k}' has non-scalar value {v!r}")

    phases = doc.get("phases")
    if not isinstance(phases, list):
        return fail(path, "'phases' is not an array")
    rounds_sum = messages_sum = peak_max = 0
    for i, e in enumerate(phases):
        if not isinstance(e, dict):
            return fail(path, f"phases[{i}] is not an object")
        if not isinstance(e.get("phase"), str) or not e["phase"]:
            return fail(path, f"phases[{i}] missing phase name")
        for k in ("rounds", "messages", "max_congestion"):
            if not isinstance(e.get(k), INT) or isinstance(e.get(k), bool):
                return fail(path, f"phases[{i}].{k} is not an integer")
            if e[k] < 0:
                return fail(path, f"phases[{i}].{k} is negative")
        # The Runtime::audit() conservation invariants, re-checked offline.
        if e["messages"] > 0 and (e["rounds"] < 1 or e["max_congestion"] < 1):
            return fail(path, f"phases[{i}] has messages without rounds/congestion")
        if e["messages"] == 0 and e["max_congestion"] > 0:
            return fail(path, f"phases[{i}] has congestion without messages")
        if e["max_congestion"] > e["messages"]:
            return fail(path, f"phases[{i}] peak congestion exceeds messages")
        rounds_sum += e["rounds"]
        messages_sum += e["messages"]
        peak_max = max(peak_max, e["max_congestion"])

    totals = doc.get("totals")
    if not isinstance(totals, dict):
        return fail(path, "'totals' is not an object")
    expect = {"rounds": rounds_sum, "messages": messages_sum,
              "peak_congestion": peak_max}
    for k, v in expect.items():
        if not isinstance(totals.get(k), INT):
            return fail(path, f"totals.{k} is not an integer")
        if phases and totals[k] != v:
            return fail(path, f"totals.{k}={totals[k]} != sum/max of phases ({v})")

    if doc.get("audit_ok") is not True:
        return fail(path, f"audit_ok is {doc.get('audit_ok')!r}, expected true")
    wall = doc.get("wall_time_ms")
    if not isinstance(wall, NUM) or isinstance(wall, bool) or wall < 0:
        return fail(path, f"wall_time_ms invalid ({wall!r})")

    if doc["bench"] == "scale" and not check_scale(path, doc):
        return False
    if doc["bench"] == "expander_decomp" and not check_expander_decomp(path, doc):
        return False
    if doc["bench"] == "route_serve" and not check_route_serve(path, doc):
        return False
    if doc["bench"] == "compact_routing" and \
            not check_compact_routing(path, doc):
        return False
    if doc["bench"] in LADDER_BENCHES and not check_ladder(path, doc):
        return False

    print(f"{path}: ok ({len(phases)} phases, {messages_sum} messages)")
    return True


def check_scale(path, doc):
    """bench_scale extras: thread counts and the per-shard merge trail."""
    params, metrics = doc["params"], doc["metrics"]
    threads = params.get("threads")
    if not isinstance(threads, INT) or threads < 1:
        return fail(path, f"scale: params.threads invalid ({threads!r})")
    actual = metrics.get("threads_actual")
    if not isinstance(actual, INT) or actual < 1:
        return fail(path, f"scale: metrics.threads_actual invalid ({actual!r})")
    hardware = metrics.get("hardware_threads")
    if not isinstance(hardware, INT) or hardware < 0:
        return fail(path, f"scale: metrics.hardware_threads invalid ({hardware!r})")
    repeats = params.get("repeats")
    if not isinstance(repeats, INT) or repeats < 1:
        return fail(path, f"scale: params.repeats invalid ({repeats!r})")
    if params.get("smoke") == 0 and 4 <= actual <= hardware and \
            params.get("family") in ("grid", "all"):
        speedup = metrics.get("speedup_grid")
        if not isinstance(speedup, NUM):
            return fail(path, f"scale: metrics.speedup_grid invalid ({speedup!r})")
        if speedup < SCALE_SPEEDUP_FLOOR:
            return fail(path, f"scale: speedup_grid {speedup:.2f} below the "
                              f"{SCALE_SPEEDUP_FLOOR} floor at {actual} threads")
    shards = metrics.get("meter_shards")
    if not isinstance(shards, INT) or shards < 1:
        return fail(path, f"scale: metrics.meter_shards invalid ({shards!r})")
    # Re-derive the merged walk-meter total from the per-lane trail: every
    # lane must be present, non-negative, and the lanes must sum exactly.
    lane_sum = 0
    for i in range(shards):
        lane = metrics.get(f"shard{i}_messages")
        if not isinstance(lane, INT) or lane < 0:
            return fail(path, f"scale: shard{i}_messages invalid ({lane!r})")
        lane_sum += lane
    merged = metrics.get("walk_messages_merged")
    if not isinstance(merged, INT):
        return fail(path, f"scale: walk_messages_merged invalid ({merged!r})")
    if lane_sum != merged:
        return fail(path, f"scale: shard trail sums to {lane_sum}, "
                          f"walk_messages_merged is {merged}")
    # The engine cannot change the algorithm: serial and sharded round
    # totals were asserted identical in-binary; the published rounds must
    # be positive for every family column that made it into metrics.
    for key, val in metrics.items():
        if key.startswith("rounds_") and (not isinstance(val, INT) or val < 1):
            return fail(path, f"scale: metrics.{key} invalid ({val!r})")
        if key.startswith(("minflt_sharded_", "cpus_sharded_")) and \
                (not isinstance(val, INT) or val < 0):
            return fail(path, f"scale: metrics.{key} invalid ({val!r})")
    print(f"{path}: scale merge trail ok ({shards} lanes, {merged} messages)")
    return True


def check_expander_decomp(path, doc):
    """bench_expander_decomp extras: the certified-vs-estimated phi split."""
    metrics = doc["metrics"]
    if metrics.get("certify_ok") != 1:
        return fail(path, f"expander_decomp: certify_ok is "
                          f"{metrics.get('certify_ok')!r}, expected 1")
    counts = {}
    for key in ("clusters_certified", "clusters_estimated"):
        val = metrics.get(key)
        if not isinstance(val, INT) or isinstance(val, bool) or val < 0:
            return fail(path, f"expander_decomp: metrics.{key} invalid ({val!r})")
        counts[key] = val
    if counts["clusters_certified"] + counts["clusters_estimated"] < 1:
        return fail(path, "expander_decomp: no cluster was certified OR estimated")
    clusters = metrics.get("clusters")
    if isinstance(clusters, INT) and \
            counts["clusters_certified"] + counts["clusters_estimated"] != clusters:
        return fail(path, f"expander_decomp: certified+estimated "
                          f"({counts['clusters_certified']}+"
                          f"{counts['clusters_estimated']}) != clusters ({clusters})")
    for key in ("phi_certified_lower", "phi_estimate_min"):
        val = metrics.get(key)
        if not isinstance(val, NUM) or isinstance(val, bool) or \
                not (0.0 <= val <= 1.0):
            return fail(path, f"expander_decomp: metrics.{key} invalid ({val!r})")
    # Certify-scaling section (implicit-matrix engine): the pooled report is
    # gated bit-identical in-binary (certify_scale_ok), the counts must cover
    # the scaling clusters, pooled wall time must not regress past serial
    # (15% + 25ms slack, same tolerance family as the route_serve qps gate),
    # and at full scale a certified cluster above the old 1024 cap must exist.
    if metrics.get("certify_scale_ok") != 1:
        return fail(path, f"expander_decomp: certify_scale_ok is "
                          f"{metrics.get('certify_scale_ok')!r}, expected 1")
    scale = {}
    for key in ("certify_scale_n", "certify_scale_clusters",
                "certify_scale_certified", "certify_scale_estimated",
                "max_cluster_certified", "certify_state_bytes_peak"):
        val = metrics.get(key)
        if not isinstance(val, INT) or isinstance(val, bool) or val < 0:
            return fail(path, f"expander_decomp: metrics.{key} invalid ({val!r})")
        scale[key] = val
    if scale["certify_scale_certified"] + scale["certify_scale_estimated"] != \
            scale["certify_scale_clusters"]:
        return fail(path, "expander_decomp: certify_scale certified+estimated "
                          "does not cover clusters")
    if scale["certify_scale_n"] > 1024 and scale["max_cluster_certified"] <= 1024:
        return fail(path, f"expander_decomp: no certified cluster above 1024 "
                          f"vertices (max {scale['max_cluster_certified']}) at "
                          f"certify_scale_n={scale['certify_scale_n']}")
    n_scale = scale["certify_scale_n"]
    if scale["certify_state_bytes_peak"] >= 8 * n_scale * n_scale:
        return fail(path, "expander_decomp: game state high-water not below "
                          "the dense 8*n^2 bytes")
    walls = {}
    for key in ("certify_wall_serial_ms", "certify_wall_pooled_ms"):
        val = metrics.get(key)
        if not isinstance(val, NUM) or isinstance(val, bool) or val < 0.0:
            return fail(path, f"expander_decomp: metrics.{key} invalid ({val!r})")
        walls[key] = val
    if walls["certify_wall_pooled_ms"] > \
            1.15 * walls["certify_wall_serial_ms"] + 25.0:
        return fail(path, f"expander_decomp: pooled certify wall "
                          f"({walls['certify_wall_pooled_ms']:.1f} ms) regressed "
                          f"past serial ({walls['certify_wall_serial_ms']:.1f} ms)")
    print(f"{path}: certify split ok ({counts['clusters_certified']} certified, "
          f"{counts['clusters_estimated']} estimated); certify scaling ok "
          f"(max certified cluster {scale['max_cluster_certified']} of "
          f"n={scale['certify_scale_n']}, pooled "
          f"{walls['certify_wall_pooled_ms']:.1f} ms vs serial "
          f"{walls['certify_wall_serial_ms']:.1f} ms)")
    return True


# Application benches whose representative run publishes the solver-ladder
# audit trail (per-tier cluster counts + exact-search effort).
LADDER_BENCHES = {"mds", "mis", "matching_vc", "maxcut"}

# The in-header clamp on the DP tier's width gate (apps/treewidth.hpp,
# LadderConfig::tw_cap): a generous --tw_cap can never admit wider tables.
TW_CAP_CLAMP = 13


def check_ladder(path, doc):
    """Cluster-solver bench extras: the solver-ladder audit trail."""
    bench, params, metrics = doc["bench"], doc["params"], doc["metrics"]
    tiers = {}
    for key in ("tier_forest", "tier_tw_dp", "tier_bb", "tier_greedy"):
        val = metrics.get(key)
        if not isinstance(val, INT) or isinstance(val, bool) or val < 0:
            return fail(path, f"{bench}: metrics.{key} invalid ({val!r})")
        tiers[key] = val
    clusters = metrics.get("clusters")
    if not isinstance(clusters, INT) or isinstance(clusters, bool) or \
            clusters < 1:
        return fail(path, f"{bench}: metrics.clusters invalid ({clusters!r})")
    if sum(tiers.values()) != clusters:
        return fail(path, f"{bench}: tier counts sum to {sum(tiers.values())}, "
                          f"clusters is {clusters}")
    tw_cap = params.get("tw_cap")
    if not isinstance(tw_cap, INT) or isinstance(tw_cap, bool) or tw_cap < 0:
        return fail(path, f"{bench}: params.tw_cap invalid ({tw_cap!r})")
    width = metrics.get("max_width_dp")
    if not isinstance(width, INT) or isinstance(width, bool):
        return fail(path, f"{bench}: metrics.max_width_dp invalid ({width!r})")
    if tiers["tier_tw_dp"] > 0 and not 0 <= width <= min(tw_cap, TW_CAP_CLAMP):
        return fail(path, f"{bench}: max_width_dp={width} escapes the "
                          f"tw_cap={tw_cap} gate")
    if tiers["tier_tw_dp"] == 0 and width != -1:
        return fail(path, f"{bench}: max_width_dp={width} without a DP solve")
    # Exact-search effort: every launched search explored >= 1 node; a
    # search that survived its budget lands in the bb tier, a blown one
    # falls back to the greedy tier.
    effort = {}
    for key in ("bb_runs", "bb_nodes", "bb_exact_runs"):
        val = metrics.get(key)
        if not isinstance(val, INT) or isinstance(val, bool) or val < 0:
            return fail(path, f"{bench}: metrics.{key} invalid ({val!r})")
        effort[key] = val
    if effort["bb_exact_runs"] > effort["bb_runs"]:
        return fail(path, f"{bench}: bb_exact_runs exceeds bb_runs ({effort})")
    if effort["bb_runs"] > 0 and effort["bb_nodes"] < effort["bb_runs"]:
        return fail(path, f"{bench}: bb_nodes below bb_runs ({effort})")
    if tiers["tier_bb"] != effort["bb_exact_runs"]:
        return fail(path, f"{bench}: tier_bb ({tiers['tier_bb']}) != "
                          f"bb_exact_runs ({effort['bb_exact_runs']})")
    if effort["bb_runs"] - effort["bb_exact_runs"] > tiers["tier_greedy"]:
        return fail(path, f"{bench}: more blown searches than greedy "
                          f"clusters ({effort} vs {tiers})")
    solve_ms = metrics.get("solve_ms")
    if not isinstance(solve_ms, NUM) or isinstance(solve_ms, bool) or \
            solve_ms < 0:
        return fail(path, f"{bench}: metrics.solve_ms invalid ({solve_ms!r})")
    # Exact coverage floors. The mis / matching_vc / maxcut representatives
    # (planar, outerplanar, grid) are chosen so the width gate certifies at
    # least one cluster whenever the gate admits the DP tier (tw_cap > 0);
    # mds gates its dedicated showcase below instead.
    if bench != "mds" and tw_cap > 0 and tiers["tier_tw_dp"] < 1:
        return fail(path, f"{bench}: treewidth-DP tier never fired ({tiers})")
    if bench == "matching_vc":
        # The grid VC row: grid clusters are bipartite, so the König rung
        # must take every one — no budgeted search, no greedy fallback.
        for key in ("grid_tier_greedy", "grid_bb_runs"):
            val = metrics.get(key)
            if not isinstance(val, INT) or isinstance(val, bool) or val != 0:
                return fail(path, f"matching_vc: metrics.{key} is {val!r}, "
                                  f"want 0 (bipartite grid clusters left "
                                  f"the König rung)")
    if bench == "mds":
        for key, lo, hi in (("tw_showcase_via_dp", 1, 1),
                            ("tw_showcase_valid", 1, 1),
                            ("tw_showcase_width", 1, TW_CAP_CLAMP),
                            ("tw_showcase_size", 1, 144)):
            val = metrics.get(key)
            if not isinstance(val, INT) or isinstance(val, bool) or \
                    not lo <= val <= hi:
                return fail(path, f"mds: metrics.{key} invalid ({val!r}, "
                                  f"want [{lo}, {hi}])")
        ms = metrics.get("tw_showcase_ms")
        if not isinstance(ms, NUM) or isinstance(ms, bool) or \
                not 0 <= ms < 10_000:
            return fail(path, f"mds: tw_showcase_ms invalid ({ms!r}, the "
                              f"12x12 DP solve must stay under 10 s)")
    print(f"{path}: solver-ladder trail ok (F{tiers['tier_forest']}/"
          f"TW{tiers['tier_tw_dp']}/BB{tiers['tier_bb']}/"
          f"G{tiers['tier_greedy']} over {clusters} clusters, "
          f"max DP width {width})")
    return True


def ceil_log2(x):
    """congest::ceil_log2: the smallest b >= 1 with 2^b >= x."""
    bits = 1
    while bits < 62 and (1 << bits) < x:
        bits += 1
    return bits


def check_compact_routing(path, doc):
    """bench_compact_routing extras: delivery and the table-bit claim."""
    metrics = doc["metrics"]
    if metrics.get("delivered_fraction") != 1:
        return fail(path, f"compact_routing: delivered_fraction is "
                          f"{metrics.get('delivered_fraction')!r}, expected 1")
    counts = {}
    for key in ("n", "clusters", "cluster_tree_roots", "max_table_bits"):
        val = metrics.get(key)
        if not isinstance(val, INT) or isinstance(val, bool) or val < 1:
            return fail(path, f"compact_routing: metrics.{key} invalid ({val!r})")
        counts[key] = val
    n, k, roots = counts["n"], counts["clusters"], counts["cluster_tree_roots"]
    if not roots <= k <= n:
        return fail(path, f"compact_routing: need roots <= clusters <= n "
                          f"({roots}, {k}, {n})")
    # Sum of table_bits(v) over all v: every vertex stores its cluster id,
    # parent port and interval; the n - k tree children cost one interval
    # each at their parent; each of the k centers adds its cluster interval
    # and parent portal, plus one label+portal per cluster-tree child.
    logn, logk = ceil_log2(max(n, 2)), ceil_log2(max(k, 2))
    total = (n * (logk + 3 * logn) + (n - k) * 2 * logn +
             (k + (k - roots)) * (2 * logk + logn))
    expect = float("%.6g" % (total / n))  # BenchJson's metric precision
    avg = metrics.get("avg_table_bits")
    if not isinstance(avg, NUM) or isinstance(avg, bool) or avg != expect:
        return fail(path, f"compact_routing: avg_table_bits {avg!r} != "
                          f"{expect!r} re-derived from n={n}, k={k}, "
                          f"roots={roots}")
    if counts["max_table_bits"] < avg:
        return fail(path, f"compact_routing: max_table_bits "
                          f"{counts['max_table_bits']} below the average {avg}")
    print(f"{path}: compact_routing table bits ok (avg {avg} over n={n}, "
          f"k={k}, {roots} cluster-tree roots)")
    return True


def check_route_serve(path, doc):
    """bench_route_serve extras: qps/latency/bytes columns + the gates."""
    metrics = doc["metrics"]
    if metrics.get("equiv_ok") != 1:
        return fail(path, f"route_serve: equiv_ok is "
                          f"{metrics.get('equiv_ok')!r}, expected 1")
    equiv_pairs = metrics.get("equiv_pairs")
    if not isinstance(equiv_pairs, INT) or equiv_pairs < 1:
        return fail(path, f"route_serve: equiv_pairs invalid ({equiv_pairs!r})")
    threads = metrics.get("threads_actual")
    if not isinstance(threads, INT) or threads < 1:
        return fail(path, f"route_serve: threads_actual invalid ({threads!r})")
    qps = {}
    for key in ("qps_cold_single", "qps_uniform_single", "qps_uniform_multi",
                "qps_zipf_multi"):
        val = metrics.get(key)
        if not isinstance(val, NUM) or isinstance(val, bool) or val <= 0:
            return fail(path, f"route_serve: metrics.{key} invalid ({val!r})")
        qps[key] = val
    # The acceptance gate: serving must scale, never anti-scale. A 15%
    # tolerance absorbs timing noise on few-core CI runners; a one-thread
    # host reports multi == single by construction, which passes exactly.
    if qps["qps_uniform_multi"] < 0.85 * qps["qps_uniform_single"]:
        return fail(path, f"route_serve: multi-thread qps "
                          f"({qps['qps_uniform_multi']}) below single-thread "
                          f"({qps['qps_uniform_single']})")
    lat = {}
    for key in ("p50_lookup_ns", "p90_lookup_ns", "p99_lookup_ns"):
        val = metrics.get(key)
        if not isinstance(val, NUM) or isinstance(val, bool) or val <= 0:
            return fail(path, f"route_serve: metrics.{key} invalid ({val!r})")
        lat[key] = val
    if not lat["p50_lookup_ns"] <= lat["p90_lookup_ns"] <= lat["p99_lookup_ns"]:
        return fail(path, f"route_serve: latency percentiles out of order "
                          f"({lat})")
    samples = metrics.get("latency_samples")
    if not isinstance(samples, INT) or samples < 1:
        return fail(path, f"route_serve: latency_samples invalid ({samples!r})")
    bpv = metrics.get("bytes_per_vertex")
    if not isinstance(bpv, NUM) or isinstance(bpv, bool) or bpv <= 0:
        return fail(path, f"route_serve: bytes_per_vertex invalid ({bpv!r})")
    delivered = metrics.get("delivered_fraction")
    if not isinstance(delivered, NUM) or isinstance(delivered, bool) or \
            not (0.0 <= delivered <= 1.0):
        return fail(path, f"route_serve: delivered_fraction invalid "
                          f"({delivered!r})")
    stretch = metrics.get("avg_stretch")
    if not isinstance(stretch, NUM) or isinstance(stretch, bool) or stretch < 1.0:
        return fail(path, f"route_serve: avg_stretch invalid ({stretch!r})")
    print(f"{path}: route_serve gates ok "
          f"({qps['qps_uniform_multi']:.0f} qps multi / "
          f"{qps['qps_uniform_single']:.0f} qps single, "
          f"p99 {lat['p99_lookup_ns']:.0f} ns)")
    return True


def main(argv):
    if len(argv) >= 2 and argv[1] == "--glob":
        root = argv[2] if len(argv) > 2 else "."
        files = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))
    else:
        files = argv[1:]
    if not files:
        print("check_bench_json.py: no BENCH_*.json files to check",
              file=sys.stderr)
        return 1
    ok = all([check_file(f) for f in files])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
