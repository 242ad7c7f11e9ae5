"""Exp. R3 — scale-out cluster: read scaling and failover QoS.

The ``read-storm`` scenario offers a fixed workload (16 unpaced streams
over 8 replicated values) to clusters of different sizes; since the
workload does not depend on the node count, the throughput ratio
measures scale-out directly.  The ``node-kill`` scenario kills one of
four nodes under 12 paced streams at R=2: in-flight reads fail over to
surviving replicas and background repair restores replication under its
bandwidth cap without starving the admitted streams.

Gates:

* aggregate read throughput at 4 nodes is at least ``SCALING_FACTOR`` x
  the 1-node baseline (same seed, same workload);
* the single-node kill costs zero QoS violations among the admitted
  paced streams, at least one mid-stream failover actually happened,
  repair restored full replication, and nothing was stranded;
* the whole experiment is deterministic — a second run with the same
  seed must reproduce every number (and the summary lines) exactly.

Run the gates with ``python -m pytest
benchmarks/bench_cluster_scaling.py -q``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.cluster import SCENARIOS, summary_line
from repro.obs import scoped

SEED = 0
SCALING_FACTOR = 1.7
NODE_COUNTS = (1, 2, 4)


def run_all(seed: int) -> Tuple[Dict[str, Dict[str, object]],
                                Dict[str, str]]:
    """One full pass: read-storm at each size, node-kill, rebalance."""
    results: Dict[str, Dict[str, object]] = {}
    summaries: Dict[str, str] = {}
    for nodes in NODE_COUNTS:
        key = f"read-storm@{nodes}"
        # Fresh observability scope per run: cluster.* counters must not
        # bleed between runs.
        with scoped():
            facts = SCENARIOS["read-storm"](seed=seed, nodes=nodes)
        results[key] = facts
        summaries[key] = summary_line(key, facts)
    for name in ("node-kill", "rebalance"):
        with scoped():
            facts = SCENARIOS[name](seed=seed)
        results[name] = facts
        summaries[name] = summary_line(name, facts)
    return results, summaries


def check(results: Dict[str, Dict[str, object]]) -> Tuple[float, list]:
    """Evaluate the gates; return (scaling ratio, list of failures)."""
    failures = []
    base = float(results["read-storm@1"]["throughput_mbps"])
    peak = float(results["read-storm@4"]["throughput_mbps"])
    ratio = peak / base
    if ratio < SCALING_FACTOR:
        failures.append(
            f"read throughput scaled only {ratio:.2f}x from 1 to 4 nodes "
            f"(gate >= {SCALING_FACTOR}x)")
    for key in results:
        if key.startswith("read-storm"):
            storm = results[key]
            if storm["streams_completed"] != storm["streams"]:
                failures.append(f"{key}: only {storm['streams_completed']}"
                                f"/{storm['streams']} streams completed")
    kill = results["node-kill"]
    if int(kill["qos_violations"]) != 0:
        failures.append(
            f"node kill cost {kill['qos_violations']} QoS violations "
            f"among admitted streams (gate: zero)")
    if int(kill["failovers"]) < 1:
        failures.append("node kill caused no mid-stream failover; the "
                        "fault is not biting")
    if int(kill["under_replicated"]) != 0:
        failures.append(f"repair left {kill['under_replicated']} shards "
                        f"under-replicated")
    for key, facts in results.items():
        if int(facts.get("stranded_processes", 0)) != 0:
            failures.append(f"{key}: {facts['stranded_processes']} "
                            f"stranded processes after drain")
    return ratio, failures


def exhibit_text(results: Dict[str, Dict[str, object]],
                 ratio: float) -> str:
    kill = results["node-kill"]
    rebal = results["rebalance"]
    lines = [
        "Exp. R3 — scale-out cluster: read scaling and failover QoS",
        f"(seed {SEED}; fixed workload of "
        f"{results['read-storm@1']['streams']} streams, R=2)",
        "",
        f"  {'nodes':<8} {'throughput (Mb/s)':>18} {'last finish (s)':>16}",
    ]
    for nodes in NODE_COUNTS:
        storm = results[f"read-storm@{nodes}"]
        lines.append(f"  {nodes:<8} {storm['throughput_mbps']:>18} "
                     f"{storm['last_finish_s']:>16}")
    lines += [
        "",
        f"  scaling 1 -> 4 nodes: {ratio:.2f}x "
        f"(gate: >= {SCALING_FACTOR}x)",
        f"  node-kill: {kill['delivered_elements']} elements delivered by "
        f"{kill['streams']} paced streams; {kill['qos_violations']} QoS "
        f"violations (gate: 0), {kill['failovers']} failovers, "
        f"{kill['repairs']} repairs ({kill['repair_megabits']} Mb) under "
        f"the bandwidth cap, {kill['under_replicated']} under-replicated "
        f"after",
        f"  rebalance: {rebal['moved_shards']} shards moved to the joined "
        f"node; max replicas/node {rebal['max_replicas_before']} -> "
        f"{rebal['max_replicas_after']}; "
        f"{rebal['reader_qos_violations']} reader QoS violations",
        "",
        "gates: scaling ratio, zero kill-window QoS violations, >=1 "
        "failover, replication restored, two runs byte-identical",
    ]
    return "\n".join(lines)


def test_cluster_scales_and_survives_node_kill(exhibit):
    first, first_lines = run_all(SEED)
    second, second_lines = run_all(SEED)
    ratio, failures = check(first)
    exhibit("cluster_scaling", exhibit_text(first, ratio))
    assert first == second, "cluster scenarios are not deterministic"
    assert first_lines == second_lines, (
        "cluster summary lines are not deterministic across runs")
    assert not failures, "; ".join(failures)
