"""Exp. R4 — cache tier: flash-crowd goodput and coherence under churn.

The ``zipf-crowd`` scenario offers one fixed Zipf-skewed workload (2000
sessions, one viral asset drawing the bulk of them, a protected
interactive slice) to the same 4-node cluster twice: once bare and once
behind the two-level cache hierarchy (edge caches + per-node block
caches + hot-shard replication boost).  Since the offered load is drawn
from the seed before either run, the goodput ratio measures the cache
tier directly.  The ``churn`` scenario bumps a value's version and kills
an edge mid-crowd to prove the speedup never serves stale bytes.

Gates:

* cached goodput is at least ``GOODPUT_FACTOR`` x the cache-less
  baseline on the identical workload (same seed, same arrivals);
* zero QoS violations among admitted *interactive* sessions in the
  cached run — the fill traffic is BACKGROUND and preemptible, so the
  speedup cannot come out of the interactive slice;
* every replication boost is matched by an unboost (no placement ends
  above its declared R) and nothing is stranded;
* both eviction policies (lru, cost-aware) deliver byte-identical
  content (equal digests) with zero interactive violations;
* under a tight edge capacity (12 of 96 corpus blocks fit) the
  cost-aware policy must beat lru on hit ratio while still serving
  identical bytes — eviction pressure is where GDSF earns its keep;
* churn coherence: zero stale tags served across version bumps and an
  edge outage;
* the whole experiment is deterministic — a second run with the same
  seed must reproduce every number (and the summary lines) exactly.

Run the gates with ``python -m pytest benchmarks/bench_cache_goodput.py
-q``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.cache import SCENARIOS, summary_line
from repro.obs import scoped

SEED = 0
GOODPUT_FACTOR = 3.0
POLICIES = ("lru", "cost-aware")
#: the policy comparison runs at an edge capacity far below the corpus
#: (12 blocks vs 96), so eviction pressure is real; smaller crowd keeps
#: the extra regime cheap.
TIGHT_CAPACITY_BYTES = 360_000
TIGHT_SESSIONS = 600


def run_all(seed: int) -> Tuple[Dict[str, Dict[str, object]],
                                Dict[str, str]]:
    """One full pass: bare baseline, both policies cached, churn."""
    results: Dict[str, Dict[str, object]] = {}
    summaries: Dict[str, str] = {}
    # Fresh observability scope per run: cache.* counters must not
    # bleed between regimes.
    with scoped():
        results["zipf@bare"] = SCENARIOS["zipf-crowd"](seed=seed,
                                                       cached=False)
    summaries["zipf@bare"] = summary_line("zipf@bare", results["zipf@bare"])
    for policy in POLICIES:
        key = f"zipf@{policy}"
        with scoped():
            results[key] = SCENARIOS["zipf-crowd"](seed=seed, cached=True,
                                                   policy=policy)
        summaries[key] = summary_line(key, results[key])
    for policy in POLICIES:
        key = f"zipf-tight@{policy}"
        with scoped():
            results[key] = SCENARIOS["zipf-crowd"](
                seed=seed, cached=True, policy=policy,
                sessions=TIGHT_SESSIONS,
                edge_capacity_bytes=TIGHT_CAPACITY_BYTES)
        summaries[key] = summary_line(key, results[key])
    with scoped():
        results["churn"] = SCENARIOS["churn"](seed=seed)
    summaries["churn"] = summary_line("churn", results["churn"])
    return results, summaries


def check(results: Dict[str, Dict[str, object]]) -> Tuple[float, list]:
    """Evaluate the gates; return (goodput ratio, list of failures)."""
    failures = []
    base = float(results["zipf@bare"]["goodput_mbps"])
    cached = float(results["zipf@lru"]["goodput_mbps"])
    ratio = cached / base if base > 0 else 0.0
    if ratio < GOODPUT_FACTOR:
        failures.append(
            f"caching won only {ratio:.2f}x goodput over the bare cluster "
            f"(gate >= {GOODPUT_FACTOR}x)")
    digests = set()
    for policy in POLICIES:
        run = results[f"zipf@{policy}"]
        if int(run["interactive_violations"]) != 0:
            failures.append(
                f"zipf@{policy}: {run['interactive_violations']} QoS "
                f"violations among admitted interactive sessions (gate: 0)")
        if int(run["boosted_at_end"]) != 0:
            failures.append(
                f"zipf@{policy}: {run['boosted_at_end']} placement(s) "
                f"still boosted after the crowd (leaked boost)")
        if int(run["replica_boosts"]) != int(run["replica_unboosts"]):
            failures.append(
                f"zipf@{policy}: {run['replica_boosts']} boosts vs "
                f"{run['replica_unboosts']} unboosts")
        digests.add(run["digest"])
    if len(digests) != 1:
        failures.append("eviction policies served different bytes: "
                        f"{sorted(digests)}")
    # Tight-capacity regime: eviction pressure is real (the edge holds
    # 12 blocks of a 96-block corpus), so the policies must diverge in
    # hit ratio while still agreeing byte-for-byte.
    tight_digests = {results[f"zipf-tight@{p}"]["digest"] for p in POLICIES}
    if len(tight_digests) != 1:
        failures.append("tight-capacity policies served different bytes: "
                        f"{sorted(tight_digests)}")
    tight_lru = float(results["zipf-tight@lru"]["hit_ratio"])
    tight_gdsf = float(results["zipf-tight@cost-aware"]["hit_ratio"])
    if tight_gdsf <= tight_lru:
        failures.append(
            f"cost-aware hit ratio {tight_gdsf} does not beat lru "
            f"{tight_lru} under tight capacity — the cost-aware policy "
            f"has stopped earning its keep")
    churn = results["churn"]
    if int(churn["stale_tags"]) != 0:
        failures.append(f"churn served {churn['stale_tags']} stale-tagged "
                        f"span(s) (gate: 0)")
    for fact in ("wave_agreement", "a_changed_after_bump", "b_stable"):
        if churn[fact] is not True:
            failures.append(f"churn coherence fact {fact} is {churn[fact]}")
    for key, facts in results.items():
        if int(facts.get("stranded_processes", 0)) != 0:
            failures.append(f"{key}: {facts['stranded_processes']} "
                            f"stranded processes after drain")
    return ratio, failures


def exhibit_text(results: Dict[str, Dict[str, object]],
                 ratio: float) -> str:
    churn = results["churn"]
    lines = [
        "Exp. R4 — cache tier: flash-crowd goodput and coherence",
        f"(seed {SEED}; fixed Zipf workload of "
        f"{results['zipf@bare']['sessions']} sessions, one viral asset)",
        "",
        f"  {'regime':<16} {'goodput (Mb/s)':>15} {'hit ratio':>10} "
        f"{'admitted':>9} {'interactive viol.':>18}",
    ]
    for key in ("zipf@bare", "zipf@lru", "zipf@cost-aware"):
        run = results[key]
        lines.append(
            f"  {key:<16} {run['goodput_mbps']:>15} "
            f"{run['hit_ratio']:>10} {run['sessions_admitted']:>9} "
            f"{run['interactive_violations']:>18}")
    lines += [
        "",
        f"  eviction under pressure ({TIGHT_CAPACITY_BYTES // 1000} KB "
        f"edges, {TIGHT_SESSIONS} sessions — 12 of 96 corpus blocks fit):",
    ]
    for policy in POLICIES:
        run = results[f"zipf-tight@{policy}"]
        lines.append(
            f"  {'tight@' + policy:<16} {run['goodput_mbps']:>15} "
            f"{run['hit_ratio']:>10} {run['sessions_admitted']:>9} "
            f"{run['interactive_violations']:>18}")
    cached = results["zipf@lru"]
    lines += [
        "",
        f"  caching win: {ratio:.2f}x goodput (gate: >= "
        f"{GOODPUT_FACTOR}x) with {cached['interactive_violations']} "
        f"interactive violations (gate: 0)",
        f"  hot handling: {cached['hot_episodes']} hot episodes, "
        f"{cached['replica_boosts']} boosts / "
        f"{cached['replica_unboosts']} unboosts, "
        f"{cached['boosted_at_end']} still boosted at end (gate: 0)",
        f"  policies serve identical bytes: digest "
        f"{str(cached['digest'])[:16]}... for both lru and cost-aware "
        f"(and again under tight capacity)",
        f"  tight capacity: cost-aware keeps hit ratio "
        f"{results['zipf-tight@cost-aware']['hit_ratio']} vs lru "
        f"{results['zipf-tight@lru']['hit_ratio']} — frequency x cost "
        f"beats pure recency once eviction pressure is real",
        f"  churn: {churn['stale_tags']} stale tags across a version bump "
        f"+ edge kill (gate: 0); invalidations={churn['invalidations']}, "
        f"edge_switches={churn['edge_switches']}",
        "",
        "gates: goodput ratio, zero interactive violations, boost "
        "restored, policy digest agreement, churn coherence, two runs "
        "byte-identical",
    ]
    return "\n".join(lines)


def test_cache_tier_wins_goodput_without_qos_cost(exhibit):
    first, first_lines = run_all(SEED)
    second, second_lines = run_all(SEED)
    ratio, failures = check(first)
    exhibit("cache_goodput", exhibit_text(first, ratio))
    assert first == second, "cache scenarios are not deterministic"
    assert first_lines == second_lines, (
        "cache summary lines are not deterministic across runs")
    assert not failures, "; ".join(failures)
