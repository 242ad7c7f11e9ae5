"""Causal explain: reconstruct *why* a session ended up where it did.

Every arbitration point in the stack mirrors its verdict into the
ambient :class:`~repro.obs.DecisionLog` (admission verdicts, preemption,
queueing, breaker transitions, failover, retries, degradation).  Because
the DES kernel is single-threaded and deterministic, the log's emission
order *is* the causal order — so the decision chain for one subject,
rendered in order, reads as the session's history:

    t=0.400000s  [cluster] node-down node-1 (1 shard under-replicated)
    t=0.412000s  [recovery] retry #1 after SchedulerStoppedError
    t=0.417000s  [node-0.admission] degrade: 3e+06 of 6e+06 b/s (50%)
    t=0.417000s  [cluster] failover node-1 -> node-0

This module renders those chains; ``python -m repro explain`` is the
CLI over it.
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.decisions import DecisionEvent, DecisionLog


def _fmt_bps(bps) -> str:
    return f"{float(bps):g} b/s"


def describe(event: DecisionEvent) -> str:
    """One decision event as a human-readable clause (no timestamp)."""
    a = event.args
    kind = event.kind
    if kind == "admit":
        out = f"admitted at {_fmt_bps(a.get('bps', 0))}"
        if a.get("via") == "preemption":
            out += " (after preempting background work)"
        if a.get("from_queue"):
            out += f" from queue after {a.get('waited_s', 0):g}s"
        return out
    if kind == "degrade":
        out = f"degraded to {_fmt_bps(a.get('bps', 0))}"
        if "requested_bps" in a:
            out += f" of {_fmt_bps(a['requested_bps'])} requested"
        if "fraction" in a:
            out += f" ({a['fraction']:.0%})"
        if a.get("from_queue"):
            out += f" from queue after {a.get('waited_s', 0):g}s"
        return out
    if kind == "shed":
        out = f"shed ({a.get('reason', 'overload')})"
        if "utilization" in a:
            out += f" at {a['utilization']:.0%} utilization"
        return out
    if kind == "queue":
        return (f"queued at depth {a.get('depth', '?')} "
                f"({a.get('priority', 'standard')} priority)")
    if kind == "queue-timeout":
        return f"timed out after {a.get('waited_s', 0):g}s in the queue"
    if kind == "preempt":
        return (f"preempted — {_fmt_bps(a.get('bps', 0))} revoked for "
                f"higher-priority work")
    if kind == "reject":
        return (f"rejected ({_fmt_bps(a.get('bps', 0))} requested, "
                f"{_fmt_bps(a.get('available_bps', 0))} available)")
    if kind == "breaker":
        return f"breaker {a.get('prev', '?')} -> {a.get('state', '?')}"
    if kind == "failover":
        return f"failover {a.get('src', '?')} -> {a.get('dst', '?')}"
    if kind == "node-down":
        n = a.get("under_replicated", 0)
        return f"node down ({n} shard(s) under-replicated)"
    if kind == "node-up":
        return "node restored"
    if kind == "retry":
        out = (f"retry #{a.get('attempt', '?')} after "
               f"{a.get('error', 'error')}")
        if "backoff_s" in a:
            out += f" (backoff {a['backoff_s']:g}s)"
        return out
    if kind == "retries-exhausted":
        return (f"retries exhausted after {a.get('attempts', '?')} "
                f"attempts ({a.get('error', 'error')})")
    if kind == "session-degraded":
        return (f"session degraded to {a.get('fraction', 0):.0%} of "
                f"negotiated QoS")
    if kind == "invariant-breach":
        return (f"INVARIANT BREACH [{a.get('invariant', '?')}] "
                f"{a.get('detail', '')}")
    if kind == "slo-breach":
        return (f"hard SLO failed (value {a.get('value', '?')} vs target "
                f"{a.get('target', '?')}, burn {a.get('burn', '?')})")
    extra = ", ".join(f"{k}={v}" for k, v in sorted(a.items()))
    return f"{kind}" + (f" ({extra})" if extra else "")


def render_event(event: DecisionEvent) -> str:
    """One decision event as a full report line."""
    actor = f"[{event.actor}] " if event.actor else ""
    return f"t={event.ts:.6f}s  {actor}{describe(event)}"


def explain_report(decisions: DecisionLog, subject: str) -> str:
    """A full explain report for one subject (deterministic text)."""
    chain = decisions.chain(subject)
    lines = [f"== decision chain for {subject!r} "
             + "=" * max(1, 48 - len(subject))]
    if not chain:
        lines.append("  (no decisions recorded for this subject)")
        known = subjects_summary(decisions)
        if known:
            lines.append("  known subjects:")
            lines.extend(f"    {line}" for line in known)
        return "\n".join(lines)
    lines.extend(f"  {render_event(event)}" for event in chain)
    verdicts = [e.kind for e in chain]
    lines.append(f"  -- {len(chain)} decision(s): {' -> '.join(verdicts)}")
    return "\n".join(lines)


def subjects_summary(decisions: DecisionLog) -> List[str]:
    """One line per known subject: its decision kinds in causal order."""
    per_subject: Dict[str, List[str]] = {}
    for event in decisions.events:
        per_subject.setdefault(event.subject, []).append(event.kind)
    return [f"{subject}: {' -> '.join(kinds)}"
            for subject, kinds in sorted(per_subject.items())]
