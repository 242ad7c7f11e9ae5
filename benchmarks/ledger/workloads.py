"""The four ledger workloads: what users do with an AV database.

Each workload is a closed loop with one client: the benchmark calls the
library in-process and starts the next operation when the previous one
returns.  The crowds *inside* ``broadcast_day`` and ``herd_day`` are
open-loop Poisson arrivals in virtual time, drawn by the program from
the day seed it is handed.

A workload does its work in *rounds*, and every round of a run is the
*same* work: its inputs depend only on the seed.  A run repeats the
round until its time budget is spent.  That makes two things possible:
each operation's cost is taken as the fastest of its repeats (neighbours
on a shared box only ever add time), and every round must reproduce the
first round's counts and summary lines exactly (rerun == run).  Every
round leaves the process as it found it (a fresh system, or a store
restored to its loaded size).  Hot and cold items are picked by a
stratified Zipf sample, so the mix is the same whatever the seed.

The program receives only generated inputs: seeds handed to
``repro.synth`` and the scenarios are derived integers, never
``--seed`` itself or a workload name.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import random
import shutil
import tempfile
from typing import Callable, Dict, List, Tuple

from repro.activities import Location
from repro.activities.library import (Speaker, SubtitleWindow, VideoDecoder,
                                      VideoWindow)
from repro.annotations import AQ, AnnotationStore, CorpusSpec, load_corpus, run
from repro.avdb import AVDatabaseSystem
from repro.codecs import JPEGCodec, MPEGCodec
from repro.db import AttributeSpec, ClassDef, Database, Q
from repro.herd import scenarios as herd_scenarios
from repro.obs import scoped
from repro.soak import scenarios as soak_scenarios
from repro.storage import MagneticDisk
from repro.synth import NEWSCAST_CLIP_SPEC, moving_scene, newscast_clip
from repro.temporal import TemporalComposite
from repro.values import VideoValue

from tracing import Spans, p50, percentile

#: ``timed(prefix)``: seconds of each of the round's spans named so.
Timed = Callable[[str], List[float]]

#: counters read from the scoped ``MetricsRegistry`` after each round;
#: they repeat exactly for a given seed.
COUNTERS = (
    "sim.events_dispatched", "sim.processes_spawned",
    "admission.admitted", "admission.degraded", "admission.rejected",
    "admission.shed", "admission.queued",
    "cache.lookups", "cache.hits",
    "cluster.reads", "cluster.repairs",
    "storage.disk_requests", "net.bits_sent",
    "db.tx_commits", "db.index_scans", "db.full_scans",
    "annotations.plans_index", "annotations.plans_scan",
    "herd.clients",
)


def derive(seed: int, *tags: object) -> int:
    """A 31-bit integer determined by ``seed`` and ``tags``."""
    text = ":".join(str(part) for part in (seed, *tags))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4],
                          "big") >> 1


def zipf_cumulative(items: int, exponent: float) -> List[float]:
    return list(itertools.accumulate(
        1.0 / (rank + 1) ** exponent for rank in range(items)))


def stratified(rng: random.Random, k: int) -> List[Tuple[float, float]]:
    """``k`` points of the unit square, in shuffled order: each
    coordinate has one point in each of its ``k`` equal slices, and slice
    ``i`` of the first is always paired with the same slice of the
    second (a rank-1 lattice), whatever the seed.

    Sampling through these instead of ``rng.random()`` gives every seed
    the same proportions of hot and cold items, of short and long
    windows, and of their combinations; the seed only moves each point
    inside its cell.  The round then costs the same whatever the seed,
    and a run's numbers do not hinge on how often a seed drew the
    expensive case.
    """
    step = next(a for a in range(int(k * 0.618) + 1, 2 * k + 2)
                if math.gcd(a, k) == 1)
    points = [((i + rng.random()) / k, (i * step % k + rng.random()) / k)
              for i in range(k)]
    rng.shuffle(points)
    return points


def zipf_rank(cumulative: List[float], point: float) -> int:
    """The Zipf rank at quantile ``point`` of ``cumulative``."""
    return bisect.bisect_left(cumulative, point * cumulative[-1])


def read_counters(metrics) -> Dict[str, int]:
    metrics.flush()
    counts = {}
    for name in COUNTERS:
        instrument = metrics.get(name)
        counts[name] = int(getattr(instrument, "value", 0) or 0)
    return counts


def count_metrics(exact: Dict[str, int]) -> Dict[str, float]:
    """The per-layer counts, under the names BENCHMARK.json gives them."""
    folded = ("admission.", "cache.hits", "annotations.rows_returned",
              "annotations.queries")
    out: Dict[str, float] = {name: value for name, value in exact.items()
                             if not name.startswith(folded)}
    out["admission.decisions"] = sum(
        exact.get(f"admission.{verdict}", 0)
        for verdict in ("admitted", "degraded", "rejected", "shed"))
    out["admission.shed"] = exact.get("admission.shed", 0)
    out["admission.queued"] = exact.get("admission.queued", 0)
    if exact.get("cache.lookups"):
        out["cache.hit_ratio"] = exact["cache.hits"] / exact["cache.lookups"]
    if exact.get("annotations.queries"):
        out["annotations.rows_per_query"] = (
            exact["annotations.rows_returned"] / exact["annotations.queries"])
    return out


class Workload:
    """Shared shape: ``setup`` builds inputs, ``round`` does fixed work,
    ``check`` verifies outputs after the timed section."""

    name = ""
    #: span names that count as one operation each.
    ops: Tuple[str, ...] = ()
    #: the operation whose median latency is ``op_p50_ms``.
    primary_op = ""
    params: Dict[str, object] = {}
    #: repetition counts for ``--smoke``: same shapes, a tenth the work.
    smoke: Dict[str, object] = {}

    def __init__(self, seed: int, spans: Spans, scratch: str,
                 smoke: bool = False) -> None:
        self.seed = seed
        self.spans = spans
        self.scratch = scratch
        if smoke:
            self.params = {**self.params, **self.smoke}

    def setup(self) -> None:
        """Synthesize the inputs; safe to call again (replaces them)."""

    def round(self) -> Dict[str, object]:
        """The round: the same fixed work on every call, its timed part
        inside ``spans.round()``.

        Returns ``counts`` (exact counters), ``lines`` (deterministic
        summary lines), ``virtual_s`` (simulated seconds advanced) and
        ``failed`` (operations whose output was wrong).
        """
        raise NotImplementedError

    def check(self) -> List[str]:
        """Output checks beyond the per-operation ones, run after the
        timed section; returns one message per failure."""
        return []

    def metrics(self, timed: Timed) -> Dict[str, float]:
        """This workload's own timings from the round's spans; a metric
        whose spans were not recorded is left out."""
        return {}


def _put(out: Dict[str, float], name: str, seconds: List[float],
         scale: float = 1e3, q: float = 0.5) -> None:
    if seconds:
        out[name] = (p50(seconds) if q == 0.5
                     else percentile(seconds, q)) * scale


# -- ingest_playback ------------------------------------------------------
class IngestPlayback(Workload):
    """The Fig. 3 path: encode, place and catalog clips in a durable
    database, then select, wire and play them back to sinks."""

    name = "ingest_playback"
    ops = ("ingest", "playback")
    primary_op = "playback"
    params = {
        "raw_clips": 40, "frames": 48, "width": 96, "height": 64,
        "composites": 10, "audio_seconds": 1.6, "codec_quality": 75,
        "clips_per_round": 12, "composite_every": 4,
        "sessions_per_round": 48, "disks": 4, "zipf_exponent": 1.0,
    }
    smoke = {"clips_per_round": 4, "sessions_per_round": 8}

    def setup(self) -> None:
        p = self.params
        self.raws = [
            moving_scene(p["frames"], p["width"], p["height"],
                         seed=derive(self.seed, "raw", i))
            for i in range(p["raw_clips"])]
        self.casts = [
            newscast_clip(video_frames=p["frames"],
                          audio_seconds=p["audio_seconds"],
                          seed=derive(self.seed, "cast", i))
            for i in range(p["composites"])]
        # Even clips (the most played one among them) are JPEG, odd ones
        # MPEG: with the Zipf shares below, 7 in 10 plain playbacks then
        # decode JPEG and the median playback sits well inside that
        # group; the other way round it sat on the boundary between the
        # two codecs' costs and flipped with the seed.
        self.codecs = (JPEGCodec(p["codec_quality"]),
                       MPEGCodec(p["codec_quality"]))
        #: frames presented per playback of the round under way.
        self.presented: List[int] = []

    def _new_system(self, directory: str) -> AVDatabaseSystem:
        system = AVDatabaseSystem(database=Database(directory))
        for i in range(self.params["disks"]):
            system.add_storage(MagneticDisk(system.simulator, f"disk{i}"))
        system.db.define_class(ClassDef("Clip", attributes=[
            AttributeSpec("title", str, indexed=True),
            AttributeSpec("videoTrack", VideoValue),
        ]))
        system.db.define_class(ClassDef("Newscast", attributes=[
            AttributeSpec("title", str, indexed=True),
        ], tcomps=[NEWSCAST_CLIP_SPEC]))
        return system

    def _ingest(self, system: AVDatabaseSystem, k: int,
                rng: random.Random) -> None:
        spans = self.spans
        composite = (k + 1) % self.params["composite_every"] == 0
        with spans.op("ingest"):
            if composite:
                cast = self.casts[k // self.params["composite_every"]]
                raw = cast.value("videoTrack")
            else:
                raw = self.raws[rng.randrange(len(self.raws))]
            with spans.span("codecs.encode"):
                encoded = self.codecs[k % 2].encode_value(raw)
            if composite:
                values = {track: cast.value(track)
                          for track in cast.track_names}
                values["videoTrack"] = encoded
                clip = TemporalComposite(NEWSCAST_CLIP_SPEC, values)
                with spans.span("storage.place"):
                    for track in clip.track_names:
                        system.store_value(clip.value(track))
                with spans.span("db.insert"):
                    system.db.insert("Newscast", title=f"clip-{k}",
                                     clip=clip)
            else:
                with spans.span("storage.place"):
                    system.store_value(encoded)
                with spans.span("db.insert"):
                    system.db.insert("Clip", title=f"clip-{k}",
                                     videoTrack=encoded)

    def _playback(self, system: AVDatabaseSystem, j: int, k: int) -> None:
        spans = self.spans
        sim = system.simulator
        composite = (k + 1) % self.params["composite_every"] == 0
        with spans.op("playback"):
            session = system.open_session(f"viewer-{j}")
            with spans.span("db.select"):
                oid = session.select_one(
                    "Newscast" if composite else "Clip",
                    Q.eq("title", f"clip-{k}"))
            if composite:
                source = session.new_db_source((oid, "clip"), deliver="raw")
                sink = session.new_multi_sink()
                delay = 0.1  # prebuffer: tracks present on schedule
                window = VideoWindow(sim, name=f"win-{j}",
                                     keep_payloads=False,
                                     presentation_delay=delay)
                sink.install(window, track="videoTrack")
                sink.install(Speaker(sim, name=f"en-{j}", keep_payloads=False,
                                     presentation_delay=delay),
                             track="englishTrack")
                sink.install(Speaker(sim, name=f"fr-{j}", keep_payloads=False,
                                     presentation_delay=delay),
                             track="frenchTrack")
                sink.install(SubtitleWindow(sim, name=f"sub-{j}",
                                            presentation_delay=delay),
                             track="subtitleTrack")
                with spans.span("session.connect"):
                    streams = [session.connect(source, sink)]
            else:
                value = session.fetch(oid).videoTrack
                source = session.new_db_source(value)
                decoder = session.new_activity(VideoDecoder(
                    sim, value.codec, value.width, value.height, value.depth,
                    name=f"decode-{j}", location=Location.APPLICATION))
                window = session.new_video_window(name=f"win-{j}")
                with spans.span("session.connect"):
                    streams = [
                        session.connect(source, decoder.port("video_in")),
                        session.connect(decoder.port("video_out"), window)]
            for stream in streams:
                stream.start()
            with spans.span("session.run"):
                session.run()
            session.close()
        self.presented.append(window.elements_consumed)

    def round(self) -> Dict[str, object]:
        p = self.params
        rng = random.Random(derive(self.seed, "round"))
        clips = p["clips_per_round"]
        # One session in ``composite_every`` plays a composite, like the
        # clips; within each kind the clip is a stratified Zipf pick.
        every = p["composite_every"]
        kinds = ([k for k in range(clips) if k % every != every - 1],
                 [k for k in range(clips) if k % every == every - 1])
        picks = []
        for kind, share in zip(kinds, (every - 1, 1)):
            cumulative = zipf_cumulative(len(kind), p["zipf_exponent"])
            sessions = p["sessions_per_round"] * share // every
            picks += [kind[zipf_rank(cumulative, hot)]
                      for hot, _ in stratified(rng, sessions)]
        rng.shuffle(picks)
        self.presented.clear()
        directory = tempfile.mkdtemp(prefix="db-", dir=self.scratch)
        try:
            with scoped(tracing=False) as obs:
                system = self._new_system(directory)
                try:
                    with self.spans.round():
                        for k in range(clips):
                            self._ingest(system, k, rng)
                        for j, k in enumerate(picks):
                            self._playback(system, j, k)
                finally:
                    system.db.close()
                counts = read_counters(obs.metrics)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        virtual_s = system.simulator.now.seconds
        line = (f"ingest_playback round: clips={clips} "
                f"sessions={len(picks)} "
                f"frames_presented={sum(self.presented)} "
                f"virtual_seconds={virtual_s:.6f}")
        # Every playback must present exactly the stored frame count.
        return {"counts": counts, "lines": [line], "virtual_s": virtual_s,
                "failed": sum(got != p["frames"] for got in self.presented)}

    def metrics(self, timed: Timed) -> Dict[str, float]:
        out: Dict[str, float] = {}
        _put(out, "ingest_p50_ms", timed("ingest"))
        _put(out, "playback_p50_ms", timed("playback"))
        encode = timed("codecs.encode")
        _put(out, "codecs.encode_p50_ms", encode)
        if encode:
            out["codecs.encode_frames_per_s"] = (
                self.params["frames"] * len(encode) / sum(encode))
        _put(out, "storage.place_p50_ms", timed("storage.place"))
        _put(out, "db.insert_p50_ms", timed("db.insert"))
        _put(out, "db.select_p50_ms", timed("db.select"))
        _put(out, "session.connect_p50_ms", timed("session.connect"))
        _put(out, "session.run_p50_ms", timed("session.run"))
        _put(out, "session.run_p99_ms", timed("session.run"), q=0.99)
        return out


# -- annotation_query -----------------------------------------------------
class AnnotationQuery(Workload):
    """The query battery over a bulk-loaded corpus: a read phase of
    seeded temporal queries, then a mixed phase of 1 write to 4 reads."""

    name = "annotation_query"
    ops = ("query", "mixed_read", "annotate", "remove")
    primary_op = "query"
    params = {
        "values": 400, "annotations": 200_000, "duration_s": 600.0,
        "reads_per_round": 180, "mixed_per_round": 120,
        "write_every": 5, "broad_every": 50, "zipf_exponent": 1.0,
        "backlog": 4, "equivalence_sample": 0.02,
    }
    smoke = {"reads_per_round": 18, "mixed_per_round": 12}
    HOT = "value-00000"
    TYPES = ("word", "phone", "turn", "gesture", "scene")

    def setup(self) -> None:
        p = self.params
        self.spec = CorpusSpec(seed=derive(self.seed, "corpus"),
                               values=p["values"],
                               annotations=p["annotations"],
                               duration_s=p["duration_s"])
        self.store = None  # drop the previous corpus before building
        with scoped(tracing=False):
            self.store = AnnotationStore()
            with self.spans.op("load_corpus"):
                self.corpus_facts = load_corpus(self.store, self.spec)
        self.load_corpus_s = self.spans.durations("load_corpus", -1)[-1:]
        self._cumulative = zipf_cumulative(p["values"], p["zipf_exponent"])
        rng = random.Random(derive(self.seed, "round"))
        self.reads = self._queries(rng, p["reads_per_round"])
        #: a query, or the (start, label) of a write.
        self.mixed = self._queries(rng, p["mixed_per_round"])
        for i in range(0, len(self.mixed), p["write_every"]):
            start = rng.uniform(0.0, p["duration_s"] - 1.0)
            self.mixed[i] = (start, f"ledger-{i}")

    def _queries(self, rng: random.Random, count: int) -> list:
        """``count`` queries: the seven battery shapes in turn, re-pinned
        to seeded values, tracks and windows; one in ``broad_every`` is
        broad and unpinned.  Each shape's (value, window) pairs are a
        stratified sample: Zipf over values, uniform over windows."""
        p = self.params
        duration = p["duration_s"]
        queries: list = [None] * count
        pinned: Dict[int, List[int]] = {}
        for i in range(count):
            if i % p["broad_every"] == p["broad_every"] - 1:
                lo = rng.uniform(0.0, duration - 30.0)
                queries[i] = (AQ.of_type(self.TYPES[i % len(self.TYPES)])
                              .during(lo, lo + 20.0))
            else:
                pinned.setdefault(i % 7, []).append(i)
        for shape, members in pinned.items():
            for i, (hot, start) in zip(members,
                                       stratified(rng, len(members))):
                value = zipf_rank(self._cumulative, hot)
                lo = start * (duration - 30.0)
                on = AQ.on(f"value-{value:05d}",
                           self.spec.tracks[i % len(self.spec.tracks)])
                if shape == 0:
                    query = on.during(lo, lo + 30.0)
                elif shape == 1:
                    query = on.overlaps(lo, lo + 1.0)
                elif shape == 2:
                    query = on.before(lo / 10.0)
                elif shape == 3:
                    query = on.after(duration - lo / 10.0)
                elif shape == 4:
                    query = on.meets(lo, lo + 30.0)
                elif shape == 5:
                    query = on.during(0.0, duration)
                else:
                    query = (on.of_type("word")
                             .where(label=f"word-{rng.randrange(24):03d}")
                             .during(0.0, duration / 2.0))
                queries[i] = query
        return queries

    def _ask(self, query, op: str, tally: List[int]) -> None:
        with self.spans.op(op) as span:
            result = run(self.store, query)
            span.name = f"{op}.{result.mode}"
        tally[0] += len(result.rows)
        tally[1] += result.examined

    def round(self) -> Dict[str, object]:
        p = self.params
        spans = self.spans
        store = self.store
        before = read_counters(store.obs.metrics)
        size = len(store)
        tally = [0, 0]
        pending = []
        with spans.round():
            for query in self.reads:
                self._ask(query, "query", tally)
            for item in self.mixed:
                if not isinstance(item, tuple):
                    self._ask(item, "mixed_read", tally)
                elif len(pending) < p["backlog"]:
                    start, label = item
                    with spans.op("annotate"):
                        pending.append(store.annotate(
                            self.HOT, "audio", "word", start, start + 0.5,
                            {"label": label}))
                else:
                    with spans.op("remove"):
                        store.remove(pending.pop(0))
            # Restore the loaded corpus, so every round sees it.
            for oid in pending:
                with spans.op("remove"):
                    store.remove(oid)
        after = read_counters(store.obs.metrics)
        counts = {name: after[name] - before[name] for name in after}
        counts["annotations.rows_returned"] = tally[0]
        counts["annotations.queries"] = len(self.reads) + sum(
            not isinstance(item, tuple) for item in self.mixed)
        line = (f"annotation_query round: reads={len(self.reads)} "
                f"mixed={len(self.mixed)} rows={tally[0]} "
                f"examined={tally[1]} store={len(store)}")
        return {"counts": counts, "lines": [line], "virtual_s": 0.0,
                "failed": int(len(store) != size)}

    def check(self) -> List[str]:
        rng = random.Random(derive(self.seed, "equivalence"))
        sample = rng.sample(self.reads, max(1, int(
            len(self.reads) * self.params["equivalence_sample"])))
        failures = []
        for query in sample:
            if (run(self.store, query, mode="index").rows
                    != run(self.store, query, mode="scan").rows):
                failures.append(
                    f"index and scan rows differ for {query.describe()}")
        if len(self.store) != self.corpus_facts["annotations"]:
            failures.append("store size changed across the run")
        return failures

    def metrics(self, timed: Timed) -> Dict[str, float]:
        out: Dict[str, float] = {}
        _put(out, "query_p50_ms", timed("query"))
        mixed = [seconds for op in ("mixed_read", "annotate", "remove")
                 for seconds in timed(op)]
        if mixed:
            out["mixed_ops_per_s"] = len(mixed) / sum(mixed)
        _put(out, "annotations.load_corpus_s", self.load_corpus_s, scale=1.0)
        _put(out, "annotations.query_index_p50_ms", timed("query.index"))
        _put(out, "annotations.query_scan_p50_ms", timed("query.scan"))
        _put(out, "annotations.query_p99_ms", timed("query"), q=0.99)
        _put(out, "annotations.annotate_p50_us", timed("annotate"), 1e6)
        _put(out, "annotations.remove_p50_us", timed("remove"), 1e6)
        return out


# -- broadcast_day and herd_day -------------------------------------------
class _Days(Workload):
    """Consecutive day seeds starting at a base derived from ``--seed``."""

    ops = ("day",)
    primary_op = "day"
    #: the layer whose name the day's tail latency is reported under.
    layer = ""

    def setup(self) -> None:
        self.base = derive(self.seed, "days")

    def _day(self, seed: int) -> Dict[str, object]:
        raise NotImplementedError

    def _summary(self, facts: Dict[str, object]) -> str:
        raise NotImplementedError

    def _failed(self, facts: Dict[str, object]) -> bool:
        """Whether the day's own output check failed."""
        return False

    def round(self) -> Dict[str, object]:
        per_round = self.params["days_per_round"]
        totals = dict.fromkeys(COUNTERS, 0)
        days = []
        with self.spans.round():
            for d in range(per_round):
                with scoped(tracing=False) as obs:
                    with self.spans.op("day"):
                        facts = self._day(self.base + d)
                for name, value in read_counters(obs.metrics).items():
                    totals[name] += value
                days.append(facts)
        self._fold_facts(totals, days)
        return {"counts": totals,
                "lines": [self._summary(facts) for facts in days],
                "virtual_s": sum(f["virtual_seconds"] for f in days),
                "failed": sum(self._failed(facts) for facts in days)}

    def _fold_facts(self, totals: Dict[str, int], days: list) -> None:
        """Add the counts that live in scenario facts, not counters."""

    def metrics(self, timed: Timed) -> Dict[str, float]:
        out: Dict[str, float] = {}
        _put(out, "day_p50_ms", timed("day"))
        _put(out, f"{self.layer}.day_p90_ms", timed("day"), q=0.9)
        return out


class BroadcastDay(_Days):
    """The discrete-event whole-system run, chaos and watch stack on."""

    name = "broadcast_day"
    layer = "soak"
    params = {"scale": 2, "chaos": True, "days_per_round": 6}
    smoke = {"days_per_round": 1}

    def _day(self, seed: int) -> Dict[str, object]:
        return soak_scenarios.day(seed=seed, scale=self.params["scale"],
                                  chaos=self.params["chaos"])

    def _summary(self, facts: Dict[str, object]) -> str:
        return soak_scenarios.summary_line("day", facts)

    def _failed(self, facts: Dict[str, object]) -> bool:
        return bool(facts["invariant_breaches"] or facts["stranded_processes"]
                    or facts["unhandled_failure"] != "none")

    def _fold_facts(self, totals: Dict[str, int], days: list) -> None:
        totals["watch.invariant_checks"] = sum(
            f["invariant_checks"] for f in days)
        # Sessions the chaos plan made the modelled system refuse or
        # drop: a simulated outcome that repeats exactly, not a failed
        # benchmark operation.
        totals["soak.sessions_failed"] = sum(
            f["vod_failed"] + f["live_failed"] + f["edit_failed"]
            for f in days)


class HerdDay(_Days):
    """The same admission and cache layers at a million clients, through
    ``admit_batch`` cohorts and the aggregate hit model."""

    name = "herd_day"
    layer = "herd"
    params = {"clients": 1_000_000, "days_per_round": 40}
    smoke = {"days_per_round": 4}

    def _day(self, seed: int) -> Dict[str, object]:
        return herd_scenarios.day(seed=seed, clients=self.params["clients"])

    def _summary(self, facts: Dict[str, object]) -> str:
        return herd_scenarios.summary_line("day", facts)

    def _fold_facts(self, totals: Dict[str, int], days: list) -> None:
        totals["herd.epochs"] = sum(f["epochs"] for f in days)

    def check(self) -> List[str]:
        with scoped(tracing=False):
            probe = herd_scenarios.day(seed=self.base,
                                       clients=self.params["clients"],
                                       compare_discrete=True)
        if not probe["probe_equivalent"]:
            return [f"herd-vs-discrete probe diverged in "
                    f"{probe['probe_mismatches']} facts"]
        return []


WORKLOADS = {cls.name: cls for cls in
             (IngestPlayback, AnnotationQuery, BroadcastDay, HerdDay)}
