"""Seeded synthetic annotation corpora, at bulk-load scale.

The generator follows the :mod:`repro.synth.arrivals` RNG-stream
discipline: all randomness comes from one numpy ``PCG64`` generator
whose seed sequence is SHA-256 of the corpus parameters — platform
stable, so the same spec always produces the byte-identical corpus
(:func:`corpus_fingerprint` hashes the raw arrays to prove it).

The shape mirrors an annotated AV archive: thousands of values, value
popularity Zipf-distributed (a few values carry deep annotation tiers,
a long tail is sparse), two tracks per value, annotation types drawn
from a fixed mix, starts uniform over each value's duration and
lengths exponential with a per-type mean.  Everything is drawn as flat
vectorized arrays first and assembled into rows second — at a million
rows, per-row Python sampling is the difference between seconds and
minutes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

import numpy as np

from repro.annotations.model import AnnotationType, FieldSpec, Payload
from repro.annotations.store import AnnotationStore
from repro.errors import AnnotationError
from repro.synth.arrivals import zipf_pmf

__all__ = ["CorpusSpec", "corpus_fingerprint", "default_types",
           "generate_rows", "load_corpus"]

#: (type name, mix weight, mean length in seconds, label vocabulary size)
_MIX = (
    ("word", 0.40, 0.35, 24),
    ("phone", 0.30, 0.09, 12),
    ("turn", 0.10, 8.0, 6),
    ("gesture", 0.12, 1.8, 10),
    ("scene", 0.08, 14.0, 8),
)

#: the share of annotations on value 0; Zipf spreads the rest.
VIRAL_SHARE = 0.05


#: Rows converted from arrays to Python objects at a time.
_ROW_BLOCK = 1 << 16


def default_types() -> Tuple[AnnotationType, ...]:
    """The type schema every generated corpus is validated against."""
    return tuple(
        AnnotationType(name, (FieldSpec("label", str, required=True),))
        for name, _, _, _ in _MIX)


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters of one synthetic corpus (the RNG seed material)."""

    seed: int = 0
    values: int = 2000
    annotations: int = 1_000_000
    duration_s: float = 600.0
    tracks: Tuple[str, ...] = ("audio", "video")

    def rng(self) -> np.random.Generator:
        tag = (f"annotations-corpus:{self.seed}:{self.values}:"
               f"{self.annotations}:{self.duration_s!r}:{VIRAL_SHARE!r}")
        digest = hashlib.sha256(tag.encode()).digest()
        words = [int.from_bytes(digest[i:i + 4], "big")
                 for i in range(0, 16, 4)]
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(words)))


def _draw_arrays(spec: CorpusSpec):
    """All the corpus randomness, as flat arrays indexed by row."""
    if spec.values < 1 or spec.annotations < 1:
        raise AnnotationError("corpus needs >= 1 value and >= 1 annotation")
    rng = spec.rng()
    per_value = rng.multinomial(spec.annotations,
                                zipf_pmf(spec.values, VIRAL_SHARE))
    value_idx = np.repeat(np.arange(spec.values), per_value)
    n = value_idx.size
    track_idx = rng.integers(0, len(spec.tracks), size=n)
    weights = np.array([w for _, w, _, _ in _MIX], dtype=np.float64)
    type_idx = rng.choice(len(_MIX), size=n, p=weights / weights.sum())
    means = np.array([m for _, _, m, _ in _MIX], dtype=np.float64)
    lengths = np.clip(rng.exponential(means[type_idx]), 0.02, 60.0)
    starts = rng.uniform(0.0, spec.duration_s, size=n)
    # Keep every interval inside the value: shift, never truncate, so
    # lengths keep their per-type law.
    overhang = starts + lengths - spec.duration_s
    starts = np.where(overhang > 0.0, np.maximum(starts - overhang, 0.0),
                      starts)
    lengths = np.minimum(lengths, spec.duration_s - starts)
    label_idx = rng.integers(0, 1 << 16, size=n)
    return value_idx, track_idx, type_idx, starts, lengths, label_idx


def corpus_fingerprint(spec: CorpusSpec) -> str:
    """SHA-256 over the raw drawn arrays — the corpus identity."""
    value_idx, track_idx, type_idx, starts, lengths, label_idx = \
        _draw_arrays(spec)
    folded = hashlib.sha256()
    for array in (value_idx, track_idx, type_idx, starts, lengths,
                  label_idx):
        folded.update(np.ascontiguousarray(array).tobytes())
    return folded.hexdigest()


def generate_rows(spec: CorpusSpec
                  ) -> Iterator[Tuple[str, str, str, float, float, Payload]]:
    """Yield bulk-load rows ``(value_id, track, atype, start, end, payload)``."""
    value_idx, track_idx, type_idx, starts, lengths, label_idx = \
        _draw_arrays(spec)
    value_ids = [f"value-{i:05d}" for i in range(spec.values)]
    names = [name for name, _, _, _ in _MIX]
    vocab = [v for _, _, _, v in _MIX]
    # Pre-render every (type, label) payload once; rows share the tuples.
    payloads = [
        tuple([("label", f"{names[t]}-{k:03d}")])
        for t in range(len(_MIX)) for k in range(vocab[t])]
    offsets = np.cumsum([0] + vocab[:-1]).tolist()
    tracks = spec.tracks
    columns = (value_idx, track_idx, type_idx, starts, lengths, label_idx)
    # Rows are assembled from Python lists, a block at a time: indexing
    # a numpy array boxes a fresh scalar per row, and whole-corpus lists
    # would stay alive for as long as the generator does.
    for lo in range(0, value_idx.size, _ROW_BLOCK):
        block = [column[lo:lo + _ROW_BLOCK].tolist() for column in columns]
        for v, k, t, start, length, label in zip(*block):
            yield (value_ids[v], tracks[k], names[t], start, start + length,
                   payloads[offsets[t] + label % vocab[t]])


def load_corpus(store: AnnotationStore, spec: CorpusSpec) -> Dict[str, object]:
    """Define the default types, bulk-load the corpus, return its facts."""
    for atype in default_types():
        if atype.name not in store.types():
            store.define_type(atype)
    loaded = store.bulk_load(generate_rows(spec))
    return {
        "annotations": loaded,
        "values": spec.values,
        "tracks": len(store.tracks()),
        "seed": spec.seed,
    }
