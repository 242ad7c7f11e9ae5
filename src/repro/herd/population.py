"""Compiled herd populations: whole client crowds as per-epoch vectors.

A :class:`HerdPhase` declares one slice of aggregate demand — a Poisson
client arrival rate, the Zipf/viral skew of what those clients watch,
and the priority mix they sign up under.  :class:`HerdPopulation`
compiles a sequence of phases plus a seed into numpy arrays indexed by
epoch: total arrivals (one vectorized ``Generator.poisson`` over the
whole horizon), the per-priority split (vectorized binomial thinning)
and the per-epoch content-demand histogram (vectorized
``Generator.multinomial`` over :func:`repro.synth.arrivals.zipf_pmf`).

Everything random is drawn up front from one PCG64 generator seeded by
a SHA-256 of ``(seed, catalog, epoch)``, so a population — like the
discrete timelines it mirrors — is a pure function of its parameters:
byte-identical across runs (:meth:`HerdPopulation.sha256` is the
determinism fact) and independent of whatever the coupler later does
with it.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.admission.controller import Priority
from repro.errors import SimulationError
from repro.synth.arrivals import zipf_pmf


@dataclass(frozen=True, slots=True)
class HerdPhase:
    """One declarative slice of aggregate herd demand.

    The fluid counterpart of :class:`repro.soak.phases.PhaseSpec`: it
    says how *fast* clients arrive and what they look like, never when
    any individual client lands — that is the population's job.  The
    priority mix is ``interactive_share`` INTERACTIVE,
    ``background_share`` BACKGROUND, remainder STANDARD.
    """

    name: str
    duration_s: float
    arrivals_per_s: float
    viral_share: float = 0.3
    interactive_share: float = 0.15
    background_share: float = 0.15

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise SimulationError(
                f"herd phase {self.name!r}: duration must be positive")
        if self.arrivals_per_s < 0:
            raise SimulationError(
                f"herd phase {self.name!r}: arrival rate must be >= 0")
        for field_name in ("viral_share", "interactive_share",
                           "background_share"):
            share = getattr(self, field_name)
            if not 0.0 <= share <= 1.0:
                raise SimulationError(
                    f"herd phase {self.name!r}: {field_name} "
                    f"must be in [0, 1]")
        if self.interactive_share + self.background_share > 1.0 + 1e-12:
            raise SimulationError(
                f"herd phase {self.name!r}: priority shares exceed 1")

    def scaled(self, factor: float) -> "HerdPhase":
        """A copy with the arrival rate scaled (same day, thinner)."""
        if factor <= 0:
            raise SimulationError(
                f"scale factor must be positive, got {factor}")
        return replace(self, arrivals_per_s=self.arrivals_per_s * factor)


#: the priority classes in admission order — the order cohorts of one
#: epoch hit the controller, and the order discrete reference clients
#: are spawned in.
PRIORITY_ORDER = (Priority.INTERACTIVE, Priority.STANDARD,
                  Priority.BACKGROUND)


def _seed_sequence(seed: int, catalog_size: int,
                   epoch_s: float) -> np.random.SeedSequence:
    """A platform-stable entropy pool: SHA-256 of the parameters."""
    tag = f"herd-population:{seed}:{catalog_size}:{epoch_s!r}"
    digest = hashlib.sha256(tag.encode()).digest()
    words = [int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4)]
    return np.random.SeedSequence(words)


class HerdPopulation:
    """All of a herd's randomness, compiled before the simulation starts.

    Public arrays, all indexed by epoch ``0..n_epochs-1``:

    * ``arrivals`` — total client arrivals per epoch (``int64``);
    * ``by_priority`` — ``{Priority: per-epoch counts}`` partitioning
      ``arrivals``;
    * ``demand`` — ``(n_epochs, catalog_size)`` content histograms
      partitioning ``arrivals`` by asset;
    * ``phase_names`` — which phase each epoch's start falls in.
    """

    def __init__(self, phases: Sequence[HerdPhase], seed: int = 0,
                 catalog_size: int = 16, epoch_s: float = 0.05) -> None:
        if not phases:
            raise SimulationError("a herd population needs >= 1 phase")
        if catalog_size < 2:
            raise SimulationError(
                f"herd catalog needs >= 2 assets, got {catalog_size}")
        if epoch_s <= 0:
            raise SimulationError(
                f"herd epoch must be positive, got {epoch_s}")
        self.phases: Tuple[HerdPhase, ...] = tuple(phases)
        self.seed = seed
        self.catalog_size = catalog_size
        self.epoch_s = epoch_s
        self.duration_s = sum(p.duration_s for p in self.phases)
        self.n_epochs = max(1, int(math.ceil(self.duration_s / epoch_s
                                             - 1e-9)))
        rng = np.random.default_rng(
            _seed_sequence(seed, catalog_size, epoch_s))

        # Which phase does each epoch's *start* fall in?
        phase_idx = np.empty(self.n_epochs, dtype=np.int64)
        boundary = 0.0
        start = 0
        for i, phase in enumerate(self.phases):
            boundary += phase.duration_s
            stop = min(self.n_epochs,
                       int(math.ceil(boundary / epoch_s - 1e-9)))
            phase_idx[start:stop] = i
            start = stop
        phase_idx[start:] = len(self.phases) - 1
        self.phase_names: Tuple[str, ...] = tuple(
            self.phases[i].name for i in phase_idx)

        def per_epoch(attr: str) -> np.ndarray:
            values = np.asarray([getattr(p, attr) for p in self.phases],
                                dtype=np.float64)
            return values[phase_idx]

        # One vectorized Poisson draw for the whole horizon.
        lam = per_epoch("arrivals_per_s") * epoch_s
        self.arrivals = rng.poisson(lam).astype(np.int64)

        # Priority split: binomial thinning, INTERACTIVE out of the
        # total, BACKGROUND out of the remainder (renormalized share).
        p_int = per_epoch("interactive_share")
        p_bg = per_epoch("background_share")
        n_int = rng.binomial(self.arrivals, p_int)
        rest = self.arrivals - n_int
        denom = 1.0 - p_int
        p_bg_rest = np.divide(p_bg, denom, out=np.zeros_like(p_bg),
                              where=denom > 1e-12)
        n_bg = rng.binomial(rest, np.clip(p_bg_rest, 0.0, 1.0))
        self.by_priority: Dict[Priority, np.ndarray] = {
            Priority.INTERACTIVE: n_int.astype(np.int64),
            Priority.STANDARD: (rest - n_bg).astype(np.int64),
            Priority.BACKGROUND: n_bg.astype(np.int64),
        }

        # Content demand: per-phase vectorized multinomial (the epochs
        # of one phase share a pmf; ``n`` is the whole arrival slice).
        self.demand = np.zeros((self.n_epochs, catalog_size),
                               dtype=np.int64)
        for i, phase in enumerate(self.phases):
            rows = np.nonzero(phase_idx == i)[0]
            if rows.size:
                pmf = zipf_pmf(catalog_size, phase.viral_share)
                self.demand[rows] = rng.multinomial(self.arrivals[rows],
                                                    pmf)

    # -- introspection -----------------------------------------------------
    def epoch_start(self, epoch: int) -> float:
        return epoch * self.epoch_s

    def sha256(self) -> str:
        """Digest of every compiled array — the determinism fact."""
        folded = hashlib.sha256()
        folded.update(f"{self.n_epochs}:{self.catalog_size}:"
                      f"{self.epoch_s!r}".encode())
        folded.update(self.arrivals.tobytes())
        for priority in PRIORITY_ORDER:
            folded.update(self.by_priority[priority].tobytes())
        folded.update(self.demand.tobytes())
        return folded.hexdigest()
