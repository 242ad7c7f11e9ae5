"""Aggregate (fluid) edge-cache model for vectorized herd populations.

The discrete cache hierarchy (:mod:`repro.cache.tier`) simulates every
block lookup of every stream.  The herd layer
(:mod:`repro.herd`) advances whole client populations per epoch and
never materialises individual streams, so it cannot walk the real
read path — instead it folds each epoch's *content-demand histogram*
through :class:`AggregateHitModel`, a stationary approximation of the
edge tier's steady state.

The approximation: under sustained Zipf demand an LRU/cost-aware edge
converges to keeping the most popular assets resident.  The model
therefore declares a capacity of ``cached_assets`` slots and treats the
first K assets in catalogue order as *cacheable*: a herd catalogue is
drawn in popularity order, so these are the top K by popularity.  A
cacheable asset becomes resident the first time demand touches it;
that cold epoch's demand is the read-through fill and still counts as
misses.  Demand on resident assets counts as edge hits (served locally
— no trunk bandwidth); everything else is a pass-through miss that must
be carried by the trunk.

Hit/miss/lookup counts are folded into the same ``cache.lookups`` /
``cache.hits`` / ``cache.misses`` counters the discrete
:class:`~repro.cache.block.BlockCache` maintains, so ``python -m repro
herd`` reports cache efficacy through the ordinary metrics registry.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.errors import SimulationError


class AggregateHitModel:
    """Top-K-by-popularity stationary model of the edge cache tier.

    ``account(histogram)`` takes one epoch's per-asset client-demand
    histogram (length ``catalog_size``) and returns ``(hits, misses)``
    in clients, updating residency and the shared cache counters.
    """

    def __init__(self, metrics, catalog_size: int,
                 cached_assets: int) -> None:
        if catalog_size < 1:
            raise SimulationError(
                f"aggregate cache needs a catalog of >= 1 asset, got {catalog_size}"
            )
        if cached_assets < 0:
            raise SimulationError(
                f"aggregate cache capacity must be >= 0 assets, got {cached_assets}"
            )
        self.catalog_size = catalog_size
        self.cached_assets = min(cached_assets, catalog_size)
        self._cacheable = np.zeros(catalog_size, dtype=bool)
        self._cacheable[: self.cached_assets] = True
        self._resident = np.zeros(catalog_size, dtype=bool)
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self._m_lookups = metrics.counter("cache.lookups")
        self._m_hits = metrics.counter("cache.hits")
        self._m_misses = metrics.counter("cache.misses")
        self._m_fills = metrics.counter("cache.fills")

    @property
    def resident_assets(self) -> int:
        return int(self._resident.sum())

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def account(self, histogram: Sequence[int]) -> Tuple[int, int]:
        """Fold one epoch's demand histogram; returns ``(hits, misses)``."""
        hist = np.asarray(histogram)
        if hist.shape != (self.catalog_size,):
            raise SimulationError(
                f"demand histogram has shape {hist.shape}, "
                f"expected ({self.catalog_size},)"
            )
        if hist.min(initial=0) < 0:
            raise SimulationError("demand histogram cannot contain negative counts")
        total = int(hist.sum())
        hits = int(hist[self._resident].sum())
        misses = total - hits
        # Warm newly-touched cacheable assets: resident from the *next*
        # epoch on (this epoch's demand was the read-through fill).
        fills = (hist > 0) & self._cacheable & ~self._resident
        n_fills = int(fills.sum())
        if n_fills:
            self._resident |= fills
            self._m_fills.inc(n_fills)
        self.lookups += total
        self.hits += hits
        self.misses += misses
        if total:
            self._m_lookups.inc(total)
        if hits:
            self._m_hits.inc(hits)
        if misses:
            self._m_misses.inc(misses)
        return hits, misses

    def __repr__(self) -> str:
        return (
            f"AggregateHitModel({self.resident_assets}/{self.cached_assets} resident, "
            f"hit_ratio={self.hit_ratio:.3f})"
        )
