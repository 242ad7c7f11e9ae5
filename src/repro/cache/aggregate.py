"""Aggregate (fluid) edge-cache model for vectorized herd populations.

The discrete cache hierarchy (:mod:`repro.cache.tier`) simulates every
block lookup of every stream.  The herd layer
(:mod:`repro.herd`) advances whole client populations per epoch and
never materialises individual streams, so it cannot walk the real
read path — instead it folds its *content-demand histograms* through
:class:`AggregateHitModel`, a stationary approximation of the edge
tier's steady state.

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

Nothing is ever evicted, so an asset's residency only grows and an
epoch's hits depend on the demand of earlier epochs alone, never on
what admission decides.  :meth:`AggregateHitModel.fold` therefore
computes every epoch's ``(hits, misses, fills)`` from the whole demand
matrix in one pass before the run starts, and
:meth:`AggregateHitModel.charge` books one epoch's counts as the run
reaches it, into the same ``cache.lookups`` / ``cache.hits`` /
``cache.misses`` / ``cache.fills`` counters the discrete
:class:`~repro.cache.block.BlockCache` maintains, so ``python -m repro
herd`` reports cache efficacy through the ordinary metrics registry,
epoch by epoch.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import SimulationError


class AggregateHitModel:
    """Top-K-by-popularity stationary model of the edge cache tier.

    ``fold(demand)`` takes the ``(epochs, catalog_size)`` per-asset
    client-demand matrix and returns every epoch's ``(hits, misses,
    fills)`` in clients (fills in assets); ``charge`` books one epoch of
    them on the model and the shared cache counters.
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
        #: assets filled by the epochs charged so far.
        self.resident_assets = 0
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self._m_lookups = metrics.counter("cache.lookups")
        self._m_hits = metrics.counter("cache.hits")
        self._m_misses = metrics.counter("cache.misses")
        self._m_fills = metrics.counter("cache.fills")

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def fold(self, demand) -> Tuple[List[int], List[int], List[int]]:
        """Every epoch's ``(hits, misses, fills)`` lists, from one pass.

        An asset is resident from the epoch after demand first touches
        it, so residency is a running OR of ``demand > 0`` over the
        cacheable columns, shifted down one epoch.
        """
        demand = np.asarray(demand)
        if demand.ndim != 2 or demand.shape[1] != self.catalog_size:
            raise SimulationError(
                f"demand matrix has shape {demand.shape}, "
                f"expected (epochs, {self.catalog_size})"
            )
        if demand.min(initial=0) < 0:
            raise SimulationError("demand matrix cannot contain negative counts")
        cacheable = demand[:, :self.cached_assets]
        touched = np.logical_or.accumulate(cacheable > 0, axis=0)
        resident = np.zeros_like(touched)
        resident[1:] = touched[:-1]
        hits = (cacheable * resident).sum(axis=1)
        misses = demand.sum(axis=1) - hits
        fills = (touched & ~resident).sum(axis=1)
        return hits.tolist(), misses.tolist(), fills.tolist()

    def charge(self, hits: int, misses: int, fills: int) -> None:
        """Book one epoch of :meth:`fold`'s output."""
        if fills:
            self.resident_assets += fills
            self._m_fills.inc(fills)
        total = hits + misses
        self.lookups += total
        self.hits += hits
        self.misses += misses
        if total:
            self._m_lookups.inc(total)
        if hits:
            self._m_hits.inc(hits)
        if misses:
            self._m_misses.inc(misses)
