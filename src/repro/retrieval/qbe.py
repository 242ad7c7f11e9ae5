"""Query-by-example retrieval over the AV database.

Follows REDI's architecture: features live in a :class:`FeatureIndex`
separate from the media store; a query ranks by feature distance and
returns *references*, never media.  ``SimilarityRetrieval`` glues the
index to a :class:`~repro.db.Database`: ``ingest`` extracts and indexes a
stored object's video attribute, ``query_by_example`` ranks everything
indexed against an example frame or clip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.db.database import Database
from repro.db.objects import OID
from repro.errors import DatabaseError, DataModelError
from repro.retrieval.features import FeatureVector, clip_features, frame_features
from repro.values.video import VideoValue


@dataclass(frozen=True, slots=True)
class Match:
    """One ranked retrieval result."""

    ref: OID
    attribute: str
    distance: float


class FeatureIndex:
    """Extracted features, stored apart from the originals (REDI split)."""

    def __init__(self) -> None:
        self._features: Dict[Tuple[OID, str], FeatureVector] = {}

    def insert(self, ref: OID, attribute: str, features: FeatureVector) -> None:
        key = (ref, attribute)
        if key in self._features:
            raise DatabaseError(f"features for {ref}.{attribute} already indexed")
        self._features[key] = features

    def remove(self, ref: OID, attribute: str) -> None:
        try:
            del self._features[(ref, attribute)]
        except KeyError:
            raise DatabaseError(f"{ref}.{attribute} is not indexed") from None

    def __len__(self) -> int:
        return len(self._features)

    def rank(self, query: FeatureVector, limit: Optional[int] = None) -> List[Match]:
        """All indexed entries ordered by ascending feature distance."""
        matches = [
            Match(ref, attribute, query.distance(features))
            for (ref, attribute), features in self._features.items()
        ]
        matches.sort(key=lambda m: (m.distance, m.ref, m.attribute))
        return matches[:limit] if limit is not None else matches


Example = Union[np.ndarray, VideoValue, FeatureVector]


class SimilarityRetrieval:
    """Query-by-example over video attributes of database objects."""

    def __init__(self, db: Database, sample_every: int = 5) -> None:
        self.db = db
        self.index = FeatureIndex()
        self.sample_every = sample_every

    def ingest(self, ref: OID, attribute: str) -> FeatureVector:
        """Extract and index features for one stored video attribute."""
        obj = self.db.get(ref)
        value = obj.get(attribute)
        if not isinstance(value, VideoValue):
            raise DataModelError(
                f"{ref}.{attribute} is not a video value "
                f"({type(value).__name__})"
            )
        features = clip_features(value, self.sample_every)
        self.index.insert(ref, attribute, features)
        return features

    def forget(self, ref: OID, attribute: str) -> None:
        self.index.remove(ref, attribute)

    def _example_features(self, example: Example) -> FeatureVector:
        if isinstance(example, FeatureVector):
            return example
        if isinstance(example, VideoValue):
            return clip_features(example, self.sample_every)
        return frame_features(np.asarray(example))

    def query_by_example(self, example: Example,
                         limit: int = 5) -> List[Match]:
        """Rank indexed clips by similarity to the example.

        The example may be a raw frame array, a video value, or
        pre-extracted features.  Only the feature index is touched — the
        original media stays in the store, per REDI's design.
        """
        if limit < 1:
            raise DatabaseError(f"limit must be >= 1, got {limit}")
        return self.index.rank(self._example_features(example), limit)
