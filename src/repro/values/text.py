"""Text-stream values.

The paper's Newscast example includes a ``TextStreamValue subtitleTrack``
inside a temporal composite.  A text stream is a sequence of timed text
items (subtitles, captions) presented at a nominal item rate; items carry
their own display spans in object time so that irregular subtitle timing
is representable while the value still satisfies the uniform-rate
``MediaValue`` contract (object time = item index).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.avtime import TimeMapping
from repro.errors import DataModelError
from repro.values.base import MediaValue
from repro.values.mediatype import MediaType, standard_type


@dataclass(frozen=True, slots=True)
class TextItem:
    """One timed text element of a stream."""

    text: str
    # Display span in item units; 1.0 means the item occupies exactly one
    # nominal item period.
    span: float = 1.0

    def __post_init__(self) -> None:
        if self.span <= 0:
            raise DataModelError(f"text item span must be positive, got {self.span}")


class TextStreamValue(MediaValue):
    """A sequence of timed text items (e.g. a subtitle track)."""

    def __init__(self, items: Sequence[TextItem | str], rate: float = 1.0,
                 mapping: TimeMapping | None = None) -> None:
        if not items:
            raise DataModelError("a text stream must contain at least one item")
        normalized = [
            item if isinstance(item, TextItem) else TextItem(str(item)) for item in items
        ]
        super().__init__(mapping or TimeMapping(rate))
        self._items = normalized
        self._stored_bits = sum(len(i.text.encode("utf-8")) for i in normalized) * 8

    @property
    def media_type(self) -> MediaType:
        return standard_type("text/stream")

    @property
    def element_count(self) -> int:
        return len(self._items)

    def item(self, index: int) -> TextItem:
        self._check_index(index)
        return self._items[index]

    def element_payload(self, index: int) -> Any:
        return self.item(index)

    def element_size_bits(self, index: int) -> int:
        self._check_index(index)
        return len(self._items[index].text.encode("utf-8")) * 8

    def data_size_bits(self) -> int:
        return self._stored_bits

    def texts(self) -> list[str]:
        return [item.text for item in self._items]
