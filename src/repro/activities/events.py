"""Activity event notification (paper §4.2).

"As an activity proceeds it generates events which can be 'caught' by
applications.  In the example above, the VideoSource class identifies two
events, EACH-FRAME and LAST-FRAME.  An application could instantiate this
class, request notification on a frame-by-frame basis ... start the
activity and then wait to be notified."

Events are named; handlers are plain callables invoked synchronously (in
virtual time) as ``handler(activity, event_name, payload)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Tuple

from repro.errors import ActivityError

if TYPE_CHECKING:  # pragma: no cover
    from repro.activities.base import MediaActivity

# Generic lifecycle events every activity provides.
EVENT_STARTED = "STARTED"
EVENT_STOPPED = "STOPPED"
EVENT_FINISHED = "FINISHED"
# Per-element events of streaming activities.
EVENT_EACH_ELEMENT = "EACH_ELEMENT"
EVENT_LAST_ELEMENT = "LAST_ELEMENT"
# The paper's video-specific aliases.
EVENT_EACH_FRAME = "EACH_FRAME"
EVENT_LAST_FRAME = "LAST_FRAME"

Handler = Callable[["MediaActivity", str, Any], None]


class EventDispatcher:
    """Per-activity registry of event handlers."""

    def __init__(self, event_names: Tuple[str, ...]) -> None:
        self._event_names = tuple(event_names)
        self._handlers: Dict[str, List[Handler]] = {name: [] for name in event_names}
        self.emit_counts: Dict[str, int] = {name: 0 for name in event_names}

    def catch(self, event_name: str, handler: Handler) -> None:
        """The paper's ``Catch(Event, Handler)``."""
        if event_name not in self._handlers:
            raise ActivityError(
                f"unknown event {event_name!r} (this activity provides {self._event_names})"
            )
        self._handlers[event_name].append(handler)

    def emit(self, activity: "MediaActivity", event_name: str, payload: Any = None) -> None:
        handlers = self._handlers.get(event_name)
        if handlers is None:
            raise ActivityError(f"activity cannot emit undeclared event {event_name!r}")
        self.emit_counts[event_name] += 1
        if handlers:
            for handler in list(handlers):
                handler(activity, event_name, payload)

    def has_handlers(self, event_name: str) -> bool:
        return bool(self._handlers.get(event_name))
