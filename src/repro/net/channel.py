"""Local (per-node) typed publish/subscribe event channel.

Models one of TAO's real-time event channels running on a single
processor: publishers push events by topic; all local subscribers receive
them synchronously (network delays only apply when the federation forwards
an event to another node).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

Subscriber = Callable[[Any], None]


class LocalEventChannel:
    """Topic-based pub/sub within a single node."""

    def __init__(self, node: str) -> None:
        self.node = node
        self._subscribers: Dict[str, List[Subscriber]] = {}
        self.events_delivered = 0

    def subscribe(self, topic: str, consumer: Subscriber) -> None:
        """Register ``consumer`` for all events pushed to ``topic``."""
        # Copy-on-write: a stored list is never mutated in place, so push
        # iterates it without a copy and still sees the subscribers of the
        # moment it started, whatever its consumers (un)subscribe.
        self._subscribers[topic] = self._subscribers.get(topic, []) + [consumer]

    def unsubscribe(self, topic: str, consumer: Subscriber) -> None:
        consumers = self._subscribers.get(topic, [])
        if consumer in consumers:
            consumers = list(consumers)
            consumers.remove(consumer)
            self._subscribers[topic] = consumers

    def subscriber_count(self, topic: str) -> int:
        return len(self._subscribers.get(topic, ()))

    def push(self, topic: str, payload: Any) -> int:
        """Deliver ``payload`` to every local subscriber of ``topic``.

        Returns the number of subscribers notified.
        """
        consumers = self._subscribers.get(topic, ())
        for consumer in consumers:
            self.events_delivered += 1
            consumer(payload)
        return len(consumers)
