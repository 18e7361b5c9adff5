"""Declarative per-link latency/capacity configuration for the flow engine.

gem5's garnet topologies wire routers with per-link ``latency`` and
``weight`` keywords; the Cayley analogue is to key link properties by the
**generator** that induces the link — every directed edge ``(v, v·s)`` of
a Cayley graph is labelled by exactly one generator ``s``, so a map from
generator names to link classes configures the whole network in a few
declarative lines:

>>> config = LinkConfig(
...     classes=[LinkClass("cube", latency=2), LinkClass("fly", capacity=4)],
...     assign={"h_0": "cube", "h_1": "cube", "g": "fly", "f": "fly"},
... )

Unassigned generators fall back to the default class (latency 1,
capacity 1 — the event simulator's unit-link model, under which the flow
engine is pinned bit-identical to it).  ``capacity`` is the number of
packets a link moves per ``latency`` ticks; both are integer ticks so the
engine stays exactly replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import InvalidParameterError

__all__ = ["LinkClass", "LinkConfig"]


@dataclass(frozen=True)
class LinkClass:
    """One named kind of link: serialization latency and batch capacity."""

    name: str
    latency: int = 1
    capacity: int = 1

    def __post_init__(self) -> None:
        if self.latency < 1:
            raise InvalidParameterError("link latency must be >= 1 tick")
        if self.capacity < 1:
            raise InvalidParameterError("link capacity must be >= 1 packet")


_DEFAULT = LinkClass("default")


class LinkConfig:
    """Generator-name → :class:`LinkClass` assignment with a default."""

    def __init__(
        self,
        classes: Iterable[LinkClass] = (),
        assign: Mapping[str, str] | None = None,
        *,
        default: LinkClass = _DEFAULT,
    ) -> None:
        self.default = default
        self._classes: dict[str, LinkClass] = {default.name: default}
        for cls in classes:
            if cls.name in self._classes and self._classes[cls.name] != cls:
                raise InvalidParameterError(f"duplicate link class {cls.name!r}")
            self._classes[cls.name] = cls
        self._assign: dict[str, str] = dict(assign or {})
        for gen_name, cls_name in self._assign.items():
            if cls_name not in self._classes:
                raise InvalidParameterError(
                    f"generator {gen_name!r} assigned to unknown "
                    f"link class {cls_name!r}"
                )

    @classmethod
    def uniform(cls, *, latency: int = 1, capacity: int = 1) -> "LinkConfig":
        """All links identical — the event simulator's unit model scaled."""
        return cls(default=LinkClass("default", latency=latency, capacity=capacity))

    def class_for(self, gen_name: str) -> LinkClass:
        return self._classes[self._assign.get(gen_name, self.default.name)]

    def resolve(
        self, gen_names: Sequence[str] | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-generator ``(latency, capacity)`` int64 arrays.

        The arrays carry one trailing entry for the default class, so a
        route hop with generator index ``-1`` (builders that do not label
        hops) indexes the default — the flow engine relies on that layout.
        """
        names = list(gen_names or ())
        lat = np.empty(len(names) + 1, dtype=np.int64)
        cap = np.empty(len(names) + 1, dtype=np.int64)
        for i, name in enumerate(names):
            cls = self.class_for(name)
            lat[i] = cls.latency
            cap[i] = cls.capacity
        lat[-1] = self.default.latency
        cap[-1] = self.default.capacity
        return lat, cap
