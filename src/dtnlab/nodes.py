"""Node identity: class prefix plus index, rendered like p13 or h0."""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache


class NodeClass(Enum):
    PEDESTRIAN = "p"
    CAR = "c"
    ACCIDENT = "a"
    HOSPITAL = "h"

    @property
    def prefix(self) -> str:
        return self.value


_PREFIXES = {c.value: c for c in NodeClass}
_NAME_RE = re.compile(r"^([pcah])(\d+)$")

# movable classes; accident and hospital nodes sit at fixed map vertices
MOBILE_CLASSES = (NodeClass.PEDESTRIAN, NodeClass.CAR)


@dataclass(frozen=True)
class NodeId:
    node_class: NodeClass
    index: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"node index must be non-negative, got {self.index}")

    @property
    def name(self) -> str:
        return f"{self.node_class.prefix}{self.index}"

    def __str__(self) -> str:
        return self.name

    @property
    def sort_key(self) -> tuple[str, int]:
        return (self.node_class.prefix, self.index)

    @staticmethod
    @lru_cache(maxsize=4096)
    def parse(name: str) -> "NodeId":
        """The node a name denotes.  A run's logs name a few hundred nodes,
        so each name parses to one shared object; NodeId is frozen."""
        m = _NAME_RE.match(name)
        if m is None:
            raise ValueError(f"not a node name: {name!r}")
        return NodeId(_PREFIXES[m.group(1)], int(m.group(2)))
