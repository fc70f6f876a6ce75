"""Solutions (stable states) of a routing problem."""

from __future__ import annotations

from typing import Any, Callable

from .._struct import field, struct
from ..eval.values import value_repr


@struct
class Solution:
    """A stable labelling ``L`` of the network (paper §2.5), plus run stats.

    ``stats`` carries the simulator's work counters (activations, messages,
    trans/merge memo hits — see :mod:`repro.perf` naming rules) so analysis
    drivers and benchmarks can report work done, not just wall time.
    """

    labels: list[Any]
    iterations: int = 0
    messages: int = 0
    stats: dict[str, int] = field(default_factory=dict)

    def check_assertions(self, assert_fn: Callable[[int, Any], bool] | None
                         ) -> list[int]:
        """Nodes whose converged attribute violates the assertion."""
        if assert_fn is None:
            return []
        return [u for u, attr in enumerate(self.labels) if not assert_fn(u, attr)]

    def pretty(self, max_nodes: int | None = None) -> str:
        lines = []
        for u, attr in enumerate(self.labels):
            if max_nodes is not None and u >= max_nodes:
                lines.append(f"... ({len(self.labels) - max_nodes} more)")
                break
            lines.append(f"node {u}: {value_repr(attr)}")
        return "\n".join(lines)
