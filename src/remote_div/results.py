"""Result records shared by the solvers and the CLI."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DiversitySolution:
    """A k-subset together with its evaluated objective value."""

    indices: list[int]
    value: float
    algorithm: str
