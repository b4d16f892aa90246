"""Exact quantum-group computations: modules, crystal/global bases, R-matrices."""

from .qscalar import (
    FieldElement,
    ONE,
    Q,
    QLaurent,
    ZERO,
    q_binom,
    q_factorial,
    q_int,
)

__all__ = [
    "FieldElement",
    "ONE",
    "Q",
    "QLaurent",
    "ZERO",
    "q_binom",
    "q_factorial",
    "q_int",
]
