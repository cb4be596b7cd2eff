"""Dominance lattices of weak compositions and optimal Lee-metric anticodes
over the chain rings Z/p^s Z.

Exact integer arithmetic throughout. Every closed form ships with an
independent brute-force oracle; the `verification` module cross-checks them.
Everything else is imported from its own module, e.g.
`from lee_anticodes import invariants`.
"""

from .anticodes import is_optimal, lee_bound
from .codes import Code
from .errors import CapExceeded, InternalCheckError
from .ring import ChainRingParams

__all__ = [
    "CapExceeded",
    "ChainRingParams",
    "Code",
    "InternalCheckError",
    "is_optimal",
    "lee_bound",
]
