"""Exact-arithmetic lattice toolkit and hidden-structure recovery harness."""

from .matrix import IntMatrix
from .lattice import Lattice
from .alg_a import end_to_end, schedule

__all__ = ["IntMatrix", "Lattice", "schedule", "end_to_end"]
__version__ = "0.1.0"
