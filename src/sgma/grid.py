"""Rectangular sample grids: named axes of evenly spaced values, row-major nodes."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .polyexpr import float_number

# Most nodes a grid may have: 100^3, about 14.5 times the largest grid the
# package and its examples sample (41^3).
MAX_NODES = 10 ** 6


class Axis(NamedTuple):
    """``n`` evenly spaced values from ``lo`` to ``hi``, both included (``lo`` alone for n = 1)."""

    name: str
    lo: float
    hi: float
    n: int

    @classmethod
    def parse(cls, name: str, text: str) -> "Axis":
        """Axis from the text ``lo:hi:n`` (checked when a Grid is built).

        The bounds take the number grammar of every other input (see
        :func:`sgma.polyexpr.float_number`), such as 0.25 or 1/3.
        """
        parts = str(text).split(":")
        if len(parts) != 3:
            raise ValueError(f"range of {name} must look like lo:hi:n, got {text!r}")
        try:
            return cls(name, float_number(parts[0]), float_number(parts[1]), int(parts[2]))
        except ValueError as exc:
            raise ValueError(f"cannot parse range {text!r}: {exc}") from None

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.n)


@dataclass(frozen=True)
class Grid:
    """Rectangular grid over named axes; nodes run row-major, first axis outermost."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(Axis(*a) for a in self.dims)
        object.__setattr__(self, "dims", dims)
        if len(set(self.names)) != len(dims):
            raise ValueError(f"grid axes must be distinct, got {self.names!r}")
        for a in dims:
            # Only floats can be non-finite; isfinite overflows on huge exact values.
            if any(isinstance(v, float) and not math.isfinite(v) for v in (a.lo, a.hi)):
                raise ValueError(f"grid bounds of {a.name} must be finite")
            if a.n < 1:
                raise ValueError("grid sizes must be at least 1")
            if a.lo > a.hi:
                raise ValueError("grid bounds must be well ordered")
        nodes = math.prod(a.n for a in dims)
        if nodes > MAX_NODES:
            raise ValueError(f"grid of {nodes} nodes exceeds the limit of {MAX_NODES}")

    @classmethod
    def parse(cls, text: str) -> "Grid":
        """Grid from ``name=lo:hi:n,name=lo:hi:n,...``, axes in text order."""
        dims = []
        for chunk in str(text).split(","):
            name, sep, rng = chunk.partition("=")
            if not sep:
                raise ValueError(f"grid entries must look like var=lo:hi:n, got {chunk!r}")
            dims.append(Axis.parse(name.strip(), rng))
        return cls(tuple(dims))

    @property
    def names(self) -> tuple:
        return tuple(a.name for a in self.dims)

    def ordered(self, names) -> "Grid":
        """The same grid with its axes in the order of ``names``."""
        if set(names) != set(self.names) or len(names) != len(self.dims):
            raise ValueError(f"grid axes must be {tuple(names)!r}, got {self.names!r}")
        by_name = {a.name: a for a in self.dims}
        return Grid(tuple(by_name[v] for v in names))

    def axes(self) -> dict:
        """Axis name -> 1-D sample values."""
        return {a.name: a.values() for a in self.dims}

    def nodes(self):
        """Node coordinate tuples (floats) in row-major order."""
        return itertools.product(*([float(v) for v in a.values()] for a in self.dims))
