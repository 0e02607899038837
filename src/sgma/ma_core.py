"""Charts, generating functions, and the induced phase-space geometry.

A generating function is a polynomial potential on one of four coordinate
charts of the phase space T*R^3 (coordinates x, y, z, X, Y, Z), together
with the positive constant that multiplies the Hessian-determinant balance
condition.  Each chart fixes three of the six phase-space coordinates as
independent variables; the potential's first derivatives supply the
remaining three, immersing the chart into the phase space as a Lagrangian
submanifold.

The ambient pseudo-metric pairs each base coordinate with its momentum
(signature (3,3)); its pull-back along the immersion is a symmetric 3x3
field whose signature classifies the balance equation pointwise as
elliptic (3,0), hyperbolic (1,2), or parabolic (degenerate).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainError
from .mat3 import adj3, det3
from .polyexpr import Poly, PolyVector

AMBIENT_COORDS = ("x", "y", "z", "X", "Y", "Z")


class ChartKind(enum.Enum):
    """The four physically used charts and their independent coordinates."""

    CLASSICAL_P = "P"
    DUAL_R = "R"
    DUAL_S = "S"
    DUAL_T = "T"

    @property
    def coords(self) -> tuple:
        return _CHART_COORDS[self]


_CHART_COORDS = {
    ChartKind.CLASSICAL_P: ("x", "y", "z"),
    ChartKind.DUAL_R: ("X", "Y", "Z"),
    ChartKind.DUAL_S: ("X", "Y", "z"),
    ChartKind.DUAL_T: ("x", "y", "Z"),
}


@dataclass(frozen=True)
class GeneratingFunction:
    """A chart, a polynomial potential over its coordinates, and eps_q > 0.

    ``eps_q`` is the single positive constant (Rossby number times potential
    vorticity) appearing in the balance condition; it is spatially uniform
    here.
    """

    chart: ChartKind
    potential: Poly
    eps_q: Fraction

    def __post_init__(self):
        eps = self.eps_q if isinstance(self.eps_q, Fraction) else Fraction(self.eps_q)
        object.__setattr__(self, "eps_q", eps)
        if eps <= 0:
            raise ValueError(f"eps_q must be positive, got {eps}")
        if self.potential.variables != self.chart.coords:
            raise ValueError(
                f"potential variables {self.potential.variables!r} do not match "
                f"chart {self.chart.value!r} coordinates {self.chart.coords!r}"
            )

    def to_dict(self) -> dict:
        return {
            "chart": self.chart.value,
            "potential": str(self.potential),
            "eps_q": str(self.eps_q),
        }

    @classmethod
    def from_dict(cls, record: Mapping) -> "GeneratingFunction":
        from .polyexpr import parse_poly

        unknown = set(record) - {"chart", "potential", "eps_q"}
        if unknown:
            raise ValueError(f"unknown generating-function keys {sorted(unknown)!r}")
        try:
            chart = ChartKind(record["chart"])
        except (KeyError, ValueError):
            raise ValueError(
                f"chart must be one of {[k.value for k in ChartKind]!r}"
            ) from None
        potential = parse_poly(record["potential"], chart.coords)
        eps_q = Fraction(str(record.get("eps_q", 1)))
        return cls(chart, potential, eps_q)


@dataclass(frozen=True)
class AmbientPoint:
    """A point of the phase space in the coordinate order x, y, z, X, Y, Z."""

    x: float
    y: float
    z: float
    X: float
    Y: float
    Z: float

    def as_tuple(self) -> tuple:
        return (self.x, self.y, self.z, self.X, self.Y, self.Z)

    def base(self) -> tuple:
        return (self.x, self.y, self.z)


@dataclass(frozen=True)
class Sym3:
    """Symmetric 3x3 real matrix stored by its six independent entries."""

    xx: float
    xy: float
    xz: float
    yy: float
    yz: float
    zz: float

    def _rows(self) -> tuple:
        return ((self.xx, self.xy, self.xz),
                (self.xy, self.yy, self.yz),
                (self.xz, self.yz, self.zz))

    def as_array(self) -> np.ndarray:
        return np.array(self._rows())

    def det(self) -> float:
        return det3(self._rows())

    def adjugate(self) -> "Sym3":
        a = adj3(self._rows())
        return Sym3(*(a[i][j] for i, j in _UPPER))


# The six independent entries of a symmetric 3x3, in Sym3 field order, and
# their positions among the row-major values of a 3x3 PolyVector.
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
_UPPER_FLAT = tuple(3 * i + j for i, j in _UPPER)


class SignatureLabel(str, enum.Enum):
    ELLIPTIC = "elliptic"
    HYPERBOLIC = "hyperbolic"
    PARABOLIC = "parabolic"
    OTHER = "other"


@dataclass(frozen=True)
class Signature:
    """Eigenvalue sign counts of a pull-back metric, with the tolerance used."""

    n_pos: int
    n_neg: int
    n_zero: int
    label: SignatureLabel
    tol: float
    eigenvalues: tuple


def _label_for(n_pos: int, n_neg: int, n_zero: int) -> SignatureLabel:
    if n_zero >= 1:
        return SignatureLabel.PARABOLIC
    if (n_pos, n_neg) == (3, 0):
        return SignatureLabel.ELLIPTIC
    if (n_pos, n_neg) == (1, 2):
        return SignatureLabel.HYPERBOLIC
    return SignatureLabel.OTHER


def _require_finite(values, what: str) -> None:
    # Only floats can be non-finite; isfinite overflows on huge exact values.
    if any(isinstance(v, float) and not math.isfinite(v) for v in values):
        raise DomainError(f"{what} is not finite: {tuple(values)!r}")


def _point_values(gf: GeneratingFunction, pt) -> list:
    if isinstance(pt, Mapping):
        missing = [v for v in gf.chart.coords if v not in pt]
        extra = set(pt) - set(gf.chart.coords)
        if missing or extra:
            raise ValueError(
                f"point must supply exactly {gf.chart.coords!r}"
            )
        values = [pt[v] for v in gf.chart.coords]
    else:
        values = list(pt)
        if len(values) != 3:
            raise ValueError(f"expected 3 chart values, got {len(values)}")
    _require_finite(values, "chart point")
    return values


# -- exact symbolic building blocks (cached per generating function) ---------

# Generating functions whose symbolic builders (and compiled metric fields)
# stay cached; bounded so that a long-lived process does not grow forever.
CACHE_SIZE = 64


@lru_cache(maxsize=CACHE_SIZE)
def hessian_polys(gf: GeneratingFunction) -> PolyVector:
    """3x3 matrix of exact second-derivative polynomials of the potential."""
    cs = gf.chart.coords
    firsts = [gf.potential.diff(v) for v in cs]
    return PolyVector(tuple(firsts[i].diff(cs[j]) for j in range(3)) for i in range(3))


@lru_cache(maxsize=CACHE_SIZE)
def immersion_polys(gf: GeneratingFunction) -> PolyVector:
    """The six ambient coordinates as exact polynomials of the chart coordinates.

    Order follows AMBIENT_COORDS.  Chart coordinates map to themselves; the
    complementary coordinates are the defining first-derivative relations of
    the chart (with the sign conventions of the two mixed charts: Z = -S_z
    and z = -T_Z).
    """
    cs = gf.chart.coords
    pot = gf.potential

    def var(name: str) -> Poly:
        return Poly.variable(cs, name)

    if gf.chart is ChartKind.CLASSICAL_P:
        rows = (var("x"), var("y"), var("z"),
                pot.diff("x"), pot.diff("y"), pot.diff("z"))
    elif gf.chart is ChartKind.DUAL_R:
        rows = (pot.diff("X"), pot.diff("Y"), pot.diff("Z"),
                var("X"), var("Y"), var("Z"))
    elif gf.chart is ChartKind.DUAL_S:
        rows = (pot.diff("X"), pot.diff("Y"), var("z"),
                var("X"), var("Y"), -pot.diff("z"))
    else:
        rows = (var("x"), var("y"), -pot.diff("Z"),
                pot.diff("x"), pot.diff("y"), var("Z"))
    return PolyVector(rows)


@lru_cache(maxsize=CACHE_SIZE)
def immersion_jacobian_polys(gf: GeneratingFunction) -> PolyVector:
    """6x3 matrix of exact partials: ambient coordinate by chart coordinate."""
    cs = gf.chart.coords
    rows = immersion_polys(gf)
    return PolyVector(tuple(row.diff(v) for v in cs) for row in rows)


# The ambient quadratic form pairs (x, X), (y, Y), (z, Z).
_METRIC_PAIRS = ((0, 3), (1, 4), (2, 5))


@lru_cache(maxsize=CACHE_SIZE)
def pullback_metric_polys(gf: GeneratingFunction) -> PolyVector:
    """Exact 3x3 polynomial entries of the pull-back metric J^T G J."""
    jac = immersion_jacobian_polys(gf)
    eps = gf.eps_q
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = Poly.zero(gf.chart.coords)
            for a, b in _METRIC_PAIRS:
                acc = acc + jac[a][i] * jac[b][j] + jac[b][i] * jac[a][j]
            row.append(eps * acc)
        out.append(tuple(row))
    return PolyVector(out)


@lru_cache(maxsize=CACHE_SIZE)
def ma_residual_poly(gf: GeneratingFunction) -> Poly:
    """Exact chart balance residual (LHS - RHS); the zero polynomial for solutions.

    Chart forms: classical det Hess(P) = eps_q; dual-R det Hess(R) = 1/eps_q;
    dual-S eps_q*(S_XX S_YY - S_XY^2) + S_zz = 0; dual-T
    T_xx T_yy - T_xy^2 + eps_q T_ZZ = 0.
    """
    h = hessian_polys(gf)
    eps = gf.eps_q
    if gf.chart is ChartKind.CLASSICAL_P or gf.chart is ChartKind.DUAL_R:
        rhs = eps if gf.chart is ChartKind.CLASSICAL_P else 1 / eps
        return det3(h) - Poly.constant(gf.chart.coords, rhs)
    minor = h[0][0] * h[1][1] - h[0][1] * h[0][1]
    if gf.chart is ChartKind.DUAL_S:
        return eps * minor + h[2][2]
    return minor + eps * h[2][2]


# -- point evaluations -------------------------------------------------------


def _sym3_at(gf: GeneratingFunction, polys: PolyVector, pt) -> Sym3:
    # Float values of a symmetric 3x3 PolyVector at a chart point.
    values = polys.eval(_point_values(gf, pt))
    return Sym3(*(float(values[k]) for k in _UPPER_FLAT))


def hessian(gf: GeneratingFunction, pt) -> Sym3:
    """Hessian of the potential in the chart's own variables, evaluated at pt."""
    return _sym3_at(gf, hessian_polys(gf), pt)


def ma_residual(gf: GeneratingFunction, pt):
    """Numeric balance residual at a chart point; exact for exact inputs."""
    return ma_residual_poly(gf).eval(_point_values(gf, pt))


def immersion(gf: GeneratingFunction, pt) -> AmbientPoint:
    """The unique ambient point over the chart point under the chart relations."""
    return AmbientPoint(*immersion_polys(gf).eval(_point_values(gf, pt)))


def immersion_jacobian(gf: GeneratingFunction, pt) -> np.ndarray:
    """6x3 differential of the immersion at pt (exact derivatives, then evaluated)."""
    values = immersion_jacobian_polys(gf).eval(_point_values(gf, pt))
    return np.array([float(v) for v in values]).reshape(6, 3)


def pullback_metric(gf: GeneratingFunction, pt) -> Sym3:
    """Pull-back metric at a chart point, from the exact J^T G J entries."""
    return _sym3_at(gf, pullback_metric_polys(gf), pt)


def _eigen_signs(metrics: np.ndarray, tol: float) -> tuple:
    """Ascending eigenvalues and their (n_pos, n_neg, n_zero) counts.

    ``metrics`` holds symmetric 3x3 matrices in its last two axes.  An
    eigenvalue counts as zero when |lambda| <= tol * (1 + max |lambda|), a
    relative test meaningful near the singular locus where eigenvalues
    cross zero linearly.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, not {tol!r}")
    if not np.all(np.isfinite(metrics)):
        raise DomainError("pull-back metric is not finite here (overflow)")
    eigs = np.linalg.eigvalsh(metrics)
    scale = tol * (1.0 + np.max(np.abs(eigs), axis=-1, keepdims=True))
    n_pos = (eigs > scale).sum(axis=-1)
    n_neg = (eigs < -scale).sum(axis=-1)
    n_zero = (np.abs(eigs) <= scale).sum(axis=-1)
    return eigs, (n_pos, n_neg, n_zero)


def classify(gf: GeneratingFunction, pt, tol: float = 1e-9) -> Signature:
    """Signature of the pull-back metric at pt (zero test: see _eigen_signs)."""
    eigs, counts = _eigen_signs(pullback_metric(gf, pt).as_array(), tol)
    n_pos, n_neg, n_zero = (int(n) for n in counts)
    return Signature(
        n_pos=n_pos,
        n_neg=n_neg,
        n_zero=n_zero,
        label=_label_for(n_pos, n_neg, n_zero),
        tol=tol,
        eigenvalues=tuple(float(v) for v in eigs),
    )


def linearization_matrix(gf: GeneratingFunction, pt) -> Sym3:
    """Coefficient matrix of the balance equation linearized about the potential.

    Classical chart: adjugate of the Hessian.  Dual-T chart: block matrix of
    the adjugate of the horizontal 2x2 Hessian with eps_q in the vertical
    slot.  The other charts have no separately hard-coded form here; the
    generic pull-back covers them.
    """
    if gf.chart is ChartKind.CLASSICAL_P:
        return hessian(gf, pt).adjugate()
    if gf.chart is ChartKind.DUAL_T:
        h = hessian(gf, pt)
        return Sym3(
            xx=h.yy, xy=-h.xy, xz=0.0,
            yy=h.xx, yz=0.0,
            zz=float(gf.eps_q),
        )
    raise ValueError(
        f"linearization matrix is only defined for charts "
        f"{ChartKind.CLASSICAL_P.value!r} and {ChartKind.DUAL_T.value!r}, "
        f"got {gf.chart.value!r}"
    )


def classification_grid(gf: GeneratingFunction, axes: Mapping[str, Sequence],
                        tol: float = 1e-9):
    """Vectorized classification over a rectangular grid of chart points.

    ``axes`` maps each chart coordinate to its 1-D sample values.  Returns
    (eigenvalues, labels): eigenvalues with shape grid + (3,), ascending,
    and labels as an object array of SignatureLabel values.  Points are in
    row-major order of the chart's coordinate tuple.
    """
    cs = gf.chart.coords
    if set(axes) != set(cs):
        raise ValueError(f"axes must supply exactly {cs!r}")
    values = [np.asarray(axes[v], dtype=float) for v in cs]
    if not all(np.all(np.isfinite(v)) for v in values):
        raise DomainError("classification grid axes are not finite")
    grids = np.meshgrid(*values, indexing="ij")
    shape = grids[0].shape
    flat = [g.reshape(-1) for g in grids]
    n = flat[0].size
    H = np.empty((n, 3, 3))
    with np.errstate(over="ignore", invalid="ignore"):  # _eigen_signs rejects inf/nan
        values = pullback_metric_polys(gf).eval(flat)
    for i in range(3):
        for j in range(3):
            H[:, i, j] = values[3 * i + j]
    eigs, (n_pos, n_neg, n_zero) = _eigen_signs(H, tol)
    labels = np.empty(n, dtype=object)
    for k in range(n):
        labels[k] = _label_for(int(n_pos[k]), int(n_neg[k]), int(n_zero[k]))
    return eigs.reshape(shape + (3,)), labels.reshape(shape)
