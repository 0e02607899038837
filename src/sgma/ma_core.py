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
from .polyexpr import Poly, PolyVector, _evaluate, _plain_numbers, exact_number, parse_poly

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
        eps = exact_number(self.eps_q)
        object.__setattr__(self, "eps_q", eps)
        if eps <= 0:
            raise ValueError(f"eps_q must be positive, got {eps}")
        if self.potential.variables != self.chart.coords:
            raise ValueError(
                f"potential variables {self.potential.variables!r} do not match "
                f"chart {self.chart.value!r} coordinates {self.chart.coords!r}"
            )

    _hash = None  # not a field: it has no annotation

    def __hash__(self):  # once, not on every cached-builder lookup
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.chart, self.potential, self.eps_q)))
        return self._hash

    def __reduce__(self):  # no cached hash: str and enum hashes differ between processes
        return GeneratingFunction, (self.chart, self.potential, self.eps_q)

    def to_dict(self) -> dict:
        return {
            "chart": self.chart.value,
            "potential": str(self.potential),
            "eps_q": str(self.eps_q),
        }

    @classmethod
    def from_dict(cls, record: Mapping) -> "GeneratingFunction":
        if not isinstance(record, Mapping):
            raise ValueError("a generating-function record must be a JSON object")
        unknown = set(record) - {"chart", "potential", "eps_q"}
        if unknown:
            raise ValueError(f"unknown generating-function keys {sorted(unknown)!r}")
        try:
            chart = ChartKind(record["chart"])
        except (KeyError, ValueError):
            raise ValueError(
                f"chart must be one of {[k.value for k in ChartKind]!r}"
            ) from None
        if not isinstance(record.get("potential"), str):
            raise ValueError("potential must be a polynomial string")
        potential = parse_poly(record["potential"], chart.coords)
        return cls(chart, potential, record.get("eps_q", 1))


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


# The label of each signature, indexed [n_pos, n_neg]: a zero eigenvalue
# (n_pos + n_neg < 3) makes the metric degenerate.  The cells below the
# antidiagonal cannot occur.
_E, _H, _P, _O = SignatureLabel
_LABELS = np.array([[_P, _P, _P, _O],
                    [_P, _P, _H, _O],
                    [_P, _O, _O, _O],
                    [_E, _O, _O, _O]], dtype=object)


def _floats(values, what: str) -> list:
    # The values, read by _plain_numbers, as floats; one that is not finite,
    # or an exact one beyond the float range, is a DomainError.
    values = _plain_numbers(values)
    try:
        floats = [float(v) for v in values]
        if all(map(math.isfinite, floats)):
            return floats
    except OverflowError:
        pass
    except TypeError:  # float() of an array: only grids take arrays
        raise ValueError(f"{what} has an array coordinate: {tuple(values)!r}") from None
    raise DomainError(f"{what} is not finite: {tuple(values)!r}")


def _point_values(gf: GeneratingFunction, pt) -> list:
    values = gf.potential._values_list(pt)  # the potential's variables are the chart's
    for v in values:
        # Only floats can be non-finite; isfinite overflows on huge exact values.
        if isinstance(v, float):
            if not math.isfinite(v):
                raise DomainError(f"chart point is not finite: {tuple(values)!r}")
        elif isinstance(v, np.ndarray):  # only grids take arrays
            raise ValueError(f"chart point has an array coordinate: {tuple(values)!r}")
    return values


# -- exact symbolic building blocks (cached per generating function) ---------

# Generating functions whose symbolic builders (and compiled metric fields)
# stay cached; bounded so that a long-lived process does not grow forever.
CACHE_SIZE = 64


# The (chart, ambient coordinate) pairs whose chart relation, the potential's
# derivative by the conjugate coordinate (x <-> X, y <-> Y, z <-> Z), is negated.
_NEGATED = {(ChartKind.DUAL_S, "Z"), (ChartKind.DUAL_T, "z")}


@lru_cache(maxsize=CACHE_SIZE)
def immersion_polys(gf: GeneratingFunction) -> PolyVector:
    """The six ambient coordinates as exact polynomials of the chart coordinates.

    Order follows AMBIENT_COORDS.  Chart coordinates map to themselves; each
    other coordinate is the potential's derivative by its conjugate (X = P_x
    on the classical chart, x = R_X on dual-R), with the sign conventions of
    the two mixed charts: Z = -S_z and z = -T_Z.
    """
    cs = gf.chart.coords
    rows = []
    for name in AMBIENT_COORDS:
        if name in cs:
            rows.append(Poly.variable(cs, name))
        else:
            first = gf.potential.diff(name.swapcase())
            rows.append(-first if (gf.chart, name) in _NEGATED else first)
    return PolyVector(rows)


@lru_cache(maxsize=CACHE_SIZE)
def immersion_jacobian_polys(gf: GeneratingFunction) -> PolyVector:
    """6x3 matrix of exact partials: ambient coordinate by chart coordinate."""
    cs = gf.chart.coords
    rows = immersion_polys(gf)
    return PolyVector(tuple(row.diff(v) for v in cs) for row in rows)


@lru_cache(maxsize=CACHE_SIZE)
def singular_locus_poly(gf: GeneratingFunction) -> Poly:
    """Exact polynomial whose zero set (in chart coordinates) is the singular locus.

    It is det B, B the immersion Jacobian's base block: constant 1 on the
    classical chart, -T_ZZ on dual-T, S_XX*S_YY - S_XY^2 on dual-S, and
    det Hess(R) on dual-R.
    """
    return det3(immersion_jacobian_polys(gf)[:3])


@lru_cache(maxsize=CACHE_SIZE)
def hessian_polys(gf: GeneratingFunction) -> PolyVector:
    """3x3 matrix of exact second-derivative polynomials of the potential.

    Row i is the immersion Jacobian's row of the conjugate of chart
    coordinate i, with the chart relation's sign undone.
    """
    jac = immersion_jacobian_polys(gf)
    rows = []
    for v in gf.chart.coords:
        name = v.swapcase()
        row = jac[AMBIENT_COORDS.index(name)]
        rows.append(tuple(-p for p in row) if (gf.chart, name) in _NEGATED else row)
    return PolyVector(rows)


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
            acc = Poly.sum([p for a, b in _METRIC_PAIRS
                            for p in (jac[a][i] * jac[b][j], jac[b][i] * jac[a][j])],
                           gf.chart.coords)
            row.append(acc if eps == 1 else eps * acc)
        out.append(tuple(row))
    return PolyVector(out)


@lru_cache(maxsize=CACHE_SIZE)
def ma_residual_poly(gf: GeneratingFunction) -> Poly:
    """Exact chart balance residual (LHS - RHS); the zero polynomial for solutions.

    The balance equation is the Monge-Ampere form dX^dY^dZ - eps_q dx^dy^dz,
    which reads det C - eps_q det B on every chart, with B the base and C the
    momentum block of the immersion Jacobian (det B is singular_locus_poly).
    Divided by one factor per chart it takes the chart's conventional form:
    classical det Hess(P) = eps_q; dual-R det Hess(R) = 1/eps_q; dual-S
    eps_q*(S_XX S_YY - S_XY^2) + S_zz = 0; dual-T T_xx T_yy - T_xy^2 +
    eps_q T_ZZ = 0.
    """
    jac = immersion_jacobian_polys(gf)
    eps = gf.eps_q
    factor = {ChartKind.DUAL_R: -eps, ChartKind.DUAL_S: -1}.get(gf.chart, 1)
    return (det3(jac[3:]) - eps * singular_locus_poly(gf)) / factor


# -- point evaluations -------------------------------------------------------


def _values_at(gf: GeneratingFunction, polys, pt, what: str) -> tuple:
    # A Poly's or PolyVector's values at a validated chart point: all exact
    # or all floats.  A float value that is not finite is a DomainError.
    point = _point_values(gf, pt)
    values = _evaluate(polys, point)  # the point is read already
    if isinstance(values[0], float) and not all(map(math.isfinite, values)):
        raise DomainError(f"{what} is not finite at chart point {tuple(point)!r}")
    return values


def _matrix_at(gf: GeneratingFunction, polys: PolyVector, pt, what: str) -> np.ndarray:
    # Float values of a matrix PolyVector at a chart point, one row per item;
    # an exact value beyond the float range is a DomainError too.
    values = _values_at(gf, polys, pt, what)
    if not isinstance(values[0], float):
        try:
            values = [float(v) for v in values]
        except OverflowError:
            point = tuple(_point_values(gf, pt))
            raise DomainError(f"{what} is not finite at chart point {point!r}") from None
    return np.array(values).reshape(len(polys), -1)


def hessian(gf: GeneratingFunction, pt) -> np.ndarray:
    """3x3 Hessian of the potential in the chart's own variables, evaluated at pt."""
    return _matrix_at(gf, hessian_polys(gf), pt, "Hessian")


def ma_residual(gf: GeneratingFunction, pt):
    """Numeric balance residual at a chart point; exact for exact inputs.

    A float value that is not finite raises DomainError.
    """
    return _values_at(gf, ma_residual_poly(gf), pt, "balance residual")[0]


def immersion(gf: GeneratingFunction, pt) -> AmbientPoint:
    """The unique ambient point over the chart point under the chart relations."""
    return AmbientPoint(*_values_at(gf, immersion_polys(gf), pt, "immersion"))


def immersion_jacobian(gf: GeneratingFunction, pt) -> np.ndarray:
    """6x3 differential of the immersion at pt (exact derivatives, then evaluated)."""
    return _matrix_at(gf, immersion_jacobian_polys(gf), pt, "immersion Jacobian")


def pullback_metric(gf: GeneratingFunction, pt) -> np.ndarray:
    """3x3 pull-back metric at a chart point, from the exact J^T G J entries."""
    return _matrix_at(gf, pullback_metric_polys(gf), pt, "pull-back metric")


def _eigen_signs(metrics: np.ndarray, tol: float) -> tuple:
    """Ascending eigenvalues and their (n_pos, n_neg, n_zero) counts.

    ``metrics`` holds finite symmetric 3x3 matrices in its last two axes
    (its callers check them).  An eigenvalue counts as zero when
    |lambda| <= tol * (1 + max |lambda|), a relative test meaningful near
    the singular locus where eigenvalues cross zero linearly.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, not {tol!r}")
    eigs = np.linalg.eigvalsh(metrics)
    scale = tol * (1.0 + np.max(np.abs(eigs), axis=-1, keepdims=True))
    n_pos = (eigs > scale).sum(axis=-1)
    n_neg = (eigs < -scale).sum(axis=-1)
    n_zero = (np.abs(eigs) <= scale).sum(axis=-1)
    return eigs, (n_pos, n_neg, n_zero)


def classify(gf: GeneratingFunction, pt, tol: float = 1e-9) -> Signature:
    """Signature of the pull-back metric at pt (zero test: see _eigen_signs)."""
    eigs, counts = _eigen_signs(pullback_metric(gf, pt), tol)
    n_pos, n_neg, n_zero = (int(n) for n in counts)
    return Signature(
        n_pos=n_pos,
        n_neg=n_neg,
        n_zero=n_zero,
        label=_LABELS[n_pos, n_neg],
        tol=tol,
        eigenvalues=tuple(float(v) for v in eigs),
    )


def linearization_matrix(gf: GeneratingFunction, pt) -> np.ndarray:
    """Coefficient matrix of the balance equation linearized about the potential.

    Classical chart: adjugate of the Hessian.  Dual-T chart: block matrix of
    the adjugate of the horizontal 2x2 Hessian with eps_q in the vertical
    slot.  The other charts have no separately hard-coded form here; the
    generic pull-back covers them.
    """
    if gf.chart is ChartKind.CLASSICAL_P:
        adj = np.array(adj3(hessian(gf, pt).tolist()))  # may overflow a finite Hessian
        if not np.isfinite(adj).all():
            raise DomainError("linearization matrix is not finite: "
                              f"{tuple(adj.ravel().tolist())!r}")
        return adj
    if gf.chart is ChartKind.DUAL_T:
        (xx, xy, _), (_, yy, _), _ = hessian(gf, pt).tolist()
        return np.array([[yy, -xy, 0.0], [-xy, xx, 0.0], [0.0, 0.0, float(gf.eps_q)]])
    raise ValueError(
        f"linearization matrix is only defined for charts "
        f"{ChartKind.CLASSICAL_P.value!r} and {ChartKind.DUAL_T.value!r}, "
        f"got {gf.chart.value!r}"
    )


def _grid_values(polys: PolyVector, axes) -> np.ndarray:
    # The values of every entry at every node of the grid over axes (1-D
    # samples in variable order): entry k of node (i, j, ...) is
    # out[i, j, ..., k], a constant entry filling the grid.  Overflow gives
    # inf or NaN, which the caller judges.
    grids = np.meshgrid(*axes, indexing="ij")
    with np.errstate(over="ignore", invalid="ignore"):
        values = polys.eval(grids)
    out = np.empty(grids[0].shape + (len(values),))
    for k, v in enumerate(values):
        out[..., k] = v
    return out


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
    metrics = _grid_values(pullback_metric_polys(gf), values)
    if not np.isfinite(metrics).all():
        raise DomainError("pull-back metric is not finite here (overflow)")
    eigs, (n_pos, n_neg, _) = _eigen_signs(metrics.reshape(metrics.shape[:-1] + (3, 3)), tol)
    return eigs, _LABELS[n_pos, n_neg]
