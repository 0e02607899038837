"""Projection singularities, caustics, and multivalued geopotential branches.

The physical-space projection of an immersed chart drops rank exactly
where the determinant of its base-coordinate Jacobian vanishes; that
determinant is an exact polynomial in the chart coordinates and its zero
set is the singular locus.  Projecting the locus to physical space traces
the caustic.  Over a physical base point the immersion defines a fiber
of preimages: chart coordinates that are base coordinates take the base
values, and each base row of the immersion is an equation in the other
(unknown) chart coordinates.  No unknown (classical chart): the base
point itself; one (dual-T): exact real roots; more (dual-S, dual-R):
Newton from seeds.  Each preimage carries a geopotential value through
the chart's inverse Legendre formula, and the admissible branch is the
one whose branch Hessian is positive definite.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .formatting import write_csv
from .grid import Axis, Grid
from .ma_core import AMBIENT_COORDS, CACHE_SIZE, GeneratingFunction, immersion, \
    immersion_jacobian, immersion_jacobian_polys, immersion_polys, singular_locus_poly, \
    _NEGATED, _floats, _values_at
from .mat3 import det3, solve3
from .polyexpr import Poly, PolyVector, _plain_numbers
from .realroots import real_roots


@dataclass(frozen=True)
class CausticSample:
    """One singular-locus point with its physical projection."""

    chart_point: tuple
    base_point: tuple
    det_dpi: float


def GridSpec2D(var1: str, lo1: float, hi1: float, n1: int,
               var2: str, lo2: float, hi2: float, n2: int) -> Grid:
    """Grid over two chart coordinates, row-major (var1 outer).

    Kept for the benchmark workloads only; the package builds a ``Grid``.
    """
    return Grid((Axis(var1, lo1, hi1, n1), Axis(var2, lo2, hi2, n2)))


@dataclass
class CausticSweep:
    samples: list
    degenerate_slices: list = field(default_factory=list)
    rejected: int = 0


@dataclass
class BranchPoint:
    """Fiber of chart preimages over one base point.

    Parallel lists: fiber_values (full chart points), P_values, convex_flags,
    multiplicities and degenerate_flags.  failed_seeds records Newton seeds
    that did not converge (iterative charts only).
    """

    base_point: tuple
    fiber_values: list
    P_values: list
    convex_flags: list
    multiplicities: list = field(default_factory=list)
    degenerate_flags: list = field(default_factory=list)
    failed_seeds: list = field(default_factory=list)


class BranchChoice(NamedTuple):
    index: int | None
    ambiguous: bool


# Fixed thresholds of the fiber and branch decisions.
NEWTON_TOL = 1e-12  # Newton stops once max |residual| <= NEWTON_TOL * (1 + max |base|)
NEWTON_MAX_ITER = 60  # Newton steps per seed before the seed counts as failed
DEDUPE_TOL = 1e-9  # Newton solutions closer than this in max norm are one preimage
CONVEX_TOL = 1e-9  # convex: all leading principal minors of the branch Hessian exceed this
DEGENERATE_TOL = 1e-9  # degenerate: |det dpi| <= DEGENERATE_TOL, or a multiple root


def _by_powers(poly: Poly, var: str) -> PolyVector:
    # Coefficient polynomials of var^0, var^1, ... over the other variables.
    collected = poly.collect((var,))
    if not collected:
        return PolyVector()
    zero = Poly.zero(next(iter(collected.values())).variables)
    return PolyVector(collected.get((k,), zero) for k in range(max(collected)[0] + 1))


_BASE = AMBIENT_COORDS[:3]


def _fiber_rows(gf: GeneratingFunction) -> list:
    # The immersion's base rows that the chart does not supply: over a base
    # point, one equation each in the unknown chart coordinates.
    return [k for k, v in enumerate(_BASE) if v not in gf.chart.coords]


@lru_cache(maxsize=CACHE_SIZE)
def fiber_equation_polys(gf: GeneratingFunction) -> PolyVector:
    """Coefficients of u^0, u^1, ... in the fiber row of a one-unknown chart.

    The one such chart is dual-T: the row z = -T_Z collected in u = Z, each
    coefficient an exact polynomial of (x, y).
    """
    rows = _fiber_rows(gf)
    if len(rows) != 1:
        raise ValueError("the fiber equation has one unknown on the dual-T chart only")
    free = next(v for v in gf.chart.coords if v not in _BASE)
    return _by_powers(immersion_polys(gf)[rows[0]], free)


@lru_cache(maxsize=CACHE_SIZE)
def locus_coefficient_polys(gf: GeneratingFunction, free: str) -> PolyVector:
    """Coefficients of free^0, free^1, ... in the singular-locus polynomial.

    Each is an exact polynomial of the two other chart coordinates, in chart
    order; restricting the locus to a line along ``free`` evaluates them.
    """
    return _by_powers(singular_locus_poly(gf), free)


def _line_roots(polys: PolyVector, point: list, shift=0):
    # The chart points, with multiplicities, where sum_k polys[k] t^k = shift
    # along the unknown (None) coordinate t of point, found exactly; None
    # where that polynomial vanishes identically.  The coefficients stay
    # integers throughout: numerators over one scale, times shift's denominator.
    numerators, scale = polys.numerators([v for v in point if v is not None])
    num, den = shift.as_integer_ratio()
    coeffs = [n * den for n in numerators] or [0]
    coeffs[0] -= num * scale
    if not any(coeffs):
        return None
    return [(_placed(point, [r.value]), r.multiplicity) for r in real_roots(coeffs)]


def _placed(point, values) -> list:
    # The chart point with its unknown (None) coordinates set to values.
    it = iter(values)
    return [next(it) if v is None else v for v in point]


def dpi_det(gf: GeneratingFunction, pt):
    """Determinant of the projection differential at a chart point.

    Exact for exact inputs; a float value that is not finite raises DomainError.
    """
    return _values_at(gf, singular_locus_poly(gf), pt, "projection determinant")[0]


def caustic_sweep(gf: GeneratingFunction, grid: Grid, tol: float = 1e-10) -> CausticSweep:
    """Trace the caustic over a grid of two chart coordinates.

    At each node the locus polynomial is restricted to the remaining chart
    coordinate and its real roots are found exactly; each root projects to
    one caustic sample.  Slices where the restriction vanishes identically
    are reported and skipped; samples whose residual determinant exceeds
    ``tol`` are counted as rejected.  Samples appear in row-major grid order,
    roots ascending within a node.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, not {tol!r}")
    cs = gf.chart.coords
    if len(grid.dims) != 2 or not set(grid.names) <= set(cs):
        raise ValueError(f"grid variables must be two distinct of {cs!r}")
    var1, var2 = grid.names
    free = next(v for v in cs if v not in grid.names)
    polys = locus_coefficient_polys(gf, free)
    sweep = CausticSweep(samples=[])
    for v1, v2 in grid.nodes():
        roots = _line_roots(polys, [{var1: v1, var2: v2}.get(v) for v in cs])
        if roots is None:
            sweep.degenerate_slices.append((v1, v2))
            continue
        for point, _ in roots:  # none if the slice is a nonzero constant
            chart_point = tuple(point)  # floats: grid values and a float root
            det = dpi_det(gf, chart_point)
            if abs(det) > tol:
                sweep.rejected += 1
                continue
            sweep.samples.append(CausticSample(
                chart_point=chart_point,
                base_point=immersion(gf, chart_point).base(),
                det_dpi=det,
            ))
    return sweep


def multivalued_P(gf: GeneratingFunction, pt):
    """Geopotential value and base point of the branch through a chart point.

    The inverse Legendre transform sums momentum * base over the base
    coordinates the chart lacks (x, y, z order), then adds the potential if
    their relations are negated (or there are none) and subtracts it
    otherwise: dual-R P = Xx + Yy + Zz - R, dual-S P = Xx + Yy - S, dual-T
    P = Zz + T, classical P = P.  Exact for exact inputs.
    """
    amb = _values_at(gf, immersion_polys(gf), pt, "immersion")
    # The immersion maps each chart coordinate to itself, so amb holds the
    # validated chart point as well.
    point = [amb[AMBIENT_COORDS.index(v)] for v in gf.chart.coords]
    P = gf.potential.eval(point)
    lacking = _fiber_rows(gf)
    if lacking:  # reduce, not sum: sum starts at 0, and 0 + -0.0 is 0.0
        products = reduce(operator.add, (amb[3 + k] * amb[k] for k in lacking))
        negated = all((gf.chart, _BASE[k]) in _NEGATED for k in lacking)
        P = products + P if negated else products - P
    if isinstance(P, float) and not math.isfinite(P):
        raise DomainError(f"geopotential is not finite at chart point {tuple(point)!r}")
    return P, tuple(amb[:3])


def branch_hessian(gf: GeneratingFunction, chart_pt) -> np.ndarray:
    """Hessian of the branch geopotential at a regular chart point.

    Computed by implicit differentiation of the chart relations: the
    momentum block of the immersion Jacobian times the inverse of its base
    block.  Raises NoBranchError where the base block is singular (fold).
    """
    J = immersion_jacobian(gf, chart_pt)
    # C B^-1 = (B^-T C^T)^T
    return solve3(J[:3].T, J[3:].T,
                  "projection is singular here; branch Hessian undefined").T


def branch_is_convex(gf: GeneratingFunction, chart_pt) -> bool:
    """Positive definiteness of the branch Hessian via leading principal minors."""
    try:
        hp = branch_hessian(gf, chart_pt)
    except DomainError:
        return False
    # Python floats, whose sums and products overflow to inf with no warning.
    h = hp.tolist()
    s = [[0.5 * (h[i][j] + h[j][i]) for j in range(3)] for i in range(3)]
    m1 = s[0][0]
    m2 = s[0][0] * s[1][1] - s[0][1] * s[0][1]
    m3 = det3(s)
    return bool(m1 > CONVEX_TOL and m2 > CONVEX_TOL and m3 > CONVEX_TOL)


def _dedupe(solutions: list) -> list:
    kept = []
    for sol in solutions:
        if all(max(abs(a - b) for a, b in zip(sol, k)) > DEDUPE_TOL for k in kept):
            kept.append(sol)
    return kept


def _newton_fiber(gf: GeneratingFunction, base, point, rows, seeds):
    """Newton on the immersion's fiber rows and their Jacobian columns, with
    the fixed chart coordinates in place; (preimage, 1) pairs and failed seeds."""
    imm, jac = immersion_polys(gf), immersion_jacobian_polys(gf)
    unknowns = [i for i, v in enumerate(point) if v is None]
    start = [v if v is None else float(v) for v in point]
    targets = [base[k] for k in rows]  # base: the base point as floats
    scale = 1.0 + max(map(abs, base))
    converged, failed = [], []
    for seed in seeds:
        seed = tuple(float(s) for s in seed)
        if len(seed) != len(unknowns):
            names = [gf.chart.coords[i] for i in unknowns]
            raise ValueError(f"seed must supply {len(unknowns)} values for {names!r}")
        u = np.array(seed, dtype=float)
        ok = False
        try:  # a singular Jacobian or an overflowing power fails the seed
            for _ in range(NEWTON_MAX_ITER):
                values = _placed(start, u.tolist())  # Python floats raise on overflow
                row_values = imm.eval(values)
                r = np.array([row_values[k] - t for k, t in zip(rows, targets)])
                if np.max(np.abs(r)) <= NEWTON_TOL * scale:
                    ok = True
                    break
                jac_values = jac.eval(values)
                Jm = np.array([[jac_values[3 * k + i] for i in unknowns] for k in rows])
                u = u - np.linalg.solve(Jm, r)
                if not np.all(np.isfinite(u)):
                    break
        except (DomainError, np.linalg.LinAlgError):
            pass
        if ok:
            converged.append(tuple(u.tolist()))
        else:
            failed.append(seed)
    return [(_placed(start, u), 1) for u in _dedupe(sorted(converged))], failed


def fiber_solve(gf: GeneratingFunction, base, seeds=()) -> BranchPoint:
    """All chart preimages of a physical base point, with geopotential values.

    The number of unknown chart coordinates picks the path (module
    docstring): none keeps exact input exact; one finds fold tangencies with
    their multiplicity; more runs Newton from ``seeds``, which must not be
    empty, and records the failed ones.  An empty fiber means the base point
    lies outside the solution domain.  Each preimage's convexity is decided
    here, once.
    """
    base = _plain_numbers(base)
    if len(base) != 3:
        raise ValueError(f"base point must have 3 components, got {len(base)}")
    bp = BranchPoint(base_point=tuple(_floats(base, "base point")),
                     fiber_values=[], P_values=[], convex_flags=[])
    rows = _fiber_rows(gf)
    # The chart point as far as the base point fixes it (None where unknown).
    point = [base[_BASE.index(v)] if v in _BASE else None for v in gf.chart.coords]
    if not rows:
        preimages = [(point, 1)]
    elif len(rows) == 1:
        preimages = _line_roots(fiber_equation_polys(gf), point, base[rows[0]])
        if preimages is None:
            raise DomainError("fiber equation vanishes identically over this base point")
    else:
        if not seeds:
            raise ValueError(f"fibers of chart {gf.chart.value} have {len(rows)} unknowns "
                             f"and are found by Newton from seeds; none were given")
        preimages, bp.failed_seeds = _newton_fiber(gf, bp.base_point, point, rows, seeds)
    for point, multiplicity in preimages:
        chart_pt = tuple(_floats(point, "chart point"))
        # An exact base point keeps its exact geopotential on the classical chart.
        P, _ = multivalued_P(gf, chart_pt if rows else point)
        degenerate = multiplicity > 1 or abs(float(dpi_det(gf, chart_pt))) <= DEGENERATE_TOL
        bp.fiber_values.append(chart_pt)
        try:
            bp.P_values.append(float(P))
        except OverflowError:  # an exact P beyond the float range
            raise DomainError(f"geopotential is not finite at chart point {chart_pt!r}") from None
        bp.convex_flags.append(not degenerate and branch_is_convex(gf, chart_pt))
        bp.multiplicities.append(multiplicity)
        bp.degenerate_flags.append(degenerate)
    return bp


def branch_select_convex(bp: BranchPoint) -> BranchChoice:
    """Index of the unique convex branch, or None.

    Reads the convexity that ``fiber_solve`` recorded for each fiber point
    (degenerate fiber values are never convex).  If several branches
    qualify the first index is returned with the ambiguity flag set; the
    selection policy among coexisting convex branches is left to the caller.
    """
    convex = [i for i, flag in enumerate(bp.convex_flags) if flag]
    if not convex:
        return BranchChoice(None, False)
    return BranchChoice(convex[0], len(convex) > 1)


CAUSTIC_CSV_COLUMNS = ("chart_1", "chart_2", "chart_3",
                       "base_x", "base_y", "base_z", "det_dpi")


def write_caustic_csv(sweep: CausticSweep, stream) -> None:
    """CSV rows in sweep order: chart coordinates, base point, residual determinant."""
    write_csv(stream, CAUSTIC_CSV_COLUMNS,
              ((*s.chart_point, *s.base_point, s.det_dpi) for s in sweep.samples))
