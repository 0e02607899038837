"""Singular locus, caustics, fibers and branch selection."""

import io
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from sgma.errors import DomainError
from sgma.grid import Grid
from sgma import ma_core, singular
from sgma.ma_core import CACHE_SIZE, ChartKind, GeneratingFunction, SignatureLabel, \
    classify, hessian, immersion, pullback_metric
from sgma.polyexpr import Poly, parse_poly
from sgma.singular import (
    CAUSTIC_CSV_COLUMNS,
    GridSpec2D,
    branch_hessian,
    branch_is_convex,
    branch_select_convex,
    caustic_sweep,
    dpi_det,
    fiber_equation_polys,
    fiber_solve,
    locus_coefficient_polys,
    multivalued_P,
    singular_locus_poly,
    write_caustic_csv,
)

T_VARS = ("x", "y", "Z")


def _gf(chart, text, eps=1):
    kind = ChartKind(chart)
    return GeneratingFunction(kind, parse_poly(text, kind.coords), Fraction(eps))


# -- locus and projection determinant -----------------------------------------

def test_locus_poly_fold(fold_gf):
    assert singular_locus_poly(fold_gf) == parse_poly("-Z", T_VARS)


def test_locus_poly_is_the_cached_det_b_of_the_balance_residual():
    assert singular_locus_poly is ma_core.singular_locus_poly
    gf = _gf("T", "y^2/2 - x^2*Z/2 + Z^3/6 + x*y*Z/7")
    ma_core.ma_residual_poly(gf)
    hits = singular_locus_poly.cache_info().hits
    assert singular_locus_poly(gf) == parse_poly("-Z", T_VARS)
    assert singular_locus_poly.cache_info().hits == hits + 1


def test_locus_poly_classical_is_one(convex_quadratic_gf):
    assert singular_locus_poly(convex_quadratic_gf) == parse_poly("1", ("x", "y", "z"))


def test_locus_poly_quartic_double():
    gf = _gf("T", "y^2/2 + Z^4/12")
    assert singular_locus_poly(gf) == parse_poly("-Z^2", T_VARS)


def test_locus_poly_dual_s_and_r():
    gf_s = _gf("S", "(X^2 + Y^2)/2 - z^2/2")
    assert singular_locus_poly(gf_s) == parse_poly("1", ("X", "Y", "z"))
    gf_r = _gf("R", "(X^2 + Y^2 + Z^2)/2")
    assert singular_locus_poly(gf_r) == parse_poly("1", ("X", "Y", "Z"))
    # with cross terms the chart-specific closed forms appear:
    # S chart gives the horizontal Hessian determinant S_XX S_YY - S_XY^2
    gf_s2 = _gf("S", "(X^2 + Y^2)/2 + X*Y*z/2")
    assert singular_locus_poly(gf_s2) == parse_poly("1 - z^2/4", ("X", "Y", "z"))
    # R chart gives the full Hessian determinant
    gf_r2 = _gf("R", "(X^2 + Y^2 + Z^2)/2 + X*Y*Z")
    hess_det = parse_poly(
        "1 - X^2 - Y^2 - Z^2 + 2*X*Y*Z", ("X", "Y", "Z"))
    assert singular_locus_poly(gf_r2) == hess_det


def test_caustic_samples_are_parabolic_on_family_solution():
    from sgma.family import build_family, random_generic_spec

    rng = random.Random(26)
    sol = build_family(random_generic_spec(rng))
    sweep = caustic_sweep(sol.gf, GridSpec2D("x", -1, 1, 4, "y", -1, 1, 3),
                          tol=1e-8)
    assert sweep.samples  # a generic cubic-level member folds somewhere
    for s in sweep.samples:
        assert classify(sol.gf, s.chart_point, tol=1e-6).label \
            is SignatureLabel.PARABOLIC
        back = immersion(sol.gf, s.chart_point).base()
        assert max(abs(a - b) for a, b in zip(back, s.base_point)) <= 1e-12


def test_caustic_degenerate_slice_reported():
    # locus = -x vanishes identically in Z on the x = 0 slice
    gf = _gf("T", "x*Z^2/2")
    sweep = caustic_sweep(gf, GridSpec2D("x", -1, 1, 3, "y", 0, 0, 1))
    assert (0.0, 0.0) in sweep.degenerate_slices
    # nonzero-x slices have no roots in Z (constant nonzero restriction)
    assert sweep.samples == []


def test_caustic_sweep_rejects_roots_off_the_locus():
    # The locus 10^8*(2 - Z^2) has the roots +-sqrt(2); rounded to floats
    # they leave |det| = 3e-8 > tol, so every root is rejected.
    gf = _gf("T", "10^8*(Z^4/12 - Z^2) + y^2/2")
    sweep = caustic_sweep(gf, Grid.parse("x=-1:1:3,y=0:0:1"))
    assert sweep.samples == [] and not sweep.degenerate_slices
    assert sweep.rejected == 6


def _substituted(poly, fixed, free):
    # Restriction to a line by substitution, the per-node way: the oracle
    # for the coefficient builders.
    mapping = {v: Fraction(value) for v, value in fixed.items()}
    mapping[free] = Poly.variable((free,), free)
    return poly.compose(mapping, (free,)).univariate_coefficients(free)


def _at(polys, values):
    coeffs = [p.eval([Fraction(v) for v in values]) for p in polys]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def test_coefficient_builders_match_substitution(fold_gf):
    from sgma.family import build_family, random_generic_spec

    rng = random.Random(5)
    gfs = [fold_gf, _gf("T", "x*Z^2/2")]
    gfs += [build_family(random_generic_spec(rng)).gf for _ in range(2)]
    for gf in gfs:
        fiber_row = -gf.potential.diff("Z")  # z = -T_Z
        locus = singular_locus_poly(gf)
        for x, y, Z in [(0.0, 0.0, 0.0)] + [tuple(rng.uniform(-1, 1) for _ in range(3))
                                              for _ in range(3)]:
            assert _at(fiber_equation_polys(gf), (x, y)) == \
                _substituted(fiber_row, {"x": x, "y": y}, "Z")
            for free, fixed in (("Z", {"x": x, "y": y}), ("x", {"y": y, "Z": Z}),
                                ("y", {"x": x, "Z": Z})):
                values = [fixed[v] for v in T_VARS if v != free]
                assert _at(locus_coefficient_polys(gf, free), values) == \
                    _substituted(locus, fixed, free)


def test_coefficient_builders_are_bounded(convex_quadratic_gf):
    for gf in (convex_quadratic_gf, _gf("S", "X*Y*z"), _gf("R", "X*Y*Z")):
        with pytest.raises(ValueError, match="dual-T"):
            fiber_equation_polys(gf)
    for k in range(1, CACHE_SIZE + 3):
        gf = _gf("T", f"{k}*x*Z^2 + Z^3/6")
        fiber_equation_polys(gf)
        locus_coefficient_polys(gf, "Z")
    for build in (fiber_equation_polys, locus_coefficient_polys):
        info = build.cache_info()
        assert info.maxsize == CACHE_SIZE and info.currsize == CACHE_SIZE


def test_warm_fibers_and_caustics_take_no_derivative_or_collection(monkeypatch, fold_gf):
    # After one warm call, fibers on the Newton charts (seeds converging and
    # failing), the exact dual-T fiber and caustic slices read only cached
    # builders: no Poly.diff and no Poly.collect call is made again.
    gf_s = _gf("S", "(X^2 + Y^2)/2 + X*Y*z/2 - z^2/2")
    gf_r = _gf("R", "X^3/3 + (Y^2 + Z^2)/2")
    calls = [lambda: fiber_solve(gf_s, (0.5, -0.25, 2.0), ((0.0, 0.0), (1.0, 1.0))),
             lambda: fiber_solve(gf_r, (1.0, 1.0, 1.0), ((0.0, 0.0, 0.0), (2.0, 0.0, 0.0))),
             lambda: fiber_solve(fold_gf, (2, 0, 0)),
             lambda: caustic_sweep(fold_gf, GridSpec2D("x", -1, 1, 3, "y", 0, 0, 1))]
    warm = [call() for call in calls]
    assert warm[1].failed_seeds == [(0.0, 0.0, 0.0)] and warm[1].fiber_values
    counts = Counter()
    for name in ("diff", "collect"):
        def spy(self, *args, _real=getattr(Poly, name), _name=name):
            counts[_name] += 1
            return _real(self, *args)
        monkeypatch.setattr(Poly, name, spy)
    for _ in range(3):
        assert [repr(call()) for call in calls] == [repr(w) for w in warm]
    assert counts == Counter()


def test_coefficient_beyond_float_range_is_domain_error():
    # 10^400 passes the parser's bit budget but no float holds it.
    gf = _gf("T", "(10^200)^2*Z^3 + y^2")
    calls = (lambda: fiber_solve(gf, (0, 0, 0)),
             lambda: caustic_sweep(gf, GridSpec2D("x", 0, 1, 2, "y", 0, 0, 1)),
             lambda: dpi_det(gf, (0.0, 0.0, 1.0)),
             lambda: classify(gf, (0.0, 0.0, 1.0)))
    for call in calls:
        with pytest.raises(DomainError, match="overflows"):
            call()


def test_dpi_det_values(fold_gf, convex_quadratic_gf):
    assert dpi_det(fold_gf, (1, 5, 0)) == 0
    assert dpi_det(fold_gf, (0, 0, -2)) == 2
    assert dpi_det(convex_quadratic_gf, (9, 9, 9)) == 1


# -- caustics -------------------------------------------------------------------

def test_caustic_sweep_fold(fold_gf):
    grid = GridSpec2D("x", -2, 2, 5, "y", 0, 0, 1)
    sweep = caustic_sweep(fold_gf, grid)
    assert len(sweep.samples) == 5
    assert sweep.rejected == 0 and not sweep.degenerate_slices
    for s in sweep.samples:
        x, _, z = s.base_point
        assert abs(z - x * x / 2) <= 1e-12
    # row-major determinism
    assert [s.chart_point[0] for s in sweep.samples] == [-2.0, -1.0, 0.0, 1.0, 2.0]


@pytest.mark.parametrize("tol", [0.0, -1e-10, float("nan"), float("inf")])
def test_caustic_sweep_rejects_bad_tol(fold_gf, tol):
    with pytest.raises(ValueError, match="positive and finite"):
        caustic_sweep(fold_gf, GridSpec2D("x", -2, 2, 5, "y", 0, 0, 1), tol)


def test_caustic_sweep_specific_bases(fold_gf):
    grid = GridSpec2D("x", 2, 2, 1, "y", 0, 0, 1)
    sweep = caustic_sweep(fold_gf, grid)
    assert len(sweep.samples) == 1
    assert sweep.samples[0].base_point == (2.0, 0.0, 2.0)
    grid0 = GridSpec2D("x", 0, 0, 1, "y", 0, 0, 1)
    assert caustic_sweep(fold_gf, grid0).samples[0].base_point == (0.0, 0.0, 0.0)


def test_caustic_sweep_classical_empty(convex_quadratic_gf):
    sweep = caustic_sweep(convex_quadratic_gf, GridSpec2D("x", -1, 1, 3, "y", -1, 1, 3))
    assert sweep.samples == []


def test_caustic_csv_format(fold_gf):
    sweep = caustic_sweep(fold_gf, GridSpec2D("x", 1, 1, 1, "y", 0, 0, 1))
    buf = io.StringIO()
    write_caustic_csv(sweep, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == ",".join(CAUSTIC_CSV_COLUMNS)
    assert len(lines) == 2


def test_caustic_grid_validation(fold_gf):
    with pytest.raises(ValueError):
        caustic_sweep(fold_gf, GridSpec2D("x", 0, 1, 2, "x", 0, 1, 2))
    with pytest.raises(ValueError):
        GridSpec2D("x", 1, 0, 2, "y", 0, 1, 2)


# -- multivalued geopotential -----------------------------------------------------

def test_multivalued_p_values(fold_gf):
    value, base = multivalued_P(fold_gf, (Fraction(0), Fraction(0), Fraction(1)))
    assert value == Fraction(-1, 3)
    assert base == (0, 0, Fraction(-1, 2))
    value, base = multivalued_P(fold_gf, (Fraction(2), Fraction(0), Fraction(-2)))
    assert value == Fraction(8, 3) and base == (2, 0, 0)
    value, base = multivalued_P(fold_gf, (0, 0, 0))
    assert value == 0 and base == (0, 0, 0)


def test_multivalued_p_matches_parametric_form(fold_gf):
    # P = y^2/2 - Z^3/3 along the fiber, independent of x.
    rng = random.Random(21)
    for _ in range(40):
        pt = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        value, _ = multivalued_P(fold_gf, pt)
        assert abs(value - (pt[1] ** 2 / 2 - pt[2] ** 3 / 3)) < 1e-12


# One Lagrangian plane with cross terms on all four charts: the classical
# P = u^T A u / 2 with A = [[2, 1, 0], [1, 2, 1], [0, 1, 2]] (det A = 4) and
# its partial Legendre transforms, each a quadratic.
PLANE = {
    "P": "x^2 + x*y + y^2 + y*z + z^2",
    "T": "-Z^2/4 + Z*y/2 + x^2 + x*y + 3*y^2/4",
    "S": "X^2/3 - X*Y/3 + X*z/3 + Y^2/3 - 2*Y*z/3 - 2*z^2/3",
    "R": "3*X^2/8 - X*Y/2 + X*Z/4 + Y^2/2 - Y*Z/2 + 3*Z^2/8",
}


@pytest.mark.parametrize("base", [(1, 2, 3), (Fraction(-1, 3), Fraction(5, 7), 0)])
def test_multivalued_p_is_one_geopotential_on_every_chart(base):
    classical = _gf("P", PLANE["P"], 4)
    amb = immersion(classical, base).as_tuple()
    P, _ = multivalued_P(classical, base)
    assert P == classical.potential.eval(base)
    for chart, text in PLANE.items():
        gf = _gf(chart, text, 4)
        assert ma_core.ma_residual_poly(gf).is_zero
        pt = tuple(amb[ma_core.AMBIENT_COORDS.index(v)] for v in gf.chart.coords)
        assert immersion(gf, pt).as_tuple() == amb
        assert multivalued_P(gf, pt) == (P, tuple(base))


def test_multivalued_p_dual_s_and_r_agree_with_classical():
    # Both dual descriptions of the same Lagrangian plane recover
    # P = (x^2 + y^2 + z^2)/2.
    gf_s = _gf("S", "(X^2 + Y^2)/2 - z^2/2")
    value, base = multivalued_P(gf_s, (Fraction(1), Fraction(2), Fraction(3)))
    assert value == Fraction(1 + 4 + 9, 2) and base == (1, 2, 3)
    gf_r = _gf("R", "(X^2 + Y^2 + Z^2)/2")
    value, base = multivalued_P(gf_r, (Fraction(1), Fraction(2), Fraction(3)))
    assert value == Fraction(7) and base == (1, 2, 3)


# -- fibers -----------------------------------------------------------------------

def test_fiber_two_branches(fold_gf):
    bp = fiber_solve(fold_gf, (2, 0, 0))
    assert [fv[2] for fv in bp.fiber_values] == [-2.0, 2.0]
    assert bp.multiplicities == [1, 1]
    assert bp.convex_flags == [True, False]
    assert bp.degenerate_flags == [False, False]


def test_fiber_empty_outside_domain(fold_gf):
    bp = fiber_solve(fold_gf, (0, 0, 1))
    assert bp.fiber_values == []


def test_fiber_fold_point_double_root(fold_gf):
    bp = fiber_solve(fold_gf, (2, 0, 2))
    assert len(bp.fiber_values) == 1
    assert bp.multiplicities == [2]
    assert bp.degenerate_flags == [True]
    assert bp.convex_flags == [False]


def test_fiber_consistency_projection(fold_gf):
    rng = random.Random(22)
    for _ in range(30):
        x = rng.uniform(-2, 2)
        y = rng.uniform(-1, 1)
        z = x * x / 2 - rng.uniform(0.05, 3.0)
        bp = fiber_solve(fold_gf, (x, y, z))
        assert bp.fiber_values
        for fv in bp.fiber_values:
            back = immersion(fold_gf, fv).base()
            assert max(abs(a - b) for a, b in zip(back, (x, y, z))) <= 1e-10


def test_fiber_newton_charts():
    gf_s = _gf("S", "(X^2 + Y^2)/2 - z^2/2")
    bp = fiber_solve(gf_s, (0.5, -0.25, 2.0), ((0.0, 0.0),))
    assert len(bp.fiber_values) == 1
    assert abs(bp.P_values[0] - (0.25 + 0.0625 + 4.0) / 2) < 1e-12
    gf_r = _gf("R", "(X^2 + Y^2 + Z^2)/2")
    bp = fiber_solve(gf_r, (1.0, 2.0, 3.0), ((0, 0, 0),))
    assert abs(bp.P_values[0] - 7.0) < 1e-12
    assert bp.failed_seeds == []


def test_fiber_newton_nontrivial_r_chart():
    # Legendre dual of P = (x^2+y^2+z^2)/2 + x*y/2: the recovered
    # geopotential at the projected base must equal the classical value.
    gf_r = _gf("R", "2*X^2/3 - 2*X*Y/3 + 2*Y^2/3 + Z^2/2", Fraction(3, 4))
    base = (1.0, 1.0, 0.0)  # q with P(q) = q^T M q / 2 = 3/2
    bp = fiber_solve(gf_r, base, ((0.0, 0.0, 0.0),))
    assert len(bp.fiber_values) == 1
    assert abs(bp.P_values[0] - 1.5) < 1e-10
    X, Y, Z = bp.fiber_values[0]
    assert abs(X - 1.5) < 1e-10 and abs(Y - 1.5) < 1e-10 and abs(Z) < 1e-10


def test_fiber_newton_failed_seed_reported():
    # The Jacobian diag(2X, 1, 1) of the gradient system is singular at
    # X = 0, so Newton cannot start from the first seed; the second seed
    # converges to the preimage X = 1.
    gf_r = _gf("R", "X^3/3 + (Y^2 + Z^2)/2")
    bp = fiber_solve(gf_r, (1.0, 1.0, 1.0), ((0.0, 0.0, 0.0), (2.0, 0.0, 0.0)))
    assert bp.failed_seeds == [(0.0, 0.0, 0.0)]
    assert len(bp.fiber_values) == 1
    assert max(abs(a - b) for a, b in zip(bp.fiber_values[0], (1, 1, 1))) < 1e-12


def test_fiber_classical_trivial(convex_quadratic_gf):
    bp = fiber_solve(convex_quadratic_gf, (1, 2, 3))
    assert bp.fiber_values == [(1.0, 2.0, 3.0)]
    assert bp.convex_flags == [True]


# -- branch selection ----------------------------------------------------------

def test_branch_select_elliptic(fold_gf):
    bp = fiber_solve(fold_gf, (2, 0, 0))
    choice = branch_select_convex(bp)
    assert choice.index == 0 and not choice.ambiguous
    assert bp.fiber_values[choice.index][2] == -2.0
    # the convex branch is the elliptic branch
    assert classify(fold_gf, bp.fiber_values[0]).label is SignatureLabel.ELLIPTIC


def test_branch_select_none_at_fold(fold_gf):
    bp = fiber_solve(fold_gf, (2, 0, 2))
    assert branch_select_convex(bp).index is None


def test_branch_select_classical(convex_quadratic_gf):
    bp = fiber_solve(convex_quadratic_gf, (0.3, 0.1, -0.2))
    assert branch_select_convex(bp) == (0, False)


def test_branch_select_ambiguity_flag():
    # T_Z(0,0,Z) = -(Z-1)(Z-2)(Z-3): the fiber over the origin has three
    # sheets, and the outer two (Z = 1 and Z = 3) are both convex, so the
    # selector must flag the ambiguity and return the first.
    gf = _gf("T", "y^2/2 + x^2*Z/2 - Z^4/4 + 2*Z^3 - 11*Z^2/2 + 6*Z")
    bp = fiber_solve(gf, (0, 0, 0))
    assert [round(fv[2]) for fv in bp.fiber_values] == [1, 2, 3]
    assert bp.convex_flags == [True, False, True]
    choice = branch_select_convex(bp)
    assert choice.index == 0 and choice.ambiguous


def _reevaluated_choice(bp, gf):
    # The selection rule restated: convexity decided again at every
    # non-degenerate fiber point.
    convex = [i for i, pt in enumerate(bp.fiber_values)
              if not bp.degenerate_flags[i] and branch_is_convex(gf, pt)]
    return (convex[0] if convex else None), len(convex) > 1


def test_branch_select_convex_matches_reevaluated_convexity(fold_gf, convex_quadratic_gf):
    from sgma.family import build_family, random_generic_spec

    rng = random.Random(31)
    three_sheets = _gf("T", "y^2/2 + x^2*Z/2 - Z^4/4 + 2*Z^3 - 11*Z^2/2 + 6*Z")
    gfs = [fold_gf, three_sheets, convex_quadratic_gf]
    gfs += [build_family(random_generic_spec(rng)).gf for _ in range(3)]
    cases = [(fold_gf, (x, 0.5, x * x / 2)) for x in (0.0, 1.0, 2.0)]  # on the fold
    cases += [(gf, (rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(-2, 1.5)))
              for gf in gfs for _ in range(30)]
    outcomes = set()
    for gf, base in cases:
        bp = fiber_solve(gf, base)
        choice = branch_select_convex(bp)
        assert tuple(choice) == _reevaluated_choice(bp, gf)
        outcomes.add((choice.index is None, choice.ambiguous))
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_branch_p_matches_convex_closed_form(fold_gf):
    rng = random.Random(23)
    for _ in range(25):
        x = rng.uniform(-2, 2)
        y = rng.uniform(-1, 1)
        z = x * x / 2 - rng.uniform(0.1, 3.0)
        bp = fiber_solve(fold_gf, (x, y, z))
        i = branch_select_convex(bp).index
        expected = y * y / 2 + (x * x - 2 * z) ** 1.5 / 3
        assert abs(bp.P_values[i] - expected) <= 1e-10


def test_branch_hessian_is_symmetric_solution_jacobian(fold_gf):
    hp = branch_hessian(fold_gf, (2.0, 0.0, -2.0))
    assert np.allclose(hp, hp.T, atol=1e-12)
    assert np.allclose(hp, [[4, 0, -1], [0, 1, 0], [-1, 0, 0.5]])
    assert abs(np.linalg.det(hp) - 1.0) < 1e-12
    with pytest.raises(DomainError):
        branch_hessian(fold_gf, (2.0, 0.0, 0.0))


# -- parabolic/singular equivalence ----------------------------------------------

def test_parabolic_iff_singular_on_grid(fold_gf):
    tol = 1e-9
    for x in np.linspace(-2, 2, 9):
        for y in np.linspace(-1, 1, 3):
            for z in np.linspace(-2, 2, 9):
                pt = (float(x), float(y), float(z))
                near = abs(dpi_det(fold_gf, pt)) <= tol
                parabolic = classify(fold_gf, pt, tol).label is SignatureLabel.PARABOLIC
                assert near == parabolic


def test_parabolic_iff_singular_on_family_solutions():
    from sgma.family import build_family, random_generic_spec

    rng = random.Random(24)
    tol = 1e-9
    for _ in range(3):
        sol = build_family(random_generic_spec(rng))
        for _ in range(60):
            pt = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            near = abs(dpi_det(sol.gf, pt)) <= tol
            parabolic = classify(sol.gf, pt, tol).label is SignatureLabel.PARABOLIC
            assert near == parabolic


def test_non_finite_input_is_domain_error(fold_gf):
    with pytest.raises(DomainError, match="not finite"):
        fiber_solve(fold_gf, (float("nan"), 0, 0))
    with pytest.raises(DomainError, match="not finite"):
        branch_hessian(fold_gf, (0, 0, float("nan")))
    assert branch_is_convex(fold_gf, (0, 0, float("inf"))) is False


@pytest.mark.parametrize("pt", [(1e160, 1e160, 1e160), (0.5, 0.5, 1e200)])
def test_non_finite_value_at_a_point_is_domain_error(pt):
    # Huge float terms overflow to inf in sums and products, with no
    # OverflowError, and inf - inf is NaN; NaN would pass both the caustic
    # test and the degenerate test of dpi_det unnoticed.
    from sgma.family import build_family, random_generic_spec

    gf = build_family(random_generic_spec(random.Random(0))).gf
    for evaluate in (hessian, pullback_metric, immersion, multivalued_P, dpi_det):
        with pytest.raises(DomainError, match="not finite"):
            evaluate(gf, pt)


def test_non_finite_geopotential_over_a_finite_immersion_is_domain_error(fold_gf):
    # z = 5e299 and X = -1e160 are floats, but Z*z and -x^2*Z/2 are not.
    pt = (1e150, 0.0, 1e10)
    assert all(math.isfinite(v) for v in immersion(fold_gf, pt).as_tuple())
    with pytest.raises(DomainError, match="geopotential is not finite"):
        multivalued_P(fold_gf, pt)


def test_multivalued_p_validates_its_point_once(monkeypatch, fold_gf):
    calls = []
    validate = ma_core._point_values

    def spy(gf, pt):
        calls.append(pt)
        return validate(gf, pt)

    monkeypatch.setattr(ma_core, "_point_values", spy)
    # Also where singular might hold its own reference.
    monkeypatch.setattr(singular, "_point_values", spy, raising=False)
    P, base = multivalued_P(fold_gf, {"x": 2, "y": 0, "Z": -1})
    assert (P, base) == (Fraction(1, 3), (2, 0, Fraction(3, 2)))
    assert len(calls) == 1


def test_classical_geopotential_overflow_is_domain_error():
    # x^2*y^2/4 overflows at a finite base point of the classical chart.
    gf = _gf("P", "x^2*y^2/4 + z^2/2")
    with pytest.raises(DomainError, match="geopotential is not finite"):
        fiber_solve(gf, (1e100, 1e100, 0.0))


def test_exact_classical_geopotential_beyond_float_range_is_domain_error(convex_quadratic_gf):
    # The exact P = 10^400/2 is finite but has no float.
    with pytest.raises(DomainError, match="geopotential is not finite"):
        fiber_solve(convex_quadratic_gf, (10 ** 200, 0, 0))


@pytest.mark.parametrize("base", [(10 ** 400, 0, -1), (0, 0, -10 ** 400)])
def test_exact_base_point_beyond_float_range_is_domain_error(fold_gf, base):
    with pytest.raises(DomainError, match="base point is not finite"):
        fiber_solve(fold_gf, base)


def test_classical_fiber_reads_p_through_the_legendre_rule():
    # Z = P_z = x*y = 1e310 is not finite over a finite base point.
    gf = _gf("P", "x*y*z")
    with pytest.raises(DomainError, match="immersion is not finite"):
        fiber_solve(gf, (1e300, 1e10, 1e-300))
    bp = fiber_solve(gf, (Fraction(1, 3), 2, 3))
    assert bp.P_values == [2.0] and bp.convex_flags == [False]


def test_branch_hessian_beyond_the_singular_test_range_is_not_convex():
    # T_xZ = 10^150 Z: the projection block's max |a_ij| = 10^150 makes the
    # singular threshold max|a_ij|^3 overflow, a float-range failure.
    gf = _gf("T", "10^150*x*Z^2/2 + y^2/2")
    bp = fiber_solve(gf, (1.0, 0.0, -1.0))
    assert bp.fiber_values == [(1.0, 0.0, 1e-150)]
    with pytest.raises(DomainError):
        branch_hessian(gf, bp.fiber_values[0])
    assert bp.convex_flags == [False] and bp.degenerate_flags == [False]
