"""Charts, immersions, metrics and classification against known closed forms."""

import gc
import hashlib
import itertools
import pickle
import random
import re
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgma import characteristics as ch
from sgma import codegen
from sgma import singular as sing
from sgma.errors import DomainError
from sgma.family import build_family, random_generic_spec
from sgma.ma_core import (
    CACHE_SIZE,
    ChartKind,
    GeneratingFunction,
    SignatureLabel,
    _eigen_signs,
    classification_grid,
    classify,
    hessian,
    hessian_polys,
    immersion,
    immersion_jacobian,
    immersion_jacobian_polys,
    immersion_polys,
    linearization_matrix,
    ma_residual,
    ma_residual_poly,
    pullback_metric,
    pullback_metric_polys,
)
from sgma.mat3 import adj3, det3
from sgma.polyexpr import Poly, parse_poly
from sgma.singular import fiber_equation_polys, singular_locus_poly

XYZ_T = ("x", "y", "Z")


def _gf(chart, text, eps=1):
    kind = ChartKind(chart)
    return GeneratingFunction(kind, parse_poly(text, kind.coords), Fraction(eps))


# -- hessian -----------------------------------------------------------------

def test_hessian_quadratic_is_identity(convex_quadratic_gf):
    h = hessian(convex_quadratic_gf, (0.3, -1.2, 0.7))
    assert np.allclose(h, np.eye(3))


def test_hessian_fold_example(fold_gf):
    h = hessian(fold_gf, (0, 0, 1))
    assert np.allclose(h, np.diag([-1.0, 1.0, 1.0]))


def test_hessian_saddle_quadratic():
    gf = _gf("P", "-x^2/2 - y^2/2 + z^2/2")
    assert np.allclose(hessian(gf, (1, 2, 3)), np.diag([-1, -1, 1]))


def test_hessian_matches_central_differences_at_second_order():
    # Quartic with nonvanishing fourth derivatives in every direction, so the
    # truncation term is visible and the convergence order is measurable.
    gf = _gf("P", "(x + 2*y + 3*z)^4/24 + x^2/2 + y^2/2 + z^2/2")
    pt = (0.3, -0.2, 0.15)
    exact = hessian(gf, pt)

    def fd_hessian(step):
        def f(q):
            return float(gf.potential.eval(q))

        out = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                qpp = list(pt); qpm = list(pt); qmp = list(pt); qmm = list(pt)
                if i == j:
                    qp = list(pt); qm = list(pt)
                    qp[i] += step; qm[i] -= step
                    out[i, i] = (f(qp) - 2 * f(list(pt)) + f(qm)) / step ** 2
                else:
                    qpp[i] += step; qpp[j] += step
                    qpm[i] += step; qpm[j] -= step
                    qmp[i] -= step; qmp[j] += step
                    qmm[i] -= step; qmm[j] -= step
                    out[i, j] = (f(qpp) - f(qpm) - f(qmp) + f(qmm)) / (4 * step ** 2)
        return out

    errors = [np.max(np.abs(fd_hessian(s) - exact)) for s in (0.08, 0.04, 0.02)]
    orders = [np.log2(errors[k] / errors[k + 1]) for k in range(2)]
    assert min(orders) >= 1.9


# -- residuals ----------------------------------------------------------------

def test_fold_example_solves_identically(fold_gf):
    assert ma_residual_poly(fold_gf).is_zero
    assert ma_residual(fold_gf, (Fraction(3), Fraction(-2), Fraction(7))) == 0


def test_classical_residual_values(convex_quadratic_gf):
    assert ma_residual(convex_quadratic_gf, (0, 0, 0)) == 0
    gf2 = _gf("P", "(x^2 + y^2 + z^2)/2", eps=2)
    assert ma_residual(gf2, (1, 2, 3)) == -1


def test_dual_r_residual():
    # det Hess(R) = 1/eps_q
    gf = _gf("R", "(X^2 + Y^2 + Z^2)/2", eps=1)
    assert ma_residual_poly(gf).is_zero
    gf2 = _gf("R", "(X^2 + Y^2 + Z^2)/2", eps=2)
    assert ma_residual(gf2, (0, 0, 0)) == Fraction(1, 2)


def test_dual_s_residual():
    gf = _gf("S", "(X^2 + Y^2)/2 - z^2/2", eps=1)
    assert ma_residual_poly(gf).is_zero


def test_non_finite_residual_is_domain_error():
    # x^2*y^2/4 is not a solution, and its residual overflows at a finite point.
    gf = _gf("P", "x^2*y^2/4 + z^2/2")
    with pytest.raises(DomainError, match="residual is not finite"):
        ma_residual(gf, (1e100, 1e100, 0.0))
    assert ma_residual(gf, (Fraction(10 ** 100), 10 ** 100, 0)) == -3 * 10 ** 400 // 4 - 1


# Potentials of every chart: solutions of the balance equation for some eps_q
# in (1, 3/4, 2), and potentials that solve it for none.
_CHART_POTENTIALS = [
    ("P", "(x^2 + y^2 + z^2)/2"),
    ("P", "(x^2 + y^2 + z^2)/2 + x*y/2"),
    ("P", "(2*x^2 + y^2 + z^2)/2"),
    ("P", "x^2*y^2/4 + z^2/2 + x*y*z - 3*x"),
    ("R", "(X^2 + Y^2 + Z^2)/2"),
    ("R", "2*X^2/3 - 2*X*Y/3 + 2*Y^2/3 + Z^2/2"),
    ("R", "X^3*Y/6 + Y*Z^2 - X*Z + 3"),
    ("S", "(X^2 + Y^2)/2 - z^2/2"),
    ("S", "(X^2 + Y^2)/2 - z^2"),
    ("S", "X^2*z/2 + Y^3/3 - z^3/6 + X*Y*z"),
    ("T", "y^2/2 - x^2*Z/2 + Z^3/6"),
    ("T", "y^2/2 - x^2*Z/2 + Z^3/6 + x*y*Z"),
    ("T", "x^3*y/7 + Z^2 - x*Z^3"),
]


def test_residual_is_each_chart_s_hand_derived_form():
    # The four conventional forms, restated over the Hessian entries.
    def form(gf):
        (a, b, _), (_, d, _), (_, _, f) = h = hessian_polys(gf)
        eps = gf.eps_q
        if gf.chart is ChartKind.CLASSICAL_P:
            return det3(h) - eps
        if gf.chart is ChartKind.DUAL_R:
            return det3(h) - 1 / eps
        if gf.chart is ChartKind.DUAL_S:
            return eps * (a * d - b * b) + f
        return a * d - b * b + eps * f

    gfs = [_gf(chart, text, eps) for chart, text in _CHART_POTENTIALS
           for eps in (1, Fraction(3, 4), 2)]
    gfs += [build_family(random_generic_spec(random.Random(s))).gf for s in range(4)]
    solved = set()
    for gf in gfs:
        residual = ma_residual_poly(gf)
        assert residual == form(gf), (gf.chart, str(gf.potential), gf.eps_q)
        solved.add((gf.chart, residual.is_zero))
    assert solved == {(kind, zero) for kind in ChartKind for zero in (True, False)}


def test_hessian_is_read_from_the_cached_jacobian(monkeypatch):
    diffs = []
    diff = Poly.diff

    def spy(self, var):
        diffs.append(var)
        return diff(self, var)

    monkeypatch.setattr(Poly, "diff", spy)
    for chart, text in _CHART_POTENTIALS:
        gf = _gf(chart, text, 3)
        hessian_polys.cache_clear()
        immersion_jacobian_polys(gf)
        diffs.clear()
        h = hessian_polys(gf)
        assert diffs == []
        firsts = [gf.potential.diff(v) for v in gf.chart.coords]
        assert h == tuple(tuple(f.diff(v) for v in gf.chart.coords) for f in firsts)


# -- immersion ----------------------------------------------------------------

def test_immersion_fold_points(fold_gf):
    assert immersion(fold_gf, (Fraction(2), Fraction(0), Fraction(0))).as_tuple() == \
        (2, 0, 2, 0, 0, 0)
    amb = immersion(fold_gf, (Fraction(0), Fraction(0), Fraction(1)))
    assert amb.as_tuple() == (0, 0, Fraction(-1, 2), 0, 0, 1)


def test_immersion_overflow_raises_domain_error(fold_gf):
    with pytest.raises(DomainError, match="overflows"):
        immersion(fold_gf, (1e200, 0, 0))


def test_immersion_classical_gradient(convex_quadratic_gf):
    assert immersion(convex_quadratic_gf, (1, 2, 3)).as_tuple() == (1, 2, 3, 1, 2, 3)


def test_immersion_jacobian_classical_structure(convex_quadratic_gf):
    J = immersion_jacobian(convex_quadratic_gf, (0.5, -0.4, 1.1))
    assert np.allclose(J[:3], np.eye(3))
    assert np.allclose(J[3:], hessian(convex_quadratic_gf, (0.5, -0.4, 1.1)))


def test_immersion_jacobian_dual_r_structure():
    gf = _gf("R", "(X^2 + Y^2 + Z^2)/2 + X*Y*Z/2")
    pt = (0.3, 0.7, -0.2)
    J = immersion_jacobian(gf, pt)
    assert np.allclose(J[3:], np.eye(3))
    assert np.allclose(J[:3], hessian(gf, pt))


def test_immersion_jacobian_fold_example(fold_gf):
    # z = x^2/2 - Z^2/2 and X = -x*Z, so at (0,0,1) the z-row is (0,0,-1)
    # and the X-row is (-1,0,0); the momentum rows are exact derivatives of
    # the chart relations, which a sign typo in a transcription would break
    # (the pull-back metric closed form pins the sign).
    J = immersion_jacobian(fold_gf, (0, 0, 1))
    expected = np.array([
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, -1],
        [-1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ], dtype=float)
    assert np.allclose(J, expected)


# -- metrics -------------------------------------------------------------------

def test_pullback_fold_closed_form_symbolic(fold_gf):
    hp = pullback_metric_polys(fold_gf)
    z = Poly.variable(XYZ_T, "Z")
    assert hp[0][0] == -2 * z
    assert hp[1][1] == Poly.constant(XYZ_T, 2)
    assert hp[2][2] == -2 * z
    for i in range(3):
        for j in range(3):
            if i != j:
                assert hp[i][j].is_zero


def test_pullback_fold_points(fold_gf):
    assert np.allclose(pullback_metric(fold_gf, (0, 0, 1)),
                       2 * np.diag([-1.0, 1.0, -1.0]))
    assert np.allclose(pullback_metric(fold_gf, (0, 0, -1)), 2 * np.eye(3))


def test_pullback_classical_is_twice_eps_hessian():
    gf = _gf("P", "(x^2 + y^2 + z^2)/2 + x*y*z/6", eps=2)
    rng = random.Random(11)
    for _ in range(20):
        pt = tuple(rng.uniform(-2, 2) for _ in range(3))
        h = pullback_metric(gf, pt)
        hess = hessian(gf, pt)
        assert np.allclose(h, 2 * float(gf.eps_q) * hess, atol=1e-12)


def test_pullback_dual_t_block_form_on_solutions(fold_gf):
    # On solutions the (Z,Z) entry equals both -2 eps T_ZZ and 2 det(H)/1,
    # trading the vertical second derivative for the horizontal determinant.
    rng = random.Random(12)
    for _ in range(20):
        pt = tuple(rng.uniform(-2, 2) for _ in range(3))
        h = pullback_metric(fold_gf, pt)
        hess = hessian(fold_gf, pt)
        eps = float(fold_gf.eps_q)
        assert np.allclose(h[:2, :2], 2 * eps * hess[:2, :2], atol=1e-12)
        det_h2 = hess[0, 0] * hess[1, 1] - hess[0, 1] ** 2
        assert abs(h[2, 2] - (-2 * eps * hess[2, 2])) < 1e-12
        assert abs(h[2, 2] - 2 * det_h2) < 1e-12


def test_pullback_dual_r_matches_legendre_dual_of_classical():
    # The quadratic P = (x^2+y^2+z^2)/2 + x*y/2 (Hessian M, det 3/4) has the
    # Legendre dual R = X^T M^{-1} X / 2 generating the same Lagrangian
    # plane, so the R-chart pull-back must be 2*eps*M^{-1} in (X,Y,Z)
    # coordinates while the classical pull-back is 2*eps*M; both satisfy
    # their balance equations with the same eps = 3/4.
    eps = Fraction(3, 4)
    gf_p = _gf("P", "(x^2 + y^2 + z^2)/2 + x*y/2", eps)
    gf_r = _gf("R", "2*X^2/3 - 2*X*Y/3 + 2*Y^2/3 + Z^2/2", eps)
    assert ma_residual_poly(gf_p).is_zero
    assert ma_residual_poly(gf_r).is_zero
    m = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 1.0]])
    rng = random.Random(16)
    for _ in range(10):
        q = np.array([rng.uniform(-2, 2) for _ in range(3)])
        x_pt = m @ q
        h_p = pullback_metric(gf_p, tuple(q))
        h_r = pullback_metric(gf_r, tuple(x_pt))
        assert np.allclose(h_p, 2 * float(eps) * m, atol=1e-12)
        assert np.allclose(h_r, 2 * float(eps) * np.linalg.inv(m), atol=1e-12)
        # the two coordinate expressions of one metric: h_q = M h_X M
        assert np.allclose(h_p, m @ h_r @ m, atol=1e-12)
        # both describe the same ambient point
        amb_p = np.array(immersion(gf_p, tuple(q)).as_tuple(), dtype=float)
        amb_r = np.array(immersion(gf_r, tuple(x_pt)).as_tuple(), dtype=float)
        assert np.allclose(amb_p, amb_r, atol=1e-12)


def test_pullback_dual_s_matches_classical_for_shared_plane():
    # S = (X^2+Y^2)/2 - z^2/2 and P = (x^2+y^2+z^2)/2 generate the same
    # Lagrangian plane {X=x, Y=y, Z=z}; chart coordinates coincide there.
    gf_s = _gf("S", "(X^2 + Y^2)/2 - z^2/2")
    gf_p = _gf("P", "(x^2 + y^2 + z^2)/2")
    for pt in [(0.3, -0.7, 1.2), (1.0, 2.0, -0.5)]:
        h_s = pullback_metric(gf_s, pt)
        h_p = pullback_metric(gf_p, pt)
        assert np.allclose(h_s, h_p, atol=1e-12)
        assert np.allclose(h_s, 2 * np.eye(3), atol=1e-12)


def _determinant_law_holds(gf) -> bool:
    # det h = 8 eps_q^4 L^2 as an identity of exact polynomials.
    lhs = det3(pullback_metric_polys(gf))
    return lhs == 8 * gf.eps_q ** 4 * singular_locus_poly(gf) ** 2


def test_determinant_law_is_an_exact_identity_on_solutions(fold_gf):
    solutions = [fold_gf, _gf("R", "X^2/2 + Y^2/2 + Z^2/2"),
                 _gf("S", "X^2/2 + Y^2/2 - z^2/2")]
    solutions += [build_family(random_generic_spec(random.Random(seed))).gf
                  for seed in range(3)]
    # Criterion 4's classical quadratics, where L = 1.
    solutions += [_gf("P", text, eps) for text, eps in (
        ("(x^2 + y^2 + z^2)/2", 1), ("(2*x^2 + y^2 + z^2)/2", 2),
        ("x^2 + y^2/2 + z^2/4", 1), ("(x^2 - y^2 - z^2)/2", 1),
        ("(-x^2 - y^2 + z^2)/2", 1), ("(x^2 + y^2 + z^2)/2 + x*y/2", Fraction(3, 4)),
        ("(2*x^2 - y^2 - z^2)/2 + x*z/2", Fraction(9, 4)))]
    for gf in solutions:
        assert ma_residual_poly(gf).is_zero
        assert _determinant_law_holds(gf), str(gf.potential)


def test_determinant_law_fails_off_solutions():
    # The fold plus x*y*Z: det h = 8Z^3 + 8Z^2 while L = -Z.
    gf = _gf("T", "y^2/2 - x^2*Z/2 + Z^3/6 + x*y*Z")
    assert det3(pullback_metric_polys(gf)) == parse_poly("8*Z^3 + 8*Z^2", XYZ_T)
    assert singular_locus_poly(gf) == parse_poly("-Z", XYZ_T)
    assert not _determinant_law_holds(gf)


# -- classification -------------------------------------------------------------

def test_classify_fold_regions(fold_gf):
    assert classify(fold_gf, (0, 0, 1)).label is SignatureLabel.HYPERBOLIC
    assert classify(fold_gf, (0, 0, -1)).label is SignatureLabel.ELLIPTIC
    sig = classify(fold_gf, (0, 0, 0))
    assert sig.label is SignatureLabel.PARABOLIC
    assert (sig.n_pos, sig.n_neg, sig.n_zero) == (1, 0, 2)


def test_classify_convex_quadratic(convex_quadratic_gf):
    sig = classify(convex_quadratic_gf, (0, 0, 0))
    assert sig.label is SignatureLabel.ELLIPTIC
    assert (sig.n_pos, sig.n_neg, sig.n_zero) == (3, 0, 0)


def test_classify_rejects_bad_tol(fold_gf):
    for tol in (0.0, -1e-9, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            classify(fold_gf, (0, 0, 1), tol=tol)
        with pytest.raises(ValueError, match="positive and finite"):
            classification_grid(fold_gf, {"x": [0.0], "y": [0.0], "Z": [1.0]}, tol)


def _rotated(eigenvalues, angles) -> np.ndarray:
    # R diag(eigenvalues) R^T for the rotation R = Rz(a) Ry(b) Rz(c), symmetrized.
    def rz(t):
        return np.array([[np.cos(t), -np.sin(t), 0.0], [np.sin(t), np.cos(t), 0.0],
                         [0.0, 0.0, 1.0]])
    a, b, c = angles
    ry = np.array([[np.cos(b), 0.0, np.sin(b)], [0.0, 1.0, 0.0], [-np.sin(b), 0.0, np.cos(b)]])
    r = rz(a) @ ry @ rz(c)
    m = r @ np.diag(eigenvalues) @ r.T
    return (m + m.T) / 2


_NEAR_ZERO = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e-7, 1e-7),
                       st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 2e-9, 1.1e-8]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.tuples(*[_NEAR_ZERO] * 3),
                          st.tuples(*[st.floats(-np.pi, np.pi)] * 3)), min_size=1, max_size=4),
       st.sampled_from([1e-9, 1e-8, 1e-6, 0.5]))
def test_eigen_signs_counts_are_the_three_mask_counts(cases, tol):
    # n_zero = 3 - n_pos - n_neg is the count of |lambda| <= scale, on a
    # batch of near-singular symmetric matrices and on each one alone.
    metrics = np.array([_rotated(*case) for case in cases])
    for batch in (metrics, *metrics):
        eigs, counts = _eigen_signs(batch, tol)
        scale = tol * (1.0 + np.max(np.abs(eigs), axis=-1, keepdims=True))
        assert np.array_equal(eigs, np.linalg.eigvalsh(batch))
        want = ((eigs > scale).sum(axis=-1), (eigs < -scale).sum(axis=-1),
                (np.abs(eigs) <= scale).sum(axis=-1))
        assert all(np.array_equal(got, n) for got, n in zip(counts, want))


def _label_for(n_pos, n_neg, n_zero):
    # The classification rule, case by case.
    if n_zero >= 1:
        return SignatureLabel.PARABOLIC
    return {(3, 0): SignatureLabel.ELLIPTIC,
            (1, 2): SignatureLabel.HYPERBOLIC}.get((n_pos, n_neg), SignatureLabel.OTHER)


def test_every_signature_gets_the_rule_s_label():
    # On the classical chart h = 2*eps_q*Hess, so sum(s_i * x_i^2/2) with
    # signs s_i in {1, -1, 0} reaches each of the ten (n_pos, n_neg, n_zero).
    cells, labels_seen = set(), set()
    for signs in itertools.combinations_with_replacement((1, -1, 0), 3):
        text = " + ".join(f"({s})*{v}^2/2" for s, v in zip(signs, "xyz") if s) or "0"
        gf = _gf("P", text)
        counts = (signs.count(1), signs.count(-1), signs.count(0))
        sig = classify(gf, (0.5, -0.25, 1.0))
        assert (sig.n_pos, sig.n_neg, sig.n_zero) == counts
        assert sig.n_pos + sig.n_neg + sig.n_zero == 3
        assert sig.label is _label_for(*counts)
        _, labels = classification_grid(gf, {"x": [-1.0, 0.5], "y": [0.0], "z": [2.0, 3.0]})
        assert labels.shape == (2, 1, 2)
        assert all(label is sig.label for label in labels.reshape(-1))
        cells.add(counts)
        labels_seen.add(sig.label)
    assert len(cells) == 10 and labels_seen == set(SignatureLabel)


def test_classical_solutions_are_never_parabolic():
    # det Hess = eps_q > 0 pins the eigenvalues away from zero.
    cases = [
        ("(x^2 + y^2 + z^2)/2", 1),
        ("(x^2 - y^2 - z^2)/2", 1),
        ("(2*x^2 + y^2 + z^2)/2", 2),
        ("(x^2 + y^2 + z^2)/2 + x*y/2", Fraction(3, 4)),
    ]
    rng = random.Random(13)
    for text, eps in cases:
        gf = _gf("P", text, eps)
        assert ma_residual_poly(gf).is_zero
        for _ in range(25):
            pt = tuple(rng.uniform(-3, 3) for _ in range(3))
            label = classify(gf, pt).label
            assert label in (SignatureLabel.ELLIPTIC, SignatureLabel.HYPERBOLIC)


def test_determinant_law_on_classical_solutions():
    rng = random.Random(14)
    for text, eps in [("(x^2 + y^2 + z^2)/2", 1), ("(x^2 - y^2 - z^2)/2", 1),
                      ("(2*x^2 + y^2 + z^2)/2", 2)]:
        gf = _gf("P", text, eps)
        target = 8.0 * float(Fraction(eps)) ** 4
        for _ in range(10):
            pt = tuple(rng.uniform(-2, 2) for _ in range(3))
            assert abs(det3(pullback_metric(gf, pt)) - target) <= 1e-10 * target


# -- linearization matrix --------------------------------------------------------

def test_linearization_classical_adjugate(convex_quadratic_gf):
    A = linearization_matrix(convex_quadratic_gf, (0.2, 0.4, -0.6))
    assert np.allclose(A, np.eye(3))


def test_linearization_fold_block(fold_gf):
    A = linearization_matrix(fold_gf, (0, 0, 1))
    assert np.allclose(A, np.diag([1.0, -1.0, 1.0]))


def test_linearization_unsupported_chart():
    gf = _gf("R", "(X^2 + Y^2 + Z^2)/2")
    with pytest.raises(ValueError):
        linearization_matrix(gf, (0, 0, 0))


def test_adjugate_identity_both_charts(fold_gf):
    rng = random.Random(15)
    classical = _gf("P", "(x^2 - y^2 - z^2)/2")
    for gf in (fold_gf, classical):
        for _ in range(30):
            pt = tuple(rng.uniform(-2, 2) for _ in range(3))
            h = pullback_metric(gf, pt)
            a2 = 2 * np.array(adj3(linearization_matrix(gf, pt)))
            scale = max(1.0, np.max(np.abs(h)))
            assert np.max(np.abs(h - a2)) <= 1e-10 * scale


_POINT_MATRIX_CASES = {
    "fold-T": lambda: _gf("T", "y^2/2 - x^2*Z/2 + Z^3/6"),
    "member-T": lambda: build_family(random_generic_spec(random.Random(3))).gf,
    "quadratic-P": lambda: _gf("P", "(x^2 + y^2 + z^2)/2 + x*y/2", Fraction(3, 4)),
    "dual-R": lambda: _gf("R", "2*X^2/3 - 2*X*Y/3 + 2*Y^2/3 + Z^2/2", Fraction(3, 4)),
    "dual-S": lambda: _gf("S", "(X^2 + Y^2)/2 - z^2/2"),
}


def _reprs(matrix) -> list:
    return [[repr(float(v)) for v in row] for row in matrix]


@pytest.mark.parametrize("case", sorted(_POINT_MATRIX_CASES))
def test_point_matrices_are_float_arrays(case):
    # Each point matrix is a float ndarray holding float(Poly.eval) of its
    # entries, and a symmetric matrix is symmetric bit for bit.
    gf = _POINT_MATRIX_CASES[case]()
    evaluators = [(hessian, hessian_polys(gf), (3, 3)),
                  (pullback_metric, pullback_metric_polys(gf), (3, 3)),
                  (immersion_jacobian, immersion_jacobian_polys(gf), (6, 3))]
    rng = random.Random(17)
    for _ in range(5):
        pt = tuple(rng.uniform(-1.5, 1.5) for _ in range(3))
        for evaluate, polys, shape in evaluators:
            m = evaluate(gf, pt)
            assert type(m) is np.ndarray and m.dtype == np.float64 and m.shape == shape
            assert _reprs(m) == _reprs([[float(p.eval(pt)) for p in row] for row in polys])
            if shape == (3, 3):
                assert all(polys[i][j] == polys[j][i] for i in range(3) for j in range(3))
                assert _reprs(m) == _reprs(m.T)
        if gf.chart in (ChartKind.CLASSICAL_P, ChartKind.DUAL_T):
            a = linearization_matrix(gf, pt)
            assert type(a) is np.ndarray and a.dtype == np.float64 and a.shape == (3, 3)
            h = [[float(p.eval(pt)) for p in row] for row in hessian_polys(gf)]
            if gf.chart is ChartKind.CLASSICAL_P:
                want = adj3(h)
            else:
                want = [[h[1][1], -h[0][1], 0.0], [-h[0][1], h[0][0], 0.0],
                        [0.0, 0.0, float(gf.eps_q)]]
            assert _reprs(a) == _reprs(want)
            assert _reprs(a) == _reprs(a.T)


# -- grids and serialization ------------------------------------------------------

def test_classification_grid_matches_pointwise(fold_gf):
    axes = {"x": np.linspace(-1, 1, 3), "y": np.linspace(-1, 1, 3),
            "Z": np.linspace(-1, 1, 5)}
    eigs, labels = classification_grid(fold_gf, axes)
    assert labels.shape == (3, 3, 5)
    for i, x in enumerate(axes["x"]):
        for j, y in enumerate(axes["y"]):
            for k, z in enumerate(axes["Z"]):
                sig = classify(fold_gf, (float(x), float(y), float(z)))
                assert labels[i, j, k] is sig.label
                assert np.allclose(eigs[i, j, k], sig.eigenvalues)


def test_a_wrong_length_point_leaves_the_cached_vectors_intact(fold_gf):
    # Each builder's vector reads its point as its entries' Poly.eval does.
    # The caches are cleared first, so the bad calls come before any good
    # one: a vector compiled for their length would serve every later caller.
    builders = (immersion_polys, immersion_jacobian_polys, pullback_metric_polys,
                fiber_equation_polys)
    for build in builders:
        build.cache_clear()
    for build in builders:
        vector = build(fold_gf)
        names = ("x", "y") if build is fiber_equation_polys else XYZ_T
        for point in ([0.5] * (len(names) - 1), [0.5] * (len(names) + 1)):
            message = f"expected {len(names)} values for {names!r}, got {len(point)}"
            for read in (vector.eval, vector.numerators):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    read(point)
    sig = classify(fold_gf, (0.5, 0, 1))
    assert sig.label is SignatureLabel.HYPERBOLIC and sig.eigenvalues == (-2.0, -2.0, 2.0)
    eigs, labels = classification_grid(fold_gf, {"x": [0.5], "y": [0.0], "Z": [1.0]})
    assert labels[0, 0, 0] is SignatureLabel.HYPERBOLIC
    assert eigs[0, 0, 0].tolist() == [-2.0, -2.0, 2.0]


def test_classification_grid_needs_every_chart_axis(fold_gf):
    with pytest.raises(ValueError, match=r"^axes must supply exactly \('x', 'y', 'Z'\)$"):
        classification_grid(fold_gf, {"x": [0.0], "y": [0.0]})


def test_generating_function_record_roundtrip(fold_gf):
    record = fold_gf.to_dict()
    assert record == {"chart": "T", "potential": str(fold_gf.potential), "eps_q": "1"}
    again = GeneratingFunction.from_dict(record)
    assert again == fold_gf


def test_generating_function_validation():
    with pytest.raises(ValueError):
        GeneratingFunction(ChartKind.DUAL_T,
                           parse_poly("x", ("x", "y", "z")), Fraction(1))
    with pytest.raises(ValueError):
        GeneratingFunction(ChartKind.DUAL_T,
                           parse_poly("Z", ("x", "y", "Z")), Fraction(0))
    with pytest.raises(ValueError):
        GeneratingFunction.from_dict({"chart": "Q", "potential": "x", "eps_q": "1"})
    with pytest.raises(ValueError):
        GeneratingFunction.from_dict({"chart": "T", "potential": "Z", "bogus": 1})
    # eps_q is read exactly: a float, whose value is not 0.1, is refused.
    z = parse_poly("Z", ("x", "y", "Z"))
    assert GeneratingFunction(ChartKind.DUAL_T, z, "0.1").eps_q == Fraction(1, 10)
    for eps_q in (0.1, True, "1/0"):
        with pytest.raises(ValueError, match="not a finite number"):
            GeneratingFunction(ChartKind.DUAL_T, z, eps_q)


@pytest.mark.parametrize("pt", [(0, 0, float("inf")), (float("nan"), 0, 0),
                                {"x": 0.0, "y": float("-inf"), "Z": 1.0}])
def test_non_finite_point_is_domain_error(fold_gf, pt):
    for evaluate in (classify, hessian, pullback_metric, immersion, ma_residual):
        with pytest.raises(DomainError, match="not finite"):
            evaluate(fold_gf, pt)


# A point whose coordinates are arrays: only Poly.eval, PolyVector.eval and
# the grid evaluator take one.  Given as a base point to fiber_solve and as
# q to BicharState.
_ARRAY_POINT = [np.array([0.5, 1.0]), np.array([0.0, 0.0]), np.array([1.0, 2.0])]
_POINT_READERS = {
    "classify": classify,
    "pullback_metric": pullback_metric,
    "hessian": hessian,
    "immersion_jacobian": immersion_jacobian,
    "linearization_matrix": linearization_matrix,
    "branch_hessian": sing.branch_hessian,
    "branch_is_convex": sing.branch_is_convex,
    "fiber_solve": sing.fiber_solve,
    "null_project": lambda gf, pt: ch.null_project(gf, pt, (0.0, 1.0), 2),
    "eikonal_residual_grad": lambda gf, pt: ch.eikonal_residual_grad(gf, pt, (0.0, 1.0, 1.0)),
    "eikonal_residual": lambda gf, pt: ch.eikonal_residual(gf, gf.potential, pt),
    "BicharState": lambda gf, pt: ch.BicharState(pt, (0.0, 1.0, 1.0)),
    "immersion": immersion,
    "dpi_det": sing.dpi_det,
    "multivalued_P": sing.multivalued_P,
    "ma_residual": ma_residual,
}


@pytest.mark.parametrize("name", sorted(_POINT_READERS))
def test_single_point_functions_refuse_array_coordinates(fold_gf, name):
    with pytest.raises(ValueError, match="has an array coordinate") as info:
        _POINT_READERS[name](fold_gf, _ARRAY_POINT)
    assert not isinstance(info.value, DomainError)


@pytest.mark.parametrize("axes", [{"x": [0.0], "y": [0.0], "Z": [float("inf")]},
                                  {"x": [0.0, 1.0], "y": [float("nan")], "Z": [0.5]}])
def test_classification_grid_rejects_non_finite_axes(fold_gf, axes):
    # y = nan used to be labelled silently: the fold metric does not depend on y.
    with pytest.raises(DomainError, match="not finite"):
        classification_grid(fold_gf, axes)


def test_metric_overflow_is_domain_error(fold_gf):
    with pytest.raises(DomainError, match="not finite"):
        classify(fold_gf, (0.0, 0.0, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not finite"):
            classification_grid(fold_gf, {"x": [0.0], "y": [0.0], "Z": [1.0, 1e308]})


def test_exact_point_beyond_float_range_is_domain_error():
    # h_11 = x^2 = 10^400 is exact, but no float holds it.
    gf = _gf("P", "x^4/12 + y^2/2 + z^2/2")
    for evaluate in (hessian, pullback_metric):
        with pytest.raises(DomainError, match="not finite"):
            evaluate(gf, (Fraction(10 ** 200), 0, 0))


def test_huge_exact_point_is_evaluated_exactly(fold_gf):
    big = Fraction(10 ** 400)
    assert ma_residual(fold_gf, (big, big, big)) == 0
    assert immersion(fold_gf, (big, 0, 1)).z == big ** 2 / 2 - Fraction(1, 2)


def test_symbolic_builder_caches_are_bounded():
    builders = (hessian_polys, immersion_polys, immersion_jacobian_polys,
                pullback_metric_polys, ma_residual_poly, singular_locus_poly)
    assert CACHE_SIZE == 64
    for k in range(1, CACHE_SIZE + 6):
        gf = _gf("P", f"{k}*x*y + z^2/2")
        for build in builders:
            build(gf)
    for build in builders:
        info = build.cache_info()
        assert info.maxsize == CACHE_SIZE and info.currsize == CACHE_SIZE


def test_compiled_evaluators_live_and_die_with_builder_cache_entries(monkeypatch):
    # Each builder output owns its compiled float function: no other cache
    # keeps one, so clearing a builder's cache compiles again, and no more
    # functions stay alive than the builders' caches hold entries.
    compiled = []
    compile_functions = codegen.compile_functions

    def spy(*args, **kwargs):
        functions = compile_functions(*args, **kwargs)
        compiled.extend(weakref.ref(f) for f in functions)
        return functions

    monkeypatch.setattr(codegen, "compile_functions", spy)
    builders = (hessian_polys, pullback_metric_polys, immersion_polys, immersion_jacobian_polys)

    def evaluate(gf):
        pt = (0.5, -0.25, 2.0)
        hessian(gf, pt), pullback_metric(gf, pt), immersion(gf, pt), immersion_jacobian(gf, pt)

    gf = _gf("T", "y^2/2 - x^2*Z/2 + Z^3/6 + x^3*y/7")
    evaluate(gf)
    assert len(compiled) == len(builders)
    evaluate(gf)
    assert len(compiled) == len(builders)
    for build in builders:
        build.cache_clear()
    evaluate(gf)
    assert len(compiled) == 2 * len(builders)
    for k in range(1, CACHE_SIZE + 11):
        evaluate(_gf("T", f"y^2/2 - x^2*Z/2 + Z^3/6 + {k}*x^3*y"))
    gc.collect()
    assert len(compiled) == (CACHE_SIZE + 12) * len(builders)
    assert sum(ref() is not None for ref in compiled) <= CACHE_SIZE * len(builders)


def test_builder_term_order_digest():
    # The RK4 kernels read the metric's terms in Poly.terms order, so every
    # builder's term maps are pinned in their dict order, not only in value.
    # The caches key on value, so an equal potential built by an earlier
    # test with another term order would answer for these.
    builders = (immersion_polys, immersion_jacobian_polys, hessian_polys,
                pullback_metric_polys, singular_locus_poly)
    for build in builders:
        build.cache_clear()
    gfs = [_gf(chart, text, eps) for chart, text in _CHART_POTENTIALS
           for eps in (1, Fraction(3, 4))]
    gfs += [build_family(random_generic_spec(random.Random(s))).gf for s in range(4)]
    parts = [[list(p.terms.items()) for build in builders for p in build(gf)._entries()]
             for gf in gfs]
    assert hashlib.sha256(repr(parts).encode()).hexdigest() == (
        "3dbf5379cba46b6806bf22980cbd2fde7ffd8d9fceaa313f3af337c312659053")


def test_generating_function_hashes_its_fields_once(monkeypatch, fold_gf):
    gf = GeneratingFunction(fold_gf.chart, fold_gf.potential, fold_gf.eps_q)
    expected = hash((gf.chart, gf.potential, gf.eps_q))
    calls = []
    poly_hash = Poly.__hash__

    def spy(self):
        calls.append(self)
        return poly_hash(self)

    monkeypatch.setattr(Poly, "__hash__", spy)
    assert hash(gf) == hash(gf) == expected
    assert calls == [gf.potential]


def test_pickled_generating_function_carries_no_cached_hash(fold_gf):
    # str and enum hashes differ between processes, so a hash may not travel.
    gf = GeneratingFunction(fold_gf.chart, fold_gf.potential, Fraction(3, 4))
    unhashed = pickle.dumps(gf)
    hash(gf)
    assert pickle.dumps(gf) == unhashed
    copy = pickle.loads(unhashed)
    assert "_hash" not in vars(copy)
    assert copy == gf and hash(copy) == hash(gf)
