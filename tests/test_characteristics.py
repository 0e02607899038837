"""Hamiltonian structure, null projection, ray tracing and eikonal residuals."""

import hashlib
import io
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import reference_kernels
from hypothesis import given, settings, strategies as st

from sgma import characteristics as ch
from sgma import cli, codegen
from sgma.characteristics import (
    BicharState,
    Termination,
    analytic_null_geodesic,
    eikonal_residual,
    eikonal_residual_grad,
    ham_rhs,
    hamiltonian,
    null_project,
    trace_bicharacteristic,
    write_trace_csv,
)
from sgma.errors import DomainError, MetricSingularError
from sgma.family import build_family, random_generic_spec
from sgma.ma_core import ChartKind, GeneratingFunction, hessian_polys, immersion_jacobian_polys, \
    immersion_polys, pullback_metric, pullback_metric_polys, singular_locus_poly
from sgma.polyexpr import Poly, parse_poly

XYZ = ("x", "y", "Z")


def _null_state(C1, C2, Z0, x0=0.0, y0=0.0, downhill=False):
    # Momentum for the fold metric 2*diag(-Z, 1, -Z) realizing the conserved
    # quantities xdot*Z = C1, ydot = C2 on the null cone.
    zdot = math.sqrt(C2 * C2 * Z0 - C1 * C1) / Z0
    p = (-C1, C2, -Z0 * zdot)
    if downhill:
        p = tuple(-v for v in p)
    return BicharState((x0, y0, Z0), p)


# -- hamiltonian and null projection ----------------------------------------

def test_hamiltonian_values(fold_gf):
    assert abs(hamiltonian(fold_gf, BicharState((0, 0, 1), (0, 1, 1)))) < 1e-15
    assert abs(hamiltonian(fold_gf, BicharState((0, 0, 1), (1, 0, 0))) + 0.5) < 1e-15


def test_hamiltonian_singular_metric_rejected(fold_gf):
    with pytest.raises(MetricSingularError):
        hamiltonian(fold_gf, BicharState((0, 0, 0), (0, 1, 0)))


def test_hamiltonian_positive_at_elliptic_points(fold_gf):
    # Elliptic metric is definite: the only null momentum is zero.
    rng = random.Random(30)
    for _ in range(25):
        q = (rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(-2.0, -0.1))
        p = tuple(rng.uniform(-2, 2) for _ in range(3))
        if max(abs(v) for v in p) < 1e-3:
            continue
        assert hamiltonian(fold_gf, BicharState(q, p)) > 0


def test_null_project_two_roots(fold_gf):
    sols = null_project(fold_gf, (0, 0, 1), (0, 1), 2)
    assert len(sols) == 2
    assert abs(sols[0][2] + 1) < 1e-12 and abs(sols[1][2] - 1) < 1e-12


def test_null_project_elliptic_empty(fold_gf):
    assert null_project(fold_gf, (0, 0, -1), (0, 1), 2) == []


def test_null_project_trivial(fold_gf):
    assert null_project(fold_gf, (0, 0, 1), (0, 0), 0) == [(0.0, 0.0, 0.0)]


def test_null_project_degenerate_free_component():
    # h = 2 Hess(x*y + z^2/2) has h^{-1}_11 = 0, so H is linear in p1:
    # H = p1 p2 + p3^2 / 2 has one completion, none, or (for p2 = p3 = 0)
    # the trivial one.
    gf = GeneratingFunction(ChartKind.CLASSICAL_P,
                            parse_poly("x*y + z^2/2", ("x", "y", "z")), Fraction(1))
    assert null_project(gf, (0, 0, 0), (1, 2), 0) == [(-2.0, 1.0, 2.0)]
    assert hamiltonian(gf, BicharState((0, 0, 0), (-2, 1, 2))) == 0
    assert null_project(gf, (0, 0, 0), (0, 2), 0) == []
    assert null_project(gf, (0, 0, 0), (0, 0), 0) == [(0.0, 0.0, 0.0)]


@pytest.mark.parametrize("q", [(0, 1), (0, 0, 1, 0)])
def test_null_project_point_of_wrong_length_is_value_error(fold_gf, q):
    with pytest.raises(ValueError, match="expected 3 values"):
        null_project(fold_gf, q, (0, 1), 2)


@pytest.mark.parametrize("q", [(math.nan, 0, 1), (0, math.inf, 1)])
def test_null_project_non_finite_point_is_domain_error(fold_gf, q):
    with pytest.raises(DomainError, match="chart point is not finite"):
        null_project(fold_gf, q, (0, 1), 2)


def test_null_project_exact_point_beyond_float_range_is_domain_error(fold_gf):
    with pytest.raises(DomainError, match="chart point is not finite"):
        null_project(fold_gf, (0, 0, 10 ** 400), (0, 1), 2)


def test_bichar_state_of_wrong_length_is_value_error():
    with pytest.raises(ValueError, match="q and p must each have 3 components"):
        BicharState((0, 0), (0, 0, 1))


def test_null_project_argument_checks(fold_gf):
    with pytest.raises(ValueError, match="free_index must be 0, 1 or 2"):
        null_project(fold_gf, (0, 0, 1), (0, 1), 3)
    with pytest.raises(ValueError, match="p_partial must supply the two fixed components"):
        null_project(fold_gf, (0, 0, 1), (0, 1, 2), 2)


def test_ham_rhs_example(fold_gf):
    qdot, pdot = ham_rhs(fold_gf, BicharState((0, 0, 1), (0, 1, 1)))
    assert np.allclose(qdot, (0, 1, -1))
    assert np.allclose(pdot, (0, 0, -0.5))


def test_ham_rhs_fixed_point(fold_gf):
    qdot, pdot = ham_rhs(fold_gf, BicharState((0.4, 0.2, 1.3), (0, 0, 0)))
    assert qdot == (0, 0, 0) and pdot == (0, 0, 0)
    # Sums start from the int 0, as sum() does, so -0.0 terms give +0.0.
    qdot, pdot = ham_rhs(fold_gf, BicharState((0, 0, 1), (-0.0, -0.0, -0.0)))
    assert all(math.copysign(1.0, v) == 1.0 for v in qdot + pdot)


def test_ydot_is_conserved_component(fold_gf):
    # The metric is independent of y, so qdot_2 = p_2 along any trace.
    state = _null_state(0.3, 1.1, 0.9)
    qdot, _ = ham_rhs(fold_gf, state)
    assert abs(qdot[1] - 1.1) < 1e-12


# -- traces -------------------------------------------------------------------

def test_trace_reaches_parabolic_boundary(fold_gf):
    trace = trace_bicharacteristic(fold_gf, BicharState((0, 0, 1), (0, 1, 1)),
                                   step=1e-3, max_steps=5000)
    assert trace.termination is Termination.PARABOLIC_BOUNDARY
    assert 0 < trace.states[-1].q[2] < 0.1  # stops just above Z = 0


def test_trace_fixed_point_runs_out_of_steps(fold_gf):
    trace = trace_bicharacteristic(fold_gf, BicharState((0, 0, 1), (0, 0, 0)),
                                   max_steps=40)
    assert trace.termination is Termination.MAX_STEPS
    assert all(s.q == (0.0, 0.0, 1.0) for s in trace.states)


def test_trace_domain_exit(fold_gf):
    trace = trace_bicharacteristic(fold_gf, _null_state(0.2, 1.0, 1.0),
                                   step=1e-3, max_steps=100000, box=2.0)
    assert trace.termination is Termination.DOMAIN_EXIT


def test_trace_rejects_non_null_start(fold_gf):
    with pytest.raises(DomainError):
        trace_bicharacteristic(fold_gf, BicharState((0, 0, 1), (1, 1, 1)))


@pytest.mark.parametrize("kwargs", [
    {"step": math.nan}, {"step": math.inf}, {"box": math.nan}, {"box": math.inf},
    {"stop_tol": math.nan}, {"stop_tol": -math.inf},
])
def test_trace_rejects_non_finite_parameters(fold_gf, kwargs):
    with pytest.raises(ValueError):
        trace_bicharacteristic(fold_gf, BicharState((0, 0, 1), (0, 1, 1)), **kwargs)


@pytest.mark.parametrize("q, p", [
    ((0, 0, math.nan), (0, 1, 1)),  # |H| is NaN, so the null test alone passes it
    ((math.inf, 0, 1), (0, 1, 1)),
    ((0, 0, 1), (0, 1, -math.inf)),
])
def test_trace_rejects_non_finite_start(fold_gf, q, p):
    with pytest.raises(DomainError, match="not finite"):
        trace_bicharacteristic(fold_gf, BicharState(q, p))


# -- guard paths --------------------------------------------------------------
#
# The fold metric plus a term c x^181 in h_11 that is negligible where
# |x| < 1 but whose power x**181 overflows (OverflowError) beyond |x| ~ 50.

@pytest.fixture(scope="module")
def tripwire_gf():
    return GeneratingFunction(
        ChartKind.DUAL_T,
        parse_poly("y^2/2 - x^2*Z/2 + Z^3/6 + x^183/10^100", ("x", "y", "Z")),
        Fraction(1),
    )


def _tripwire_start(gf):
    return BicharState((0, 0, 1), null_project(gf, (0, 0, 1), (0.4, 2.9), 2)[1])


def test_trace_diverges_on_overflow_in_rk4_stage(tripwire_gf):
    start = _tripwire_start(tripwire_gf)
    field_ = ch._metric_field(tripwire_gf)
    with pytest.raises(OverflowError):
        ch._rk4_step(field_.rhs, start.q, start.p, field_.rhs(*start.q, *start.p), 1e4)
    trace = trace_bicharacteristic(tripwire_gf, start, step=1e4, box=1e6)
    assert trace.termination is Termination.DIVERGED
    assert len(trace.states) == 1


def test_trace_diverges_on_overflow_at_accepted_state(tripwire_gf):
    # Stage 4 lands next to Z = 0, where xdot = C1 / Z is huge: every stage
    # stays at |x| < 1, but the accepted point is at x ~ 176.
    start = _tripwire_start(tripwire_gf)
    field_ = ch._metric_field(tripwire_gf)
    qn, pn = ch._rk4_step(field_.rhs, start.q, start.p,
                            field_.rhs(*start.q, *start.p), 1.0)
    assert all(map(math.isfinite, qn + pn)) and max(map(abs, qn)) < 2000
    with pytest.raises(OverflowError):
        field_.state_rhs(*qn, *pn)
    trace = trace_bicharacteristic(tripwire_gf, start, step=1.0, box=2000.0)
    assert trace.termination is Termination.DIVERGED
    assert len(trace.states) == 1


def test_signature_guard_runs_before_singular_test():
    # With x^103 in h_11 the accepted point (x ~ 176) has |h_11| ~ 1e175, so
    # max|h_ij|^3 in the singular test would overflow; the signature change
    # at that point ends the trace first, at the boundary.
    gf = GeneratingFunction(
        ChartKind.DUAL_T,
        parse_poly("y^2/2 - x^2*Z/2 + Z^3/6 + x^105/10^60", ("x", "y", "Z")),
        Fraction(1),
    )
    trace = trace_bicharacteristic(gf, _tripwire_start(gf), step=1.0, box=2000.0)
    assert trace.termination is Termination.PARABOLIC_BOUNDARY
    assert len(trace.states) == 1


def test_trace_diverges_when_singular_test_overflows():
    # The first candidate has max |h_ij| ~ 5.67e102, so s ** 3 in the
    # singular test overflows: the candidate is not accepted.
    gf = GeneratingFunction(
        ChartKind.DUAL_T,
        parse_poly("10^102*(y^2/2 - x^2*Z/2 + Z^3/6)", ("x", "y", "Z")),
        Fraction(1),
    )
    start = BicharState((0, 0, 1.6488469569017985),
                        (-0.3048856730857161, 1.6836179406763991, -2.1402840480820995))
    step = 1.0567547325165856e102
    field_ = ch._metric_field(gf)
    qn, pn = ch._rk4_step(field_.rhs, start.q, start.p,
                            field_.rhs(*start.q, *start.p), step)
    det, s, *_ = field_.state_rhs(*qn, *pn)
    assert math.isfinite(det) and 5.6e102 < s < math.inf
    trace = trace_bicharacteristic(gf, start, step=step, max_steps=300, box=1e6)
    assert trace.termination is Termination.DIVERGED
    assert len(trace.states) == 1


def test_trace_diverges_on_non_finite_metric_at_candidate():
    # As for the tripwire, the first candidate lies at x ~ 176, where x**135
    # is finite but 10^10 * x**135 in h_11 is not: det h is -inf there, a
    # float-range failure that the signature guard must not call a boundary.
    gf = GeneratingFunction(
        ChartKind.DUAL_T,
        parse_poly("y^2/2 - x^2*Z/2 + Z^3/6 + x^137*10^10", ("x", "y", "Z")),
        Fraction(1),
    )
    start = _tripwire_start(gf)
    field_ = ch._metric_field(gf)
    qn, pn = ch._rk4_step(field_.rhs, start.q, start.p,
                            field_.rhs(*start.q, *start.p), 1.0)
    assert all(map(math.isfinite, qn + pn)) and max(map(abs, qn)) < 2000
    assert not math.isfinite(field_.state_rhs(*qn, *pn)[0])
    trace = trace_bicharacteristic(gf, start, step=1.0, box=2000.0)
    assert trace.termination is Termination.DIVERGED
    assert len(trace.states) == 1


def test_trace_diverges_when_candidate_leaves_null_cone(fold_gf):
    # Moving away from the boundary (det h grows), a step of 0.3 breaks the
    # null constraint at the first candidate.
    start = BicharState((0, 0, 1), (0, 1, -1))
    trace = trace_bicharacteristic(fold_gf, start, step=0.3)
    assert trace.termination is Termination.DIVERGED
    assert len(trace.states) == 1
    field_ = ch._metric_field(fold_gf)
    qn, pn = ch._rk4_step(field_.rhs, start.q, start.p,
                            field_.rhs(*start.q, *start.p), 0.3)
    det, _, _, _, H, _ = field_.state_rhs(*qn, *pn)
    assert ch.H_TOL < abs(H) <= 1.0
    assert abs(det) > abs(trace.conserved_log[0]["det_h"])


def _descartes_reference(i1, i2, i3, s):
    # Sign variations of the characteristic polynomial's coefficients,
    # filtered by the scaled thresholds, written out directly.
    thresholds = (1e-12, 1e-12 * s, 1e-12 * s * s, 1e-12 * s * s * s)

    def variations(seq):
        signs = [v for v, t in zip(seq, thresholds) if abs(v) > t]
        return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))

    return variations((1.0, -i1, i2, -i3)), variations((1.0, i1, i2, i3))


def test_sign_counts_match_descartes_reference():
    values = [0.0, -0.0, 1e-13, -1e-13, 2e-12, -3.0, 2.5, 1e-24, -7e-30,
              math.inf, -math.inf, math.nan]
    for i1, i2, i3 in itertools.product(values, repeat=3):
        for s in (1.0, 2.0, 1e6):
            assert ch._sign_counts(i1, i2, i3, s) == _descartes_reference(i1, i2, i3, s)
    rng = random.Random(32)
    for _ in range(2000):
        i1, i2, i3 = (rng.choice((-1, 1)) * 10 ** rng.uniform(-40, 5) for _ in range(3))
        s = max(1.0, 10 ** rng.uniform(-3, 5))
        assert ch._sign_counts(i1, i2, i3, s) == _descartes_reference(i1, i2, i3, s)


def test_metric_field_cache_is_bounded():
    bound = ch._metric_field.cache_info().maxsize
    assert bound is not None
    for k in range(1, bound + 6):
        gf = GeneratingFunction(ChartKind.CLASSICAL_P,
                                parse_poly(f"{k}*x*y + z^2/2", ("x", "y", "z")),
                                Fraction(1))
        trace_bicharacteristic(gf, BicharState((0, 0, 0), (0, 0, 0)), max_steps=1)
        assert ch._metric_field.cache_info().currsize <= bound
    assert ch._metric_field.cache_info().currsize == bound


def test_trace_h_drift_and_conserved_quantities(fold_gf):
    trace = trace_bicharacteristic(fold_gf, _null_state(0.5, 1.0, 1.0),
                                   step=1e-3, max_steps=1000, box=30.0)
    assert len(trace.states) == 1001
    hs = [e["H"] for e in trace.conserved_log]
    assert max(abs(v) for v in hs) <= 1e-8
    xz = [e["xdotZ"] for e in trace.conserved_log]
    yd = [e["ydot"] for e in trace.conserved_log]
    assert max(abs(v - 0.5) for v in xz) <= 1e-8
    assert max(abs(v - 1.0) for v in yd) <= 1e-8


def test_trace_matches_analytic_oracle(fold_gf):
    C1, C2, Z0 = 0.4, 1.2, 0.7
    x0, y0 = 0.3, -0.1
    trace = trace_bicharacteristic(fold_gf, _null_state(C1, C2, Z0, x0, y0),
                                   step=1e-3, max_steps=800, box=30.0)
    worst = 0.0
    for state in trace.states[1:]:
        s, dx, dy = analytic_null_geodesic(C1, C2, Z0, state.q[2])
        worst = max(worst, abs(state.q[0] - x0 - dx), abs(state.q[1] - y0 - dy),
                    abs(state.s - s))
    assert worst <= 1e-6


def test_trace_euler_lagrange_residual_second_order(fold_gf):
    # The projected curve must satisfy the geodesic equations of the fold
    # metric; finite-difference acceleration residuals shrink at O(step^2).
    def max_residual(step):
        trace = trace_bicharacteristic(fold_gf, _null_state(0.4, 1.0, 1.0),
                                       step=step, max_steps=int(0.4 / step),
                                       box=30.0)
        worst = 0.0
        states = trace.states
        for k in range(1, len(states) - 1, 7):
            qm, q0, qp = states[k - 1].q, states[k].q, states[k + 1].q
            vel = [(qp[i] - qm[i]) / (2 * step) for i in range(3)]
            acc = [(qp[i] - 2 * q0[i] + qm[i]) / step ** 2 for i in range(3)]
            z = q0[2]
            res = (
                abs(acc[0] + vel[0] * vel[2] / z),
                abs(acc[1]),
                abs(acc[2] - (vel[0] ** 2 - vel[2] ** 2) / (2 * z)),
            )
            worst = max(worst, *res)
        return worst

    r1 = max_residual(2e-2)
    r2 = max_residual(1e-2)
    order = math.log2(r1 / r2)
    assert order >= 1.5


def test_trace_csv_format(fold_gf):
    trace = trace_bicharacteristic(fold_gf, BicharState((0, 0, 1), (0, 1, 1)),
                                   step=1e-3, max_steps=3)
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "s,q1,q2,q3,p1,p2,p3,H,det_h,xdotZ,ydot"
    assert lines[-1] == "# termination=max_steps"
    assert len(lines) == 2 + 4  # header + initial + 3 steps + comment


def test_trace_csv_omits_conserved_columns_for_noncyclic_metric(convex_quadratic_gf):
    # The classical-chart metric is a constant multiple of the identity, not
    # the cyclic diagonal structure, so no conserved columns are emitted.
    trace = trace_bicharacteristic(convex_quadratic_gf,
                                   BicharState((0, 0, 0), (0, 0, 0)), max_steps=2)
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    assert buf.getvalue().split("\n")[0] == "s,q1,q2,q3,p1,p2,p3,H,det_h"


# -- regression against recorded traces and an independent oracle -----------
#
# The kernels evaluate each metric entry as Poly.eval does, without reading
# the order of its terms, so every generating function equal to the member,
# however built or parsed, traces to the member digest.  Each fold entry is
# one term, whose Horner form is the product a term-by-term sum takes.

@pytest.fixture(scope="module")
def member_gf():
    """A generic family member: its metric is non-diagonal and not cyclic."""
    return build_family(random_generic_spec(random.Random(3))).gf


MEMBER_TRACE_SHA256 = "1c6b1c8488089d085582cee229946e3d4d987a192c17f8a4672c3a59634671bf"
_MEMBER_Q = (-0.61, -0.79, 0.33)


def _member_trace_text(gf) -> str:
    p = null_project(gf, _MEMBER_Q, (0.5, 1.0), 2)[-1]
    trace = trace_bicharacteristic(gf, BicharState(_MEMBER_Q, p), step=2e-3,
                                   max_steps=600)
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    assert trace.termination is Termination.PARABOLIC_BOUNDARY
    return buf.getvalue()


def test_fold_ray_csv_digest(fold_gf):
    # x moves along this ray, unlike in the README example.
    trace = trace_bicharacteristic(fold_gf, _null_state(0.4, 1.2, 0.7, 0.3, -0.1),
                                   step=1e-3, max_steps=800, box=30.0)
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    text = buf.getvalue()
    assert len(text.splitlines()) == 803
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8432601130492b06738693b71504a3fa66d1d113a5445f086da946d77b42f091")


def test_member_trace_csv_digest(member_gf):
    text = _member_trace_text(member_gf)
    assert not pullback_metric_polys(member_gf)[0][1].is_zero
    assert text.startswith("s,q1,q2,q3,p1,p2,p3,H,det_h\n")
    assert len(text.splitlines()) == 241
    assert hashlib.sha256(text.encode()).hexdigest() == MEMBER_TRACE_SHA256


def _clear_metric_caches():
    for cached in (hessian_polys, immersion_polys, immersion_jacobian_polys,
                   pullback_metric_polys, singular_locus_poly, ch._metric_field):
        cached.cache_clear()


# The member's trace digest in a fresh process: first from a parse of its
# text, which fills the caches, then from the built member, equal in value.
_FRESH_TRACES = """
import hashlib, io, random
from sgma.characteristics import (BicharState, null_project, trace_bicharacteristic,
                                  write_trace_csv)
from sgma.family import build_family, random_generic_spec
from sgma.ma_core import GeneratingFunction
from sgma.polyexpr import parse_poly

built = build_family(random_generic_spec(random.Random(3))).gf
parsed = GeneratingFunction(built.chart, parse_poly(str(built.potential), built.chart.coords),
                            built.eps_q)
for gf in (parsed, built):
    q = %r
    p = null_project(gf, q, (0.5, 1.0), 2)[-1]
    buf = io.StringIO()
    write_trace_csv(trace_bicharacteristic(gf, BicharState(q, p), step=2e-3, max_steps=600), buf)
    print(hashlib.sha256(buf.getvalue().encode()).hexdigest())
""" % (_MEMBER_Q,)


def test_member_trace_is_a_function_of_its_value_alone(member_gf, capsys):
    # The term order of a potential parsed from the member's text differs
    # from the built one's.  Filling the value-keyed caches from that parse,
    # in a fresh process or here through the CLI, must not change the built
    # member's trace.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", _FRESH_TRACES], capture_output=True,
                          text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [MEMBER_TRACE_SHA256] * 2
    potential = str(member_gf.potential)
    assert list(parse_poly(potential, member_gf.chart.coords).terms) != list(
        member_gf.potential.terms)
    _clear_metric_caches()
    assert cli.main(["classify", "--chart", "T", "--potential", potential,
                     "--eps-q", str(member_gf.eps_q), "--point", "0.1,0.2,0.3"]) == 0
    capsys.readouterr()
    text = _member_trace_text(member_gf)
    assert hashlib.sha256(text.encode()).hexdigest() == MEMBER_TRACE_SHA256


def test_cli_trace_of_the_member_text_is_the_library_trace(member_gf, capsys):
    # Each trace fills the caches from its own generating function.
    completions = null_project(member_gf, _MEMBER_Q, (0.5, 1.0), 2)
    _clear_metric_caches()
    code = cli.main(["trace", "--chart", "T", "--potential", str(member_gf.potential),
                     "--eps-q", str(member_gf.eps_q),
                     "--q=" + ",".join(map(repr, _MEMBER_Q)), "--p", "0.5,1.0,?",
                     "--null-root", str(len(completions) - 1),
                     "--step", "2e-3", "--max-steps", "600"])
    assert code == 0
    _clear_metric_caches()
    assert capsys.readouterr().out == _member_trace_text(member_gf)


def test_ham_rhs_matches_exact_metric_and_linear_solve(member_gf):
    entries = pullback_metric_polys(member_gf)
    coords = member_gf.chart.coords
    rng = random.Random(33)
    checked = 0
    while checked < 20:
        q = tuple(Fraction(rng.randint(-40, 40), 50) for _ in range(3))
        p = np.array([rng.uniform(-2, 2) for _ in range(3)])
        h = np.array([[float(e.eval(q)) for e in row] for row in entries])
        if np.linalg.cond(h) > 1e3:
            continue
        dh = [np.array([[float(e.diff(v).eval(q)) for e in row] for row in entries])
              for v in coords]
        w = np.linalg.solve(h, p)
        want = np.concatenate([2.0 * w, [w @ d @ w for d in dh]])
        qdot, pdot = ham_rhs(member_gf, BicharState([float(v) for v in q], p))
        got = np.array(qdot + pdot)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        checked += 1


# -- generated kernels against the dense reference --------------------------

_KERNEL_FLOATS = st.one_of(
    st.floats(-60.0, 60.0),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e-8, 0.5, 1.0, -2.0, 51.0]),
)


def _outcome(fn, args):
    # The repr of what fn returns (NaN prints as nan), or the type it raises.
    try:
        return repr(fn(*args))
    except (ArithmeticError, DomainError) as exc:
        return type(exc)


@pytest.fixture(scope="module")
def kernel_pairs(fold_gf, convex_quadratic_gf, tripwire_gf, member_gf):
    """(generated field, dense reference (rhs, state)) for each kernel case.

    The fold (6 of 9 metric entries zero), a family member (non-diagonal,
    4 zeros), a chart-P potential whose h has no zero entry, one whose h00
    and h12 are zero, the convex quadratic (constant h = 2I, every
    derivative zero, so the scale reads h00 alone) and the tripwire, whose
    x**181 overflows for |x| > 50.
    """
    def chart_p(potential):
        return GeneratingFunction(ChartKind.CLASSICAL_P,
                                  parse_poly(potential, ("x", "y", "z")), Fraction(1))

    dense = chart_p("x^4/12 + y^2/2 - z^2/2 + x*y*z/3 + x^2*y^2/5 + y*z^3/7")
    zero_h00 = chart_p("x*y + y^2/2 + z^2/2 + y^3/6 + x*z^2/2")
    pairs = []
    for gf in (fold_gf, member_gf, dense, zero_h00, convex_quadratic_gf, tripwire_gf):
        entries = pullback_metric_polys(gf)
        d_entries = [[[e.diff(v) for e in row] for row in entries] for v in gf.chart.coords]
        pairs.append((ch._metric_field(gf), reference_kernels.compile_kernels(entries, d_entries)))
    assert sum(e.is_zero for row in pullback_metric_polys(dense) for e in row) == 0
    zeros = [[e.is_zero for e in row] for row in pullback_metric_polys(zero_h00)]
    assert zeros == [[True, False, False], [False, False, True], [False, True, False]]
    return pairs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.tuples(*[_KERNEL_FLOATS] * 6))
def test_kernels_match_dense_reference(kernel_pairs, point):
    # state_rhs raises exactly where the derivative-free reference state
    # raises, the tripwire's overflow range (|x| > 50) included: its
    # derivative part never overflows alone, so a trace needs no fallback
    # for a state whose k1 cannot be evaluated.
    for field_, (ref_rhs, ref_state) in kernel_pairs:
        assert _outcome(field_.rhs, point) == _outcome(ref_rhs, point)
        want = _outcome(ref_state, point)
        if isinstance(want, type):
            assert _outcome(field_.state_rhs, point) is want
            continue
        det, s, i1, i2, H, *qdot = ref_state(*point)
        *values, k1 = field_.state_rhs(*point)
        assert repr(values) == repr([det, s, i1, i2, H])
        if H is None:
            assert k1 is None
            continue
        # state_rhs makes no singular test; where rhs returns, k1 is its value.
        assert repr(k1[:3]) == repr(tuple(qdot))
        if not isinstance(_outcome(ref_rhs, point), type):
            assert repr(k1) == repr(ref_rhs(*point))


def test_fold_kernels_drop_structural_zeros(fold_gf):
    # Of h^{-1} only a00, a11, a22 and of the 27 derivative entries only
    # d_Z h_00 = d_Z h_22 = -2 are nonzero.  The dropped names are neither
    # assigned nor read, so no product has a structurally zero factor.
    entries = pullback_metric_polys(fold_gf)
    coords = fold_gf.chart.coords
    zero = {f"a{i}{j}" for i in range(3) for j in range(3) if i != j}
    zero |= {f"d{k}{i}{j}" for k in range(3) for i in range(3) for j in range(3)
             if entries[i][j].diff(coords[k]).is_zero}
    assert len(zero) == 6 + 25
    field_ = ch._metric_field(fold_gf)
    for kernel in (field_.rhs, field_.state_rhs):
        code = kernel.__code__
        assert not zero & set(code.co_varnames + code.co_names), kernel.__name__
    assert field_.rhs(0.3, -0.1, 0.7, -0.4, 1.2, -0.5)[3:5] == (0.0, 0.0)


def _long_metric(n_terms, seed):
    # h = diag(P, 1, 1) for a P of n_terms terms with coefficients of mixed
    # sign and size, and the derivatives of h (only d_k h00 nonzero).
    rng = random.Random(seed)
    exps = [e for e in itertools.product(range(26), repeat=3) if sum(e) <= 25][:n_terms]
    P = Poly(XYZ, {e: Fraction(rng.choice([-1, 1]) * rng.randint(1, 999), rng.randint(1, 99))
                   for e in exps})
    zero, one = Poly(XYZ), Poly.constant(XYZ, 1)
    entries = ((P, zero, zero), (zero, one, zero), (zero, zero, one))
    d_entries = tuple(((P.diff(v), zero, zero), (zero, zero, zero), (zero, zero, zero))
                      for v in XYZ)
    return P, entries, d_entries


def _invariants(h) -> tuple:
    # det, s, i1 and i2 of the kernel templates, over the matrix h.
    (h00, h01, h02), (h10, h11, h12), (h20, h21, h22) = h
    det = (h00 * (h11 * h22 - h12 * h21) - h01 * (h10 * h22 - h12 * h20)
           + h02 * (h10 * h21 - h11 * h20))
    s = max(1.0, max(abs(v) for row in h for v in row))
    i2 = h00 * h11 - h01 * h10 + h00 * h22 - h02 * h20 + h11 * h22 - h12 * h21
    return det, s, h00 + h11 + h22, i2


def test_long_entries_compile_and_kernels_read_h_as_pullback_metric(member_gf):
    # A Horner statement never nests sums, so an entry of 3000 terms compiles
    # as it is, and it is the value Poly.eval gives.
    P, entries, d_entries = _long_metric(3000, 7)
    rhs, state_rhs = ch._compile_kernels(entries, d_entries)
    q = (0.61, -0.83, 0.97)
    assert repr(state_rhs(*q, 1.0, 0.5, 0.25)[2]) == repr(P.eval(q) + 1.0 + 1.0)
    assert all(math.isfinite(v) for v in rhs(*q, 1.0, 0.5, 0.25))
    # On every chart the kernels' h is pullback_metric's, to the bit.
    gfs = [member_gf] + [
        GeneratingFunction(ChartKind(chart), parse_poly(text, ChartKind(chart).coords), eps)
        for chart, text, eps in (
            ("P", "x^4/12 + y^2/2 - z^2/2 + x*y*z/3 + x^2*y^2/5 + y*z^3/7", Fraction(1)),
            ("S", "X^3/7 - X*Y*z/3 + Y^2/2 - z^2/2 + Y*z^2/5 + X^2*Y/4", Fraction(3, 4)),
            ("R", "X^2*Y/5 + Y^3/9 - X*Z^2/3 + Z^4/11 + X^2/2 - Y*Z/7", Fraction(2)))]
    assert {gf.chart for gf in gfs} == set(ChartKind)
    rng = random.Random(41)
    for gf in gfs:
        field_ = ch._metric_field(gf)
        for _ in range(25):
            q = tuple(rng.uniform(-1.5, 1.5) for _ in range(3))
            h = pullback_metric(gf, q).tolist()
            assert repr(field_.state_rhs(*q, 1.0, -0.5, 0.25)[:4]) == repr(_invariants(h))


def test_trace_reuses_accepted_state_for_k1(fold_gf, monkeypatch):
    field_ = ch._metric_field(fold_gf)
    calls = {"rhs": 0, "state_rhs": 0}

    def spy(name):
        kernel = getattr(field_, name)

        def counted(*args):
            calls[name] += 1
            return kernel(*args)
        monkeypatch.setattr(field_, name, counted)

    spy("rhs")
    spy("state_rhs")
    trace = trace_bicharacteristic(fold_gf, _null_state(0.4, 1.2, 0.7), max_steps=25)
    assert trace.termination is Termination.MAX_STEPS and len(trace.states) == 26
    assert calls == {"rhs": 3 * 25, "state_rhs": 26}


def test_trusted_states_equal_validated_states(fold_gf):
    trace = trace_bicharacteristic(fold_gf, _null_state(0.4, 1.2, 0.7), max_steps=3)
    for state in trace.states:
        again = BicharState(state.q, state.p, state.s)
        assert again == state and repr(again) == repr(state)
        assert all(type(v) is float for v in state.q + state.p)


# -- eikonal -------------------------------------------------------------------

def test_eikonal_cusp_family_is_characteristic(fold_gf):
    rng = random.Random(31)
    for _ in range(40):
        pt = (rng.uniform(-2, 2), rng.uniform(-1, 1), rng.uniform(0.1, 2.0))
        for sign in (1.0, -1.0):
            grad = (0.0, 1.0, sign * math.sqrt(pt[2]))
            assert abs(eikonal_residual_grad(fold_gf, pt, grad)) <= 1e-12


def test_eikonal_constant_and_x_plane(fold_gf):
    const = parse_poly("7", ("x", "y", "Z"))
    assert eikonal_residual(fold_gf, const, (0, 0, 1)) == 0
    fx = parse_poly("x", ("x", "y", "Z"))
    assert abs(eikonal_residual(fold_gf, fx, (0, 0, 1)) + 0.5) < 1e-15
    for z in np.linspace(0.5, 2.0, 7):
        assert abs(eikonal_residual(fold_gf, fx, (0, 0, float(z)))) >= 0.1


def test_eikonal_residual_compiles_its_gradient_once(fold_gf, monkeypatch):
    # The three derivatives of F are fresh polynomials on every call, so
    # they are evaluated as one vector: one compile per call.
    F = parse_poly("y - 2/3*Z^3 + x^2*Z/5", XYZ)
    pt = (0.5, 0.25, 1.5)
    eikonal_residual(fold_gf, F, pt)
    compiled = []
    compile_functions = codegen.compile_functions

    def spy(source, filename, *args, **kwargs):
        compiled.append(filename)
        return compile_functions(source, filename, *args, **kwargs)

    monkeypatch.setattr(codegen, "compile_functions", spy)
    value = eikonal_residual(fold_gf, F, pt)
    assert compiled == ["<sgma polynomial vector>"]
    grad = [float(F.diff(v).eval(pt)) for v in XYZ]
    assert repr(value) == repr(eikonal_residual_grad(fold_gf, pt, grad))


def test_eikonal_gradient_of_wrong_length_is_value_error(fold_gf):
    with pytest.raises(ValueError, match="gradient must have 3 components"):
        eikonal_residual_grad(fold_gf, (0, 0, 1), (0, 1))


def test_eikonal_residual_checks_point_before_and_after_the_gradient(fold_gf):
    # The point is read once and converted to floats before the gradient is
    # evaluated: a non-finite float and an exact value beyond the float range
    # both fail as the chart point, whatever the gradient's float evaluation.
    F = parse_poly("x^3*Z + y", XYZ)
    with pytest.raises(DomainError, match=r"^chart point is not finite: \(nan, 0, 1\)$"):
        eikonal_residual(fold_gf, F, (math.nan, 0, 1))
    with pytest.raises(DomainError, match=r"^chart point is not finite: \(1000"):
        eikonal_residual(fold_gf, F, (10 ** 400, 1, 1))
    with pytest.raises(DomainError, match=r"^chart point is not finite: \(1000"):
        eikonal_residual(fold_gf, F, (10 ** 400, 0.5, 1.0))
    assert eikonal_residual(fold_gf, F, (1, 2, -1)) == 5.5


def test_eikonal_requires_chart_variables(fold_gf):
    with pytest.raises(ValueError):
        eikonal_residual(fold_gf, parse_poly("x", ("x",)), (0, 0, 1))


def test_eikonal_singular_point_rejected(fold_gf):
    with pytest.raises(MetricSingularError):
        eikonal_residual_grad(fold_gf, (0, 0, 0), (0, 1, 0))


# -- analytic oracle -------------------------------------------------------------

def test_analytic_geodesic_cusp_values_exact():
    s, dx, dy = analytic_null_geodesic(Fraction(0), Fraction(1), Fraction(0),
                                       Fraction(1))
    assert dy == Fraction(2, 3) and dx == 0
    assert dy * dy == Fraction(4, 9)
    _, dx4, dy4 = analytic_null_geodesic(Fraction(0), Fraction(1), Fraction(0),
                                         Fraction(4))
    assert dy4 * dy4 == Fraction(256, 9) and dx4 == 0


def test_analytic_geodesic_inexact_root_is_float():
    # sqrt(C2^2 Z - C1^2) = sqrt(2) is no rational square, so it is a float.
    s, dx, dy = analytic_null_geodesic(Fraction(0), Fraction(1), Fraction(0), Fraction(2))
    assert s == dy == 4 * math.sqrt(2) / 3 and type(s) is float
    assert dx == 0


def test_analytic_geodesic_coincident_endpoints():
    s, dx, dy = analytic_null_geodesic(0.5, 1.0, 2.0, 2.0)
    assert s == 0 and dx == 0 and dy == 0


def test_analytic_geodesic_domain_errors():
    with pytest.raises(DomainError):
        analytic_null_geodesic(1.0, 0.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        analytic_null_geodesic(2.0, 1.0, 1.0, 2.0)  # C2^2 Z0 < C1^2


def test_cusp_exponent_three_halves(fold_gf):
    rho = 0.04
    up = _null_state(0.0, 1.0, rho)
    trace_up = trace_bicharacteristic(fold_gf, up, step=1e-4, max_steps=2600,
                                      box=30.0)
    down = BicharState(up.q, tuple(-v for v in up.p))
    trace_down = trace_bicharacteristic(fold_gf, down, step=5e-6, max_steps=1600,
                                        stop_tol=8.0 * (0.05 * rho) ** 2, box=30.0)
    assert trace_down.termination is Termination.PARABOLIC_BOUNDARY
    y_cusp = trace_down.states[-1].q[1]
    zs, dys = [], []
    for state in trace_up.states:
        if 2 * rho <= state.q[2] <= 10 * rho:
            zs.append(math.log(state.q[2]))
            dys.append(math.log(abs(state.q[1] - y_cusp)))
    a = np.vstack([zs, np.ones(len(zs))]).T
    slope = float(np.linalg.lstsq(a, np.array(dys), rcond=None)[0][0])
    assert abs(slope - 1.5) <= 0.015


def test_momentum_overflow_is_domain_error(fold_gf):
    # The metric at q = (0, 0, 1) is finite, but p2^2 = 1e400 is not: H and
    # the null completions are infinite, which is an error, not a value.
    q = (0.0, 0.0, 1.0)
    for call in (lambda: hamiltonian(fold_gf, BicharState(q, (0.0, 1e200, 0.0))),
                 lambda: eikonal_residual_grad(fold_gf, q, (0.0, 1e200, 0.0)),
                 lambda: trace_bicharacteristic(fold_gf, BicharState(q, (0.0, 1e200, 0.0)))):
        with pytest.raises(DomainError, match="H is not finite"):
            call()
    with pytest.raises(DomainError, match="null completion is not finite"):
        null_project(fold_gf, q, (0.0, 1e200), 2)


def test_overflowing_dense_metric_gets_one_verdict():
    # At x = 1e10 the entry 6*10^300*x of this dense metric overflows, so
    # det h is inf.  Every evaluation of the state reports the overflow; the
    # RK4 stage kernel's own test would call the metric singular instead.
    gf = GeneratingFunction(
        ChartKind.CLASSICAL_P,
        parse_poly("(10^150)^2*x^3 + (x^2+y^2+z^2)/2 + x*y/4 + y*z/4 + x*z/4",
                   ("x", "y", "z")),
        Fraction(1))
    state = BicharState((1e10, 0.1, 0.2), (0, 1, 1))
    for call in (lambda: ham_rhs(gf, state), lambda: hamiltonian(gf, state),
                 lambda: trace_bicharacteristic(gf, state)):
        with pytest.raises(DomainError, match="overflows") as info:
            call()
        assert not isinstance(info.value, MetricSingularError)


def test_overflowing_momentum_law_is_domain_error():
    # h_33 = 2 at q = 0 but d_Z h_33 = -12*10^300: H is finite and
    # pdot_3 = 3e309 is not, so ham_rhs reports the overflow.
    gf = GeneratingFunction(ChartKind.DUAL_T,
                            parse_poly("y^2/2 - x^2/2 - Z^2/2 + (10^150)^2*Z^3", XYZ),
                            Fraction(1))
    state = BicharState((0, 0, 0), (0, 0, 1e6))
    assert hamiltonian(gf, state) == 5e11
    with pytest.raises(DomainError, match=r"^metric evaluation overflows or is not finite "
                                          r"at q = \(0.0, 0.0, 0.0\), p = \(0.0, 0.0, 1000000.0\)$"):
        ham_rhs(gf, state)


def test_rk4_step_leaving_the_float_range_diverges(fold_gf):
    # At q = (0, 0, 1) the null momentum (0, a, a), a = 1.2e154, has H = 0
    # and pdot_3 = a^2/2 = 7.2e307: every RK4 stage is finite, but their
    # weighted sum k1 + 2 k2 + ... is not, so the step ends the trace.
    a = 1.2e154
    trace = trace_bicharacteristic(fold_gf, BicharState((0, 0, 1), (0, a, a)), step=1e-160)
    assert trace.termination is Termination.DIVERGED and len(trace.states) == 1


def test_metric_overflow_is_domain_error():
    # x^4 makes h_11 = 12 x^2, whose power overflows at x = 1e160; the
    # second metric's coefficient 2*10^400 itself lies beyond the float range;
    # the fold metric at Z = 1e200 is finite, but the cube of its largest
    # entry in the singular test is not; at Z = 1e308, h_00 = -2 Z is -inf
    # and det h is NaN, which the float singular test alone would pass.
    for chart, potential, q in (("P", "x^4 + y^2/2 - z^2/2", (1e160, 0.0, 0.0)),
                                ("T", "(10^200)^2*Z^3 + y^2", (0.0, 0.0, 1.0)),
                                ("T", "y^2/2 - x^2*Z/2 + Z^3/6", (0.0, 0.0, 1e200)),
                                ("T", "y^2/2 - x^2*Z/2 + Z^3/6", (0.0, 0.0, 1e308))):
        kind = ChartKind(chart)
        gf = GeneratingFunction(kind, parse_poly(potential, kind.coords), Fraction(1))
        calls = (lambda: hamiltonian(gf, BicharState(q, (0.0, 1.0, 1.0))),
                 lambda: null_project(gf, q, (0.0, 1.0), 2),
                 lambda: eikonal_residual_grad(gf, q, (0.0, 1.0, 1.0)),
                 lambda: ham_rhs(gf, BicharState(q, (0.0, 1.0, 1.0))),
                 lambda: trace_bicharacteristic(gf, BicharState(q, (0.0, 1.0, 1.0))))
        for call in calls:
            with pytest.raises(DomainError, match="overflows"):
                call()
