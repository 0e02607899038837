"""Wind reconstruction: branch states, velocity solves, and plane sweeps."""

import io
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from sgma import sg
from sgma.family import build_family, random_generic_spec
from sgma.errors import DomainError, NoBranchError
from sgma.grid import Grid
from sgma.ma_core import ChartKind, GeneratingFunction
from sgma.polyexpr import parse_poly
from sgma.singular import fiber_solve
from sgma.sg import (
    WIND_CSV_COLUMNS,
    EpsilonChoice,
    PlaneGridSpec,
    branch_state,
    reconstructed_state,
    velocity_reconstruct,
    velocity_system,
    wind_field_sweep,
    write_wind_csv,
)


def test_epsilon_choice_split(fold_gf):
    eps = EpsilonChoice.for_gf(fold_gf, epsilon=1)
    assert eps.q_g == 1
    eps2 = EpsilonChoice.for_gf(fold_gf, epsilon=Fraction(1, 2))
    assert eps2.q_g == 2
    with pytest.raises(ValueError):
        EpsilonChoice(epsilon=Fraction(0), q_g=Fraction(1))


def test_epsilon_is_read_exactly_and_checked_before_dividing(fold_gf):
    assert EpsilonChoice.for_gf(fold_gf, "1/10").q_g == 10
    for epsilon in (0, "0", "-1/2"):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            EpsilonChoice.for_gf(fold_gf, epsilon)
    for epsilon in (0.1, True):
        with pytest.raises(ValueError, match="not a finite number"):
            EpsilonChoice.for_gf(fold_gf, epsilon)
    with pytest.raises(ValueError, match="not a finite number"):
        EpsilonChoice(epsilon=Fraction(1), q_g=0.5)


def test_branch_state_momenta_and_wind(fold_gf):
    state = branch_state(fold_gf, (1, 0, 0))
    assert abs(state.M - 1) < 1e-12
    assert abs(state.N) < 1e-12
    assert abs(state.u_g) < 1e-12 and abs(state.v_g) < 1e-12
    assert state.branch_label == "elliptic"
    state2 = branch_state(fold_gf, (2, 0, 0))
    assert abs(state2.M - 4) < 1e-12
    assert abs(state2.v_g - 2) < 1e-12
    assert abs(state2.theta_eps + 2) < 1e-12


def test_zonal_wind_vanishes_when_n_equals_y(fold_gf):
    rng = random.Random(51)
    for _ in range(20):
        x = rng.uniform(-2, 2)
        y = rng.uniform(-1, 1)
        z = x * x / 2 - rng.uniform(0.1, 2.0)
        state = branch_state(fold_gf, (x, y, z))
        assert abs(state.N - y) < 1e-10
        assert abs(state.u_g) < 1e-10


def test_velocity_examples(fold_gf):
    state = branch_state(fold_gf, (2, 0, 0))
    u, v, w = velocity_reconstruct(state, fold_gf)
    assert abs(u) < 1e-12 and abs(v - 2) < 1e-12 and abs(w) < 1e-12
    state1 = branch_state(fold_gf, (1, 0, 0))
    assert np.allclose(velocity_reconstruct(state1, fold_gf), (0, 0, 0), atol=1e-12)


@pytest.mark.parametrize("epsilon", ["1e-100", "1e-120"])
def test_velocity_solve_does_not_depend_on_the_epsilon_row_scale(fold_gf, epsilon):
    # z = -2 < x^2/2 is inside the domain whatever epsilon is; a tiny epsilon
    # only scales q_g, so v = q_g (x sqrt(x^2 - 2z) - x).
    eps = EpsilonChoice.for_gf(fold_gf, epsilon)
    state = reconstructed_state(fold_gf, (2.0, 0.0, -2.0), eps=eps)
    q_g = float(eps.q_g)
    assert state.u == 0 and state.w == 0
    assert state.v == pytest.approx(q_g * (2 * math.sqrt(8) - 2), rel=1e-15)
    if epsilon == "1e-100":
        assert state.v == 3.6568542494923805e+100


def test_velocity_rest_state(convex_quadratic_gf):
    state = reconstructed_state(convex_quadratic_gf, (0.7, -0.2, 0.4), branch=0)
    assert abs(state.u) < 1e-13 and abs(state.v) < 1e-13 and abs(state.w) < 1e-13


def test_system_consistency_and_jacobian_identity(fold_gf):
    rng = random.Random(52)
    eps = EpsilonChoice.for_gf(fold_gf)
    for _ in range(25):
        x = rng.uniform(-2, 2)
        y = rng.uniform(-1, 1)
        z = x * x / 2 - rng.uniform(0.1, 2.0)
        state = reconstructed_state(fold_gf, (x, y, z), eps=eps)
        rows, rhs = velocity_system(fold_gf, state, eps)
        residual = rows @ np.array([state.u, state.v, state.w]) - rhs
        assert np.max(np.abs(residual)) <= 1e-10
        # det Hess P = eps_q on the regular branch
        det = float(np.linalg.det(np.vstack([rows[0], rows[1],
                                             rows[2] * float(eps.epsilon)])))
        assert abs(det - float(fold_gf.eps_q)) <= 1e-10


def test_meridional_purity_and_branch_sign(fold_gf):
    rng = random.Random(53)
    for _ in range(30):
        x = rng.uniform(-2, 2)
        y = rng.uniform(-1, 1)
        z = x * x / 2 - rng.uniform(0.1, 2.0)
        state = reconstructed_state(fold_gf, (x, y, z))
        assert abs(state.u) <= 1e-12 and abs(state.w) <= 1e-12
        assert abs(state.v - state.v_g) <= 1e-10
        expected_sign = math.copysign(1.0, x * (math.sqrt(x * x - 2 * z) - 1.0))
        if abs(state.v) > 1e-9:
            assert math.copysign(1.0, state.v) == expected_sign


def test_system_consistency_on_family_solution():
    # Branch derivatives come from implicit differentiation of the chart
    # relations, so reconstruction works for any family member, not just
    # the canonical example.
    from sgma.family import build_family, random_generic_spec
    from sgma.ma_core import immersion
    from sgma.singular import dpi_det, fiber_solve

    rng = random.Random(54)
    sol = build_family(random_generic_spec(rng))
    gf = sol.gf
    eps = EpsilonChoice.for_gf(gf)
    checked = 0
    for _ in range(40):
        chart_pt = (rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(dpi_det(gf, chart_pt)) < 0.05:
            continue  # stay away from folds so the branch is regular
        base = immersion(gf, chart_pt).base()
        bp = fiber_solve(gf, base)
        matches = [i for i, fv in enumerate(bp.fiber_values)
                   if abs(fv[2] - chart_pt[2]) < 1e-8]
        assert len(matches) == 1
        state = reconstructed_state(gf, base, branch=matches[0], eps=eps)
        rows, rhs = velocity_system(gf, state, eps)
        residual = rows @ np.array([state.u, state.v, state.w]) - rhs
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(residual)) <= 1e-9 * scale
        det = float(np.linalg.det(np.vstack([rows[0], rows[1],
                                             rows[2] * float(eps.epsilon)])))
        assert abs(det - float(gf.eps_q)) <= 1e-8 * max(1.0, abs(det))
        checked += 1
    assert checked >= 10


def test_q_g_beyond_float_range_is_domain_error(fold_gf):
    huge = GeneratingFunction(fold_gf.chart, fold_gf.potential, Fraction(10) ** 400)
    with pytest.raises(DomainError, match="float range"):
        EpsilonChoice.for_gf(huge)
    with pytest.raises(DomainError, match="float range"):
        EpsilonChoice.for_gf(fold_gf, Fraction(1, 10 ** 400))
    assert float(EpsilonChoice.for_gf(huge, Fraction(10) ** 400).q_g) == 1.0


def test_domain_and_degenerate_errors(fold_gf):
    # Empty fibers, no such index, a degenerate branch (fold point) and a
    # concave potential, which has no convex branch: no usable branch.
    concave = GeneratingFunction(ChartKind.CLASSICAL_P,
                                 parse_poly("-(x^2 + y^2 + z^2)/2", ("x", "y", "z")),
                                 Fraction(1))
    for gf, base, branch in ((fold_gf, (0, 0, 1), "convex"), (fold_gf, (2, 0, 2), "convex"),
                             (fold_gf, (1, 0, 0), 5), (fold_gf, (0, 0, 0), "convex"),
                             (concave, (0, 0, 0), "convex")):
        with pytest.raises(NoBranchError):
            branch_state(gf, base, branch)


def test_degenerate_branch_by_index_is_no_branch(fold_gf):
    # On the caustic z = x^2/2 the one preimage is a double root: index 0
    # names it, but the branch is degenerate.
    with pytest.raises(NoBranchError, match=r"^selected branch is degenerate \(caustic point\)$"):
        branch_state(fold_gf, (1.0, 0.0, 0.5), 0)


@pytest.mark.parametrize("branch", [1.5, 0.9, "1", None])
def test_branch_index_must_be_an_integer(fold_gf, branch):
    # int() would truncate 1.5 to branch 1 and 0.9 to branch 0.
    with pytest.raises(ValueError, match="branch must be 'convex' or an index"):
        branch_state(fold_gf, (2, 0, -1), branch)


def test_numpy_branch_index_and_base_point(fold_gf):
    state = branch_state(fold_gf, np.array([2, 0, -1]), np.int64(1))
    assert state == branch_state(fold_gf, (2, 0, -1), 1)
    assert type(state.base[0]) is float and type(state.M) is float


def test_wind_sweep_propagates_float_range_errors():
    # (10^200)^2 has no float: evaluating the fiber overflows, which is no
    # statement about the domain, so the sweep raises instead of flagging.
    gf = GeneratingFunction(ChartKind.DUAL_T, parse_poly("(10^200)^2*Z^3 + y^2",
                                                         ("x", "y", "Z")), Fraction(1))
    grid = PlaneGridSpec(x_lo=2, x_hi=2, nx=1, z_lo=-1, z_hi=0, nz=2)
    with pytest.raises(DomainError, match="overflows") as info:
        wind_field_sweep(gf, "convex", grid)
    assert not isinstance(info.value, NoBranchError)


def test_wind_sweep_flags_missing_branch_index(fold_gf):
    # Over z < x^2/2 the fold fiber has two points; index 1 exists there
    # and nowhere else.
    grid = PlaneGridSpec(x_lo=1, x_hi=1, nx=1, z_lo=-1, z_hi=1, nz=2)
    flags = [s.in_domain for s in wind_field_sweep(fold_gf, 1, grid)]
    assert flags == [True, False]


def test_wind_sweep_needs_xyz_axes(fold_gf):
    with pytest.raises(ValueError, match=r"^wind grid axes must be \('x', 'y', 'z'\), "
                                         r"got \('x', 'z', 'y'\)$"):
        wind_field_sweep(fold_gf, "convex", Grid.parse("x=0:1:2,z=0:1:2,y=0:0:1"))


def test_eps_q_not_one_warns():
    gf = GeneratingFunction(
        ChartKind.DUAL_T,
        parse_poly("y^2/2 - x^2*Z/2 + Z^3/6", ("x", "y", "Z")),
        Fraction(2),
    )
    # potential is not a solution for eps_q=2, but branch_state only needs
    # the fiber; the warning fires before any residual question arises.
    with pytest.warns(UserWarning, match="verified regime"):
        branch_state(gf, (2, 0, 0))


def test_wind_sweep_leaves_the_warning_filters_alone(monkeypatch, fold_gf):
    # The filter list is process-wide state: a sweep that swapped it would
    # race with any other thread's sweep.
    filters, seen = warnings.filters, []
    reconstruct = sg.reconstructed_state

    def spy(*args):
        seen.append(warnings.filters is filters)
        return reconstruct(*args)

    monkeypatch.setattr(sg, "reconstructed_state", spy)
    wind_field_sweep(fold_gf, "convex", PlaneGridSpec(0, 2, 3, -1, 1, 3))
    assert seen == [True] * 9 and warnings.filters is filters


def test_wind_sweep_grid_and_flags(fold_gf):
    grid = PlaneGridSpec(x_lo=0, x_hi=2, nx=3, z_lo=-1, z_hi=1, nz=3, y=0.0)
    samples = wind_field_sweep(fold_gf, "convex", grid)
    assert len(samples) == 9
    by_node = {(s.x, s.z): s for s in samples}
    assert not by_node[(1.0, 1.0)].in_domain  # z > x^2/2
    assert not by_node[(0.0, 0.0)].in_domain  # on the caustic (fold point)
    assert abs(by_node[(0.0, -1.0)].state.v) < 1e-12
    assert abs(by_node[(2.0, 0.0)].state.v - 2) < 1e-12
    # row-major order: x outer, z inner
    assert [(s.x, s.z) for s in samples[:3]] == [(0.0, -1.0), (0.0, 0.0), (0.0, 1.0)]


def test_wind_csv_schema(fold_gf):
    grid = PlaneGridSpec(x_lo=1, x_hi=1, nx=1, z_lo=-1, z_hi=1, nz=2, y=0.0)
    samples = wind_field_sweep(fold_gf, "convex", grid)
    buf = io.StringIO()
    write_wind_csv(samples, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == ",".join(WIND_CSV_COLUMNS)
    in_dom = lines[1].split(",")
    out_dom = lines[2].split(",")
    assert in_dom[3] == "1" and out_dom[3] == "0"
    assert all(cell == "" for cell in out_dom[4:])
    assert len(in_dom) == len(WIND_CSV_COLUMNS)


def test_fig4_wind_profile(fold_gf):
    # At fixed x > 0 the meridional wind q_g(x*sqrt(x^2-2z) - x) is strictly
    # decreasing in z, crossing zero at z = (x^2 - 1)/2 inside the domain.
    grid = PlaneGridSpec(x_lo=2, x_hi=2, nx=1, z_lo=-3, z_hi=1.9, nz=8, y=0.0)
    samples = [s for s in wind_field_sweep(fold_gf, "convex", grid) if s.in_domain]
    vs = [s.state.v for s in samples]
    assert len(vs) == 8
    assert all(a > b for a, b in zip(vs, vs[1:]))
    assert vs[0] > 0 > vs[-1]


def test_ambiguous_convex_branch_warns_and_takes_the_first():
    # Over (-1, -1, -2) this member has three preimages, the first and the
    # last convex: "convex" is ambiguous there and resolves to index 0.
    gf = build_family(random_generic_spec(random.Random(1))).gf
    assert fiber_solve(gf, (-1, -1, -2)).convex_flags == [True, False, True]
    with pytest.warns(UserWarning, match="^multiple convex branches; using the first$"):
        state = reconstructed_state(gf, (-1, -1, -2))
    assert state.chart_point[2] == pytest.approx(-2.0311, abs=1e-4)
    assert state.branch_label == "elliptic"
