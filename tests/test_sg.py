"""Wind reconstruction: branch states, velocity solves, and plane sweeps."""

import dataclasses
import functools
import io
import math
import random
import warnings
from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sgma import ma_core, polyexpr, sg, singular
from sgma.family import build_family, random_generic_spec
from sgma.errors import DomainError, NoBranchError
from sgma.grid import Axis, Grid
from sgma.ma_core import ChartKind, GeneratingFunction, SignatureLabel, classify, immersion
from sgma.polyexpr import parse_poly
from sgma.singular import (
    DEGENERATE_TOL,
    branch_is_convex,
    branch_select_convex,
    caustic_sweep,
    dpi_det,
    fiber_solve,
    multivalued_P,
)
from sgma.sg import (
    WIND_CSV_COLUMNS,
    EpsilonChoice,
    PlaneGridSpec,
    SGState,
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


# -- one evaluation per fiber preimage ----------------------------------------

@pytest.mark.parametrize("entry", [branch_state, reconstructed_state])
@pytest.mark.parametrize("eps_q, spec_seed, base, message", [
    (2, None, (2, 0, 0), "wind identities are stated for eps_q = 1; "
                         "eps_q = 2 is outside the verified regime"),
    (1, 1, (-1, -1, -2), "multiple convex branches; using the first"),
])
def test_warnings_name_the_caller(fold_gf, entry, eps_q, spec_seed, base, message):
    if spec_seed is None:
        gf = GeneratingFunction(fold_gf.chart, fold_gf.potential, Fraction(eps_q))
    else:
        gf = build_family(random_generic_spec(random.Random(spec_seed))).gf
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        entry(gf, base)
    assert [(str(w.message), w.filename) for w in caught] == [(message, __file__)]


def test_in_domain_fold_node_evaluates_each_preimage_once(monkeypatch, fold_gf):
    # Over (2, 0, -1) the fold has two preimages.  The fiber equation is
    # solved from one exact evaluation, each preimage is read by one float
    # evaluation, and classify makes the third.
    base = (2.0, 0.0, -1.0)
    assert len(fiber_solve(fold_gf, base).fiber_values) == 2
    reconstructed_state(fold_gf, base)  # every vector it needs is compiled
    calls = Counter()

    def count_evaluate(evaluate):
        def spy(owner, values):
            calls["float"] += any(isinstance(v, float) for v in values)
            return evaluate(owner, values)
        return spy

    def count_numerators(owner, values, numerators=polyexpr._numerators):
        calls["exact"] += 1
        return numerators(owner, values)

    monkeypatch.setattr(polyexpr, "_evaluate", count_evaluate(polyexpr._evaluate))
    monkeypatch.setattr(ma_core, "_evaluate", count_evaluate(ma_core._evaluate))
    monkeypatch.setattr(polyexpr, "_numerators", count_numerators)
    assert reconstructed_state(fold_gf, base).u is not None
    assert calls["float"] <= 3 and calls["exact"] <= 1


def test_jacobian_coefficient_beyond_float_range_reads_each_entry_on_its_own():
    # T_xx = 3e308*x - Z has a coefficient beyond the float range, so a
    # preimage's values cannot be read at once; each is read on its own, as
    # multivalued_P, dpi_det and branch_is_convex read it, and no branch is
    # convex.  By index, classify meets the coefficient.
    gf = GeneratingFunction(ChartKind.DUAL_T, parse_poly(
        f"y^2/2 - x^2*Z/2 + Z^3/6 + {5 * 10 ** 307}*x^3", ("x", "y", "Z")), Fraction(1))
    base = (0, 0, -1)
    assert fiber_solve(gf, base).convex_flags == [False, False]
    with pytest.raises(NoBranchError, match="^no convex branch over this base point$"):
        reconstructed_state(gf, base)
    with pytest.raises(DomainError, match="^a polynomial coefficient overflows the float range$"):
        branch_state(gf, base, 0)
    grid = Grid((Axis("x", 0, 0, 1), Axis("y", 0, 0, 1), Axis("z", -1, -1, 1)))
    [sample] = wind_field_sweep(gf, "convex", grid)
    assert not sample.in_domain and sample.state is None


@functools.lru_cache(maxsize=None)
def _property_gfs() -> tuple:
    fold = GeneratingFunction(ChartKind.DUAL_T, parse_poly(
        "y^2/2 - x^2*Z/2 + Z^3/6", ("x", "y", "Z")), Fraction(1))
    return (fold, *(build_family(random_generic_spec(random.Random(seed))).gf
                    for seed in range(6)))


@functools.lru_cache(maxsize=None)
def _caustic_bases(k: int) -> tuple:
    sweep = caustic_sweep(_property_gfs()[k], Grid((Axis("x", -1, 1, 3), Axis("y", -1, 1, 3))))
    return tuple(s.base_point for s in sweep.samples)


_COORD = st.floats(-3, 3)


@st.composite
def _wind_nodes(draw):
    # A generating function (the fold first), a base point and a branch.
    # The base point is a node in a box, within 1e-9 of a caustic point, or
    # above the fold's caustic z = x^2/2, outside its domain.
    k = draw(st.integers(0, len(_property_gfs()) - 1))
    kind = draw(st.sampled_from(["box", "caustic", "outside"]))
    if kind == "caustic":
        x, y, z = draw(st.sampled_from(_caustic_bases(k)))
        offset = st.sampled_from([0.0, 1e-20, -1e-20]) | st.floats(-1e-9, 1e-9)
        base = (x, y, z + draw(offset))
    elif kind == "outside":
        k, (x, y) = 0, draw(st.tuples(_COORD, _COORD))
        base = (x, y, x * x / 2 + draw(st.floats(1e-6, 3)))
    else:
        base = draw(st.tuples(_COORD, _COORD, _COORD))
    return _property_gfs()[k], base, draw(st.sampled_from(["convex", 0, 1, 2]))


def _outcome(f, *args):
    try:
        return f(*args), None
    except DomainError as exc:
        return None, (type(exc), str(exc))


def _entry_by_entry(gf):
    raise DomainError("read each entry on its own")


@settings(max_examples=200, deadline=None)
@given(_wind_nodes())
def test_one_evaluation_per_preimage_gives_the_entry_by_entry_values(node):
    gf, base, branch = node
    calls = ((fiber_solve, ()), (branch_state, (branch,)), (reconstructed_state, (branch,)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an ambiguous convex branch
        outcomes = [_outcome(f, gf, base, *args) for f, args in calls]
        with mock.patch.object(singular, "_preimage_polys", _entry_by_entry):
            reference = [_outcome(f, gf, base, *args) for f, args in calls]
    assert [error for _, error in outcomes] == [error for _, error in reference]
    (bp, _), (state, error), (full, full_error) = outcomes
    if bp is None:
        return
    assert bp == reference[0][0]
    assert bp.ambient_points == [immersion(gf, pt).as_tuple() for pt in bp.fiber_values]
    assert [None if h is None else h.tolist() for h in bp.hessians] == \
        [None if h is None else h.tolist() for h in reference[0][0].hessians]
    for i, pt in enumerate(bp.fiber_values):
        degenerate = bp.multiplicities[i] > 1 or abs(dpi_det(gf, pt)) <= DEGENERATE_TOL
        assert bp.P_values[i] == multivalued_P(gf, pt)[0]
        assert bp.degenerate_flags[i] == degenerate
        assert bp.convex_flags[i] == (not degenerate and branch_is_convex(gf, pt))
    if state is None:
        assert full_error == error
        return
    index = branch_select_convex(bp).index if branch == "convex" else branch
    amb, sig = immersion(gf, bp.fiber_values[index]), classify(gf, bp.fiber_values[index])
    assert state == SGState(
        base=bp.base_point, chart_point=bp.fiber_values[index], P=bp.P_values[index],
        M=amb.X, N=amb.Y, theta_eps=amb.Z, u_g=amb.y - amb.Y, v_g=amb.X - amb.x,
        branch_label="degenerate" if sig.label is SignatureLabel.PARABOLIC else sig.label.value)
    velocity, velocity_error = _outcome(velocity_reconstruct, state, gf)
    assert full_error == velocity_error
    if velocity is not None:
        assert full == dataclasses.replace(state, u=velocity[0], v=velocity[1], w=velocity[2])
