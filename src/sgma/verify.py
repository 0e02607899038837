"""End-to-end verification suite against the canonical fold example.

Each criterion checks one published closed-form property of the example
solution T = y^2/2 - x^2 Z/2 + Z^3/6 (or of the polynomial solution
family) at a pinned tolerance, using an independent route wherever one
exists: exact symbolic residuals, closed-form metrics, analytic geodesic
displacements, and the explicit wind formula.  The CLI exposes the suite
as the ``verify-paper`` subcommand; the pytest acceptance module runs the
same criteria.

Criterion 10 requires the generic degree tuple (1, 4, 6, 10) of the
solution family.  The widely quoted count (1, 4, 7, 10) is attainable only
with a defective version of the coefficient hierarchy: in exact solutions
the leading coefficient of the first-order level cancels identically, so
that level has degree 6 (see family.reference_recursion_report).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import characteristics as ch
from . import family as fam
from . import ma_core as mc
from . import sg
from . import singular as sing
from .grid import Axis, Grid
from .mat3 import adj3, det3
from .polyexpr import Poly, parse_poly

EXAMPLE_POTENTIAL = "y^2/2 - x^2*Z/2 + Z^3/6"


def example_gf() -> mc.GeneratingFunction:
    """The canonical fold-deformation solution on the dual-T chart, eps_q = 1."""
    return mc.GeneratingFunction(
        mc.ChartKind.DUAL_T,
        parse_poly(EXAMPLE_POTENTIAL, ("x", "y", "Z")),
        Fraction(1),
    )


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.cid:2d} {self.name}: {self.detail}"


def _c01_example_residual():
    """Exact symbolic balance residual of the example potential is the zero polynomial."""
    residual = mc.ma_residual_poly(example_gf())
    return residual.is_zero, f"symbolic residual = {residual}"


def _c02_metric_closed_form():
    """Pull-back metric equals 2*diag(-Z, 1, -Z): exactly in symbols, 1e-12 on a grid."""
    gf = example_gf()
    cs = gf.chart.coords
    hp = mc.pullback_metric_polys(gf)
    z = Poly.variable(cs, "Z")
    expected = [[-2 * z, Poly.zero(cs), Poly.zero(cs)],
                [Poly.zero(cs), Poly.constant(cs, 2), Poly.zero(cs)],
                [Poly.zero(cs), Poly.zero(cs), -2 * z]]
    symbolic_ok = all(hp[i][j] == expected[i][j] for i in range(3) for j in range(3))

    axis = np.linspace(-2.0, 2.0, 21)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    flat = [gx.reshape(-1), gy.reshape(-1), gz.reshape(-1)]
    worst = 0.0
    values = hp.eval(flat)
    for i in range(3):
        for j in range(3):
            got = np.broadcast_to(np.asarray(values[3 * i + j], dtype=float), flat[0].shape)
            want = np.broadcast_to(np.asarray(expected[i][j].eval(flat), dtype=float),
                                   flat[0].shape)
            worst = max(worst, float(np.max(np.abs(got - want))))
    ok = symbolic_ok and worst <= 1e-12
    return ok, f"symbolic match = {symbolic_ok}, max grid deviation = {worst:.3g}"


def _random_points(rng: random.Random, n: int, lo: float, hi: float):
    return [(rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(lo, hi))
            for _ in range(n)]


def _adjugate_error(gf, pt) -> float:
    h = mc.pullback_metric(gf, pt)
    a2 = 2.0 * np.array(adj3(mc.linearization_matrix(gf, pt)))
    scale = max(1.0, float(np.max(np.abs(h))))
    return float(np.max(np.abs(h - a2))) / scale


def _c03_adjugate_identity():
    """h = 2 adj(A) at 1e-10 relative, on the example and 20 random family members."""
    worst = 0.0
    rng = random.Random(20260811)
    gf = example_gf()
    for pt in _random_points(rng, 100, -1.5, 1.5):
        worst = max(worst, _adjugate_error(gf, pt))
    for _ in range(20):
        sol = fam.build_family(fam.random_generic_spec(rng))
        for pt in _random_points(rng, 100, -1.0, 1.0):
            worst = max(worst, _adjugate_error(sol.gf, pt))
    ok = worst <= 1e-10
    return ok, f"max relative deviation = {worst:.3g} over 21 solutions x 100 points"


def _c04_determinant_law():
    """det h = 8 eps_q^4 on classical solutions (convex and saddle quadratics)."""
    cases = [
        ("(x^2 + y^2 + z^2)/2", Fraction(1)),
        ("(2*x^2 + y^2 + z^2)/2", Fraction(2)),
        ("x^2 + y^2/2 + z^2/4", Fraction(1)),
        ("(x^2 - y^2 - z^2)/2", Fraction(1)),
        ("(-x^2 - y^2 + z^2)/2", Fraction(1)),
        ("(x^2 + y^2 + z^2)/2 + x*y/2", Fraction(3, 4)),
        ("(2*x^2 - y^2 - z^2)/2 + x*z/2", Fraction(9, 4)),
    ]
    rng = random.Random(7)
    worst = 0.0
    for text, eps in cases:
        gf = mc.GeneratingFunction(
            mc.ChartKind.CLASSICAL_P, parse_poly(text, ("x", "y", "z")), eps)
        residual = mc.ma_residual_poly(gf)
        if not residual.is_zero:
            return False, f"test case {text!r} is not a solution: residual {residual}"
        target = 8.0 * float(eps) ** 4
        for pt in _random_points(rng, 25, -2.0, 2.0):
            det = det3(mc.pullback_metric(gf, pt))
            worst = max(worst, abs(det - target) / abs(target))
    ok = worst <= 1e-10
    return ok, f"max relative deviation from 8*eps_q^4 = {worst:.3g}"


def _c05_prop33_equivalence():
    """{|det dpi| < 1e-9} coincides with {parabolic at tol 1e-9} on a 41^3 grid."""
    gf = example_gf()
    axis = np.linspace(-2.0, 2.0, 41)
    axes = {"x": axis, "y": axis, "Z": axis}
    _, labels = mc.classification_grid(gf, axes, tol=1e-9)
    parabolic = np.vectorize(lambda l: l is mc.SignatureLabel.PARABOLIC)(labels)
    gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
    det = sing.singular_locus_poly(gf).eval([gx, gy, gz])
    det = np.broadcast_to(np.asarray(det, dtype=float), gx.shape)
    near_singular = np.abs(det) < 1e-9
    same = bool(np.array_equal(parabolic, near_singular))
    n_locus = int(near_singular.sum())
    return same, f"sets coincide = {same}; locus points on grid = {n_locus} (plane Z = 0)"


def _c06_caustic_law():
    """Every caustic sample satisfies z = x^2/2 within 1e-12."""
    gf = example_gf()
    grid = Grid((Axis("x", -2.0, 2.0, 41), Axis("y", -1.0, 1.0, 5)))
    sweep = sing.caustic_sweep(gf, grid, tol=1e-10)
    if not sweep.samples or sweep.rejected:
        return False, f"samples = {len(sweep.samples)}, rejected = {sweep.rejected}"
    worst = max(abs(s.base_point[2] - s.base_point[0] ** 2 / 2.0)
                for s in sweep.samples)
    ok = worst <= 1e-12
    return ok, f"max |z - x^2/2| = {worst:.3g} over {len(sweep.samples)} samples"


def _c07_multivalued_geopotential():
    """Branch geopotential matches y^2/2 - Z^3/3 (1e-12) and the convex closed form (1e-10)."""
    gf = example_gf()
    worst_chart = 0.0
    chart_grid = Grid((Axis("x", -2.0, 2.0, 9), Axis("y", -1.0, 1.0, 5), Axis("Z", -2.0, 2.0, 9)))
    for x, y, z_coord in chart_grid.nodes():
        value, _ = sing.multivalued_P(gf, (x, y, z_coord))
        expected = y * y / 2.0 - z_coord ** 3 / 3.0
        worst_chart = max(worst_chart, abs(value - expected))
    worst_branch = 0.0
    n_branch = 0
    base_grid = Grid((Axis("x", -2.0, 2.0, 9), Axis("y", -1.0, 1.0, 3), Axis("z", -2.0, 0.4, 7)))
    for x, y, z in base_grid.nodes():
        if z >= x * x / 2.0 - 1e-3:
            continue
        bp = sing.fiber_solve(gf, (x, y, z))
        choice = sing.branch_select_convex(bp)
        if choice.index is None:
            return False, f"no convex branch at {(x, y, z)}"
        expected = y * y / 2.0 + (x * x - 2.0 * z) ** 1.5 / 3.0
        worst_branch = max(worst_branch, abs(bp.P_values[choice.index] - expected))
        n_branch += 1
    ok = worst_chart <= 1e-12 and worst_branch <= 1e-10
    return ok, (f"max chart-grid deviation = {worst_chart:.3g}, "
                f"max convex-branch deviation = {worst_branch:.3g} ({n_branch} points)")


def _oracle_initial_state(C1: float, C2: float, Z0: float, x0=0.0, y0=0.0):
    # Null momentum for the fold metric with the stated conserved quantities,
    # on the branch with Z increasing.
    zdot0 = math.sqrt(C2 * C2 * Z0 - C1 * C1) / Z0
    return ch.BicharState((x0, y0, Z0), (-C1, C2, -Z0 * zdot0))


def _c08_bicharacteristic_oracle():
    """RK4 traces match the analytic displacements within 1e-6; |H| drift <= 1e-8."""
    gf = example_gf()
    c1s = [0.2, 0.35, 0.5, -0.3, 0.45]
    pairs = [(1.0, 0.6), (1.2, 0.8), (-0.9, 1.0), (1.5, 0.9), (0.8, 1.1)]
    worst_disp = 0.0
    worst_drift = 0.0
    n_traces = 0
    for C1 in c1s:
        for C2, Z0 in pairs:
            if not C2 * C2 * Z0 > C1 * C1 > 0:
                return False, f"invalid initial condition ({C1}, {C2}, {Z0})"
            initial = _oracle_initial_state(C1, C2, Z0)
            trace = ch.trace_bicharacteristic(gf, initial, step=1e-3,
                                              max_steps=900, box=30.0)
            n_traces += 1
            worst_drift = max(worst_drift,
                              max(abs(e["H"]) for e in trace.conserved_log))
            for state in trace.states[1:]:
                _, dx, dy = ch.analytic_null_geodesic(C1, C2, Z0, state.q[2])
                worst_disp = max(worst_disp, abs(state.q[0] - dx),
                                 abs(state.q[1] - dy))
    ok = worst_disp <= 1e-6 and worst_drift <= 1e-8
    return ok, (f"{n_traces} traces: max displacement error = {worst_disp:.3g}, "
                f"max |H| = {worst_drift:.3g}")


def _fit_loglog_slope(xs, ys) -> float:
    lx = np.log(np.asarray(xs))
    ly = np.log(np.asarray(ys))
    a = np.vstack([lx, np.ones_like(lx)]).T
    slope, _ = np.linalg.lstsq(a, ly, rcond=None)[0]
    return float(slope)


def _c09_cusp_exponent():
    """Fitted |dy| ~ Z^alpha exponent within 3/2 +- 0.015; exact law at Z in {1, 4}."""
    s1, dx1, dy1 = ch.analytic_null_geodesic(Fraction(0), Fraction(1), Fraction(0),
                                             Fraction(1))
    s4, dx4, dy4 = ch.analytic_null_geodesic(Fraction(0), Fraction(1), Fraction(0),
                                             Fraction(4))
    exact_ok = (dy1 * dy1 == Fraction(4, 9) and dx1 == 0
                and dy4 * dy4 == Fraction(256, 9) and dx4 == 0)

    gf = example_gf()
    rho = 0.04
    up = _oracle_initial_state(0.0, 1.0, rho)
    trace_up = ch.trace_bicharacteristic(gf, up, step=1e-4, max_steps=2600, box=30.0)
    # Time reversal of the same arm: approach the boundary to locate the cusp.
    down = ch.BicharState(up.q, tuple(-v for v in up.p))
    stop = 8.0 * (0.05 * rho) ** 2
    trace_down = ch.trace_bicharacteristic(gf, down, step=5e-6, max_steps=1600,
                                           stop_tol=stop, box=30.0)
    if trace_down.termination is not ch.Termination.PARABOLIC_BOUNDARY:
        return False, f"boundary approach ended with {trace_down.termination.value}"
    y_cusp = trace_down.states[-1].q[1]
    zs, dys = [], []
    for state in trace_up.states:
        if 2 * rho <= state.q[2] <= 10 * rho:
            zs.append(state.q[2])
            dys.append(abs(state.q[1] - y_cusp))
    alpha = _fit_loglog_slope(zs, dys)
    ok = exact_ok and abs(alpha - 1.5) <= 0.015
    return ok, (f"exact law at Z=1,4: {exact_ok}; fitted exponent = {alpha:.4f} "
                f"from {len(zs)} samples")


def _c10_family_builder():
    """50 random members: exact-zero residual; degrees (1, 4, 6, 10); example round-trip.

    Every member must have exactly the generic degree tuple (1, 4, 6, 10).
    The quoted (1, 4, 7, 10) is rejected: the Z^5 coefficient of T1'' cancels
    identically in exact solutions, and degree 7 arises only from a
    defective index pattern in the transcribed hierarchy; see
    family.reference_recursion_report for the discrepancy.
    """
    rng = random.Random(424242)
    residual_ok = True
    degrees_seen = set()
    for _ in range(50):
        sol = fam.build_family(fam.random_generic_spec(rng))
        if not mc.ma_residual_poly(sol.gf).is_zero:
            residual_ok = False
        degrees_seen.add(tuple(sol.degrees))
    degrees_ok = degrees_seen == {(1, 4, 6, 10)}

    example_spec = fam.FamilySpec(t2_constants={"11": (-1, 0), "22": (0, 1)})
    rebuilt = fam.build_family(example_spec)
    roundtrip_ok = rebuilt.gf.potential == example_gf().potential

    ok = residual_ok and degrees_ok and roundtrip_ok
    return ok, (f"exact residuals = {residual_ok}, round-trip = {roundtrip_ok}, "
                f"degrees {sorted(degrees_seen)} vs required (1, 4, 6, 10) "
                f"(the quoted (1, 4, 7, 10) is rejected: exact solutions force "
                f"first-order degree 6)")


def _c11_sg_reconstruction():
    """(u, w) vanish (1e-12), v matches q_g(x*sqrt(x^2-2z) - x) (1e-10), system residual 1e-10."""
    gf = example_gf()
    eps = sg.EpsilonChoice.for_gf(gf, epsilon=1)
    q_g = float(eps.q_g)
    worst_uw = worst_v = worst_res = 0.0
    n = 0
    for x, y, z in Grid((Axis("x", -2.0, 2.0, 21), Axis("y", 0.0, 0.0, 1),
                         Axis("z", -2.0, 1.9, 21))).nodes():
        if z >= x * x / 2.0 - 1e-6:
            continue
        state = sg.reconstructed_state(gf, (x, y, z), branch="convex", eps=eps)
        worst_uw = max(worst_uw, abs(state.u), abs(state.w))
        v_expected = q_g * (x * math.sqrt(x * x - 2 * z) - x)
        worst_v = max(worst_v, abs(state.v - v_expected))
        rows, rhs = sg.velocity_system(gf, state, eps)
        res = rows @ np.array([state.u, state.v, state.w]) - rhs
        worst_res = max(worst_res, float(np.max(np.abs(res))))
        n += 1
    ok = worst_uw <= 1e-12 and worst_v <= 1e-10 and worst_res <= 1e-10
    return ok, (f"{n} nodes: max |u|,|w| = {worst_uw:.3g}, "
                f"max |v - v_expected| = {worst_v:.3g}, max system residual = {worst_res:.3g}")


def _c12_eikonal():
    """Characteristic cusp family has residual <= 1e-10; the plane x = const does not."""
    gf = example_gf()
    worst = 0.0
    count = 0
    for x, y in Grid((Axis("x", -2.0, 2.0, 5), Axis("y", -1.0, 1.0, 5))).nodes():
        for z_val in (0.3, 0.8, 1.3, 1.9):
            for sign in (+1.0, -1.0):
                grad = (0.0, 1.0, sign * math.sqrt(z_val))
                res = ch.eikonal_residual_grad(gf, (x, y, z_val), grad)
                worst = max(worst, abs(res))
                count += 1
    fx = parse_poly("x", ("x", "y", "Z"))
    plane = Grid((Axis("x", 0.0, 0.0, 1), Axis("y", 0.0, 0.0, 1), Axis("Z", 0.5, 2.0, 16)))
    min_noncharacteristic = min(abs(ch.eikonal_residual(gf, fx, pt)) for pt in plane.nodes())
    ok = worst <= 1e-10 and min_noncharacteristic >= 0.1
    return ok, (f"max characteristic residual = {worst:.3g} over {count} points; "
                f"min |residual| of the x-plane = {min_noncharacteristic:.3g}")


CRITERIA = (
    (1, "example-solution residual", _c01_example_residual),
    (2, "metric closed form", _c02_metric_closed_form),
    (3, "adjugate identity", _c03_adjugate_identity),
    (4, "determinant law", _c04_determinant_law),
    (5, "parabolic/singular equivalence", _c05_prop33_equivalence),
    (6, "caustic law", _c06_caustic_law),
    (7, "multivalued geopotential", _c07_multivalued_geopotential),
    (8, "bicharacteristic oracle", _c08_bicharacteristic_oracle),
    (9, "cusp exponent", _c09_cusp_exponent),
    (10, "family builder", _c10_family_builder),
    (11, "wind reconstruction", _c11_sg_reconstruction),
    (12, "eikonal residuals", _c12_eikonal),
)


def criteria_names() -> list:
    return [f"{cid:2d} {name}" for cid, name, _ in CRITERIA]


def run_criterion(cid: int) -> CriterionResult:
    for id_, name, func in CRITERIA:
        if id_ == cid:
            passed, detail = func()
            return CriterionResult(cid=id_, name=name, passed=bool(passed), detail=detail)
    raise ValueError(f"no criterion {cid}")


def run_all() -> list:
    """Run criteria 1-12 in order; the CLI exit code is 0 iff all pass."""
    return [run_criterion(cid) for cid, _, _ in CRITERIA]


def summary_dict(results: list) -> dict:
    return {
        "criteria": [
            {"id": r.cid, "name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
