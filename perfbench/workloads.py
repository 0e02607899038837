"""The benchmark's three workloads: seeded inputs, timed items and their gates.

A workload is a fixed batch of items drawn from the seed.  Each item is a
``(kind, run, check)`` triple: ``run`` is the timed call into ``sgma`` and
``check`` gates its output against :mod:`oracles` and adds exact counts to
the pass fingerprint.  Inputs are generated with the standard library from
the seed alone; the program only receives them.

- ``rays``: a fan of fold-metric null bicharacteristics (RK4 steps).
- ``sections``: per-node fiber, wind, caustic and classification sweeps on
  the fold and on seeded family members, plus CSV and CLI output.
- ``symbolic``: fresh family members through the exact polynomial builders.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from fractions import Fraction

import numpy as np

import oracles
from sgma import cli, family as fam, ma_core as mc, polyexpr, sg, singular as sing
from sgma import characteristics as ch
from sgma.errors import DomainError
from sgma.ma_core import ChartKind, GeneratingFunction

FOLD_POTENTIAL = "y^2/2 - x^2*Z/2 + Z^3/6"
TVARS = ("x", "y", "Z")

# Library functions are called through their modules, so the traced run's
# wrappers see them.  The lru-cached builders are captured before any
# wrapper is installed, for cache_clear and cache_info.
MA_CORE_CACHES = tuple(getattr(mc, fn) for fn in (
    "hessian_polys", "immersion_polys", "immersion_jacobian_polys",
    "pullback_metric_polys", "ma_residual_poly"))
OTHER_CACHES = (sing.singular_locus_poly,)


def fold_gf() -> GeneratingFunction:
    return GeneratingFunction(ChartKind.DUAL_T, polyexpr.parse_poly(FOLD_POTENTIAL, TVARS),
                              Fraction(1))


SPEC_VALUES = 20  # 4 affine cubic entries, then (slope, intercept) pairs for 6 levels


def _rational(rng: random.Random) -> Fraction:
    while True:
        num = rng.randint(-6, 6)
        if num:
            return Fraction(num, rng.randint(1, 4))


def _spec(values) -> dict:
    v = iter(str(x) for x in values)
    return {
        "t3": {k: f"({next(v)})*Z + ({next(v)})" for k in fam.T3_KEYS},
        "t2_constants": {k: [next(v), next(v)] for k in fam.T2_KEYS},
        "t1_constants": {k: [next(v), next(v)] for k in fam.T1_KEYS},
        "t0_constants": [next(v), next(v)],
    }


def member_spec(rng: random.Random) -> dict:
    """A generic family-spec record: nonzero small rationals everywhere."""
    return _spec(_rational(rng) for _ in range(SPEC_VALUES))


# A generic member whose fibers over the sections box have three real roots
# at every sampled node.  Random members differ in cost by 2x or more (one
# real root or three), so the sections workload perturbs this one instead.
_BASE_RNG = random.Random("base-2")
_SECTIONS_BASE = [_rational(_BASE_RNG) for _ in range(SPEC_VALUES)]


def sections_member_spec(rng: random.Random) -> dict:
    """The base member with every constant moved by at most 3/64."""
    return _spec(b + Fraction(rng.randint(-3, 3), 64) for b in _SECTIONS_BASE)


def _max_abs(values) -> float:
    return max((abs(float(v)) for v in values), default=0.0)


def _as_matrix(m) -> np.ndarray:
    return m.as_array() if hasattr(m, "as_array") else np.asarray(m, dtype=float)


class Workload:
    """Base class: ``__init__`` draws the inputs, ``setup`` prepares the program."""

    name = ""
    # Item kinds run several times in a row in each pass: short items get
    # more samples for their median.
    REPEATS: dict = {}

    def __init__(self, seed: int, scale: float = 1.0):
        self.rng = random.Random(f"{self.name}-{seed}")
        self.scale = scale

    def count(self, n: int) -> int:
        return max(1, round(n * self.scale))

    def setup(self) -> None:
        raise NotImplementedError

    def items(self) -> list:
        raise NotImplementedError

    def before_pass(self) -> None:
        """Untimed reset run before every pass."""

    def cache_stats(self) -> tuple:
        hits = sum(f.cache_info().hits for f in MA_CORE_CACHES)
        misses = sum(f.cache_info().misses for f in MA_CORE_CACHES)
        return hits, misses


# -- rays ---------------------------------------------------------------------


class Rays(Workload):
    """Fold null rays: half forward (oracle-checked), half time-reversed.

    Rays come in blocks of four: two forward and one reversed ray start
    high enough (Z0 >= 0.3, turning point <= Z0/4) to use the whole step
    budget, and one reversed ray starts near the parabolic boundary Z = 0,
    where it ends early through the boundary or divergence guards.  One
    ray in five is a long forward ray.  The fixed mix puts the median in
    the middle of the full-budget rays and p90 in the middle of the long
    ones for every seed, away from the edge of a cluster where timing
    noise would move the quantile.
    """

    name = "rays"
    STEP = 1e-3
    MAX_STEPS = 100
    LONG_STEPS = 250
    BOX = 30.0

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        rng = self.rng
        self.rays = []
        for i in range(self.count(100)):
            kind = i % 4
            C2 = rng.uniform(0.6, 1.2) * rng.choice((-1.0, 1.0))
            if kind in (0, 2):
                Z0, ratio = rng.uniform(0.3, 1.0), rng.uniform(0.2, 0.8)
            elif kind == 1:
                Z0, ratio = rng.uniform(0.6, 1.0), rng.uniform(0.2, 0.5)
            else:
                Z0, ratio = rng.uniform(0.08, 0.25), rng.uniform(0.2, 0.8)
            C1 = ratio * abs(C2) * math.sqrt(Z0) * rng.choice((-1.0, 1.0))
            q0 = (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), Z0)
            reverse = kind in (1, 3)
            steps = self.LONG_STEPS if i % 20 in (0, 2, 4, 6) else self.MAX_STEPS
            self.rays.append((C1, C2, q0, oracles.fold_null_momentum(C1, C2, Z0, reverse),
                              reverse, steps))

    def setup(self):
        self.gf = fold_gf()
        _, _, q0, p0, _, _ = self.rays[0]
        ch.hamiltonian(self.gf, ch.BicharState(q0, p0))  # compiles the metric field

    def items(self):
        return [("ray_reverse" if ray[4] else "ray_forward",
                 self._run(ray), self._check(ray)) for ray in self.rays]

    def _run(self, ray):
        _, _, q0, p0, _, steps = ray
        gf = self.gf

        def run():
            return ch.trace_bicharacteristic(gf, ch.BicharState(q0, p0), step=self.STEP,
                                             max_steps=steps, box=self.BOX)
        return run

    def _check(self, ray):
        C1, C2, q0, _, reverse, _ = ray

        def check(trace, fp):
            fp["rays"] += 1
            fp["steps"] += len(trace.states) - 1
            fp[f"term.{trace.termination.value}"] += 1
            errors = []
            log = trace.conserved_log
            first = log[0]
            for state, entry in zip(trace.states, log):
                if abs(entry["H"]) > 1e-8:
                    errors.append(f"|H| = {entry['H']:.3g} above h_tol")
                if abs(oracles.fold_hamiltonian(state.q, state.p) - entry["H"]) > 1e-12:
                    errors.append("logged H differs from the closed-form H")
                drift = max(abs(entry["xdotZ"] - first["xdotZ"]),
                            abs(entry["ydot"] - first["ydot"]))
                if drift > 1e-12:
                    errors.append(f"conserved-quantity drift {drift:.3g}")
                if not reverse:
                    dx, dy = oracles.fold_displacement(C1, C2, q0[2], state.q[2])
                    err = max(abs(state.q[0] - q0[0] - dx), abs(state.q[1] - q0[1] - dy))
                    if err > 1e-6:
                        errors.append(f"displacement error {err:.3g}")
                if errors:
                    break
            return errors
        return check


# -- sections -----------------------------------------------------------------


class Sections(Workload):
    """Per-node sweeps on the fold example and on seeded family members.

    The family members are seeded perturbations of one base member (see
    ``sections_member_spec``), with few nodes each, so that the p90 node
    is a three-root family wind node for every seed.
    """

    name = "sections"
    REPEATS = {"fold_wind": 4, "fold_caustic": 4, "fold_classify": 4}
    MEMBERS = 32
    WIND_NODES = 2
    CAUSTIC_NODES = 1

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        rng = self.rng
        self.fold_wind = []
        for i in range(self.count(100)):
            x = rng.uniform(-2.0, 2.0)
            fold_z = 0.5 * x * x
            z = (rng.uniform(-2.0, fold_z - 0.05) if i % 10 < 7
                 else rng.uniform(fold_z + 0.05, fold_z + 1.0))
            self.fold_wind.append((x, rng.uniform(-1.0, 1.0), z))
        self.fold_caustic = [(rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0))
                             for _ in range(self.count(40))]
        dz = rng.uniform(0.05, 0.1)
        self.z_axis = np.array([k * dz for k in range(-20, 21)])
        self.y_axis = np.linspace(rng.uniform(-2.0, -1.0), rng.uniform(1.0, 2.0), 41)
        self.slabs = [rng.uniform(-2.0, 2.0) for _ in range(self.count(6))]
        self.specs = [sections_member_spec(rng) for _ in range(self.count(self.MEMBERS))]
        self.member_wind = [[(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                              rng.uniform(-2.0, 1.0)) for _ in range(self.WIND_NODES)]
                            for _ in self.specs]
        self.member_caustic = [[(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                                for _ in range(self.CAUSTIC_NODES)] for _ in self.specs]
        # Section grids shared by the library CSV path and the CLI.
        x_lo = -2.0 + rng.randint(0, 8) / 16
        z_lo = -2.0 + rng.randint(0, 8) / 16
        self.wind_grid = (x_lo, x_lo + 3.5, 5, z_lo, z_lo + 3.0, 5)
        self.caustic_grid = (x_lo, x_lo + 3.5, 9, -1.0, 1.0, 3)

    def setup(self):
        self.gf = fold_gf()
        self.eps = sg.EpsilonChoice.for_gf(self.gf)
        self.members = []
        for spec in self.specs:
            gf = fam.build_family(fam.FamilySpec.from_dict(spec)).gf
            terms = gf.potential.terms
            t_z = oracles.term_diff(terms, 2)
            self.members.append((gf, t_z, oracles.term_diff(t_z, 2)))
        self.expected = {}

    def items(self):
        gf = self.gf
        out = [("csv_wind", self._csv_wind, self._check_csv_wind),
               ("csv_caustic", self._csv_caustic, self._check_csv_caustic),
               ("cli_wind", self._cli_wind, self._check_cli("wind")),
               ("cli_caustic", self._cli_caustic, self._check_cli("caustic"))]
        out += [("fold_classify", self._classify(x), self._check_classify)
                for x in self.slabs]
        out += [("fold_caustic", self._caustic(gf, x, y), self._check_fold_caustic(x, y))
                for x, y in self.fold_caustic]
        out += [("fold_wind", self._wind(gf, base), self._check_fold_wind(base))
                for base in self.fold_wind]
        for (mgf, t_z, t_zz), winds, caustics in zip(self.members, self.member_wind,
                                                     self.member_caustic):
            out += [("member_wind", self._wind(mgf, base),
                     self._check_member_wind(mgf, t_z, base)) for base in winds]
            out += [("member_caustic", self._caustic(mgf, x, y),
                     self._check_member_caustic(t_z, t_zz, x, y)) for x, y in caustics]
        return out

    # runs

    @staticmethod
    def _wind(gf, base):
        def run():
            try:
                return sg.reconstructed_state(gf, base)
            except DomainError:
                return None
        return run

    @staticmethod
    def _caustic(gf, x, y):
        return lambda: sing.caustic_sweep(gf, sing.GridSpec2D("x", x, x, 1, "y", y, y, 1))

    def _classify(self, x):
        axes = {"x": np.array([x]), "y": self.y_axis, "Z": self.z_axis}
        return lambda: mc.classification_grid(self.gf, axes)

    def _csv_wind(self):
        x_lo, x_hi, nx, z_lo, z_hi, nz = self.wind_grid
        grid = sg.PlaneGridSpec(x_lo=x_lo, x_hi=x_hi, nx=nx, z_lo=z_lo, z_hi=z_hi, nz=nz)
        buf = io.StringIO()
        sg.write_wind_csv(sg.wind_field_sweep(self.gf, "convex", grid, self.eps), buf)
        return buf.getvalue()

    def _csv_caustic(self):
        x_lo, x_hi, nx, y_lo, y_hi, ny = self.caustic_grid
        grid = sing.GridSpec2D("x", x_lo, x_hi, nx, "y", y_lo, y_hi, ny)
        buf = io.StringIO()
        sing.write_caustic_csv(sing.caustic_sweep(self.gf, grid), buf)
        return buf.getvalue()

    def _cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def _cli_wind(self):
        x_lo, x_hi, nx, z_lo, z_hi, nz = self.wind_grid
        return self._cli(["wind", "--chart", "T", "--potential", FOLD_POTENTIAL,
                          f"--x={x_lo!r}:{x_hi!r}:{nx}", f"--z={z_lo!r}:{z_hi!r}:{nz}"])

    def _cli_caustic(self):
        x_lo, x_hi, nx, y_lo, y_hi, ny = self.caustic_grid
        return self._cli(["caustic", "--chart", "T", "--potential", FOLD_POTENTIAL,
                          f"--grid=x={x_lo!r}:{x_hi!r}:{nx},y={y_lo!r}:{y_hi!r}:{ny}"])

    # gates

    def _check_fold_wind(self, base):
        x, _, z = base

        def check(state, fp):
            fp["fold_wind"] += 1
            inside = oracles.fold_in_domain(x, z)
            if state is None:
                return ["in-domain fold node reported outside"] if inside else []
            fp["fold_wind.in_domain"] += 1
            if not inside:
                return ["out-of-domain fold node reconstructed"]
            errors = []
            if max(abs(state.u), abs(state.w)) > 1e-12:
                errors.append(f"|u|, |w| = {state.u:.3g}, {state.w:.3g}")
            v_err = abs(state.v - oracles.fold_meridional_wind(x, z, float(self.eps.q_g)))
            if v_err > 1e-10:
                errors.append(f"v error {v_err:.3g}")
            return errors
        return check

    @staticmethod
    def _check_fold_caustic(x, y):
        def check(sweep, fp):
            fp["fold_caustic.samples"] += len(sweep.samples)
            fp["fold_caustic.rejected"] += sweep.rejected
            if sweep.rejected or len(sweep.samples) != 1:
                return [f"{len(sweep.samples)} samples, {sweep.rejected} rejected"]
            bx, by, bz = sweep.samples[0].base_point
            if (bx, by) != (x, y) or abs(bz - 0.5 * x * x) > 1e-12:
                return [f"caustic point {sweep.samples[0].base_point} off z = x^2/2"]
            return []
        return check

    def _check_classify(self, result, fp):
        _, labels = result
        errors = []
        for k, Z in enumerate(self.z_axis):
            want = oracles.fold_label(float(Z))
            got = {lab.value for lab in labels[0, :, k]}
            fp[f"classify.{want}"] += labels.shape[1]
            if got != {want}:
                errors.append(f"labels {sorted(got)} at Z = {Z}, expected {want}")
        return errors

    def _check_member_wind(self, gf, t_z, base):
        def check(state, fp):
            fp["member_wind"] += 1
            if state is None:
                return []
            fp["member_wind.in_domain"] += 1
            value, scale = oracles.term_eval(t_z, state.chart_point)
            errors = []
            if abs(base[2] + value) > 1e-10 * max(1.0, scale, abs(base[2])):
                errors.append(f"fiber residual {base[2] + value:.3g}")
            rows, rhs = sg.velocity_system(gf, state)
            uvw = np.array([state.u, state.v, state.w])
            res = float(np.max(np.abs(rows @ uvw - rhs)))
            if res > 1e-10 * max(1.0, float(np.max(np.abs(rows))) * _max_abs(uvw)):
                errors.append(f"velocity-system residual {res:.3g}")
            return errors
        return check

    @staticmethod
    def _check_member_caustic(t_z, t_zz, x, y):
        def check(sweep, fp):
            fp["member_caustic.samples"] += len(sweep.samples)
            fp["member_caustic.rejected"] += sweep.rejected
            errors = []
            for s in sweep.samples:
                det, scale = oracles.term_eval(t_zz, s.chart_point)
                z, z_scale = oracles.term_eval(t_z, s.chart_point)
                if s.chart_point[:2] != (x, y) or abs(det) > 1e-9 * max(1.0, scale):
                    errors.append(f"caustic chart point {s.chart_point} off T_ZZ = 0")
                if abs(s.base_point[2] + z) > 1e-9 * max(1.0, z_scale):
                    errors.append(f"caustic base z {s.base_point[2]} != -T_Z")
            return errors
        return check

    def _check_csv_wind(self, text, fp):
        self.expected["wind"] = text
        fp["csv.wind.bytes"] += len(text)
        errors = []
        for line in text.splitlines()[1:]:
            cells = line.split(",")
            x, z, flag = float(cells[0]), float(cells[2]), cells[3]
            if flag != ("1" if oracles.fold_in_domain(x, z) else "0"):
                errors.append(f"wind CSV domain flag {flag} at x={x}, z={z}")
            elif flag == "1":
                u, v, w = (float(c) for c in cells[10:13])
                v_err = abs(v - oracles.fold_meridional_wind(x, z, float(self.eps.q_g)))
                if max(abs(u), abs(w)) > 1e-12 or v_err > 1e-10:
                    errors.append(f"wind CSV row off the closed form: {line}")
        return errors

    def _check_csv_caustic(self, text, fp):
        self.expected["caustic"] = text
        fp["csv.caustic.bytes"] += len(text)
        errors = []
        for line in text.splitlines()[1:]:
            bx, _, bz = (float(c) for c in line.split(",")[3:6])
            if abs(bz - 0.5 * bx * bx) > 1e-12:
                errors.append(f"caustic CSV row off z = x^2/2: {line}")
        return errors

    def _check_cli(self, what):
        def check(result, fp):
            code, text = result
            fp[f"cli.{what}.bytes"] += len(text)
            if code != 0:
                return [f"sgma {what} exited {code}"]
            if text != self.expected.get(what):
                return [f"sgma {what} output differs from the library CSV"]
            return []
        return check


# -- symbolic -----------------------------------------------------------------


class Symbolic(Workload):
    """Fresh family members through the exact builders; caches cleared per pass.

    Every member's just-built polynomials are evaluated at POINTS float
    points, and one member in five gets a dense check at DENSE_POINTS.
    The dense members set p90, in the middle of their own cluster, and
    show the cold-evaluation side of the evaluator trade-off: compiling a
    polynomial pays off only when it is evaluated many times.
    """

    name = "symbolic"
    POINTS = 20
    DENSE_POINTS = 120

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        rng = self.rng
        self.specs = [member_spec(rng) for _ in range(self.count(100))]
        self.points = [[tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
                        for _ in range(self.DENSE_POINTS if i % 5 == 0 else self.POINTS)]
                       for i in range(len(self.specs))]

    def setup(self):
        fam.derive_recursions()

    def before_pass(self):
        for f in MA_CORE_CACHES + OTHER_CACHES:
            f.cache_clear()

    def items(self):
        return [("member", self._run(spec, pts), self._check)
                for spec, pts in zip(self.specs, self.points)]

    @staticmethod
    def _run(spec, points):
        def run():
            sol = fam.build_family(fam.FamilySpec.from_dict(spec))
            gf = sol.gf
            residual = mc.ma_residual_poly(gf)
            metric = mc.pullback_metric_polys(gf)
            locus = sing.singular_locus_poly(gf)
            parsed = polyexpr.parse_poly(str(gf.potential), gf.chart.coords)
            pairs = [(mc.pullback_metric(gf, pt), mc.linearization_matrix(gf, pt))
                     for pt in points]
            return sol, residual, metric, locus, parsed, pairs
        return run

    @staticmethod
    def _check(result, fp):
        sol, residual, metric, locus, parsed, pairs = result
        terms = sol.gf.potential.terms
        fp["members"] += 1
        fp["degrees." + "-".join(str(d) for d in sol.degrees)] += 1
        fp["terms.potential"] += len(terms)
        fp["terms.metric"] += sum(len(e.terms) for row in metric for e in row)
        fp["terms.locus"] += len(locus.terms)
        errors = []
        if not residual.is_zero or oracles.dual_t_residual(terms):
            errors.append("balance residual is not the zero polynomial")
        tzz = oracles.term_diff(oracles.term_diff(terms, 2), 2)
        if locus.terms != oracles.term_scale(tzz, -1):
            errors.append("singular locus differs from -T_ZZ")
        if parsed != sol.gf.potential or parsed.terms != terms:
            errors.append("parse(str(potential)) round trip changed the potential")
        for h, a in pairs:
            h = _as_matrix(h)
            dev = float(np.max(np.abs(h - 2.0 * np.array(oracles.adjugate3(_as_matrix(a))))))
            if dev > 1e-10 * max(1.0, float(np.max(np.abs(h)))):
                errors.append(f"h - 2 adj(A) relative deviation {dev:.3g}")
                break
        return errors


WORKLOADS = {cls.name: cls for cls in (Rays, Sections, Symbolic)}
