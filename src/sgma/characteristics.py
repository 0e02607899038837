"""Characteristic variety, eikonal residuals, and bicharacteristic tracing.

On hyperbolic branches the pull-back metric has null directions; surfaces
tangent to exactly one null direction are the characteristic surfaces,
and they are foliated by the integral curves of the Hamiltonian
H(q, p) = p^T h(q)^{-1} p restricted to its zero level.  This module
integrates those curves with fixed-step classical RK4, monitors the
conserved quantities available for metrics with a cyclic horizontal
structure, and provides the closed-form null-geodesic displacements of
the canonical fold metric 2(-Z dx^2 + dy^2 - Z dZ^2) as an independent
oracle, including the semicubical cusp law at the parabolic boundary.

For speed, each generating function's metric is compiled once (and kept in
a bounded cache) into two generated straight-line Python functions: one
evaluates Hamilton's right-hand side for an RK4 stage, the other the
determinant, scale, invariants and H of a state together with that
right-hand side, which is the state's velocity and the next step's first
RK4 stage k1.  Every evaluated state goes through the second, so a step
calls the first three times, not four.  Each entry of h and of its
derivatives is evaluated as ``Poly.eval`` evaluates it, whatever the order
of its terms, and the textbook sums over the entries in order, except that
products with a structurally zero factor (a zero entry of h, of its
derivatives, or of its adjugate) are left out of the sums that start from
the int 0, where adding such a +-0.0 changes nothing for finite operands,
and the scale max(1, max|h_ij|) reads h00 and then each distinct nonzero
entry once.  So equal generating functions trace to equal bits.  A metric
that leaves the float range (an overflowing power, or a non-finite det h)
is a DomainError at a single point and ends a trace as diverged.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from . import codegen
from .errors import DomainError, MetricSingularError
from .formatting import write_csv
from .ma_core import CACHE_SIZE, GeneratingFunction, _floats, _point_values, \
    pullback_metric_polys
from .polyexpr import Poly, PolyVector

# Fixed thresholds of the metric and trace decisions.
SINGULAR_TOL = 1e-12  # h is singular where |det h| <= SINGULAR_TOL * max(1, max |h_ij|)^3
H_TOL = 1e-8  # a trace accepts only candidate states with |H| <= H_TOL


@dataclass(frozen=True)
class BicharState:
    """Phase-space point over a chart: position q, conjugate momentum p."""

    q: tuple
    p: tuple
    s: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(_floats(tuple(self.q), "position")))
        object.__setattr__(self, "p", tuple(_floats(tuple(self.p), "momentum")))
        if len(self.q) != 3 or len(self.p) != 3:
            raise ValueError("q and p must each have 3 components")


def _trusted_state(q, p, s) -> BicharState:
    # A state the integrator built from float 3-tuples: nothing to coerce or
    # check, so __post_init__ is skipped.
    state = object.__new__(BicharState)
    fields = state.__dict__
    fields["q"], fields["p"], fields["s"] = q, p, s
    return state


class Termination(str, enum.Enum):
    MAX_STEPS = "max_steps"
    PARABOLIC_BOUNDARY = "parabolic_boundary"
    DOMAIN_EXIT = "domain_exit"
    DIVERGED = "diverged"


@dataclass
class Trace:
    states: list
    termination: Termination
    conserved_log: list = field(default_factory=list)


def _singular(det: float) -> MetricSingularError:
    return MetricSingularError(f"metric is singular within tolerance (det = {det:g})")


# -- generated kernels ----------------------------------------------------------
#
# The metric entries are evaluated millions of times inside RK4 stages, where
# generic Poly.eval dispatch and per-entry calls dominate.  Each metric field
# therefore compiles straight-line functions from its exact entries.  They
# evaluate each distinct entry by codegen's Horner form, as Poly.eval does
# (its coefficients are globals), then the textbook 3x3 determinant, adjugate
# inverse and sums.  Every sum starts from the int 0, as sum() does, so a lone
# -0.0 becomes 0.0; products keep a fixed order.  The entries of h and their
# powers come before det; those of d_k h after the singular test of ``rhs``
# and the det == 0 return of ``state_rhs``.
#
# Structural zeros are dropped: the zero entries of h and of its
# derivatives, and every adjugate entry a_ij whose two cofactor products
# each have a zero entry of h as a factor.  A product with such a factor is
# +-0.0 for finite operands, and a sum that starts from the int 0 is never
# -0.0, so adding +-0.0 leaves it unchanged; the products are left out of
# the sums w = h^{-1} p, pdot and H, and the dropped a_ij and derivative
# entries are never computed.  The scale s = max(1.0, max(|h00|, ...)) reads
# h00 and then each other entry whose source is neither zero nor an alias:
# max() keeps NaN only in first place, and a repeated or +0.0 operand never
# beats a value already taken, so s keeps its bits.  The determinant,
# invariants and singular test keep their full templates, since the sign of
# a zero matters there.

def _sum_source(products, zero: set) -> str:
    # products: tuples of factor names, multiplied left to right.
    kept = [" * ".join(f) for f in products if zero.isdisjoint(f)]
    return " + ".join(["0", *kept]) if kept else "0.0"


def _names(prefix: str) -> list:
    return [[f"{prefix}{i}{j}" for j in range(3)] for i in range(3)]


def _quadform_source(m, v, zero: set) -> str:
    return _sum_source([(v[i], m[i][j], v[j]) for i in range(3) for j in range(3)], zero)


def _matvec_source(m, v, i: int, zero: set) -> str:
    return _sum_source([(m[i][j], v[j]) for j in range(3)], zero)


_H, _A = _names("h"), _names("a")  # the metric and its inverse
_D = tuple(_names(f"d{k}") for k in range(3))  # its derivatives d_k h
_P, _W = ("p0", "p1", "p2"), ("w0", "w1", "w2")  # momentum and w = h^{-1} p
_COFACTORS = (
    ("h11 * h22 - h12 * h21", "h02 * h21 - h01 * h22", "h01 * h12 - h02 * h11"),
    ("h12 * h20 - h10 * h22", "h00 * h22 - h02 * h20", "h02 * h10 - h00 * h12"),
    ("h10 * h21 - h11 * h20", "h01 * h20 - h00 * h21", "h00 * h11 - h01 * h10"),
)
_DET = ("det = h00 * (h11 * h22 - h12 * h21) - h01 * (h10 * h22 - h12 * h20)"
        " + h02 * (h10 * h21 - h11 * h20)")
_INVARIANTS = (
    "i1 = h00 + h11 + h22",
    "i2 = h00 * h11 - h01 * h10 + h00 * h22 - h02 * h20 + h11 * h22 - h12 * h21",
)


def _zero_names(names, polys) -> set:
    return {names[i][j] for i in range(3) for j in range(3) if polys[i][j].is_zero}


def _zero_inverse(zero_h: set) -> set:
    return {_A[i][j] for i in range(3) for j in range(3)
            if all(not zero_h.isdisjoint(product.split(" * "))
                   for product in _COFACTORS[i][j].split(" - "))}


def _entry_lines(horner, names, polys, known: dict, skip=frozenset()) -> list:
    # Equal entries (h_ij and h_ji, the zero entries) are computed once and
    # aliased; entries named in ``skip`` are not computed.  Returns the lines
    # this adds to horner.lines, each entry after the powers it first uses.
    start = len(horner.lines)
    for i in range(3):
        for j in range(3):
            name, poly = names[i][j], polys[i][j]
            if name in skip:
                continue
            alias = known.setdefault(poly, name)
            if alias == name:
                alias = horner.float_value(poly._terms, poly._den, 3)
            horner.lines.append(f"{name} = {alias}")
    return horner.lines[start:]


def _scale_source(scaled) -> str:
    # s = max(1, max |h_ij|) over the names in ``scaled``, h00 first.
    if len(scaled) == 1:
        return f"s = max(1.0, abs({scaled[0]}))"
    return "s = max(1.0, max({}))".format(", ".join(f"abs({n})" for n in scaled))


def _compile_kernels(entries, d_entries):
    """Generate ``rhs`` and ``state_rhs`` for the metric with these exact entries.

    ``rhs(q0, q1, q2, p0, p1, p2)`` returns Hamilton's right-hand side
    (qdot0, qdot1, qdot2, pdot0, pdot1, pdot2), with qdot = 2w, w = h^{-1} p
    and pdot_k = w^T (d_k h) w; it raises MetricSingularError when h is
    singular (see ``SINGULAR_TOL``).  A NaN det passes that test, and the
    result is then NaN.

    ``state_rhs(q0, q1, q2, p0, p1, p2)`` returns what an evaluated state
    needs: (det, s, i1, i2, H, k1), where s = max(1, max|h_ij|), i1 and i2
    are the trace and second invariant of h, and k1 is the 6-tuple ``rhs``
    would return, so the state's velocity is k1[:3] and the next RK4 step
    reuses k1.  H and k1 are None when det is exactly 0.  It makes no
    singular test, so that callers run their own guards first (see
    ``_check_regular``).
    """
    zero_h = _zero_names(_H, entries)
    zero = zero_h | _zero_inverse(zero_h)
    for k in range(3):
        zero |= _zero_names(_D[k], d_entries[k])
    horner, known = codegen._Horner(), {}
    h_lines = _entry_lines(horner, _H, entries, known)
    # h00 comes first; of the other entries, those with their own nonzero value.
    scaled = [n for n in known.values() if n == "h00" or n not in zero_h]
    head = [*h_lines, _DET, _scale_source(scaled)]
    dh_lines = [line for k in range(3)
                for line in _entry_lines(horner, _D[k], d_entries[k], known, zero)]
    inverse = [f"{_A[i][j]} = ({_COFACTORS[i][j]}) / det"
               for i in range(3) for j in range(3) if _A[i][j] not in zero]
    w_lines = [f"{_W[i]} = {_matvec_source(_A, _P, i, zero)}" for i in range(3)]
    k1 = ", ".join([f"2.0 * {w}" for w in _W] + [_quadform_source(d, _W, zero) for d in _D])
    rhs = codegen.function_source("rhs(q0, q1, q2, p0, p1, p2)", [
        *head,
        f"if abs(det) <= {SINGULAR_TOL!r} * s ** 3:",
        "    raise _singular(det)",
        *inverse, *w_lines, *dh_lines,
        f"return ({k1})",
    ])
    state_rhs = codegen.function_source("state_rhs(q0, q1, q2, p0, p1, p2)", [
        *head, *_INVARIANTS,
        "if det == 0:",
        "    return det, s, i1, i2, None, None",
        *inverse, *w_lines, *dh_lines,
        f"return det, s, i1, i2, {_quadform_source(_A, _P, zero)}, ({k1})",
    ])
    namespace = {f"c{k}": c for k, c in enumerate(horner.coefficients)}
    namespace["_singular"] = _singular
    return codegen.compile_functions(rhs + state_rhs, "<sgma metric kernels>",
                                     ("rhs", "state_rhs"), namespace)


class _MetricField:
    """The pull-back metric of one generating function, compiled for RK4.

    Holds the two kernels generated from the exact entries of h and their
    exact derivatives (see ``_compile_kernels``): ``rhs`` for RK4 stages and
    ``state_rhs`` for every evaluated state, single points and a trace's
    states alike, whose k1 the next step reuses.  ``cyclic`` tells whether h
    has the cyclic diagonal structure of the canonical fold metric, whose
    conserved quantities the trace log then records.
    """

    def __init__(self, gf: GeneratingFunction):
        entries = pullback_metric_polys(gf)
        cs = gf.chart.coords
        d_entries = tuple(
            tuple(tuple(entries[i][j].diff(v) for j in range(3)) for i in range(3))
            for v in cs
        )
        self.rhs, self.state_rhs = _compile_kernels(entries, d_entries)
        self.cyclic = self._detect_cyclic(entries, cs)

    @staticmethod
    def _detect_cyclic(entries, cs) -> bool:
        # Diagonal metric depending only on the third coordinate, with
        # h_11 proportional to that coordinate and h_22 a nonzero constant:
        # then p1, p2 are conserved and so are qdot1 * q3 and qdot2.
        third = cs[2]
        for i in range(3):
            for j in range(3):
                if i != j and not entries[i][j].is_zero:
                    return False
                if i == j:
                    try:
                        entries[i][j].univariate_coefficients(third)
                    except ValueError:
                        return False
        c11 = entries[0][0].univariate_coefficients(third)
        c22 = entries[1][1].univariate_coefficients(third)
        return (
            len(c11) == 2 and c11[0] == 0 and c11[1] != 0
            and len(c22) == 1 and c22[0] != 0
        )


@lru_cache(maxsize=CACHE_SIZE)
def _metric_field(gf: GeneratingFunction) -> _MetricField:
    return _MetricField(gf)


def _check_regular(det, s, H) -> None:
    # The singular test of SINGULAR_TOL.  An exactly singular h (no H)
    # counts as singular under any tolerance.  Where h leaves the float
    # range, OverflowError: det is not finite (every h_ij is a factor of
    # it), or s ** 3 overflows (max |h_ij| > ~5.6e102).
    if not math.isfinite(det):
        raise OverflowError("the metric is not finite")
    if abs(det) <= SINGULAR_TOL * s ** 3 or H is None:
        raise _singular(det)


def _overflow(q, p) -> DomainError:
    return DomainError(
        f"metric evaluation overflows or is not finite at q = {tuple(q)}, p = {tuple(p)}")


def _evaluate_state(field_: _MetricField, q, p) -> tuple:
    # (det, s, i1, i2, H, k1) at a regular state with a finite H (a finite
    # metric can still meet a momentum too large for H); the velocity is k1[:3].
    try:
        out = field_.state_rhs(*q, *p)
        det, s, _, _, H, _ = out
        _check_regular(det, s, H)
    except OverflowError:
        raise _overflow(q, p) from None
    if not math.isfinite(H):
        raise DomainError(f"H is not finite at q = {tuple(q)}, p = {tuple(p)}")
    return out


def hamiltonian(gf: GeneratingFunction, state: BicharState) -> float:
    """H(q, p) = p^T h(q)^{-1} p; raises MetricSingularError at parabolic points."""
    return _evaluate_state(_metric_field(gf), state.q, state.p)[4]


def _inverse_metric(field_: _MetricField, q) -> list:
    # Column j of h^{-1} is half of qdot = 2 h^{-1} p at the unit momentum e_j.
    cols = []
    for e in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
        try:
            _, _, _, _, _, k1 = _evaluate_state(field_, q, e)
        except MetricSingularError:
            raise
        except DomainError:  # e_j is no momentum of the caller's: name q only
            raise DomainError(f"metric evaluation overflows or is not finite at q = "
                              f"{tuple(q)}") from None
        cols.append([0.5 * v for v in k1[:3]])
    return [[cols[j][i] for j in range(3)] for i in range(3)]


def null_project(gf: GeneratingFunction, q, p_partial, free_index: int) -> list:
    """Complete two fixed momentum components to the null cone H = 0.

    Returns the 0, 1 or 2 real completions (ascending in the free
    component).  An empty list at an elliptic point reflects that the
    characteristic variety there is only the zero vector.
    """
    if free_index not in (0, 1, 2):
        raise ValueError("free_index must be 0, 1 or 2")
    p_partial = _floats(p_partial, "momentum")
    if len(p_partial) != 2:
        raise ValueError("p_partial must supply the two fixed components")
    q = tuple(_floats(_point_values(gf, q), "chart point"))
    hinv = _inverse_metric(_metric_field(gf), q)
    fixed = [i for i in range(3) if i != free_index]
    p0 = [0.0, 0.0, 0.0]
    for i, v in zip(fixed, p_partial):
        p0[i] = v
    a = hinv[free_index][free_index]
    b = 2.0 * sum(hinv[free_index][j] * p0[j] for j in fixed)
    c = sum(p0[i] * hinv[i][j] * p0[j] for i in fixed for j in fixed)

    def completed(value: float) -> tuple:
        p = list(p0)
        p[free_index] = value
        return tuple(p)

    if abs(a) <= 1e-15 * max(1.0, max(abs(v) for row in hinv for v in row)):
        if abs(b) <= 1e-15:
            values = [0.0] if abs(c) <= 1e-15 else []
        else:
            values = [-c / b]
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            values = []
        elif disc == 0.0:
            values = [-b / (2.0 * a)]
        else:
            r = math.sqrt(disc)
            values = sorted(((-b - r) / (2.0 * a), (-b + r) / (2.0 * a)))
    if not all(map(math.isfinite, values)):
        raise DomainError(f"null completion is not finite at q = {q}, "
                          f"p_partial = {tuple(p_partial)}")
    return [completed(v) for v in values]


def ham_rhs(gf: GeneratingFunction, state: BicharState):
    """Hamilton's equations: qdot = 2 h^{-1} p, pdot_k = w^T (d_k h) w, w = h^{-1} p.

    The momentum law uses d_k(h^{-1}) = -h^{-1} (d_k h) h^{-1}, with the
    metric's entry gradients taken from exact polynomial derivatives.  The
    state is evaluated as by ``hamiltonian``, and a result that leaves the
    float range is a DomainError too.
    """
    k1 = _evaluate_state(_metric_field(gf), state.q, state.p)[5]
    if not all(map(math.isfinite, k1)):
        raise _overflow(state.q, state.p)
    return k1[:3], k1[3:]


def _rk4_step(rhs, q, p, k1, step):
    # k1 = rhs(q, p), which the evaluation of the accepted state supplies.
    q0, q1, q2 = q
    p0, p1, p2 = p
    half = 0.5 * step
    k1q0, k1q1, k1q2, k1p0, k1p1, k1p2 = k1
    k2q0, k2q1, k2q2, k2p0, k2p1, k2p2 = rhs(
        q0 + half * k1q0, q1 + half * k1q1, q2 + half * k1q2,
        p0 + half * k1p0, p1 + half * k1p1, p2 + half * k1p2)
    k3q0, k3q1, k3q2, k3p0, k3p1, k3p2 = rhs(
        q0 + half * k2q0, q1 + half * k2q1, q2 + half * k2q2,
        p0 + half * k2p0, p1 + half * k2p1, p2 + half * k2p2)
    k4q0, k4q1, k4q2, k4p0, k4p1, k4p2 = rhs(
        q0 + step * k3q0, q1 + step * k3q1, q2 + step * k3q2,
        p0 + step * k3p0, p1 + step * k3p1, p2 + step * k3p2)
    sixth = step / 6.0
    return (
        (q0 + sixth * (k1q0 + 2 * k2q0 + 2 * k3q0 + k4q0),
         q1 + sixth * (k1q1 + 2 * k2q1 + 2 * k3q1 + k4q1),
         q2 + sixth * (k1q2 + 2 * k2q2 + 2 * k3q2 + k4q2)),
        (p0 + sixth * (k1p0 + 2 * k2p0 + 2 * k3p0 + k4p0),
         p1 + sixth * (k1p1 + 2 * k2p1 + 2 * k3p1 + k4p1),
         p2 + sixth * (k1p2 + 2 * k2p2 + 2 * k3p2 + k4p2)),
    )


def _sign_counts(i1, i2, i3, s):
    # Eigenvalue sign counts of a symmetric 3x3 from its trace i1, second
    # invariant i2, determinant i3 and largest entry s, via Descartes' rule
    # (exact for real-rooted cubics): the sign variations of the coefficients
    # (1, -i1, i2, -i3) count positive roots, those of (1, i1, i2, i3)
    # negative ones.  Used only to detect signature changes across a step,
    # so an invariant below SINGULAR_TOL s^k is simply skipped.
    t1 = SINGULAR_TOL * s
    t2 = t1 * s
    t3 = t2 * s
    n_pos = n_neg = 0
    prev_k, prev_up = 0, True  # the leading coefficient 1
    for k, v, t in ((1, i1, t1), (2, i2, t2), (3, i3, t3)):
        if abs(v) > t:
            up = v > 0
            n_neg += up != prev_up
            # (-1)^k flips one sign of the pair when k - prev_k is odd.
            n_pos += (up != prev_up) != ((k - prev_k) % 2 == 1)
            prev_k, prev_up = k, up
    return n_pos, n_neg


def _log_entry(cyclic: bool, q, H, det, k1) -> dict:
    entry = {"H": H, "det_h": det}
    if cyclic:
        entry["xdotZ"] = k1[0] * q[2]
        entry["ydot"] = k1[1]
    return entry


def trace_bicharacteristic(gf: GeneratingFunction, initial: BicharState,
                           step: float = 1e-3, max_steps: int = 1000,
                           stop_tol: float | None = None, box: float = 10.0) -> Trace:
    """Integrate a bicharacteristic with fixed-step classical RK4.

    ``step``, ``box`` and ``stop_tol`` must be finite (ValueError otherwise).
    The initial condition must be finite and lie on the null cone
    (|H| <= 1e-10); DomainError otherwise.  The trace stops when |det h|
    falls below ``stop_tol`` (default: 1e-6 times its initial value) at the
    parabolic boundary, when a coordinate leaves the [-box, box] cube, when
    values stop being finite, or when the step budget is exhausted.  Two
    further guards keep accepted states honest near the singular locus,
    where the right-hand side stiffens and a fixed step loses validity: a
    change of metric signature between consecutive steps counts as a
    boundary hit (type transitions only occur through the locus, and a fixed
    step can jump straight across the thin determinant band), and a
    candidate whose |H| exceeds ``H_TOL`` is rejected, ending the trace where
    the null constraint can no longer be held (labeled as the boundary when
    the determinant has already collapsed below half its initial size, as
    divergence otherwise).  Every accepted state therefore satisfies
    |H| <= H_TOL.  Each accepted state logs H and det h, plus the conserved
    quantities qdot1*q3 and qdot2 when the metric has the cyclic diagonal
    structure of the canonical fold metric.
    """
    if not (step > 0 and math.isfinite(step)) or max_steps < 0:
        raise ValueError("step must be positive and finite, max_steps non-negative")
    if not math.isfinite(box) or (stop_tol is not None and not math.isfinite(stop_tol)):
        raise ValueError("box and stop_tol must be finite")
    q, p, s = initial.q, initial.p, initial.s
    field_ = _metric_field(gf)
    rhs, cyclic = field_.rhs, field_.cyclic
    det0, scale, i1, i2, H0, k1 = _evaluate_state(field_, q, p)
    if abs(H0) > 1e-10:
        raise DomainError(f"initial condition is not null: H = {H0:g}")
    if stop_tol is None:
        stop_tol = 1e-6 * abs(det0)
    counts0 = _sign_counts(i1, i2, det0, scale)
    states = [initial]
    log = [_log_entry(cyclic, q, H0, det0, k1)]
    termination = Termination.MAX_STEPS
    for _ in range(max_steps):
        try:
            qn, pn = _rk4_step(rhs, q, p, k1, step)
        except MetricSingularError:
            termination = Termination.PARABOLIC_BOUNDARY
            break
        except OverflowError:
            termination = Termination.DIVERGED
            break
        if not all(map(math.isfinite, qn + pn)):
            termination = Termination.DIVERGED
            break
        if any(abs(v) > box for v in qn):
            termination = Termination.DOMAIN_EXIT
            break
        try:
            det, scale, i1, i2, H, k1n = field_.state_rhs(*qn, *pn)
            # A non-finite det is a float-range failure, not a boundary.
            if math.isfinite(det) and (abs(det) < stop_tol
                                       or _sign_counts(i1, i2, det, scale) != counts0):
                termination = Termination.PARABOLIC_BOUNDARY
                break
            _check_regular(det, scale, H)
        except OverflowError:
            termination = Termination.DIVERGED
            break
        if abs(H) > H_TOL:
            termination = (Termination.PARABOLIC_BOUNDARY
                           if abs(det) < 0.5 * abs(det0)
                           else Termination.DIVERGED)
            break
        q, p, s, k1 = qn, pn, s + step, k1n
        states.append(_trusted_state(q, p, s))
        log.append(_log_entry(cyclic, q, H, det, k1))
    return Trace(states=states, termination=termination, conserved_log=log)


def eikonal_residual_grad(gf: GeneratingFunction, pt, grad) -> float:
    """Residual (grad F)^T h^{-1} (grad F) = H(pt, grad F) for a numerical gradient."""
    return _eikonal(gf, _floats(_point_values(gf, pt), "chart point"), grad)


def _eikonal(gf: GeneratingFunction, q: list, grad) -> float:
    # H(q, grad) at a chart point already read as finite floats.
    g = _floats(grad, "gradient")
    if len(g) != 3:
        raise ValueError("gradient must have 3 components")
    return _evaluate_state(_metric_field(gf), q, g)[4]


def eikonal_residual(gf: GeneratingFunction, F: Poly, pt) -> float:
    """Residual of the eikonal equation h^{-1}(dF, dF) = 0 for a polynomial F.

    The gradient is taken exactly and evaluated at the chart point; zero
    residual on an open set means the level sets of F are characteristic.
    """
    if F.variables != gf.chart.coords:
        raise ValueError(
            f"F must be a polynomial over {gf.chart.coords!r}, got {F.variables!r}"
        )
    values = _point_values(gf, pt)
    q = _floats(values, "chart point")  # before the gradient, which keeps exact input exact
    return _eikonal(gf, q, PolyVector(F.diff(v) for v in gf.chart.coords).eval(values))


def _sqrt_exact_or_float(value):
    # Keeps Fractions exact when the radicand (checked >= 0 by the caller) is a rational square.
    if isinstance(value, (int, Fraction)):
        n, d = value.as_integer_ratio()
        rn, rd = isqrt(n), isqrt(d)
        if rn * rn == n and rd * rd == d:
            return Fraction(rn, rd)
    return math.sqrt(value)


def analytic_null_geodesic(C1, C2, Z0, Z):
    """Closed-form arc parameter and displacements of the fold-metric null rays.

    For the metric 2(-Z dx^2 + dy^2 - Z dZ^2) with conserved quantities
    xdot*Z = C1 and ydot = C2, the branch with Z increasing along the curve
    satisfies

        s  = g(Z) - g(Z0),   g(Z) = 2*sqrt(C2^2 Z - C1^2)(2 C1^2 + C2^2 Z)/(3 C2^4)
        dx = (2 C1 / C2^2) * (sqrt(C2^2 Z - C1^2) - sqrt(C2^2 Z0 - C1^2))
        dy = C2 * s

    The mirrored branch is (-s, -dx, -dy).  With C1 = 0 and Z0 = 0 this
    specializes to the semicubical cusp law (dy)^2 = (4/9) Z^3.  Results
    stay exact Fractions when the inputs are rational and the square roots
    are rational.
    """
    if C2 == 0:
        raise DomainError("C2 must be nonzero")
    r = C2 * C2 * Z - C1 * C1
    r0 = C2 * C2 * Z0 - C1 * C1
    if r < 0 or r0 < 0:
        raise DomainError("need C2^2*Z >= C1^2 at both endpoints")
    sq = _sqrt_exact_or_float(r)
    sq0 = _sqrt_exact_or_float(r0)
    c2sq = C2 * C2
    g = 2 * sq * (2 * C1 * C1 + c2sq * Z) / (3 * c2sq * c2sq)
    g0 = 2 * sq0 * (2 * C1 * C1 + c2sq * Z0) / (3 * c2sq * c2sq)
    s = g - g0
    dx = 2 * C1 * (sq - sq0) / c2sq
    dy = C2 * s
    return s, dx, dy


def write_trace_csv(trace: Trace, stream) -> None:
    """One row per accepted step; termination reason on a trailing comment line."""
    log = trace.conserved_log
    keys = ["H", "det_h"] + (["xdotZ", "ydot"] if log and "xdotZ" in log[0] else [])
    write_csv(stream, ["s", "q1", "q2", "q3", "p1", "p2", "p3", *keys],
              ([st.s, *st.q, *st.p, *[entry[k] for k in keys]]
               for st, entry in zip(trace.states, log)))
    stream.write(f"# termination={trace.termination.value}\n")
