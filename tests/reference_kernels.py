"""Reference RK4 kernels: the dense straight-line templates, the RK4 step and the trace loop.

The plain generator that ``sgma.characteristics._compile_kernels`` must
reproduce: every entry of h and of its derivatives, each evaluated by the
recursive Horner walk of ``reference_poly`` (``_build_tree`` and
``_eval_tree``), all nine adjugate entries and every product of the sums,
with no structural zero dropped, and the scale read by ``max``.
The tests require the generated ``state_rhs`` to return the values of this
``state`` (its qdot as k1[:3]) and, where this ``rhs`` returns, k1 to be
its value, by ``repr``, and to raise the same exception types.  The
generated ``trace`` must give the states, log and termination that
``trace`` below gives from this ``rhs`` and ``state``: a loop of ``step``
(``rk4_step``, stage by stage, then the finite and box guards and the state
at the candidate), the stop, signature, singular and H_TOL guards in turn,
and k1 for the next step from ``rhs`` at each accepted state.  It is the
oracle, so keep it as it is rather than fast.
"""

from __future__ import annotations

import math

from reference_poly import _EMPTY, _build_tree, _eval_tree

from sgma.characteristics import H_TOL, SINGULAR_TOL, BicharState, Termination, Trace, \
    _check_regular, _sign_counts, _sign_pattern, _singular
from sgma.errors import DomainError, MetricSingularError
from sgma.ma_core import pullback_metric_polys


def _entry_source(poly, trees: list) -> str:
    # A call of the recursive Horner walk of reference_poly on poly's tree,
    # which lets an overflowing power's OverflowError through.  Equal
    # polynomials have equal trees, and so equal sources.
    try:
        tree = _build_tree(list(poly.terms.items()), 0, 3, float)
    except OverflowError:
        raise DomainError("a metric coefficient overflows the float range") from None
    if tree is _EMPTY:
        return "0.0"
    if tree not in trees:
        trees.append(tree)
    return f"_eval_tree(_trees[{trees.index(tree)}], (q0, q1, q2))"


def _sum_source(terms) -> str:
    return " + ".join(["0", *terms])


def _names(prefix: str) -> list:
    return [[f"{prefix}{i}{j}" for j in range(3)] for i in range(3)]


def _quadform_source(m, v) -> str:
    return _sum_source(f"{v[i]} * {m[i][j]} * {v[j]}" for i in range(3) for j in range(3))


def _matvec_source(m, v, i: int) -> str:
    return _sum_source(f"{m[i][j]} * {v[j]}" for j in range(3))


_H, _A = _names("h"), _names("a")
_P, _W = ("p0", "p1", "p2"), ("w0", "w1", "w2")
_COFACTORS = (
    ("h11 * h22 - h12 * h21", "h02 * h21 - h01 * h22", "h01 * h12 - h02 * h11"),
    ("h12 * h20 - h10 * h22", "h00 * h22 - h02 * h20", "h02 * h10 - h00 * h12"),
    ("h10 * h21 - h11 * h20", "h01 * h20 - h00 * h21", "h00 * h11 - h01 * h10"),
)
_DET_AND_SCALE = (
    "det = h00 * (h11 * h22 - h12 * h21) - h01 * (h10 * h22 - h12 * h20)"
    " + h02 * (h10 * h21 - h11 * h20)",
    "s = max(1.0, max({}))".format(", ".join(f"abs({n})" for row in _H for n in row)),
)
_INVERSE = tuple(f"a{i}{j} = ({_COFACTORS[i][j]}) / det"
                 for i in range(3) for j in range(3))


def _entry_lines(names, polys, known: dict, trees: list) -> list:
    lines = []
    for i in range(3):
        for j in range(3):
            src = _entry_source(polys[i][j], trees)
            alias = known.setdefault(src, names[i][j])
            lines.append(f"{names[i][j]} = {src if alias == names[i][j] else alias}")
    return lines


def _function_source(signature: str, body) -> str:
    return f"def {signature}:\n" + "".join(f"    {line}\n" for line in body)


def compile_kernels(entries, d_entries):
    """Dense ``rhs`` and ``state`` for the metric with these exact entries."""
    known: dict = {}
    trees: list = []
    h_lines = _entry_lines(_H, entries, known, trees)
    dh_lines = []
    for k in range(3):
        dh_lines += _entry_lines(_names(f"d{k}"), d_entries[k], known, trees)
    w_lines = [f"{_W[i]} = {_matvec_source(_A, _P, i)}" for i in range(3)]
    pdot = [_quadform_source(_names(f"d{k}"), _W) for k in range(3)]
    rhs = _function_source("rhs(q0, q1, q2, p0, p1, p2)", [
        *h_lines, *_DET_AND_SCALE,
        f"if abs(det) <= {SINGULAR_TOL!r} * s ** 3:",
        "    raise _singular(det)",
        *_INVERSE, *w_lines, *dh_lines,
        "return (" + ", ".join([f"2.0 * {w}" for w in _W] + pdot) + ")",
    ])
    qdot = [f"2.0 * ({_matvec_source(_A, _P, i)})" for i in range(3)]
    state = _function_source("state(q0, q1, q2, p0, p1, p2)", [
        *h_lines, *_DET_AND_SCALE,
        "i1 = h00 + h11 + h22",
        "i2 = h00 * h11 - h01 * h10 + h00 * h22 - h02 * h20 + h11 * h22 - h12 * h21",
        "if det == 0:",
        "    return det, s, i1, i2, None, None, None, None",
        *_INVERSE,
        f"return (det, s, i1, i2, {_quadform_source(_A, _P)}, {', '.join(qdot)})",
    ])
    namespace = {"_singular": _singular, "_eval_tree": _eval_tree, "_trees": trees}
    exec(compile(rhs + state, "<reference metric kernels>", "exec"), namespace)
    return namespace["rhs"], namespace["state"]


def compile_for(gf):
    """Dense ``rhs`` and ``state`` for the pull-back metric of ``gf``."""
    entries = pullback_metric_polys(gf)
    d_entries = [[[e.diff(v) for e in row] for row in entries] for v in gf.chart.coords]
    return compile_kernels(entries, d_entries)


def rk4_step(rhs, q, p, k1, step):
    """The candidate (qn, pn) of one classical RK4 step; k1 = rhs(q, p)."""
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


def step(rhs, state, q, p, k1, h, box):
    """``rk4_step``, then its guards in order, then ``state`` at the candidate.

    Returns ``Termination.DIVERGED`` for a candidate with a coordinate that
    is not finite, then ``Termination.DOMAIN_EXIT`` for one with a |q_i| >
    box, and otherwise (qn, pn) followed by what ``state`` returns there.
    """
    qn, pn = rk4_step(rhs, q, p, k1, h)
    if not all(map(math.isfinite, qn + pn)):
        return Termination.DIVERGED
    if any(abs(v) > box for v in qn):
        return Termination.DOMAIN_EXIT
    return (qn, pn, *state(*qn, *pn))


def _trusted_state(q, p, s) -> BicharState:
    # A state built from float 3-tuples: nothing to coerce or check, so
    # __post_init__ is skipped.
    state = object.__new__(BicharState)
    fields = state.__dict__
    fields["q"], fields["p"], fields["s"] = q, p, s
    return state


def _log_entry(cyclic: bool, q, H, det, k1) -> dict:
    entry = {"H": H, "det_h": det}
    if cyclic:
        entry["xdotZ"] = k1[0] * q[2]
        entry["ydot"] = k1[1]
    return entry


def trace(rhs, state, cyclic, initial, k1, h, max_steps, box, stop_tol=None) -> Trace:
    """The fixed-step RK4 trace from ``initial``, whose ``rhs`` is k1.

    ``stop_tol`` None is 1e-6 |det h| at the start, as in
    ``trace_bicharacteristic``, which adds the checks of its arguments and
    of the start; ``cyclic`` adds the conserved quantities to the log.
    """
    q, p, s = initial.q, initial.p, initial.s
    det0, scale, i1, i2, H0, *_ = state(*q, *p)
    if stop_tol is None:
        stop_tol = 1e-6 * abs(det0)
    signs0 = _sign_pattern(i1, i2, det0, scale)
    counts0 = _sign_counts(i1, i2, det0, scale)
    states = [initial]
    log = [_log_entry(cyclic, q, H0, det0, k1)]
    termination = Termination.MAX_STEPS
    for _ in range(max_steps):
        try:
            out = step(rhs, state, q, p, k1, h, box)
        except MetricSingularError:
            termination = Termination.PARABOLIC_BOUNDARY
            break
        except OverflowError:
            termination = Termination.DIVERGED
            break
        if out.__class__ is Termination:  # DIVERGED or DOMAIN_EXIT
            termination = out
            break
        qn, pn, det, scale, i1, i2, H, *_ = out
        # A non-finite det is a float-range failure, not a boundary.
        if math.isfinite(det) and (
                abs(det) < stop_tol
                or (_sign_pattern(i1, i2, det, scale) != signs0
                    and _sign_counts(i1, i2, det, scale) != counts0)):
            termination = Termination.PARABOLIC_BOUNDARY
            break
        try:
            _check_regular(det, scale, H)
        except OverflowError:
            termination = Termination.DIVERGED
            break
        if abs(H) > H_TOL:
            termination = (Termination.PARABOLIC_BOUNDARY
                           if abs(det) < 0.5 * abs(det0)
                           else Termination.DIVERGED)
            break
        try:
            k1n = rhs(*qn, *pn)  # regular: the singular test of rhs passes
        except OverflowError:
            termination = Termination.DIVERGED
            break
        q, p, s, k1 = qn, pn, s + h, k1n
        states.append(_trusted_state(q, p, s))
        log.append(_log_entry(cyclic, q, H, det, k1))
    return Trace(states=states, termination=termination, conserved_log=log)
