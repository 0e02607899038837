"""Semigeostrophic flow reconstruction from a generating-function solution.

On a nondegenerate branch the geopotential gradient supplies the absolute
momentum components (M, N) and the scaled potential temperature; the
geostrophic wind follows algebraically, and the full velocity solves the
3x3 linear system whose rows are the base-space gradients of M, N and the
potential temperature.  For the canonical fold example the flow reduces to
a purely meridional geostrophic wind.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import DomainError, NoBranchError
from .formatting import format_float
from .grid import Axis, Grid
from .ma_core import GeneratingFunction, SignatureLabel, classify, immersion
from .mat3 import solve3
from .singular import BranchPoint, branch_hessian, branch_select_convex, fiber_solve


@dataclass(frozen=True)
class EpsilonChoice:
    """Rossby number and the potential vorticity it implies for a given eps_q.

    Only the product eps_q = epsilon * q_g enters the balance equation, but
    the wind formulas use q_g alone, so the split must be chosen explicitly;
    epsilon defaults to 1 (q_g = eps_q).
    """

    epsilon: Fraction
    q_g: Fraction

    def __post_init__(self):
        eps = self.epsilon if isinstance(self.epsilon, Fraction) else Fraction(str(self.epsilon))
        qg = self.q_g if isinstance(self.q_g, Fraction) else Fraction(str(self.q_g))
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "q_g", qg)
        if eps <= 0:
            raise ValueError("epsilon must be positive")
        try:  # the wind formulas use q_g as a float
            float(qg)
        except OverflowError:
            raise DomainError("q_g = eps_q / epsilon lies beyond the float range") from None

    @classmethod
    def for_gf(cls, gf: GeneratingFunction, epsilon=1) -> "EpsilonChoice":
        eps = Fraction(str(epsilon))
        return cls(epsilon=eps, q_g=gf.eps_q / eps)


@dataclass(frozen=True)
class SGState:
    """Flow diagnostics at one physical point on one branch.

    (M, N, theta_eps) is the branch geopotential gradient; u, v, w are None
    until reconstructed.  branch_label records the metric type at the
    underlying chart point ('elliptic', 'hyperbolic' or 'degenerate').
    """

    base: tuple
    chart_point: tuple
    P: float
    M: float
    N: float
    theta_eps: float
    u_g: float
    v_g: float
    branch_label: str
    u: float | None = None
    v: float | None = None
    w: float | None = None


def _resolve_branch(bp: BranchPoint, branch) -> int:
    if isinstance(branch, str):
        if branch != "convex":
            raise ValueError(f"branch must be 'convex' or an index, got {branch!r}")
        choice = branch_select_convex(bp)
        if choice.index is None:
            raise NoBranchError("no convex branch over this base point")
        if choice.ambiguous:
            warnings.warn("multiple convex branches; using the first", stacklevel=3)
        return choice.index
    index = int(branch)
    if not 0 <= index < len(bp.fiber_values):
        raise NoBranchError(
            f"branch index {index} out of range for a fiber of {len(bp.fiber_values)}"
        )
    return index


def branch_state(gf: GeneratingFunction, base, branch="convex",
                 eps: EpsilonChoice | None = None) -> SGState:
    """Geopotential, momenta, and geostrophic wind on one branch over a base point.

    ``branch`` is either "convex" (select via the convexity principle) or an
    explicit fiber index (fiber values ascending).  Raises NoBranchError
    when the base point lies outside the solution domain (empty fiber), has
    no such branch, or the selected branch is degenerate (caustic point).
    """
    eps = eps or EpsilonChoice.for_gf(gf)
    if gf.eps_q != 1:
        warnings.warn(
            "wind identities are stated for eps_q = 1; "
            f"eps_q = {gf.eps_q} is outside the verified regime",
            stacklevel=2,
        )
    bp = fiber_solve(gf, base)
    if not bp.fiber_values:
        raise NoBranchError(
            f"base point {tuple(float(v) for v in base)} is outside the solution domain"
        )
    index = _resolve_branch(bp, branch)
    if bp.degenerate_flags and bp.degenerate_flags[index]:
        raise NoBranchError("selected branch is degenerate (caustic point)")
    chart_pt = bp.fiber_values[index]
    amb = immersion(gf, chart_pt)
    x, y = float(amb.x), float(amb.y)
    M, N, theta_eps = float(amb.X), float(amb.Y), float(amb.Z)
    q_g = float(eps.q_g)
    sig = classify(gf, chart_pt)
    label = ("degenerate" if sig.label is SignatureLabel.PARABOLIC
             else sig.label.value)
    return SGState(
        base=tuple(float(v) for v in bp.base_point),
        chart_point=chart_pt,
        P=bp.P_values[index],
        M=M,
        N=N,
        theta_eps=theta_eps,
        u_g=q_g * (y - N),
        v_g=q_g * (M - x),
        branch_label=label,
    )


def velocity_system(gf: GeneratingFunction, state: SGState,
                    eps: EpsilonChoice | None = None):
    """Rows (grad M, grad N, grad theta) and right-hand side (u_g, v_g, 0)."""
    eps = eps or EpsilonChoice.for_gf(gf)
    hp = branch_hessian(gf, state.chart_point)
    rows = np.vstack([hp[0], hp[1], hp[2] / float(eps.epsilon)])
    rhs = np.array([state.u_g, state.v_g, 0.0])
    return rows, rhs


def velocity_reconstruct(state: SGState, gf: GeneratingFunction,
                         eps: EpsilonChoice | None = None) -> tuple:
    """Velocity (u, v, w) solving the momentum/temperature transport system.

    The system matrix stacks the base-space gradients of M, N and theta
    (rows of the branch Hessian, the third scaled by 1/epsilon); it is
    invertible on nondegenerate branches since the Hessian determinant
    equals eps_q > 0 there.
    """
    rows, rhs = velocity_system(gf, state, eps)
    solution = solve3(rows, rhs, "velocity system is singular (degenerate point)")
    u, v, w = (float(c) for c in solution)
    return u, v, w


def reconstructed_state(gf: GeneratingFunction, base, branch="convex",
                        eps: EpsilonChoice | None = None) -> SGState:
    """branch_state plus velocity_reconstruct in one call."""
    eps = eps or EpsilonChoice.for_gf(gf)
    state = branch_state(gf, base, branch, eps)
    u, v, w = velocity_reconstruct(state, gf, eps)
    return replace(state, u=u, v=v, w=w)


def PlaneGridSpec(x_lo: float, x_hi: float, nx: int, z_lo: float, z_hi: float,
                  nz: int, y: float = 0.0) -> Grid:
    """(x, z) section at fixed y as an (x, y, z) grid, row-major (x outer, z inner)."""
    return Grid((Axis("x", x_lo, x_hi, nx), Axis("y", y, y, 1), Axis("z", z_lo, z_hi, nz)))


@dataclass(frozen=True)
class WindSample:
    """One sweep node: in-domain nodes carry a reconstructed state."""

    x: float
    y: float
    z: float
    in_domain: bool
    state: SGState | None


def wind_field_sweep(gf: GeneratingFunction, branch, grid: Grid,
                     eps: EpsilonChoice | None = None) -> list:
    """Reconstruct the wind on a plane section, flagging out-of-domain nodes.

    ``grid`` runs over the base coordinates ("x", "y", "z") in that order.
    Nodes without a usable branch (NoBranchError: empty fiber, no convex or
    no such branch, degenerate branch) are emitted with in_domain False and
    no state, so the caller still sees every grid node in row-major order.
    Any other DomainError, such as a float-range failure, propagates.
    """
    if grid.names != ("x", "y", "z"):
        raise ValueError(f"wind grid axes must be ('x', 'y', 'z'), got {grid.names!r}")
    eps = eps or EpsilonChoice.for_gf(gf)
    samples = []
    with warnings.catch_warnings():
        warnings.simplefilter("once")
        for x, y, z in grid.nodes():
            try:
                state = reconstructed_state(gf, (x, y, z), branch, eps)
            except NoBranchError:
                samples.append(WindSample(x, y, z, False, None))
                continue
            samples.append(WindSample(x, y, z, True, state))
    return samples


WIND_CSV_COLUMNS = ("x", "y", "z", "domain_flag", "P", "M", "N", "theta_eps",
                    "u_g", "v_g", "u", "v", "w", "v_mag")


def write_wind_csv(samples: list, stream) -> None:
    """Fixed-column CSV; out-of-domain rows have domain_flag 0 and empty values."""
    stream.write(",".join(WIND_CSV_COLUMNS) + "\n")
    for s in samples:
        head = [format_float(v) for v in (s.x, s.y, s.z)]
        if not s.in_domain:
            stream.write(",".join(head + ["0"] + [""] * 10) + "\n")
            continue
        st = s.state
        body = [st.P, st.M, st.N, st.theta_eps, st.u_g, st.v_g,
                st.u, st.v, st.w, abs(st.v)]
        stream.write(",".join(head + ["1"] + [format_float(v) for v in body]) + "\n")
