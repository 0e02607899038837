"""Semigeostrophic flow reconstruction from a generating-function solution.

On a nondegenerate branch the geopotential gradient supplies the absolute
momentum components (M, N) and the scaled potential temperature; the
geostrophic wind follows algebraically, and the full velocity solves the
3x3 linear system whose rows are the base-space gradients of M, N and the
potential temperature.  For the canonical fold example the flow reduces to
a purely meridional geostrophic wind.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, NoBranchError
from .formatting import write_csv
from .grid import Axis, Grid
from .ma_core import GeneratingFunction, SignatureLabel, classify, immersion
from .mat3 import solve3
from .polyexpr import exact_number
from .singular import BranchPoint, branch_hessian, branch_select_convex, fiber_solve


def _positive_epsilon(value) -> Fraction:
    eps = exact_number(value)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    return eps


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
        eps = _positive_epsilon(self.epsilon)
        qg = exact_number(self.q_g)
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "q_g", qg)
        try:  # the wind formulas use q_g as a float
            float(qg)
        except OverflowError:
            raise DomainError("q_g = eps_q / epsilon lies beyond the float range") from None

    @classmethod
    def for_gf(cls, gf: GeneratingFunction, epsilon=1) -> "EpsilonChoice":
        eps = _positive_epsilon(epsilon)
        return cls(epsilon=eps, q_g=gf.eps_q / eps)


@dataclass(frozen=True)
class SGState:
    """Flow diagnostics at one physical point on one branch.

    (M, N, theta_eps) is the branch geopotential gradient; u, v, w are None
    until reconstructed.  branch_label records the metric type at the
    underlying chart point ('elliptic', 'hyperbolic', 'degenerate' or
    'other').
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
    if branch == "convex":
        choice = branch_select_convex(bp)
        if choice.index is None:
            raise NoBranchError("no convex branch over this base point")
        if choice.ambiguous:
            warnings.warn("multiple convex branches; using the first", stacklevel=4)
        return choice.index
    try:
        index = operator.index(branch)
    except TypeError:
        raise ValueError(f"branch must be 'convex' or an index, got {branch!r}") from None
    if not 0 <= index < len(bp.fiber_values):
        raise NoBranchError(f"branch index {index} out of range for a fiber of "
                            f"{len(bp.fiber_values)}")
    return index


def branch_state(gf: GeneratingFunction, base, branch="convex",
                 eps: EpsilonChoice | None = None) -> SGState:
    """Geopotential, momenta, and geostrophic wind on one branch over a base point.

    ``branch`` is either "convex" (select via the convexity principle) or an
    explicit fiber index (fiber values ascending).  Raises NoBranchError
    when the base point lies outside the solution domain (empty fiber), has
    no such branch, or the selected branch is degenerate (caustic point).
    """
    return _state(gf, base, branch, eps, False)


def _state(gf: GeneratingFunction, base, branch, eps: EpsilonChoice | None,
           velocity: bool) -> SGState:
    # branch_state, with (u, v, w) if velocity, from what fiber_solve kept.
    # Its warnings name the caller of the public function that called it.
    eps = eps or EpsilonChoice.for_gf(gf)
    if gf.eps_q != 1:
        warnings.warn("wind identities are stated for eps_q = 1; "
                      f"eps_q = {gf.eps_q} is outside the verified regime", stacklevel=3)
    bp = fiber_solve(gf, base)
    if not bp.fiber_values:
        raise NoBranchError(f"base point {bp.base_point} is outside the solution domain")
    index = _resolve_branch(bp, branch)
    if bp.degenerate_flags[index]:
        raise NoBranchError("selected branch is degenerate (caustic point)")
    chart_pt = bp.fiber_values[index]
    # None where fiber_solve kept no ambient point: immersion reads it.
    x, y, _, X, Y, Z = bp.ambient_points[index] or immersion(gf, chart_pt).as_tuple()
    q_g = float(eps.q_g)
    sig = classify(gf, chart_pt)
    label = "degenerate" if sig.label is SignatureLabel.PARABOLIC else sig.label.value
    u_g, v_g = q_g * (y - Y), q_g * (X - x)
    uvw = (None, None, None)
    if velocity:  # no Hessian kept where it is undefined: branch_hessian raises
        hp = bp.hessians[index]
        uvw = _velocity(branch_hessian(gf, chart_pt) if hp is None else hp, u_g, v_g)
    return SGState(bp.base_point, chart_pt, bp.P_values[index], X, Y, Z, u_g, v_g, label, *uvw)


def velocity_system(gf: GeneratingFunction, state: SGState,
                    eps: EpsilonChoice | None = None):
    """Rows (grad M, grad N, grad theta) and right-hand side (u_g, v_g, 0)."""
    eps = eps or EpsilonChoice.for_gf(gf)
    hp = branch_hessian(gf, state.chart_point)
    rows = np.vstack([hp[0], hp[1], hp[2] / float(eps.epsilon)])
    rhs = np.array([state.u_g, state.v_g, 0.0])
    return rows, rhs


def velocity_reconstruct(state: SGState, gf: GeneratingFunction) -> tuple:
    """Velocity (u, v, w) solving the momentum/temperature transport system.

    The system matrix stacks the base-space gradients of M, N and theta,
    the rows of the branch Hessian; it is invertible on nondegenerate
    branches since the Hessian determinant equals eps_q > 0 there.  The
    1/epsilon scale of ``velocity_system``'s third row is left out: that
    row's right-hand side is 0, so the scale cannot change the solution,
    but it would enter the solve's relative singular test.
    """
    return _velocity(branch_hessian(gf, state.chart_point), state.u_g, state.v_g)


def _velocity(hp: np.ndarray, u_g: float, v_g: float) -> tuple:
    return tuple(solve3(hp, np.array([u_g, v_g, 0.0]),
                        "velocity system is singular (degenerate point)").tolist())


def reconstructed_state(gf: GeneratingFunction, base, branch="convex",
                        eps: EpsilonChoice | None = None) -> SGState:
    """branch_state plus velocity_reconstruct in one call."""
    return _state(gf, base, branch, eps, True)


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
    values = operator.attrgetter(*WIND_CSV_COLUMNS[4:13])  # the SGState fields P ... w
    write_csv(stream, WIND_CSV_COLUMNS, (
        (s.x, s.y, s.z, "1", *values(s.state), abs(s.state.v)) if s.in_domain
        else (s.x, s.y, s.z, "0", *[None] * 10) for s in samples))
