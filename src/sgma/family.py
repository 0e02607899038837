"""Polynomial solution family for the dual-T balance equation with eps_q = 1.

Truncating the potential at third order in the horizontal coordinates,

    T = T0(Z) + T1_a(Z) x^a + (1/2) T2_ab(Z) x^a x^b + (1/6) T3_abc(Z) x^a x^b x^c,

with (x^1, x^2) = (x, y) and fully symmetric coefficient tensors, reduces
T_xx T_yy - T_xy^2 + T_ZZ = 0 to a hierarchy of second-order ODEs in Z:
the cubic coefficients must be affine in Z, and each lower level is a
double integration of polynomial combinations of the levels above.
Generic members have Z-degrees (1, 4, 6, 10) at levels (3, 2, 1, 0): naive
degree counting would allow degree 7 at the first-order level, but the
leading (degree-5) coefficient of its second derivative cancels
identically, an algebraic consequence of the symmetric index structure.

The hierarchy used by :func:`build_family` is not transcribed from a
printed source: :func:`derive_recursions` re-derives it symbolically by
substituting the truncated expansion with opaque coefficient symbols and
collecting horizontal monomials.  A hand-transcribed reference version is
kept for cross-checking (see :func:`reference_recursion_report`); it is
known to disagree with the derivation in one first-order identity, and the
derivation is authoritative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple

from .errors import SgmaError
from .ma_core import ChartKind, GeneratingFunction, ma_residual_poly
from .polyexpr import Poly, exact_number, parse_poly

T3_KEYS = ("111", "112", "122", "222")
T2_KEYS = ("11", "12", "22")
T1_KEYS = ("1", "2")

# Symbol variables for the derivation: coefficient values that appear
# algebraically, second derivatives (D2...), and the horizontal coordinates.
_VALUE_SYMBOLS = tuple(f"T2_{k}" for k in T2_KEYS) + tuple(f"T3_{k}" for k in T3_KEYS)
_D2_SYMBOLS = (
    ("D2T0",)
    + tuple(f"D2T1_{k}" for k in T1_KEYS)
    + tuple(f"D2T2_{k}" for k in T2_KEYS)
    + tuple(f"D2T3_{k}" for k in T3_KEYS)
)
_SYMBOLS = ("x", "y") + _VALUE_SYMBOLS + _D2_SYMBOLS


class FamilyError(SgmaError):
    """Internal inconsistency while assembling a family member."""


@lru_cache(maxsize=None)
def derive_recursions() -> dict:
    """Coefficient identities of the truncated expansion, derived symbolically.

    Substitutes the third-order expansion (with opaque symbols for the
    coefficient functions and their second Z-derivatives) into the balance
    residual T_xx T_yy - T_xy^2 + T_ZZ and collects the coefficients of the
    horizontal monomials x^i y^j.  Returns a map from (i, j) to the exact
    polynomial identity (== 0) in the symbols.  This is the authoritative
    recursion set for :func:`build_family`.
    """
    v = {name: Poly.variable(_SYMBOLS, name) for name in _SYMBOLS}
    x, y = v["x"], v["y"]
    half = Fraction(1, 2)
    sixth = Fraction(1, 6)

    t_xx = v["T2_11"] + v["T3_111"] * x + v["T3_112"] * y
    t_xy = v["T2_12"] + v["T3_112"] * x + v["T3_122"] * y
    t_yy = v["T2_22"] + v["T3_122"] * x + v["T3_222"] * y
    t_zz = (
        v["D2T0"]
        + v["D2T1_1"] * x + v["D2T1_2"] * y
        + half * v["D2T2_11"] * x ** 2 + v["D2T2_12"] * x * y
        + half * v["D2T2_22"] * y ** 2
        + sixth * v["D2T3_111"] * x ** 3 + half * v["D2T3_112"] * x ** 2 * y
        + half * v["D2T3_122"] * x * y ** 2 + sixth * v["D2T3_222"] * y ** 3
    )
    residual = t_xx * t_yy - t_xy ** 2 + t_zz
    return residual.collect(("x", "y"))


def _normalized_identity(identity: Poly, d2_symbol: str):
    """Split c * D2 + rest into (rest / c) so that D2 = -(rest / c)."""
    groups = identity.collect((d2_symbol,))
    if set(groups) - {(0,), (1,)}:
        raise FamilyError(f"identity is not linear in {d2_symbol}")
    c = groups.get((1,), None)
    if c is None or c.constant_value() is None or c.constant_value() == 0:
        raise FamilyError(f"{d2_symbol} does not appear with a constant coefficient")
    rest = groups.get((0,))
    if rest is None:
        rest = Poly.zero(c.variables)
    return rest / c.constant_value()


_Z = ("Z",)


def _double_integral(d2: Poly, constants) -> Poly:
    """Twice the antiderivative (zero-constant convention) plus c1*Z + c0."""
    c1, c0 = constants
    once = d2.antiderivative("Z")
    twice = once.antiderivative("Z")
    return twice + c1 * Poly.variable(_Z, "Z") + Poly.constant(_Z, c0)


def _as_z_poly(value) -> Poly:
    if isinstance(value, Poly):
        if value.variables != _Z:
            return value.with_variables(_Z)
        return value
    if isinstance(value, str):
        return parse_poly(value, _Z)
    if isinstance(value, (int, Fraction)):
        return Poly.constant(_Z, value)
    raise ValueError(f"t3 entries must be polynomials in Z, got {value!r}")


def _constant_pair(value, label: str) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{label} must be a (slope, intercept) pair, got {value!r}")
    return tuple(map(exact_number, value))


@dataclass
class FamilySpec:
    """Input data for one family member.

    ``t3`` maps tensor keys ("111", "112", "122", "222") to polynomials in
    Z of degree at most 1 (the hierarchy forces affine cubic coefficients).
    Every double integration contributes two free constants, given as
    (slope, intercept) pairs: the integrated coefficient is the
    zero-constant double antiderivative plus slope*Z + intercept.
    """

    t3: Mapping = field(default_factory=dict)
    t2_constants: Mapping = field(default_factory=dict)
    t1_constants: Mapping = field(default_factory=dict)
    t0_constants: tuple = (Fraction(0), Fraction(0))

    def __post_init__(self):
        if not isinstance(self.t3, Mapping):
            raise ValueError(f"t3 must map tensor keys to polynomials, got {self.t3!r}")
        t3 = {}
        for key in T3_KEYS:
            entry = _as_z_poly(self.t3.get(key, 0))
            deg = entry.degree("Z")
            if deg is not None and deg > 1:
                raise ValueError(f"t3[{key!r}] must have Z-degree <= 1, got {deg}")
            t3[key] = entry
        unknown = set(self.t3) - set(T3_KEYS)
        if unknown:
            raise ValueError(f"unknown t3 keys {sorted(unknown)!r}")
        self.t3 = t3

        def pairs(raw, keys, label):
            if not isinstance(raw, Mapping):
                raise ValueError(f"{label} must map keys to pairs, got {raw!r}")
            unknown = set(raw) - set(keys)
            if unknown:
                raise ValueError(f"unknown {label} keys {sorted(unknown)!r}")
            return {key: _constant_pair(raw.get(key, (0, 0)), f"{label}[{key!r}]")
                    for key in keys}

        self.t2_constants = pairs(self.t2_constants, T2_KEYS, "t2_constants")
        self.t1_constants = pairs(self.t1_constants, T1_KEYS, "t1_constants")
        self.t0_constants = _constant_pair(self.t0_constants, "t0_constants")

    def to_dict(self) -> dict:
        return {
            "t3": {k: str(v) for k, v in self.t3.items()},
            "t2_constants": {k: [str(a), str(b)] for k, (a, b) in self.t2_constants.items()},
            "t1_constants": {k: [str(a), str(b)] for k, (a, b) in self.t1_constants.items()},
            "t0_constants": [str(self.t0_constants[0]), str(self.t0_constants[1])],
        }

    @classmethod
    def from_dict(cls, record: Mapping) -> "FamilySpec":
        if not isinstance(record, Mapping):
            raise ValueError("a family spec must be a JSON object")
        unknown = set(record) - {"t3", "t2_constants", "t1_constants", "t0_constants"}
        if unknown:
            raise ValueError(f"unknown family-spec keys {sorted(unknown)!r}")
        return cls(
            t3=record.get("t3", {}),
            t2_constants=record.get("t2_constants", {}),
            t1_constants=record.get("t1_constants", {}),
            t0_constants=record.get("t0_constants", (0, 0)),
        )


class DegreeReport(NamedTuple):
    """Maximum Z-degree per coefficient level; None where the level vanishes."""

    t3: int | None
    t2: int | None
    t1: int | None
    t0: int | None


@dataclass(frozen=True)
class FamilySolution:
    gf: GeneratingFunction
    degrees: DegreeReport
    coefficients: Mapping


# Which derived identity determines which second derivative.
_LEVEL2 = {(2, 0): "D2T2_11", (1, 1): "D2T2_12", (0, 2): "D2T2_22"}
_LEVEL1 = {(1, 0): "D2T1_1", (0, 1): "D2T1_2"}
_LEVEL0 = {(0, 0): "D2T0"}


def _substitute(rest: Poly, values: Mapping) -> Poly:
    mapping = {}
    for name in rest.variables:
        if name in values:
            mapping[name] = values[name]
        else:
            mapping[name] = Fraction(0)  # symbols of not-yet-built levels never occur
    return rest.compose(mapping, _Z)


def build_family(spec: FamilySpec) -> FamilySolution:
    """Integrate the derived hierarchy into an exact dual-T solution.

    Levels are resolved top-down: the given cubic coefficients feed the
    quadratic identities, whose double integrals (with the spec's
    constants) feed the linear identities, and so on to the scalar level.
    The assembled potential is verified to have identically zero balance
    residual; failure would mean the derivation and the integration
    disagree, which is impossible for valid specs and raises FamilyError.
    """
    identities = derive_recursions()
    values: dict[str, Poly] = {f"T3_{k}": spec.t3[k] for k in T3_KEYS}

    for monomial, symbol in _LEVEL2.items():
        rest = _normalized_identity(identities[monomial], symbol)
        d2 = -_substitute(rest, values)
        key = symbol.removeprefix("D2T2_")
        values[f"T2_{key}"] = _double_integral(d2, spec.t2_constants[key])
    for monomial, symbol in _LEVEL1.items():
        rest = _normalized_identity(identities[monomial], symbol)
        d2 = -_substitute(rest, values)
        key = symbol.removeprefix("D2T1_")
        values[f"T1_{key}"] = _double_integral(d2, spec.t1_constants[key])
    rest = _normalized_identity(identities[(0, 0)], "D2T0")
    values["T0"] = _double_integral(-_substitute(rest, values), spec.t0_constants)

    tvars = ("x", "y", "Z")
    x = Poly.variable(tvars, "x")
    y = Poly.variable(tvars, "y")
    half = Fraction(1, 2)
    sixth = Fraction(1, 6)

    def lift(name: str) -> Poly:
        return values[name].with_variables(tvars)

    potential = (
        lift("T0")
        + lift("T1_1") * x + lift("T1_2") * y
        + half * lift("T2_11") * x ** 2 + lift("T2_12") * x * y
        + half * lift("T2_22") * y ** 2
        + sixth * lift("T3_111") * x ** 3 + half * lift("T3_112") * x ** 2 * y
        + half * lift("T3_122") * x * y ** 2 + sixth * lift("T3_222") * y ** 3
    )
    gf = GeneratingFunction(ChartKind.DUAL_T, potential, Fraction(1))
    residual = ma_residual_poly(gf)
    if not residual.is_zero:
        raise FamilyError(
            f"assembled potential does not solve the balance equation: {residual}"
        )

    def level_degree(names) -> int | None:
        degs = [values[n].degree("Z") for n in names]
        degs = [d for d in degs if d is not None]
        return max(degs) if degs else None

    degrees = DegreeReport(
        t3=level_degree([f"T3_{k}" for k in T3_KEYS]),
        t2=level_degree([f"T2_{k}" for k in T2_KEYS]),
        t1=level_degree([f"T1_{k}" for k in T1_KEYS]),
        t0=level_degree(["T0"]),
    )
    return FamilySolution(gf=gf, degrees=degrees, coefficients=dict(values))


def random_generic_spec(rng) -> FamilySpec:
    """Sample a generic spec: degree-1 cubic entries with nonzero random rationals.

    ``rng`` is a random.Random instance.  Slopes and intercepts are small
    nonzero rationals, which makes the leading-coefficient cancellations
    that would lower the generic degrees (1, 4, 6, 10) a measure-zero
    accident for the seeds used in tests.
    """
    def nonzero() -> Fraction:
        while True:
            num = rng.randint(-6, 6)
            if num:
                return Fraction(num, rng.randint(1, 4))

    def affine() -> Poly:
        return nonzero() * Poly.variable(_Z, "Z") + Poly.constant(_Z, nonzero())

    return FamilySpec(
        t3={k: affine() for k in T3_KEYS},
        t2_constants={k: (nonzero(), nonzero()) for k in T2_KEYS},
        t1_constants={k: (nonzero(), nonzero()) for k in T1_KEYS},
        t0_constants=(nonzero(), nonzero()),
    )


def _reference_identities() -> dict:
    """Hand-transcribed reference form of the hierarchy, for cross-checking.

    Written with the same symbols and the same normalization (the second
    derivative enters with coefficient 1).
    """
    v = {name: Poly.variable(_SYMBOLS, name) for name in _SYMBOLS}
    two = Fraction(2)
    return {
        (3, 0): v["D2T3_111"],
        (2, 1): v["D2T3_112"],
        (1, 2): v["D2T3_122"],
        (0, 3): v["D2T3_222"],
        (2, 0): v["D2T2_11"] + two * (v["T3_111"] * v["T3_122"] - v["T3_112"] ** 2),
        (1, 1): v["D2T2_12"] + v["T3_111"] * v["T3_222"] - v["T3_112"] * v["T3_122"],
        (0, 2): v["D2T2_22"] + two * (v["T3_112"] * v["T3_222"] - v["T3_122"] ** 2),
        (1, 0): v["D2T1_1"] + v["T2_22"] * v["T3_111"] - two * v["T2_12"] * v["T3_112"]
        + v["T2_11"] * v["T3_222"],
        (0, 1): v["D2T1_2"] + v["T2_22"] * v["T3_112"] - two * v["T2_12"] * v["T3_122"]
        + v["T2_11"] * v["T3_222"],
        (0, 0): v["D2T0"] + v["T2_11"] * v["T2_22"] - v["T2_12"] ** 2,
    }


def reference_recursion_report() -> dict:
    """Compare the derived identities against the hand-transcribed reference.

    Returns, per horizontal monomial, whether the reference matches the
    derivation and the symbolic difference when it does not.  The reference
    transcription is known to carry a defective term in the identity for
    the x monomial (a cubic index pattern that breaks the x<->y symmetry of
    the hierarchy); mismatches are reported, never silently patched, and
    :func:`build_family` always uses the derived form.
    """
    derived = derive_recursions()
    reference = _reference_identities()
    report = {}
    for monomial, ref in reference.items():
        d2 = next(s for s in _D2_SYMBOLS
                  if not ref.collect((s,)).get((1,), Poly.zero(_SYMBOLS)).is_zero)
        lhs = derived[monomial]
        scale = lhs.collect((d2,))[(1,)].constant_value()
        normalized = (lhs / scale).with_variables(_SYMBOLS)
        difference = normalized - ref
        report[f"x^{monomial[0]}*y^{monomial[1]}"] = {
            "matches_derivation": difference.is_zero,
            "difference": str(difference),
        }
    return report
