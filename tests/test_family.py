"""Recursion derivation, family building, degrees, and the transcription cross-check."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from sgma.family import (
    T1_KEYS,
    T2_KEYS,
    T3_KEYS,
    FamilySpec,
    build_family,
    derive_recursions,
    random_generic_spec,
    reference_recursion_report,
)
from sgma.ma_core import GeneratingFunction, hessian_polys, immersion_jacobian_polys, \
    immersion_polys, ma_residual_poly, pullback_metric_polys
from sgma.mat3 import det3
from sgma.polyexpr import Poly, parse_poly
from sgma.singular import singular_locus_poly

EXAMPLE_SPEC = FamilySpec(t2_constants={"11": (-1, 0), "22": (0, 1)})


def _symbols(poly):
    return {v for v, used in zip(poly.variables,
                                 [any(e[i] for e in poly.terms)
                                  for i in range(len(poly.variables))]) if used}


def test_derivation_yields_ten_identities():
    identities = derive_recursions()
    assert set(identities) == {
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
        (3, 0), (2, 1), (1, 2), (0, 3),
    }


def test_cubic_identities_force_affine_coefficients():
    identities = derive_recursions()
    for monomial, symbol in [((3, 0), "D2T3_111"), ((2, 1), "D2T3_112"),
                             ((1, 2), "D2T3_122"), ((0, 3), "D2T3_222")]:
        ident = identities[monomial]
        assert _symbols(ident) == {symbol}


def test_constant_identity_is_level_zero_closure():
    # With the cubic level absent, only the scalar identity survives:
    # second derivative plus the determinant of the quadratic level.
    ident = derive_recursions()[(0, 0)]
    assert _symbols(ident) == {"D2T0", "T2_11", "T2_12", "T2_22"}
    vars_ = ident.variables
    v = {name: Poly.variable(vars_, name) for name in
         ("D2T0", "T2_11", "T2_12", "T2_22")}
    assert ident == v["D2T0"] + v["T2_11"] * v["T2_22"] - v["T2_12"] ** 2


def test_first_order_identity_has_symmetric_index_pattern():
    # The x identity couples T2_11 with T3_122 (not T3_222); the commonly
    # transcribed asymmetric variant does not produce exact solutions.
    ident = derive_recursions()[(1, 0)]
    vars_ = ident.variables
    v = {name: Poly.variable(vars_, name) for name in
         ("D2T1_1", "T2_11", "T2_12", "T2_22", "T3_111", "T3_112", "T3_122")}
    expected = (v["D2T1_1"] + v["T2_22"] * v["T3_111"]
                - 2 * v["T2_12"] * v["T3_112"] + v["T2_11"] * v["T3_122"])
    assert ident == expected


def test_reference_report_flags_the_defective_line():
    report = reference_recursion_report()
    assert set(report) == {
        "x^0*y^0", "x^1*y^0", "x^0*y^1", "x^2*y^0", "x^1*y^1", "x^0*y^2",
        "x^3*y^0", "x^2*y^1", "x^1*y^2", "x^0*y^3",
    }
    assert report["x^1*y^0"]["matches_derivation"] is False
    for key, entry in report.items():
        if key != "x^1*y^0":
            assert entry["matches_derivation"] is True


def test_fold_example_spec_roundtrips_exactly():
    sol = build_family(EXAMPLE_SPEC)
    assert sol.gf.potential == parse_poly("y^2/2 - x^2*Z/2 + Z^3/6", ("x", "y", "Z"))
    assert sol.degrees == (None, 1, None, 3)


def test_zero_spec():
    sol = build_family(FamilySpec())
    assert sol.gf.potential.is_zero
    assert sol.degrees == (None, None, None, None)


def test_random_members_solve_exactly_with_generic_degrees():
    # True generic degrees are (1, 4, 6, 10): the quoted degree-7 count for
    # the first-order level comes from a defective transcription of the
    # hierarchy; the degree-5 coefficient of T1'' cancels identically.
    rng = random.Random(41)
    for _ in range(15):
        sol = build_family(random_generic_spec(rng))
        assert ma_residual_poly(sol.gf).is_zero
        assert tuple(sol.degrees) == (1, 4, 6, 10)


@pytest.fixture
def warm_build():
    build_family(random_generic_spec(random.Random(0)))


def test_member_build_lifts_only_the_constants_it_uses(warm_build, constant_calls):
    # _substitute maps all 26 derivation symbols; compose lifts only those
    # that occur (80 Poly.constant calls for this spec and build when every
    # entry was lifted).
    build_family(random_generic_spec(random.Random(0)))
    assert len(constant_calls) == 20


def test_t0_constants_change_potential_affinely_never_residual():
    rng = random.Random(42)
    base = random_generic_spec(rng)
    shifted = FamilySpec(
        t3=dict(base.t3),
        t2_constants=dict(base.t2_constants),
        t1_constants=dict(base.t1_constants),
        t0_constants=(Fraction(9), Fraction(-4)),
    )
    p1 = build_family(base).gf.potential
    p2 = build_family(shifted).gf.potential
    difference = p2 - p1
    assert difference.degree("x") in (None, 0) and difference.degree("y") in (None, 0)
    assert difference.degree("Z") in (None, 0, 1)
    assert ma_residual_poly(build_family(shifted).gf).is_zero


def test_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec(t3={"111": "Z^2"})
    with pytest.raises(ValueError):
        FamilySpec(t3={"999": "Z"})
    with pytest.raises(ValueError):
        FamilySpec(t2_constants={"13": (0, 0)})
    with pytest.raises(ValueError):
        FamilySpec.from_dict({"bogus": 1})


def test_spec_serialization_roundtrip():
    rng = random.Random(43)
    spec = random_generic_spec(rng)
    again = FamilySpec.from_dict(spec.to_dict())
    assert build_family(again).gf.potential == build_family(spec).gf.potential


def _sympy_hierarchy_member(sp, x_partner):
    """Integrate the truncation hierarchy in sympy with every datum symbolic.

    The cubic coefficients are affine in Z with symbolic slopes and
    intercepts, and each double integration adds two symbolic constants
    (20 symbols in all).  The second derivatives are the hand-derived
    coefficients of x^i y^j in T_xx T_yy - T_xy^2 + T_ZZ; ``x_partner``
    names the cubic coefficient multiplying T2_11 in the x identity: "122"
    is the derived pattern, "222" the transcribed reference pattern.
    Returns the Z-degrees of (T1_1, T1_2) and the expanded balance residual
    of the assembled potential.
    """
    Z, x, y = sp.symbols("Z x y")
    t = {}
    for key in ("111", "112", "122", "222"):
        slope, intercept = sp.symbols(f"a{key} b{key}")
        t[f"T3_{key}"] = slope * Z + intercept

    def integrate_twice(d2, key):
        c1, c0 = sp.symbols(f"c1_{key} c0_{key}")
        return sp.expand(sp.integrate(sp.expand(d2), Z, Z) + c1 * Z + c0)

    t["T2_11"] = integrate_twice(-2 * (t["T3_111"] * t["T3_122"] - t["T3_112"] ** 2), "11")
    t["T2_12"] = integrate_twice(-(t["T3_111"] * t["T3_222"] - t["T3_112"] * t["T3_122"]), "12")
    t["T2_22"] = integrate_twice(-2 * (t["T3_112"] * t["T3_222"] - t["T3_122"] ** 2), "22")
    t["T1_1"] = integrate_twice(-(t["T2_22"] * t["T3_111"] - 2 * t["T2_12"] * t["T3_112"]
                                  + t["T2_11"] * t[f"T3_{x_partner}"]), "1")
    t["T1_2"] = integrate_twice(-(t["T2_22"] * t["T3_112"] - 2 * t["T2_12"] * t["T3_122"]
                                  + t["T2_11"] * t["T3_222"]), "2")
    t["T0"] = integrate_twice(-(t["T2_11"] * t["T2_22"] - t["T2_12"] ** 2), "0")

    potential = (
        t["T0"] + t["T1_1"] * x + t["T1_2"] * y
        + t["T2_11"] * x ** 2 / 2 + t["T2_12"] * x * y + t["T2_22"] * y ** 2 / 2
        + t["T3_111"] * x ** 3 / 6 + t["T3_112"] * x ** 2 * y / 2
        + t["T3_122"] * x * y ** 2 / 2 + t["T3_222"] * y ** 3 / 6
    )
    d = sp.diff
    residual = sp.expand(d(potential, x, 2) * d(potential, y, 2)
                         - d(potential, x, y) ** 2 + d(potential, Z, 2))
    return (sp.degree(t["T1_1"], Z), sp.degree(t["T1_2"], Z)), residual


# The README's family spec (docs and tests/test_cli.py).
README_SPEC = {
    "t3": {"111": "Z", "112": "0", "122": "1/2", "222": "-Z + 1"},
    "t2_constants": {"11": ["-1", "0"], "12": ["0", "0"], "22": ["0", "1"]},
    "t1_constants": {"1": ["0", "0"], "2": ["0", "0"]},
    "t0_constants": ["0", "0"],
}


def _term_listing(poly):
    # Poly's repr sorts its terms; the listing keeps insertion order.
    return poly.variables, list(poly.terms.items())


def test_family_term_order_digest():
    # The RK4 kernels sum each metric entry's terms in Poly.terms order, so
    # the identities, the integrated coefficients and the potential are
    # pinned in their dict order, not only in value.
    parts = [[(k, _term_listing(v)) for k, v in derive_recursions().items()],
             reference_recursion_report()]
    specs = [EXAMPLE_SPEC, FamilySpec.from_dict(README_SPEC)]
    specs += [random_generic_spec(random.Random(seed)) for seed in range(4)]
    for spec in specs:
        sol = build_family(spec)
        parts.append(list(sol.gf.potential.terms.items()))
        parts.append([(k, _term_listing(v)) for k, v in sol.coefficients.items()])
    assert hashlib.sha256(repr(parts).encode()).hexdigest() == (
        "7a9ae6a7373149d074554b4a54c9004461ad9146498146229a6e1807443ecfd2")


# The builders' formulas as repeated binary sums, with every variable and
# zero made by the general constructor: the term maps of the builders, and
# their order, which the generated RK4 kernels read, must match them.
_EXPANSION = [("T0", (0, 0))] + [
    (f"{level}_{key}", (key.count("1"), key.count("2")))
    for level, keys in (("T1", T1_KEYS), ("T2", T2_KEYS), ("T3", T3_KEYS)) for key in keys]


def _unit(vs, name):
    return Poly(vs, {tuple(int(v == name) for v in vs): 1})


def _chained_expansion(coefficient, vs):
    x, y = _unit(vs, "x"), _unit(vs, "y")
    total = Poly(vs, {})
    for name, (a, b) in _EXPANSION:
        total += coefficient(name) * x ** a * y ** b / (math.factorial(a) * math.factorial(b))
    return total


def _chained_dual_t_builders(potential, eps):
    # (hessian, pull-back metric, singular locus) of a dual-T potential.
    cs = potential.variables
    firsts = [potential.diff(v) for v in cs]
    hessian = [[firsts[i].diff(cs[j]) for j in range(3)] for i in range(3)]
    rows = (_unit(cs, "x"), _unit(cs, "y"), -potential.diff("Z"),
            potential.diff("x"), potential.diff("y"), _unit(cs, "Z"))
    jac = [[row.diff(v) for v in cs] for row in rows]
    metric = []
    for i in range(3):
        for j in range(3):
            acc = Poly(cs, {})
            for a, b in ((0, 3), (1, 4), (2, 5)):
                acc = acc + jac[a][i] * jac[b][j] + jac[b][i] * jac[a][j]
            metric.append(eps * acc)
    return hessian, metric, det3(jac[:3])


def _listings(polys):
    return [_term_listing(p) for p in polys]


def _assert_builders_match_chained_sums(gf):
    # The builders' caches key on value: an equal potential with another
    # term order, built by an earlier test, would answer for this one.
    for builder in (hessian_polys, immersion_polys, immersion_jacobian_polys,
                    pullback_metric_polys, singular_locus_poly):
        builder.cache_clear()
    hessian, metric, locus = _chained_dual_t_builders(gf.potential, gf.eps_q)
    assert _listings(hessian_polys(gf)._entries()) == _listings(p for r in hessian for p in r)
    assert _listings(pullback_metric_polys(gf)._entries()) == _listings(metric)
    assert _term_listing(singular_locus_poly(gf)) == _term_listing(locus)


def test_derived_identities_match_chained_sums():
    vs = ("x", "y") + derive_recursions()[(0, 0)].variables
    v = {name: _unit(vs, name) for name in vs}
    zero = Poly(vs, {})
    t = _chained_expansion(lambda name: v.get(name, zero), vs)
    t_x, t_y = t.diff("x"), t.diff("y")
    t_zz = _chained_expansion(lambda name: v["D2" + name], vs)
    residual = t_x.diff("x") * t_y.diff("y") - t_x.diff("y") ** 2 + t_zz
    expected = residual.collect(("x", "y"))
    assert [(k, _term_listing(p)) for k, p in derive_recursions().items()] == \
        [(k, _term_listing(p)) for k, p in expected.items()]


@pytest.mark.parametrize("seed", range(20))
def test_member_term_maps_match_chained_sums(seed):
    sol = build_family(random_generic_spec(random.Random(seed)))
    vs = sol.gf.potential.variables
    potential = _chained_expansion(lambda name: sol.coefficients[name].with_variables(vs), vs)
    assert _term_listing(sol.gf.potential) == _term_listing(potential)
    _assert_builders_match_chained_sums(sol.gf)


def test_fold_metric_matches_chained_sums(fold_gf):
    _assert_builders_match_chained_sums(fold_gf)
    scaled = GeneratingFunction(fold_gf.chart, fold_gf.potential, Fraction(1, 3))
    _assert_builders_match_chained_sums(scaled)


def test_sympy_oracle_first_order_degree_is_six_not_seven():
    # Independent of sgma: the derived hierarchy solves the balance equation
    # identically with first-order degree 6, so generic members have degrees
    # (1, 4, 6, 10); the transcribed reference x identity is what yields the
    # quoted degree 7, and its "solutions" leave a nonzero residual.
    sp = pytest.importorskip("sympy")
    degrees, residual = _sympy_hierarchy_member(sp, "122")
    assert degrees == (6, 6)
    assert residual == 0
    degrees, residual = _sympy_hierarchy_member(sp, "222")
    assert degrees == (7, 6)
    assert residual != 0
