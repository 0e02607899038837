"""Exact multivariate polynomial arithmetic over rational coefficients.

A polynomial is stored sparsely as a map from exponent vectors to integer
numerators over one positive common denominator, over an explicit ordered
tuple of variable names.  The form is canonical: no numerator is zero, and
the denominator shares no factor with all the numerators (the zero
polynomial has denominator 1), so equal polynomials have equal maps and
equal hashes.  All algebra, exact evaluation included, is integer
arithmetic.  ``fractions.Fraction`` appears only at the edges
(:attr:`Poly.terms`, :meth:`Poly.constant_value`,
:meth:`Poly.univariate_coefficients`, printing and exact :meth:`Poly.eval`
results), and floating point only at evaluation time, when the caller
supplies float values.  Constants, variables and the n-ary :meth:`Poly.sum`
are built as canonical pairs directly, not through ``Poly(variables, terms)``.

Evaluation is compiled Horner: a :class:`Poly`, or a :class:`PolyVector`
of them such as the cached builders of :mod:`sgma.ma_core` return, gets on
first use, once for exact and once for float inputs, one function from the
nested Horner form of its entries (:mod:`sgma.codegen`): code shared by
every vector of the same shape, with its own coefficients as defaults.  The
float one performs the operations of a recursive Horner walk in the same
order, so its floats are those of that walk to the bit.  The exact one
returns integer numerators over one scale (:meth:`PolyVector.numerators`).

Text grammar accepted by :func:`parse_poly`::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' INT)?
    atom   := INT | VARIABLE | '(' expr ')'

Division is defined only when the divisor reduces to a nonzero constant,
which covers rational literals such as ``2/3`` as well as scaled monomials
such as ``y^2/2``.  Exponents must be non-negative integer literals and
implicit multiplication is rejected.  The text is tokenized by one regular
expression scan.  A product of single terms is read as one running term
(exponents, numerator, denominator), reduced after each factor and held to
the size and bit checks of the general product, so a monomial builds one
term map; products and powers of sums multiply term maps.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from math import comb, gcd, lcm, log2
from numbers import Integral, Real
from operator import add
from typing import Sequence

import numpy as np

from . import codegen
from .errors import DomainError

# Input size budget of parse_poly, checked on bounds before each power or
# product is computed, so that a short text cannot ask for minutes of work.
MAX_DEGREE = 256
MAX_TERMS = 1000
MAX_COEFF_BITS = 4096  # bit length of any numerator or of the denominator
# Parentheses deeper than this are a ParseError, well before the parser's
# recursion (three frames per level) reaches the interpreter's limit.
MAX_NESTING = 100

# A whole number of more decimal digits than 2^MAX_COEFF_BITS has exceeds it.
_MAX_DIGITS = len(str(1 << MAX_COEFF_BITS))
# The grammar of Fraction(str): a sign, then a/b, or digits with an optional
# fractional part and exponent; underscores between digits; outer whitespace.
_NUMBER = re.compile(r"""
    \A\s*(?P<sign>[-+]?)(?=\d|\.\d)
    (?P<num>\d*|\d+(_\d+)*)
    (?:(?:/(?P<den>\d+(_\d+)*))?
     |(?:\.(?P<frac>\d*|\d+(_\d+)*))?(?:E(?P<exp>[-+]?\d+(_\d+)*))?)
    \s*\Z""", re.VERBOSE | re.IGNORECASE)


def exact_number(value) -> Fraction:
    """The exact value of an int, a Fraction or a number written as text.

    This is the one reader of numbers given from outside.  ints and
    Fractions are returned at once, whatever their size.  Text follows the
    grammar of ``Fraction(str)`` (an integer, a decimal with an optional
    exponent, or ``a/b``), and its value in lowest terms must have a
    numerator and a denominator of at most ``MAX_COEFF_BITS`` bits; the
    digit counts and the exponent are measured before anything is
    converted, so no text asks for unbounded work.  Everything else (bool,
    float) and every text that is no finite number or does not fit raises
    ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str):
        raise ValueError(f"value {value!r} is not a finite number: write it as an "
                         f"integer or a string, not a {type(value).__name__}")
    match = _NUMBER.match(value)
    if match is None:
        raise ValueError(f"value {value!r} is not a finite number")
    num = match["num"].replace("_", "").lstrip("0")
    sign = -1 if match["sign"] == "-" else 1
    if match["den"] is not None:
        den = match["den"].replace("_", "").lstrip("0")
        if not den:
            raise ValueError(f"value {value!r} is not a finite number")
        # a and b as written must fit; reduced, they are no larger.
        if max(len(num), len(den)) > _MAX_DIGITS:
            raise _beyond_bits(value)
        result = Fraction(sign * int(num or "0"), int(den))
    else:
        frac = (match["frac"] or "").replace("_", "")
        digits = (num + frac).lstrip("0")
        if not digits:
            return Fraction(0)
        # The value is m * 10^shift, m being ``significand``, no multiple of 10.
        significand = digits.rstrip("0")
        shift = len(digits) - len(significand) - len(frac)
        exp = (match["exp"] or "0").replace("_", "")
        # An exponent of more digits than this puts |shift| past MAX_COEFF_BITS.
        if len(exp.lstrip("+-0")) > len(str(MAX_COEFF_BITS + len(value))):
            raise _beyond_bits(value)
        shift += int(exp)
        n = len(significand)
        if shift >= 0:
            if n + shift > _MAX_DIGITS:  # m * 10^shift >= 10^(n - 1 + shift)
                raise _beyond_bits(value)
            result = Fraction(sign * int(significand) * 10 ** shift)
        else:
            # The reduced denominator keeps 2^-shift or 5^-shift, and the
            # numerator is at least m / 5^-shift >= 10^(n - 1) / 5^-shift.
            if -shift > MAX_COEFF_BITS or (
                    (n - 1) * log2(10) + shift * log2(5) > MAX_COEFF_BITS + 1):
                raise _beyond_bits(value)
            result = Fraction(sign * int(significand), 10 ** -shift)
    if max(result.numerator.bit_length(), result.denominator.bit_length()) > MAX_COEFF_BITS:
        raise _beyond_bits(value)
    return result


def float_number(value) -> float:
    """The float nearest ``exact_number(value)``: one grammar for float inputs too.

    Raises ValueError where :func:`exact_number` does, and for a value
    beyond the float range.
    """
    try:
        return float(exact_number(value))
    except OverflowError:
        raise ValueError(f"value {value!r} is beyond the float range") from None


_PLAIN = frozenset((int, float, Fraction))


def _plain_number(v):
    if not isinstance(v, (Real, np.ndarray)):
        raise ValueError(f"value {v!r} is not a number")
    return (v if isinstance(v, (int, Fraction, np.ndarray))
            else int(v) if isinstance(v, Integral) else float(v))


def _plain_numbers(values) -> list:
    # The values as a list: Python numbers and arrays as they are, each numpy
    # (or other numbers-registered) scalar as the int or float it holds, and
    # anything else, such as text, a ValueError.
    values = list(values)
    for v in values:
        if type(v) not in _PLAIN:
            return [_plain_number(v) for v in values]
    return values


def _beyond_bits(value: str) -> ValueError:
    return ValueError(f"value {value!r} exceeds the limit of {MAX_COEFF_BITS} bits "
                      f"for a numerator or a denominator")


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _checked_variables(variables: Sequence[str]) -> tuple:
    vs = tuple(variables)
    if len(set(vs)) != len(vs):
        raise ValueError(f"duplicate variable names in {vs!r}")
    return vs


# -- integer kernels -----------------------------------------------------------
#
# A polynomial's value is ``terms / den``: ``terms`` maps exponent tuples to
# nonzero int numerators.  The kernels return fresh canonical pairs and keep
# the dict insertion order of the textbook loops (first occurrence of each
# exponent; a sum that cancels drops out), though no evaluation reads it.


def _reduced(terms: dict, den: int) -> tuple:
    # Divide out the common factor of the denominator and every numerator.
    if den == 1 or not terms:
        return terms, 1
    g = gcd(den, *terms.values())
    if g == 1:
        return terms, den
    return {e: n // g for e, n in terms.items()}, den // g


def _accumulate(acc: dict, den: int, terms: dict, d: int, sign: int = 1) -> int:
    # acc/den += sign * terms/d in place; returns the new, unreduced denominator.
    scale = sign
    if d != den:
        common = lcm(den, d)
        if common != den:
            k = common // den
            for e in acc:
                acc[e] *= k
            den = common
        scale *= common // d
    for e, n in terms.items():
        v = acc.get(e, 0) + n * scale
        if v:
            acc[e] = v
        else:
            del acc[e]
    return den


def _mul(t1: dict, d1: int, t2: dict, d2: int) -> tuple:
    out: dict = {}
    get = out.get
    items2 = list(t2.items())
    for e1, c1 in t1.items():
        for e2, c2 in items2:
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2
    return _reduced({e: c for e, c in out.items() if c}, d1 * d2)


def _pow(terms: dict, den: int, exponent: int, nvars: int) -> tuple:
    result: tuple = ({(0,) * nvars: 1}, 1)
    base = (terms, den)
    e = exponent
    while e:
        if e & 1:
            result = _mul(*result, *base)
        e >>= 1
        if e:
            base = _mul(*base, *base)
    return result


def _scaled(terms: dict, den: int, num: int, div: int) -> tuple:
    # (terms / den) * (num / div) for nonzero ints num and div.
    if div < 0:
        num, div = -num, -div
    return _reduced({e: n * num for e, n in terms.items()}, den * div)


def _constant_of(terms: dict, den: int) -> Fraction | None:
    if not terms:
        return Fraction(0)
    if len(terms) == 1:
        exps, n = next(iter(terms.items()))
        if not any(exps):
            return Fraction(n, den)
    return None


class Poly:
    """Sparse exact polynomial over a fixed ordered tuple of named variables.

    Instances are immutable values; every operation returns a new Poly.
    Two polynomials are equal iff they share the variable tuple and have
    identical term maps.  Mixed arithmetic between polynomials over
    different variable tuples is rejected: cross-chart renaming must be
    done explicitly via :meth:`with_variables` or :meth:`compose`.
    """

    __slots__ = ("_variables", "_terms", "_den", "_hash", "_float_fn", "_exact_fn")

    def __init__(self, variables: Sequence[str], terms: Mapping | None = None):
        vs = _checked_variables(variables)
        n = len(vs)
        normalized: dict[tuple, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != n:
                raise ValueError(
                    f"exponent vector {exps!r} has length {len(exps)}, expected {n}"
                )
            if any((not isinstance(e, int)) or e < 0 for e in exps):
                raise ValueError(f"exponents must be non-negative integers: {exps!r}")
            c = exact_number(coeff)
            if c:
                normalized[exps] = normalized.get(exps, Fraction(0)) + c
        # Over the lcm of reduced denominators the numerators share no factor
        # with it, so this is already canonical.
        den = lcm(*(c.denominator for c in normalized.values()))
        self._variables = vs
        self._terms = {e: c.numerator * (den // c.denominator)
                       for e, c in normalized.items() if c}
        self._den = den
        self._hash = None
        self._float_fn = self._exact_fn = None

    @classmethod
    def _new(cls, variables: tuple, terms: dict, den: int) -> "Poly":
        # Trusted constructor for results of arithmetic: the caller passes a
        # canonical (terms, den) pair over a checked variable tuple.
        p = object.__new__(cls)
        p._variables = variables
        p._terms = terms
        p._den = den
        p._hash = None
        p._float_fn = p._exact_fn = None
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Poly":
        return cls._new(_checked_variables(variables), {}, 1)

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "Poly":
        vs = tuple(variables)
        c = exact_number(value)
        return cls._new(_checked_variables(vs), {(0,) * len(vs): c.numerator} if c else {},
                        c.denominator)

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Poly":
        vs = tuple(variables)
        if name not in vs:
            raise ValueError(f"unknown variable {name!r} (have {vs!r})")
        return cls._new(_checked_variables(vs), {tuple(int(v == name) for v in vs): 1}, 1)

    @classmethod
    def sum(cls, polys, variables: Sequence[str]) -> "Poly":
        """``zero + polys[0] + polys[1] + ...``, term order too: one map, reduced once."""
        zero = cls.zero(variables)
        acc, den = {}, 1
        for p in map(zero._lift, polys):
            den = _accumulate(acc, den, p._terms, p._den)
        return cls._new(zero._variables, *_reduced(acc, den))

    # -- basic views -------------------------------------------------------

    @property
    def variables(self) -> tuple:
        return self._variables

    @property
    def terms(self) -> dict:
        """Copy of the term map (exponent tuple -> Fraction)."""
        den = self._den
        return {e: Fraction(n, den) for e, n in self._terms.items()}

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def degree(self, var: str | None = None):
        """Total degree, or degree in one variable; None for the zero poly."""
        if not self._terms:
            return None
        if var is None:
            return max(sum(e) for e in self._terms)
        i = self._var_index(var)
        return max(e[i] for e in self._terms)

    def _var_index(self, var: str) -> int:
        try:
            return self._variables.index(var)
        except ValueError:
            raise ValueError(f"unknown variable {var!r} (have {self._variables!r})") from None

    # -- equality / hashing ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return (self._variables == other._variables and self._den == other._den
                    and self._terms == other._terms)
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(self._variables, other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._variables, frozenset(self._terms.items()), self._den))
        return self._hash

    # -- arithmetic --------------------------------------------------------

    def _lift(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other._variables != self._variables:
                raise ValueError(
                    f"variable mismatch: {self._variables!r} vs {other._variables!r}"
                )
            return other
        return Poly.constant(self._variables, other)

    def _plus(self, other, sign: int) -> "Poly":
        other = self._lift(other)
        acc = dict(self._terms)
        den = _accumulate(acc, self._den, other._terms, other._den, sign)
        return Poly._new(self._variables, *_reduced(acc, den))

    def __add__(self, other) -> "Poly":
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._new(self._variables, {e: -n for e, n in self._terms.items()}, self._den)

    def __sub__(self, other) -> "Poly":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "Poly":
        return (-self) + self._lift(other)

    def __mul__(self, other) -> "Poly":
        other = self._lift(other)
        return Poly._new(self._variables,
                         *_mul(self._terms, self._den, other._terms, other._den))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial power must be a non-negative integer, got {exponent!r}")
        return Poly._new(self._variables,
                         *_pow(self._terms, self._den, exponent, len(self._variables)))

    def constant_value(self) -> Fraction | None:
        """Value if this poly is constant, else None."""
        return _constant_of(self._terms, self._den)

    def __truediv__(self, other) -> "Poly":
        if isinstance(other, Poly):
            c = other.constant_value()
            if c is None:
                raise ValueError("division is only defined by a nonzero constant")
        else:
            c = exact_number(other)
        if c == 0:
            raise ZeroDivisionError("polynomial division by zero")
        return Poly._new(self._variables,
                         *_scaled(self._terms, self._den, c.denominator, c.numerator))

    # -- calculus ----------------------------------------------------------

    def diff(self, var: str) -> "Poly":
        """Exact partial derivative with respect to ``var``."""
        i = self._var_index(var)
        out = {}
        for exps, n in self._terms.items():
            e = exps[i]
            if e:
                out[exps[:i] + (e - 1,) + exps[i + 1 :]] = n * e
        return Poly._new(self._variables, *_reduced(out, self._den))

    def antiderivative(self, var: str) -> "Poly":
        """Exact antiderivative in ``var`` with zero constant term."""
        i = self._var_index(var)
        scale = lcm(*(exps[i] + 1 for exps in self._terms))
        out = {}
        for exps, n in self._terms.items():
            e = exps[i] + 1
            out[exps[:i] + (e,) + exps[i + 1 :]] = n * (scale // e)
        return Poly._new(self._variables, *_reduced(out, self._den * scale))

    # -- evaluation --------------------------------------------------------

    def _values_list(self, point) -> list:
        if isinstance(point, Mapping):
            extra = set(point) - set(self._variables)
            if extra:
                raise ValueError(f"unexpected values for {sorted(extra)!r}")
            try:
                return _plain_numbers(point[v] for v in self._variables)
            except KeyError as exc:
                raise ValueError(f"missing value for variable {exc.args[0]!r}") from None
        values = _plain_numbers(point)
        if len(values) != len(self._variables):
            raise ValueError(
                f"expected {len(self._variables)} values for {self._variables!r}, "
                f"got {len(values)}"
            )
        return values

    def eval(self, point):
        """Evaluate at a point (sequence in variable order, or mapping by name).

        Exact ``Fraction`` result when every input is an int or Fraction;
        float (or numpy array) result otherwise; a numpy scalar counts as
        the int or float it holds.  Evaluation is Horner-style per variable
        for floating stability, compiled once per polynomial and kind of
        input (see :func:`sgma.codegen.horner_function`) with the
        operations, in the same order, of a recursive Horner walk.  A power
        that overflows, or a coefficient beyond the float range, raises
        DomainError; a sum or product that overflows gives inf or NaN.
        """
        return _evaluate(self, self._values_list(point))[0]

    def _entries(self) -> tuple:
        return (self,)

    def __reduce__(self):
        # Compiled functions do not pickle; the value is the term map alone.
        return Poly._new, (self._variables, self._terms, self._den)

    # -- substitution / renaming -------------------------------------------

    def compose(self, mapping: Mapping[str, object], variables: Sequence[str]) -> "Poly":
        """Substitute every variable by a polynomial (or scalar) over new variables."""
        tvars = _checked_variables(variables)
        # Every entry is checked; a scalar becomes a Poly only if its variable occurs.
        bases: dict[str, Poly | Fraction] = {}
        for name in self._variables:
            if name not in mapping:
                raise ValueError(f"no substitution given for variable {name!r}")
            v = mapping[name]
            if isinstance(v, Poly):
                if v.variables != tvars:
                    raise ValueError(
                        f"substitution for {name!r} is over {v.variables!r}, expected {tvars!r}"
                    )
                bases[name] = v
            else:
                bases[name] = exact_number(v)
        # Sum coefficient * product of powers term by term, in term order;
        # the coefficients' common denominator is applied once at the end.
        one = (0,) * len(tvars)
        acc: dict = {}
        den = 1
        powers: dict[tuple, tuple] = {}
        for exps, n in self._terms.items():
            term = ({one: n}, 1)
            for name, e in zip(self._variables, exps):
                if e:
                    key = (name, e)
                    if key not in powers:
                        base = bases[name]
                        if not isinstance(base, Poly):
                            base = bases[name] = Poly.constant(tvars, base)
                        powers[key] = _pow(base._terms, base._den, e, len(tvars))
                    term = _mul(*term, *powers[key])
            den = _accumulate(acc, den, *term)
        return Poly._new(tvars, *_reduced(acc, den * self._den))

    def with_variables(self, variables: Sequence[str]) -> "Poly":
        """Re-express over a new variable tuple; used variables keep their names."""
        tvars = _checked_variables(variables)
        index = {v: i for i, v in enumerate(tvars)}
        used = [v for i, v in enumerate(self._variables)
                if any(e[i] for e in self._terms)]
        missing = [v for v in used if v not in index]
        if missing:
            raise ValueError(f"variables {missing!r} absent from target {tvars!r}")
        # Distinct exponent vectors stay distinct: they differ in a used variable.
        out = {}
        for exps, n in self._terms.items():
            new = [0] * len(tvars)
            for v, e in zip(self._variables, exps):
                if e:
                    new[index[v]] = e
            out[tuple(new)] = n
        return Poly._new(tvars, out, self._den)

    def collect(self, names: Sequence[str]) -> dict:
        """Group terms by the exponents of ``names``.

        Returns a map from exponent tuples (in ``names`` order) to coefficient
        polynomials over the remaining variables, in their original order.
        """
        names = tuple(names)
        idx = [self._var_index(n) for n in names]
        rest = [i for i in range(len(self._variables)) if i not in idx]
        rest_vars = tuple(self._variables[i] for i in rest)
        grouped: dict[tuple, dict] = {}
        for exps, n in self._terms.items():
            key = tuple(exps[i] for i in idx)
            sub = tuple(exps[i] for i in rest)
            grouped.setdefault(key, {})[sub] = n
        return {key: Poly._new(rest_vars, *_reduced(terms, self._den))
                for key, terms in grouped.items()}

    def univariate_coefficients(self, var: str) -> list:
        """Ascending coefficient list in ``var``; fails if other variables occur."""
        i = self._var_index(var)
        deg = 0
        for exps in self._terms:
            others = exps[:i] + exps[i + 1 :]
            if any(others):
                raise ValueError(f"polynomial is not univariate in {var!r}: {self}")
            deg = max(deg, exps[i])
        if not self._terms:
            return []
        coeffs = [Fraction(0)] * (deg + 1)
        for exps, n in self._terms.items():
            coeffs[exps[i]] = Fraction(n, self._den)
        return coeffs

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        ordered = sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]),
                         reverse=True)
        for k, (exps, n) in enumerate(ordered):
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self._variables, exps) if e
            )
            mag = Fraction(abs(n), self._den)
            if mono:
                body = mono if mag == 1 else f"{mag}*{mono}"
            else:
                body = str(mag)
            if k == 0:
                parts.append(f"-{body}" if n < 0 else body)
            else:
                parts.append(f"- {body}" if n < 0 else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self._variables!r}, {self!s})"


class PolyVector(tuple):
    """A tuple of Polys over one variable tuple, evaluated all at once.

    Items are Polys or rows (tuples) of Polys.  :meth:`eval` returns the
    values of every entry, rows flattened in order, from one function
    compiled on first use for each kind of input (exact or float).  The
    functions are attributes of this tuple, so they live exactly as long as
    it does: a cached builder output drops them with its cache entry.
    """

    _float_fn = _exact_fn = None

    def eval(self, values) -> tuple:
        """Values of all entries at ``values``, a point read as :meth:`Poly.eval` reads it.

        Exact Fractions when every value is an int or Fraction, floats (or
        numpy arrays) otherwise, each equal to the entry's :meth:`Poly.eval`.
        """
        return _evaluate(self, self._values_list(values))

    def numerators(self, values) -> tuple:
        """Exact values of all entries, each an integer numerator over one
        positive scale, as (numerators, scale), at ``values`` read as by
        :meth:`Poly.eval`, each exactly (one that is not finite: DomainError)."""
        return _numerators(self, self._values_list(values))

    def _values_list(self, point) -> list:
        # The entries' own reader; an empty vector has no variables to count.
        if not self:
            return _plain_numbers(point)
        first = self[0]
        return (first[0] if isinstance(first, tuple) else first)._values_list(point)

    def _entries(self) -> list:
        return [p for item in self for p in (item if isinstance(item, tuple) else (item,))]

    def __reduce__(self):
        return PolyVector, (tuple(self),)


def _numerators(owner, values) -> tuple:
    # owner: a Poly or PolyVector, which keeps its compiled functions.  The
    # point is (n_i / w) over w, the lcm of its denominators: a power of two
    # for floats.
    try:
        ratios = [v.as_integer_ratio() for v in values]
    except (OverflowError, ValueError):  # inf, nan
        raise DomainError(f"point is not finite: {tuple(values)!r}") from None
    w = lcm(*(d for _, d in ratios))
    fn = owner._exact_fn
    if fn is None:
        fn = owner._exact_fn = _compile(owner._entries(), len(values), True)
    return fn(w, *(n * (w // d) for n, d in ratios))


def _evaluate(owner, values) -> tuple:
    if all(isinstance(v, (int, Fraction)) for v in values):
        numerators, scale = _numerators(owner, values)
        return tuple(Fraction(n, scale) for n in numerators)
    try:
        fn = owner._float_fn
        if fn is None:
            fn = owner._float_fn = _compile(owner._entries(), len(values), False)
        return fn(*values)
    except OverflowError:
        raise DomainError(f"polynomial evaluation overflows at {values!r}") from None


def _compile(polys: list, nvars: int, exact: bool):
    # Equal entries (such as h_ij and h_ji) are evaluated once.
    slots: dict = {}
    order = [slots.setdefault(p, len(slots)) for p in polys]
    return codegen.horner_function([(p._terms, p._den) for p in slots], order, nvars, exact)


# -- parser ----------------------------------------------------------------


# One alternative per token kind; whitespace matches none and is skipped.  A
# name must start with a letter or "_", which no character class says
# ([^\W\d] also takes "²" and "½"), so _tokenize checks its first character.
_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>\w+)|[-+*/^()]|(?P<bad>\S)")


def _tokenize(text: str) -> list:
    tokens = [(m.lastgroup or m[0], m[0], m.start()) for m in _TOKEN.finditer(text)]
    for kind, value, pos in tokens:
        if kind == "bad" or kind == "name" and not (value[0].isalpha() or value[0] == "_"):
            raise ParseError(f"unexpected character {value[0]!r}", pos)
    tokens.append(("end", "", len(text)))
    return tokens


def _degree_range(terms: dict) -> tuple:
    degrees = [sum(e) for e in terms]
    return min(degrees), max(degrees)


def _bits(terms: dict, den: int) -> int:
    return max(den.bit_length(), max(map(int.bit_length, terms.values()), default=0))


def _factor_bits(n: int, den: int) -> int:
    # What a term n/den adds to the bits of a product: +-1 over 1 adds none,
    # so a factor whose terms are all +-1 over 1 (x, x*y*Z, -x) multiplies none.
    return 0 if den == 1 and abs(n) == 1 else max(den.bit_length(), n.bit_length())


def _pair(exps, n: int, den: int) -> tuple:
    return ({exps: n} if n else {}), den


class _Parser:
    # A sum is a canonical (terms, den) pair; parse_poly wraps the result
    # once.  A factor is a monomial (exps, n, den), n/den in lowest terms and
    # zero with exponents all 0, or (None, terms, den) if it has more terms.

    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = variables
        self.units = {v: tuple(int(w == v) for w in variables) for v in variables}
        self.zeros = (0,) * len(variables)
        self.depth = 0

    def parse(self) -> tuple:
        result = self.expr()
        kind, value, pos = self.tokens[self.pos]
        if kind != "end":
            if kind in ("int", "name", "("):
                raise ParseError(
                    f"unexpected {value!r}; implicit multiplication is not allowed", pos
                )
            raise ParseError(f"unexpected {value!r}", pos)
        return result

    def expr(self) -> tuple:
        tokens = self.tokens
        result = self.term()
        if tokens[self.pos][0] not in ("+", "-"):
            return result
        acc = dict(result[0])
        den = result[1]
        while tokens[self.pos][0] in ("+", "-"):
            sign = 1 if tokens[self.pos][0] == "+" else -1
            self.pos += 1
            den = _accumulate(acc, den, *self.term(), sign)
        return _reduced(acc, den)

    def term(self) -> tuple:
        # While its factors are monomials, a product is one running monomial,
        # reduced after each factor as _reduced does, so that its checks see
        # the numbers of the general product of (terms, den) pairs, which the
        # first factor of more terms switches to.  A quotient is a product by
        # the divisor's reciprocal, unchecked.
        tokens = self.tokens
        exps, num, den = self.factor()
        poly = None if exps is not None else (num, den)
        while tokens[self.pos][0] in ("*", "/"):
            op, _, op_pos = tokens[self.pos]
            self.pos += 1
            e, n, d = self.factor()
            if op == "/":
                if e is None or any(e):
                    raise ParseError("divisor must be a nonzero constant", op_pos)
                if not n:
                    raise ParseError("division by zero", op_pos)
                n, d = (d, n) if n > 0 else (-d, -n)
                if poly:
                    poly = _scaled(*poly, n, d)
                    continue
            elif poly or e is None:
                t1, d1 = poly or _pair(exps, num, den)
                t2, d2 = (n, d) if e is None else _pair(e, n, d)
                if t1 and t2:
                    (lo1, hi1), (lo2, hi2) = _degree_range(t1), _degree_range(t2)
                    self.check_size(lo1 + lo2, hi1 + hi2, len(t1) * len(t2), op_pos)
                    self.check_bits(max(_factor_bits(c, d1) for c in t1.values())
                                    + max(_factor_bits(c, d2) for c in t2.values())
                                    + (min(len(t1), len(t2)) - 1).bit_length(), op_pos)
                poly = _mul(t1, d1, t2, d2)
                continue
            elif num and n:
                degree = sum(exps) + sum(e)
                self.check_size(degree, degree, 1, op_pos)
                self.check_bits(_factor_bits(num, den) + _factor_bits(n, d), op_pos)
                exps = tuple(map(add, exps, e))
            num, den = num * n, den * d
            g = gcd(num, den)
            num, den = num // g, den // g
        return poly or _pair(exps, num, den)

    def factor(self) -> tuple:
        # unary := '-' unary | power, and power := atom ('^' INT)?
        tokens = self.tokens
        negate = False
        while tokens[self.pos][0] == "-":
            self.pos += 1
            negate = not negate
        kind, value, pos = tokens[self.pos]
        self.pos += 1
        if kind == "int":
            exps, n, den = self.zeros, self.integer(value, pos), 1
        elif kind == "name":
            if value not in self.units:
                raise ParseError(f"unknown variable {value!r}", pos)
            exps, n, den = self.units[value], 1, 1
        elif kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than the limit of {MAX_NESTING}",
                                 pos)
            self.depth += 1
            result = self.expr()
            self.depth -= 1
            kind, _, pos = tokens[self.pos]
            self.pos += 1
            if kind != ")":
                raise ParseError("expected ')'", pos)
            exps, n, den = self.factor_of(*result)
        elif kind == "end":
            raise ParseError("unexpected end of input", pos)
        else:
            raise ParseError(f"unexpected {value!r}", pos)
        if tokens[self.pos][0] == "^":
            exps, n, den = self.power(exps, n, den)
        if negate:
            n = -n if exps is not None else {e: -c for e, c in n.items()}
        return exps, n, den

    def factor_of(self, terms: dict, den: int) -> tuple:
        if len(terms) > 1:
            return None, terms, den
        exps, n = next(iter(terms.items()), (self.zeros, 0))
        return exps, n, den

    def power(self, exps, n, den) -> tuple:
        kind, value, pos = self.tokens[self.pos + 1]
        if kind == "-":
            raise ParseError("negative exponents are not allowed", pos)
        if kind != "int":
            raise ParseError("exponent must be a non-negative integer literal", pos)
        self.pos += 2
        k = self.integer(value, pos)
        if k > MAX_DEGREE:
            raise ParseError(f"exponent {k} exceeds the limit of {MAX_DEGREE}", pos)
        if exps is None:
            lo, hi = _degree_range(n)
            self.check_size(lo * k, hi * k, comb(len(n) + k - 1, k), pos)
            # Each coefficient of the power is at most the k-th power of
            # the base's coefficient sum: less than len(terms) * 2^bits.
            self.check_bits(k * (_bits(n, den) + (len(n) - 1).bit_length()), pos)
            return self.factor_of(*_pow(n, den, k, len(self.variables)))
        if not n:
            return exps, int(not k), 1
        degree = sum(exps) * k
        self.check_size(degree, degree, 1, pos)
        self.check_bits(k * max(den.bit_length(), n.bit_length()), pos)
        # n^k and den^k share no factor, as n and den do not.
        return tuple([e * k for e in exps]), n ** k, den ** k

    def check_size(self, low: int, high: int, terms: int, pos: int) -> None:
        # A result of total degree low..high, with at most ``terms`` terms
        # by its factors, has no more terms than monomials of those degrees.
        if high > MAX_DEGREE:
            raise ParseError(f"degree {high} exceeds the limit of {MAX_DEGREE}", pos)
        if terms > MAX_TERMS:
            n = len(self.variables)
            terms = min(terms, comb(n + high, n) - (comb(n + low - 1, n) if low else 0))
            if terms > MAX_TERMS:
                raise ParseError(f"up to {terms} terms exceed the limit of {MAX_TERMS}", pos)

    def check_bits(self, bits: int, pos: int) -> None:
        # ``bits`` bounds the bit length of the result's numerators and
        # denominator, from those of its factors.
        if bits > MAX_COEFF_BITS:
            raise ParseError(
                f"coefficients of up to {bits} bits exceed the limit of {MAX_COEFF_BITS}", pos)

    def integer(self, digits: str, pos: int) -> int:
        # The length test comes first: int() takes time quadratic in the digits.
        if len(digits.lstrip("0")) > _MAX_DIGITS:
            raise ParseError(f"integer of {len(digits)} digits exceeds the limit of "
                             f"{MAX_COEFF_BITS} bits", pos)
        n = int(digits)
        self.check_bits(n.bit_length(), pos)
        return n


def parse_poly(text: str, variables: Sequence[str]) -> Poly:
    """Parse polynomial text over the given ordered variable names.

    Raises :class:`ParseError` (with position) on syntax errors, unknown
    variables, negative or non-integer exponents, input beyond the size
    budget (``MAX_DEGREE``, ``MAX_TERMS``, ``MAX_COEFF_BITS``) and
    parentheses nested deeper than ``MAX_NESTING``.
    """
    tokens = _tokenize(text)
    vs = _checked_variables(variables)
    return Poly._new(vs, *_Parser(tokens, vs).parse())
