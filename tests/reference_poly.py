"""Reference exact polynomials: Fraction coefficients throughout.

The plain ``Fraction`` term-map ``Poly`` and parser that ``sgma.polyexpr``
must reproduce: the tests require equal term maps in the same insertion
order, equal printing, and equal exact and bit-identical float evaluation.
It is the oracle, so keep it as it is rather than fast.

Text grammar accepted by :func:`parse_poly`::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' INT)?
    atom   := INT | VARIABLE | '(' expr ')'

Division is defined only when the divisor reduces to a nonzero constant,
which covers rational literals such as ``2/3`` as well as scaled monomials
such as ``y^2/2``.  Exponents must be non-negative integer literals and
implicit multiplication is rejected.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterator, Mapping, Sequence, Union

from sgma.errors import DomainError

Scalar = Union[int, Fraction]

# Input size budget of parse_poly, checked on bounds before each power or
# product is computed, so that a short text cannot ask for minutes of work.
MAX_DEGREE = 256
MAX_TERMS = 1000


class ParseError(ValueError):
    """Raised on malformed polynomial text; carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _coerce(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot use {type(value).__name__} as an exact coefficient")


class Poly:
    """Sparse exact polynomial over a fixed ordered tuple of named variables.

    Instances are immutable values; every operation returns a new Poly.
    Two polynomials are equal iff they share the variable tuple and have
    identical term maps.  Mixed arithmetic between polynomials over
    different variable tuples is rejected: cross-chart renaming must be
    done explicitly via :meth:`with_variables` or :meth:`compose`.
    """

    __slots__ = ("_variables", "_terms", "_hash", "_tree_exact", "_tree_float")

    def __init__(self, variables: Sequence[str], terms: Mapping | None = None):
        vs = tuple(variables)
        if len(set(vs)) != len(vs):
            raise ValueError(f"duplicate variable names in {vs!r}")
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
            c = _coerce(coeff)
            if c:
                normalized[exps] = normalized.get(exps, Fraction(0)) + c
        self._variables = vs
        self._terms = {e: c for e, c in normalized.items() if c}
        self._hash = None
        self._tree_exact = None
        self._tree_float = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Poly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "Poly":
        vs = tuple(variables)
        return cls(vs, {(0,) * len(vs): _coerce(value)})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Poly":
        vs = tuple(variables)
        if name not in vs:
            raise ValueError(f"unknown variable {name!r} (have {vs!r})")
        exps = tuple(1 if v == name else 0 for v in vs)
        return cls(vs, {exps: 1})

    # -- basic views -------------------------------------------------------

    @property
    def variables(self) -> tuple:
        return self._variables

    @property
    def terms(self) -> dict:
        """Copy of the term map (exponent tuple -> Fraction)."""
        return dict(self._terms)

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
            return self._variables == other._variables and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == Poly.constant(self._variables, other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._variables, frozenset(self._terms.items())))
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

    def __add__(self, other) -> "Poly":
        other = self._lift(other)
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Poly(self._variables, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self._variables, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-self._lift(other))

    def __rsub__(self, other) -> "Poly":
        return (-self) + self._lift(other)

    def __mul__(self, other) -> "Poly":
        other = self._lift(other)
        out: dict[tuple, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return Poly(self._variables, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(f"polynomial power must be a non-negative integer, got {exponent!r}")
        result = Poly.constant(self._variables, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def constant_value(self) -> Fraction | None:
        """Value if this poly is constant, else None."""
        if not self._terms:
            return Fraction(0)
        if len(self._terms) == 1:
            exps, c = next(iter(self._terms.items()))
            if not any(exps):
                return c
        return None

    def __truediv__(self, other) -> "Poly":
        if isinstance(other, Poly):
            c = other.constant_value()
            if c is None:
                raise ValueError("division is only defined by a nonzero constant")
        else:
            c = _coerce(other)
        if c == 0:
            raise ZeroDivisionError("polynomial division by zero")
        return Poly(self._variables, {e: coeff / c for e, coeff in self._terms.items()})

    # -- calculus ----------------------------------------------------------

    def diff(self, var: str) -> "Poly":
        """Exact partial derivative with respect to ``var``."""
        i = self._var_index(var)
        out = {}
        for exps, coeff in self._terms.items():
            e = exps[i]
            if e:
                new = exps[:i] + (e - 1,) + exps[i + 1 :]
                out[new] = out.get(new, Fraction(0)) + coeff * e
        return Poly(self._variables, out)

    def antiderivative(self, var: str) -> "Poly":
        """Exact antiderivative in ``var`` with zero constant term."""
        i = self._var_index(var)
        out = {}
        for exps, coeff in self._terms.items():
            e = exps[i]
            new = exps[:i] + (e + 1,) + exps[i + 1 :]
            out[new] = coeff / (e + 1)
        return Poly(self._variables, out)

    # -- evaluation --------------------------------------------------------

    def _values_list(self, point) -> list:
        if isinstance(point, Mapping):
            extra = set(point) - set(self._variables)
            if extra:
                raise ValueError(f"unexpected values for {sorted(extra)!r}")
            try:
                return [point[v] for v in self._variables]
            except KeyError as exc:
                raise ValueError(f"missing value for variable {exc.args[0]!r}") from None
        values = list(point)
        if len(values) != len(self._variables):
            raise ValueError(
                f"expected {len(self._variables)} values for {self._variables!r}, "
                f"got {len(values)}"
            )
        return values

    def eval(self, point):
        """Evaluate at a point (sequence in variable order, or mapping by name).

        Exact ``Fraction`` result when every input is an int or Fraction;
        float (or numpy array) result otherwise.  Evaluation is Horner-style
        per variable for floating stability.  Float overflow raises DomainError.
        """
        values = self._values_list(point)
        if all(isinstance(v, (int, Fraction)) for v in values):
            if self._tree_exact is None:
                self._tree_exact = _build_tree(list(self._terms.items()), 0,
                                               len(self._variables), Fraction)
            if self._tree_exact is _EMPTY:
                return Fraction(0)
            return _eval_tree(self._tree_exact, [Fraction(v) for v in values])
        if self._tree_float is None:
            self._tree_float = _build_tree(list(self._terms.items()), 0,
                                           len(self._variables), float)
        if self._tree_float is _EMPTY:
            return 0.0
        try:
            return _eval_tree(self._tree_float, values)
        except OverflowError:
            raise DomainError(f"polynomial evaluation overflows at {values!r}") from None

    # -- substitution / renaming -------------------------------------------

    def compose(self, mapping: Mapping[str, object], variables: Sequence[str]) -> "Poly":
        """Substitute every variable by a polynomial (or scalar) over new variables."""
        tvars = tuple(variables)
        lifted: dict[str, Poly] = {}
        for name in self._variables:
            if name not in mapping:
                raise ValueError(f"no substitution given for variable {name!r}")
            v = mapping[name]
            if isinstance(v, Poly):
                if v.variables != tvars:
                    raise ValueError(
                        f"substitution for {name!r} is over {v.variables!r}, expected {tvars!r}"
                    )
                lifted[name] = v
            else:
                lifted[name] = Poly.constant(tvars, v)
        acc = Poly.zero(tvars)
        powers: dict[tuple, Poly] = {}
        for exps, coeff in self._terms.items():
            term = Poly.constant(tvars, coeff)
            for name, e in zip(self._variables, exps):
                if e:
                    key = (name, e)
                    if key not in powers:
                        powers[key] = lifted[name] ** e
                    term = term * powers[key]
            acc = acc + term
        return acc

    def with_variables(self, variables: Sequence[str]) -> "Poly":
        """Re-express over a new variable tuple; used variables keep their names."""
        tvars = tuple(variables)
        index = {v: i for i, v in enumerate(tvars)}
        used = [v for i, v in enumerate(self._variables)
                if any(e[i] for e in self._terms)]
        missing = [v for v in used if v not in index]
        if missing:
            raise ValueError(f"variables {missing!r} absent from target {tvars!r}")
        out = {}
        for exps, coeff in self._terms.items():
            new = [0] * len(tvars)
            for v, e in zip(self._variables, exps):
                if e:
                    new[index[v]] = e
            key = tuple(new)
            out[key] = out.get(key, Fraction(0)) + coeff
        return Poly(tvars, out)

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
        for exps, coeff in self._terms.items():
            key = tuple(exps[i] for i in idx)
            sub = tuple(exps[i] for i in rest)
            grouped.setdefault(key, {})[sub] = coeff
        return {key: Poly(rest_vars, terms) for key, terms in grouped.items()}

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
        for exps, coeff in self._terms.items():
            coeffs[exps[i]] = coeff
        return coeffs

    # -- printing ----------------------------------------------------------

    def _sorted_terms(self) -> Iterator[tuple]:
        return iter(sorted(self._terms.items(),
                           key=lambda kv: (sum(kv[0]), kv[0]), reverse=True))

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for n, (exps, coeff) in enumerate(self._sorted_terms()):
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self._variables, exps) if e
            )
            mag = abs(coeff)
            if mono:
                body = mono if mag == 1 else f"{mag}*{mono}"
            else:
                body = str(mag)
            if n == 0:
                parts.append(f"-{body}" if coeff < 0 else body)
            else:
                parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self._variables!r}, {self!s})"


_EMPTY = ("empty",)


def _build_tree(items, vi, nvars, cast):
    # Nested Horner grouping, built once per poly and cached.
    if not items:
        return _EMPTY
    if vi == nvars:
        total = sum((c for _, c in items), Fraction(0))
        return (-1, cast(total))
    groups: dict[int, list] = {}
    for exps, c in items:
        groups.setdefault(exps[vi], []).append((exps, c))
    if len(groups) == 1 and 0 in groups:
        return _build_tree(items, vi + 1, nvars, cast)
    entries = tuple(
        (e, _build_tree(sub, vi + 1, nvars, cast))
        for e, sub in sorted(groups.items(), reverse=True)
    )
    return (vi, entries)


def _eval_tree(node, values):
    tag = node[0]
    if tag == -1:
        return node[1]
    vi, entries = node
    v = values[vi]
    e0, sub0 = entries[0]
    acc = _eval_tree(sub0, values)
    prev = e0
    for e, sub in entries[1:]:
        acc = acc * v ** (prev - e) + _eval_tree(sub, values)
        prev = e
    if prev:
        acc = acc * v ** prev
    return acc


# -- parser ----------------------------------------------------------------


def _tokenize(text: str) -> list:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdecimal():  # "²" is a digit that int() cannot read: no int token
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            tokens.append((c, c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _degree_range(poly: Poly) -> tuple:
    degrees = [sum(e) for e in poly._terms]
    return min(degrees), max(degrees)


class _Parser:
    def __init__(self, tokens, variables):
        self.tokens = tokens
        self.pos = 0
        self.variables = tuple(variables)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Poly:
        result = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            if kind in ("int", "name", "("):
                raise ParseError(
                    f"unexpected {value!r}; implicit multiplication is not allowed", pos
                )
            raise ParseError(f"unexpected {value!r}", pos)
        return result

    def expr(self) -> Poly:
        result = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            result = result + rhs if op == "+" else result - rhs
        return result

    def term(self) -> Poly:
        result = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, op_pos = self.advance()
            rhs = self.unary()
            if op == "*":
                if not (result.is_zero or rhs.is_zero):
                    (lo1, hi1), (lo2, hi2) = _degree_range(result), _degree_range(rhs)
                    self.check_size(lo1 + lo2, hi1 + hi2,
                                    len(result._terms) * len(rhs._terms), op_pos)
                result = result * rhs
            else:
                c = rhs.constant_value()
                if c is None:
                    raise ParseError("divisor must be a nonzero constant", op_pos)
                if c == 0:
                    raise ParseError("division by zero", op_pos)
                result = result / c
        return result

    def unary(self) -> Poly:
        if self.peek()[0] == "-":
            self.advance()
            return -self.unary()
        return self.power()

    def power(self) -> Poly:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            kind, value, pos = self.peek()
            if kind == "-":
                raise ParseError("negative exponents are not allowed", pos)
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer literal", pos)
            self.advance()
            k = int(value)
            if k > MAX_DEGREE:
                raise ParseError(f"exponent {k} exceeds the limit of {MAX_DEGREE}", pos)
            if not base.is_zero:
                lo, hi = _degree_range(base)
                self.check_size(lo * k, hi * k, comb(len(base._terms) + k - 1, k), pos)
            return base ** k
        return base

    def check_size(self, low: int, high: int, terms: int, pos: int) -> None:
        # A result of total degree low..high, with at most ``terms`` terms
        # by its factors, has no more terms than monomials of those degrees.
        if high > MAX_DEGREE:
            raise ParseError(f"degree {high} exceeds the limit of {MAX_DEGREE}", pos)
        n = len(self.variables)
        terms = min(terms, comb(n + high, n) - (comb(n + low - 1, n) if low else 0))
        if terms > MAX_TERMS:
            raise ParseError(f"up to {terms} terms exceed the limit of {MAX_TERMS}", pos)

    def atom(self) -> Poly:
        kind, value, pos = self.advance()
        if kind == "int":
            return Poly.constant(self.variables, int(value))
        if kind == "name":
            if value not in self.variables:
                raise ParseError(f"unknown variable {value!r}", pos)
            return Poly.variable(self.variables, value)
        if kind == "(":
            result = self.expr()
            kind, _, pos = self.advance()
            if kind != ")":
                raise ParseError("expected ')'", pos)
            return result
        if kind == "end":
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected {value!r}", pos)


def parse_poly(text: str, variables: Sequence[str]) -> Poly:
    """Parse polynomial text over the given ordered variable names.

    Raises :class:`ParseError` (with position) on syntax errors, unknown
    variables, negative or non-integer exponents, and input beyond the size
    budget (``MAX_DEGREE``, ``MAX_TERMS``).
    """
    return _Parser(_tokenize(text), variables).parse()
