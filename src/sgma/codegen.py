"""Python source emission and compilation for generated evaluators.

Two generators share this module: the polynomial vectors of
:mod:`sgma.polyexpr`, whose Horner source is emitted here, and the RK4
metric kernels of :mod:`sgma.characteristics`, which keep their own
templates.  Generated functions take the chart variables as positional
arguments ``q0, q1, ...`` (see :func:`arg`).  A polynomial vector's source
names its coefficients as further parameters ``c0, c1, ...``, so vectors of
one Horner shape share one source text and one compiled code object; each
vector's function binds its own coefficients as the parameters' defaults.
The only compiled state kept here is a bounded map from source text to code
object; every function belongs to the object that asked for it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import DomainError


def arg(i: int) -> str:
    """Name of the i-th variable argument of a generated function."""
    return f"q{i}"


def _float(num: int, den: int) -> float:
    # The float nearest num / den; DomainError beyond the float range.
    # int / int is correctly rounded, as float(Fraction(num, den)) is.
    try:
        return num / den
    except OverflowError:
        raise DomainError("a polynomial coefficient overflows the float range") from None


def float_literal(num: int, den: int = 1) -> str:
    """Source of the float nearest num / den; DomainError beyond the float range."""
    return repr(_float(num, den))


def function_source(signature: str, body) -> str:
    return f"def {signature}:\n" + "".join(f"    {line}\n" for line in body)


# Code objects by source text.  A pass over 100 fresh family members asks for
# about twenty polynomial-vector shapes; a source that falls out of the bound is
# compiled again when next asked for.
@lru_cache(maxsize=256)
def _code(source: str, filename: str):
    return compile(source, filename, "exec")


def compile_functions(source: str, filename: str, names, namespace=None) -> tuple:
    """Compile generated ``source`` and return the functions it defines under ``names``.

    ``namespace`` supplies the globals the source refers to.  The functions
    are taken out of it, so that no function and its globals form a cycle:
    a compiled function is freed as soon as its owner drops it.  Each call
    returns new function objects; only their code objects are shared with
    earlier calls on the same source.
    """
    namespace = dict(namespace or {})
    exec(_code(source, filename), namespace)  # noqa: S102 - our own source
    return tuple(namespace.pop(name) for name in names)


class _Horner:
    # Statements evaluating nested Horner forms, with each power q_i ** k
    # (k >= 2) computed once, first.  Every operand an expression returns is
    # a name or a left-to-right product, so the statements never nest sums,
    # however large the polynomial.  Each use of a coefficient is the next
    # parameter c0, c1, ...; the values collect in ``coefficients``.

    def __init__(self):
        self.powers: dict = {}
        self.lines: list = []
        self.temps = 0
        self.coefficients: list = []

    def coefficient(self, value) -> str:
        self.coefficients.append(value)
        return f"c{len(self.coefficients) - 1}"

    def power(self, vi: int, k: int) -> str:
        # v ** 1 is v, to the bit, for every value type this evaluates.
        base = arg(vi)
        if k == 1:
            return base
        name = f"{base}_{k}"
        self.powers.setdefault(name, f"{name} = {base} ** {k}")
        return name

    def value(self, items: list, vi: int, nvars: int, leaf) -> str:
        # items: (exponents, numerator) pairs with distinct exponents; leaf
        # maps a numerator to its coefficient's value.  The
        # grouping, and per group the operations and their order, are those
        # of the recursive Horner evaluation in tests/reference_poly.py:
        # highest power first, acc = acc * v ** (gap) + sub, then
        # acc * v ** (lowest power).
        if vi == nvars:
            return self.coefficient(leaf(items[0][1]))
        groups: dict[int, list] = {}
        for exps, c in items:
            groups.setdefault(exps[vi], []).append((exps, c))
        if len(groups) == 1 and 0 in groups:
            return self.value(items, vi + 1, nvars, leaf)
        entries = sorted(groups.items(), reverse=True)
        prev, sub = entries[0]
        acc = self.value(sub, vi + 1, nvars, leaf)
        if len(entries) > 1:
            temp = f"t{self.temps}"
            self.temps += 1
            for e, sub in entries[1:]:
                term = self.value(sub, vi + 1, nvars, leaf)
                self.lines.append(f"{temp} = {acc} * {self.power(vi, prev - e)} + {term}")
                acc, prev = temp, e
        if prev:
            acc = f"{acc} * {self.power(vi, prev)}"
        return acc


def horner_function(entries, order, nvars: int, exact: bool):
    """Compile one function returning the values of several polynomials.

    ``entries`` are distinct polynomials as (terms, den) pairs: a map from
    exponent tuples of length ``nvars`` to int numerators, over one positive
    denominator.  The function takes the ``nvars`` values as positional
    arguments and returns the tuple of ``entries[k]`` for k in ``order``.
    It evaluates each entry's nested Horner form with the operations, and in
    each sum the order, of a recursive Horner evaluation, so its values are
    the same to the bit.  Float leaves (``exact`` false) are the correctly
    rounded coefficients, and a coefficient beyond the float range raises
    DomainError here; exact leaves are the numerators, and each value is
    the Fraction of the numerator's Horner value over den.

    The coefficients are trailing parameters bound as ``__defaults__``, which
    frame set-up fills in about as fast as literals load, so vectors of one
    shape share one code object; callers pass exactly ``nvars`` values.
    """
    horner = _Horner()
    results = []
    for terms, den in entries:
        if exact:
            value = horner.value(list(terms.items()), 0, nvars, int) if terms else "0"
            results.append(f"_F({value}, {horner.coefficient(den)})")
        else:
            results.append(horner.value(list(terms.items()), 0, nvars,
                                        lambda n: _float(n, den)) if terms else "0.0")
    params = [arg(i) for i in range(nvars)]
    params += [f"c{k}" for k in range(len(horner.coefficients))]
    body = [*horner.powers.values(), *horner.lines,
            f"return ({''.join(results[k] + ', ' for k in order)})"]
    function = compile_functions(function_source(f"vector({', '.join(params)})", body),
                                 "<sgma polynomial vector>", ("vector",), {"_F": Fraction})[0]
    function.__defaults__ = tuple(horner.coefficients)
    return function
