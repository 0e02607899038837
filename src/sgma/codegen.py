"""Python source emission and compilation for generated evaluators.

Two generators share this module: the polynomial vectors of
:mod:`sgma.polyexpr`, whose Horner source is emitted here, and the RK4
metric kernels of :mod:`sgma.characteristics`, which keep their own
templates.  Generated functions take the chart variables as positional
arguments ``q0, q1, ...`` (see :func:`arg`), embed coefficients as
literals, and are compiled once by the object that owns them; this module
keeps no compiled function itself.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError


def arg(i: int) -> str:
    """Name of the i-th variable argument of a generated function."""
    return f"q{i}"


def float_literal(num: int, den: int = 1) -> str:
    """Source of the float nearest num / den; DomainError beyond the float range.

    int / int is correctly rounded, as float(Fraction(num, den)) is.
    """
    try:
        return repr(num / den)
    except OverflowError:
        raise DomainError("a polynomial coefficient overflows the float range") from None


def _int_literal(n: int) -> str:
    # Hexadecimal, which the interpreter's limit on decimal digits does not cover.
    return hex(n)


def function_source(signature: str, body) -> str:
    return f"def {signature}:\n" + "".join(f"    {line}\n" for line in body)


def compile_functions(source: str, filename: str, names, namespace=None) -> tuple:
    """Compile generated ``source`` and return the functions it defines under ``names``.

    ``namespace`` supplies the globals the source refers to.  The functions
    are taken out of it, so that no function and its globals form a cycle:
    a compiled function is freed as soon as its owner drops it.
    """
    namespace = dict(namespace or {})
    exec(compile(source, filename, "exec"), namespace)  # noqa: S102 - our own source
    return tuple(namespace.pop(name) for name in names)


class _Horner:
    # Statements evaluating nested Horner forms, with each power q_i ** k
    # (k >= 2) computed once, first.  Every operand an expression returns is
    # a literal, a name or a left-to-right product, so the statements never
    # nest sums, however large the polynomial.

    def __init__(self):
        self.powers: dict = {}
        self.lines: list = []
        self.temps = 0

    def power(self, vi: int, k: int) -> str:
        # v ** 1 is v, to the bit, for every value type this evaluates.
        base = arg(vi)
        if k == 1:
            return base
        name = f"{base}_{k}"
        self.powers.setdefault(name, f"{name} = {base} ** {k}")
        return name

    def value(self, items: list, vi: int, nvars: int, leaf) -> str:
        # items: (exponents, numerator) pairs with distinct exponents.  The
        # grouping, and per group the operations and their order, are those
        # of the recursive Horner evaluation in tests/reference_poly.py:
        # highest power first, acc = acc * v ** (gap) + sub, then
        # acc * v ** (lowest power).
        if vi == nvars:
            return leaf(items[0][1])
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
    rounded coefficients; exact leaves are the numerators, and each value is
    the Fraction of the numerator's Horner value over den.
    """
    horner = _Horner()
    results = []
    for terms, den in entries:
        if exact:
            value = horner.value(list(terms.items()), 0, nvars, _int_literal) if terms else "0"
            results.append(f"_F({value}, {_int_literal(den)})")
        else:
            results.append(horner.value(list(terms.items()), 0, nvars,
                                        lambda n: float_literal(n, den)) if terms else "0.0")
    signature = f"vector({', '.join(arg(i) for i in range(nvars))})"
    body = [*horner.powers.values(), *horner.lines,
            f"return ({''.join(results[k] + ', ' for k in order)})"]
    return compile_functions(function_source(signature, body), "<sgma polynomial vector>",
                             ("vector",), {"_F": Fraction})[0]
