from fractions import Fraction

import pytest
from hypothesis import settings

from sgma.ma_core import ChartKind, GeneratingFunction
from sgma.polyexpr import Poly, parse_poly

# Every property test draws the same examples on every run; each keeps its
# own max_examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def fold_gf() -> GeneratingFunction:
    """The canonical fold-deformation solution on the dual-T chart."""
    return GeneratingFunction(
        ChartKind.DUAL_T,
        parse_poly("y^2/2 - x^2*Z/2 + Z^3/6", ("x", "y", "Z")),
        Fraction(1),
    )


@pytest.fixture(scope="session")
def convex_quadratic_gf() -> GeneratingFunction:
    return GeneratingFunction(
        ChartKind.CLASSICAL_P,
        parse_poly("(x^2 + y^2 + z^2)/2", ("x", "y", "z")),
        Fraction(1),
    )


@pytest.fixture
def constant_calls(monkeypatch) -> list:
    """The values of every ``Poly.constant`` call made after the fixture is set up."""
    calls = []
    constant = Poly.constant.__func__

    def spy(cls, variables, value):
        calls.append(value)
        return constant(cls, variables, value)

    monkeypatch.setattr(Poly, "constant", classmethod(spy))
    return calls
