"""Grid parsing, validation, axis order and row-major nodes."""

from fractions import Fraction

import numpy as np
import pytest

from sgma.grid import MAX_NODES, Axis, Grid


def test_parse_keeps_text_order_and_nodes_run_row_major():
    grid = Grid.parse("y=0:1:2, x=-1:1:3")
    assert grid.names == ("y", "x")
    assert list(grid.nodes()) == [(0.0, -1.0), (0.0, 0.0), (0.0, 1.0),
                                  (1.0, -1.0), (1.0, 0.0), (1.0, 1.0)]
    assert all(type(v) is float for node in grid.nodes() for v in node)
    axes = grid.axes()
    assert list(axes) == ["y", "x"]
    assert np.array_equal(axes["x"], np.linspace(-1, 1, 3))


def test_ordered_reorders_axes():
    grid = Grid.parse("Z=0:1:2,x=5:5:1,y=-1:1:3").ordered(("x", "y", "Z"))
    assert grid.names == ("x", "y", "Z")
    assert list(grid.nodes())[:2] == [(5.0, -1.0, 0.0), (5.0, -1.0, 1.0)]
    with pytest.raises(ValueError):
        grid.ordered(("x", "y", "z"))
    with pytest.raises(ValueError):
        grid.ordered(("x", "y"))


def test_one_node_axis():
    assert list(Grid((Axis("y", 0.25, 0.25, 1),)).nodes()) == [(0.25,)]


@pytest.mark.parametrize("text", [
    "x=0:1", "x=0:1:2:3", "x0:1:2", "x=a:1:2", "x=0:1:2.5",   # malformed
    "x=0:1:0", "x=1:0:2", "x=0:1:2,x=0:1:2",                  # invalid
    "x=inf:inf:2", "x=-inf:0:2", "x=0:nan:2", "x=nan:nan:1",  # non-finite
])
def test_bad_grids_raise_value_error(text):
    with pytest.raises(ValueError):
        Grid.parse(text)


def test_exact_bounds_are_not_checked_as_floats():
    # math.isfinite would overflow on a bound this large.
    grid = Grid((Axis("x", Fraction(-10 ** 400), Fraction(10 ** 400), 1),))
    assert grid.dims[0].hi == Fraction(10 ** 400)


def test_node_limit():
    side = round(MAX_NODES ** (1 / 3))
    assert side ** 3 == MAX_NODES
    assert Grid.parse(f"x=0:1:{side},y=0:1:{side},Z=0:1:{side}").dims[0].n == side
    with pytest.raises(ValueError, match=f"{MAX_NODES + side * side} nodes exceeds the limit"):
        Grid.parse(f"x=0:1:{side + 1},y=0:1:{side},Z=0:1:{side}")
