"""The library names and signatures that the benchmark in perfbench/ relies on.

perfbench/ is not part of the package, so a renamed or deleted name would
break the benchmark (``tracer.install`` raises KeyError, ``workloads``
fails to import) without failing any other test.
"""

import importlib.util
from pathlib import Path

import numpy as np

from sgma import characteristics as ch, ma_core as mc, sg, singular as sing
from sgma.polyexpr import parse_poly

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = _load("tracer")._targets()
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, *_ in targets if attr not in vars(owner)]
    assert missing == []


def test_grid_constructors_keep_their_signatures(fold_gf):
    grid = sing.GridSpec2D("x", 0, 1, 2, "y", 0, 0, 1)
    assert list(grid.nodes()) == [(0.0, 0.0), (1.0, 0.0)]
    sing.caustic_sweep(fold_gf, grid)
    plane = sg.PlaneGridSpec(x_lo=2, x_hi=2, nx=1, z_lo=-1, z_hi=0, nz=2)
    samples = sg.wind_field_sweep(fold_gf, "convex", plane)
    assert [(s.x, s.y, s.z) for s in samples] == [(2.0, 0.0, -1.0), (2.0, 0.0, 0.0)]
    axes = {"x": np.array([0.5]), "y": np.array([0.0, 1.0]), "Z": np.array([-1.0])}
    eigs, labels = mc.classification_grid(fold_gf, axes)
    assert eigs.shape == (1, 2, 1, 3) and labels.shape == (1, 2, 1)


def test_workload_call_shapes(fold_gf):
    # The calls perfbench/workloads.py makes, argument for argument.
    state = sg.reconstructed_state(fold_gf, (2.0, 0.0, -1.0))
    assert state.u is not None
    rows, rhs = sg.velocity_system(fold_gf, state)
    assert rows.shape == (3, 3) and rhs.shape == (3,)
    eps = sg.EpsilonChoice.for_gf(fold_gf)
    grid = sg.PlaneGridSpec(x_lo=2, x_hi=2, nx=1, z_lo=-1, z_hi=0, nz=2)
    assert len(sg.wind_field_sweep(fold_gf, "convex", grid, eps)) == 2
    start = ch.BicharState((0.0, 0.0, 1.0), (0.0, 1.0, -1.0))
    assert ch.hamiltonian(fold_gf, start) == 0.0
    trace = ch.trace_bicharacteristic(fold_gf, start, step=1e-3, max_steps=3, box=10.0)
    assert len(trace.states) == 4
    for matrix in (mc.pullback_metric(fold_gf, (0.5, -0.25, 0.75)),
                   mc.linearization_matrix(fold_gf, (0.5, -0.25, 0.75))):
        assert isinstance(matrix, np.ndarray)
        assert matrix.dtype == np.float64 and matrix.shape == (3, 3)


def test_cached_builders_expose_cache_controls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports its siblings
    workloads = _load("workloads")
    for builder in workloads.MA_CORE_CACHES + workloads.OTHER_CACHES:
        assert callable(builder.cache_clear) and callable(builder.cache_info)


def test_terms_out_probe_counts_terms():
    # tracer._hook_poly adds len(result._terms) to polyexpr.terms_out: the
    # private map must hold exactly one entry per term of the result.
    xyz = ("x", "y", "Z")
    p = parse_poly("y^2/2 - x^2*Z/2 + Z^3/6", xyz)
    q = parse_poly("(x + y/3 - 1)^3", xyz)
    results = [p, q, p + q, p - p, p * q, q ** 2, p / 7, -q, p.diff("Z"),
               q.antiderivative("y"), p.compose({"x": q, "y": 2, "Z": p}, xyz),
               p.with_variables(("Z", "y", "x")), *p.collect(("Z",)).values(),
               parse_poly(str(p * q), xyz)]
    for r in results:
        assert len(r._terms) == len(r.terms)
    assert [len(r._terms) for r in results[:4]] == [3, 10, 12, 0]
