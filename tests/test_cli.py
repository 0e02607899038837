"""Subcommand behavior, exit codes, error records, and output determinism."""

import argparse
import hashlib
import io
import json
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from sgma import characteristics as ch
from sgma import cli, verify
from sgma import singular as sing
from sgma.cli import main
from sgma.errors import MetricSingularError
from sgma.family import build_family, random_generic_spec
from sgma.formatting import render_json, write_csv
from sgma.grid import Grid
from sgma.ma_core import GeneratingFunction

FOLD = ["--chart", "T", "--potential", "y^2/2 - x^2*Z/2 + Z^3/6"]
# A potential whose coefficient 10^400 the parser admits but no float holds;
# its singular locus -6*10^400*Z has the root Z = 0 on every caustic slice.
HUGE = ["--chart", "T", "--potential", "(10^200)^2*Z^3 + y^2"]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_point_labels(capsys):
    code, out, _ = _run(capsys, ["classify", *FOLD, "--point", "0,0,1"])
    assert code == 0
    report = json.loads(out)
    assert report["label"] == "hyperbolic"
    code, out, _ = _run(capsys, ["classify", *FOLD, "--point", "0,0,0"])
    assert json.loads(out)["label"] == "parabolic"
    code, out, _ = _run(capsys, ["classify", "--chart", "P", "--potential",
                                 "(x^2 + y^2 + z^2)/2", "--point", "0,0,0"])
    assert json.loads(out)["label"] == "elliptic"


def test_classify_grid_csv(capsys):
    code, out, _ = _run(capsys, ["classify", *FOLD, "--grid",
                                 "x=0:0:1,y=0:0:1,Z=-1:1:3"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,y,Z,eig1,eig2,eig3,label"
    assert len(lines) == 4
    assert lines[1].endswith("elliptic")
    assert lines[2].endswith("parabolic")
    assert lines[3].endswith("hyperbolic")


def test_residual_numeric_and_symbolic(capsys):
    code, out, _ = _run(capsys, ["residual", "--chart", "P", "--potential",
                                 "(x^2 + y^2 + z^2)/2", "--eps-q", "2",
                                 "--point", "1,2,3"])
    assert code == 0 and json.loads(out)["residual"] == -1
    code, out, _ = _run(capsys, ["residual", *FOLD, "--symbolic"])
    report = json.loads(out)
    assert report["is_zero"] is True and report["residual"] == "0"
    # Exact, so a coefficient beyond the float range does no harm here.
    code, out, _ = _run(capsys, ["residual", *HUGE, "--symbolic"])
    assert code == 0 and json.loads(out)["is_zero"] is False


def test_singular_locus(capsys):
    code, out, _ = _run(capsys, ["singular", *FOLD])
    assert code == 0 and json.loads(out)["locus"] == "-Z"


def test_caustic_csv(capsys):
    code, out, _ = _run(capsys, ["caustic", *FOLD, "--grid", "x=2:2:1,y=0:0:1"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("chart_1,")
    fields = lines[1].split(",")
    assert fields[3:6] == ["2", "0", "2"]  # base point (2, 0, 2)


def test_caustic_degenerate_slices_trailer_golden(capsys):
    # The locus -x*Z vanishes identically in Z on the x = 0 slice.
    code, out, _ = _run(capsys, ["caustic", "--chart", "T", "--potential",
                                 "y^2/2 - x^2*Z/2 + x*Z^3/6", "--grid", "x=-1:1:3,y=0:0:1"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4 and lines[-1] == "# degenerate_slices=1"
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "9e0a9fa38b75b8e68f1aef78a5860958b72f5da08956ffd43324fc694bb2855c"


def test_caustic_library_table_equals_cli_stdout(capsys):
    # The library writer owns the degenerate-slices trailer, so the same
    # sweep gives the same bytes from sgma.singular and from the command.
    potential, grid = "y^2/2 - x^2*Z/2 + x*Z^3/6", "x=-1:1:3,y=0:0:1"
    code, out, _ = _run(capsys, ["caustic", "--chart", "T", "--potential", potential,
                                 "--grid", grid])
    gf = GeneratingFunction.from_dict({"chart": "T", "potential": potential})
    buf = io.StringIO()
    sing.write_caustic_csv(sing.caustic_sweep(gf, Grid.parse(grid)), buf)
    assert code == 0 and buf.getvalue() == out


def test_fiber_report(capsys):
    code, out, _ = _run(capsys, ["fiber", *FOLD, "--base", "2,0,0"])
    assert code == 0
    report = json.loads(out)
    assert [f["chart_point"][2] for f in report["fiber"]] == [-2, 2]
    assert report["convex_branch"] == 0 and report["ambiguous"] is False


def test_fiber_reports_an_ambiguous_convex_branch(capsys):
    gf = build_family(random_generic_spec(random.Random(1))).gf
    code, out, _ = _run(capsys, ["fiber", "--chart", "T", "--potential", str(gf.potential),
                                 "--eps-q", str(gf.eps_q), "--base=-1,-1,-2"])
    assert code == 0
    report = json.loads(out)
    assert [f["convex"] for f in report["fiber"]] == [True, False, True]
    assert report["convex_branch"] == 0 and report["ambiguous"] is True


def test_trace_reaches_boundary(capsys):
    code, out, _ = _run(capsys, ["trace", *FOLD, "--q", "0,0,1", "--p", "0,1,?",
                                 "--null-root", "1", "--max-steps", "5000"])
    assert code == 0
    assert out.strip().endswith("# termination=parabolic_boundary")


def test_trace_fixed_point_is_accepted(capsys):
    # H = 0 holds for p = 0; the trace is constant and exhausts its budget.
    code, out, _ = _run(capsys, ["trace", *FOLD, "--q", "0,0,1", "--p", "0,0,0",
                                 "--max-steps", "10"])
    assert code == 0
    assert out.strip().endswith("# termination=max_steps")


def test_trace_non_null_start_is_domain_error(capsys):
    code, _, err = _run(capsys, ["trace", *FOLD, "--q", "0,0,1", "--p", "1,1,1"])
    assert code == 3
    record = json.loads(err.strip())
    assert record["error"]["code"] == 3


def test_trace_readme_example_digest(capsys):
    # Recorded from the per-entry evaluator the generated kernels replaced.
    code, out, _ = _run(capsys, ["trace", *FOLD, "--q", "0,0,1", "--p", "0,1,?"])
    assert code == 0
    assert len(out.splitlines()) == 1003
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6d9e5b679809d834b012a629b435d8c55f5bfe18d45c99af2da3150b0892efd9")


README_SPEC = {
    "t3": {"111": "Z", "112": "0", "122": "1/2", "222": "-Z + 1"},
    "t2_constants": {"11": ["-1", "0"], "12": ["0", "0"], "22": ["0", "1"]},
    "t1_constants": {"1": ["0", "0"], "2": ["0", "0"]},
    "t0_constants": ["0", "0"],
}

# The README's CLI examples with their exact argv; the classify grid writes
# to --output, so its digest is taken over the file.  (name, argv, lines,
# sha256 of the output)
README_GOLDENS = [
    ("classify_point", ["classify", *FOLD, "--point", "0,0,1"], 19,
     "db9f2371a24f1d174b3bc58beb8d3672157c24830268df7f90a796fc8abe134a"),
    ("classify_grid", ["classify", *FOLD, "--grid", "x=-2:2:41,y=-2:2:41,Z=-2:2:41",
                       "--output", "labels.csv"], 68922,
     "8f0660ed72532f59c2b3553bc9628cbec161ae7310f38727b44008f14a004320"),
    ("residual_numeric", ["residual", "--chart", "P", "--potential",
                          "(x^2 + y^2 + z^2)/2", "--eps-q", "2", "--point", "1,2,3"], 8,
     "750ad813c8b41c70a6d5bd2354fc08cc51bdc165d78665662ab98c90f6176547"),
    ("residual_symbolic", ["residual", *FOLD, "--symbolic"], 5,
     "8f39c2f6541d198a2d159eb21a63b589c0542d75c4dce01975fa34399081ada5"),
    ("singular", ["singular", *FOLD], 9,
     "0ac3d0c4f8247af0a9e663f2508a52a0469bee7d1398f347b8db562ac1e81995"),
    ("caustic", ["caustic", *FOLD, "--grid", "x=-2:2:41,y=-1:1:5"], 206,
     "9c732be98b74deb5a86e5578f713ef0b7c1d49eb60134d73e632d5481f72c325"),
    ("fiber", ["fiber", *FOLD, "--base", "2,0,0"], 34,
     "00f1a38b767da592e8f16f10147fff20c1698a12c8675efffc782c8cc3d84702"),
    ("family", ["family", "--spec", "spec.json", "--check"], 54,
     "611c9e0ca3666d31ce603693cc679718bc486fbef393ab0da5d46d8f6ae9da79"),
    ("wind", ["wind", *FOLD, "--x=-2:2:21", "--z=-2:1.9:21"], 442,
     "833f3cf5da43afe4223577b66560c53632faf49845e4d316414f881c60b4c1eb"),
]


@pytest.mark.parametrize("name,argv,n_lines,digest", README_GOLDENS,
                         ids=[g[0] for g in README_GOLDENS])
def test_readme_example_digest_golden(tmp_path, monkeypatch, capsys, name, argv,
                                      n_lines, digest):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps(README_SPEC))
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    if "--output" in argv:
        assert out == ""
        out = (tmp_path / argv[argv.index("--output") + 1]).read_text()
    assert len(out.splitlines()) == n_lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _as_config(argv):
    # The options of argv as a config record: flags as true, others as text.
    config, rest = {}, list(argv[1:])
    while rest:
        key, sep, value = rest.pop(0).removeprefix("--").partition("=")
        if not sep:
            value = rest.pop(0) if rest and not rest[0].startswith("--") else True
        config[key] = value
    return config


@pytest.mark.parametrize("name,argv,n_lines,digest", README_GOLDENS,
                         ids=[g[0] for g in README_GOLDENS])
def test_readme_example_from_config_file(tmp_path, monkeypatch, capsys, name, argv,
                                         n_lines, digest):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(json.dumps(README_SPEC))
    config = _as_config(argv)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    code, out, err = _run(capsys, [argv[0], "--config", "cfg.json"])
    assert code == 0 and err == ""
    if "output" in config:
        assert out == ""
        out = (tmp_path / config["output"]).read_text()
    assert len(out.splitlines()) == n_lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class _WriteRecorder:
    """A text stream that keeps the text of each write call."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


# The table goldens above and of the caustic trailer and trace tests, each
# written to stdout.  (name, argv, lines, sha256)
TABLE_GOLDENS = [
    *[(name, argv[:argv.index("--output")] if "--output" in argv else argv, n, digest)
      for name, argv, n, digest in README_GOLDENS
      if name in ("classify_grid", "caustic", "wind")],
    ("caustic_degenerate", ["caustic", "--chart", "T", "--potential",
                            "y^2/2 - x^2*Z/2 + x*Z^3/6", "--grid", "x=-1:1:3,y=0:0:1"], 4,
     "9e0a9fa38b75b8e68f1aef78a5860958b72f5da08956ffd43324fc694bb2855c"),
    ("trace", ["trace", *FOLD, "--q", "0,0,1", "--p", "0,1,?"], 1003,
     "6d9e5b679809d834b012a629b435d8c55f5bfe18d45c99af2da3150b0892efd9"),
]


@pytest.mark.parametrize("name,argv,n_lines,digest", TABLE_GOLDENS,
                         ids=[g[0] for g in TABLE_GOLDENS])
def test_table_commands_write_one_line_per_call(monkeypatch, name, argv, n_lines, digest):
    # main hands the command's writer the stream itself, looked up when it
    # runs, and a table leaves line by line, not as one string.
    stream = _WriteRecorder()
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(argv) == 0
    assert len(stream.writes) == n_lines
    assert all(text.endswith("\n") and text.count("\n") == 1 for text in stream.writes)
    assert hashlib.sha256("".join(stream.writes).encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["trace", *FOLD, "--q", "0,0,1", "--p", "1,1,1"],
    ["wind", *HUGE, "--x", "2:2:1", "--z=-1:0:2"],
])
def test_failing_command_never_opens_its_output(tmp_path, capsys, argv):
    # The command fails before main takes its writer, so --output is not
    # created, and a file that is there keeps its bytes.
    target = tmp_path / "out.csv"
    for before in (None, b"kept\n"):
        if before is not None:
            target.write_bytes(before)
        code, out, err = _run(capsys, [*argv, "--output", str(target)])
        assert code == 3 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"]["code"] == 3
        assert (target.read_bytes() if target.exists() else None) == before


# A family member whose fiber over the base point below has three sheets.
MEMBER_SPEC = {
    "t3": {"111": "-5/2*Z - 1/2", "112": "-5*Z + 4/3", "122": "-5/2*Z - 3/4",
           "222": "3*Z + 5/2"},
    "t2_constants": {"11": ["4/3", "-4"], "12": ["3/2", "3"], "22": ["1/4", "-5/3"]},
    "t1_constants": {"1": ["-1/2", "1"], "2": ["-1/2", "-2"]},
    "t0_constants": ["5", "1"],
}

# Fibers on the Newton charts (one seed converging, one failing on dual-R)
# and on a three-sheet member, recorded before the fiber rule was derived
# from the immersion, and on the classical chart, recorded before its
# geopotential was read through the Legendre rule of the dual charts.
# (name, argv, lines, sha256 of the output)
FIBER_GOLDENS = [
    ("classical", ["fiber", "--chart", "P", "--potential", "x^2 + x*y + y^2 + y*z + z^2",
                   "--base", "0.1,-0.2,0.3"], 23,
     "a47c7080e54cbad4c65ad459de49fad1cba6d3dbcb5345eb3e7321518df21104"),
    ("dual_s", ["fiber", "--chart", "S", "--potential", "(X^2 + Y^2)/2 - z^2/2",
                "--base", "0.5,-0.25,2", "--seeds", "0,0;1,1"], 23,
     "b81f40f1317a572bf8320f3f5e15258ac1ab208397f09be606e24ce304171276"),
    ("dual_r", ["fiber", "--chart", "R", "--potential", "X^3/3 + (Y^2 + Z^2)/2",
                "--base", "1,1,1", "--seeds", "0,0,0;2,0,0"], 29,
     "443f121c19621f712e59a1b364cd00417f7bfb8f27fd7fac44ca46f2180383f4"),
    ("member", ["fiber", "--gf-file", "member.json", "--base", "0.25,0.5,-0.5"], 45,
     "3e3432b9a471d4d21d4e11605bd09d23df9f82986faf4f7f7bdae81c78ff4dc4"),
]


@pytest.mark.parametrize("name,argv,n_lines,digest", FIBER_GOLDENS,
                         ids=[g[0] for g in FIBER_GOLDENS])
def test_fiber_digest_golden(tmp_path, monkeypatch, capsys, name, argv, n_lines,
                             digest):
    from sgma.family import FamilySpec, build_family

    monkeypatch.chdir(tmp_path)
    member = build_family(FamilySpec.from_dict(MEMBER_SPEC)).gf
    (tmp_path / "member.json").write_text(json.dumps(member.to_dict()))
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    assert len(out.splitlines()) == n_lines
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_classical_fiber_with_non_finite_immersion_exits_3(capsys):
    # The base point is finite, but Z = P_z = x*y = 1e310 is not.
    code, out, err = _run(capsys, ["fiber", "--chart", "P", "--potential", "x*y*z",
                                   "--base", "1e300,1e10,1e-300"])
    assert code == 3 and out == "" and len(err.splitlines()) == 1
    record = json.loads(err)["error"]
    assert record["code"] == 3 and "immersion is not finite" in record["message"]


@pytest.mark.parametrize("option", [["--step", "nan"], ["--step", "inf"],
                                    ["--box", "inf"], ["--stop-tol", "nan"]])
def test_trace_non_finite_parameter_exits_2(capsys, option):
    code, out, err = _run(capsys, ["trace", *FOLD, "--q", "0,0,1", "--p", "0,1,?",
                                   *option])
    assert code == 2 and out == ""
    assert json.loads(err.strip())["error"]["code"] == 2


def test_trace_singular_test_overflow_diverges(capsys):
    # The first candidate's max |h_ij| ~ 5.67e102 overflows s ** 3 in the
    # singular test: the trace ends there, with the initial state only.
    code, out, err = _run(capsys, [
        "trace", "--chart", "T", "--potential", "10^102*(y^2/2 - x^2*Z/2 + Z^3/6)",
        "--q", "0,0,1.6488469569017985",
        "--p=-0.3048856730857161,1.6836179406763991,-2.1402840480820995",
        "--step", "1.0567547325165856e102", "--max-steps", "300", "--box", "1e6"])
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 3 and lines[-1] == "# termination=diverged"


def test_trace_non_finite_start_exits_3(capsys):
    # p2^2 overflows, so the null completion of p3 is infinite.
    code, out, err = _run(capsys, ["trace", *FOLD, "--q", "0,0,1", "--p", "0,1e200,?"])
    assert code == 3 and out == ""
    record = json.loads(err.strip())["error"]
    assert record["code"] == 3 and "not finite" in record["message"]


def test_trace_no_completion_is_domain_error(capsys):
    # elliptic point: no real null completion with nonzero fixed components
    code, _, err = _run(capsys, ["trace", *FOLD, "--q", "0,0,-1", "--p", "0,1,?"])
    assert code == 3
    assert json.loads(err.strip())["error"]["code"] == 3


def test_family_command(tmp_path, capsys):
    spec = {"t3": {}, "t2_constants": {"11": ["-1", "0"], "22": ["0", "1"]},
            "t1_constants": {}, "t0_constants": ["0", "0"]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = _run(capsys, ["family", "--spec", str(path), "--check"])
    assert code == 0
    report = json.loads(out)
    assert report["residual_is_zero"] is True
    assert report["degrees"] == {"t3": None, "t2": 1, "t1": None, "t0": 3}
    assert report["recursion_crosscheck"]["x^1*y^0"]["matches_derivation"] is False


def test_wind_command(capsys):
    code, out, _ = _run(capsys, ["wind", *FOLD, "--x", "2:2:1", "--z=-1:0:2"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("x,y,z,domain_flag")
    assert len(lines) == 3


def test_malformed_config_exits_2(capsys):
    code, _, err = _run(capsys, ["classify", *FOLD, "--point", "not-a-point"])
    assert code == 2
    record = json.loads(err.strip())
    assert record["error"]["code"] == 2


def test_nonpositive_tolerances_exit_2(capsys):
    code, _, _ = _run(capsys, ["classify", *FOLD, "--point", "0,0,1", "--tol", "0"])
    assert code == 2
    code, _, _ = _run(capsys, ["caustic", *FOLD, "--grid", "x=0:1:2,y=0:0:1",
                               "--tol=-1"])
    assert code == 2
    code, _, _ = _run(capsys, ["trace", *FOLD, "--q", "0,0,1", "--p", "0,0,0",
                               "--step=-0.1"])
    assert code == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("argv", [
    ["classify", *FOLD, "--point", "0,0,1"],
    ["classify", *FOLD, "--grid", "x=0:0:1,y=0:0:1,Z=-1:1:3"],
    ["caustic", *FOLD, "--grid", "x=0:1:2,y=0:0:1"],
])
def test_nonfinite_or_nonpositive_tol_exits_2(capsys, argv, tol):
    code, out, err = _run(capsys, [*argv, f"--tol={tol}"])
    assert code == 2 and out == ""
    assert "positive and finite" in json.loads(err.strip())["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["classify", *FOLD],
    ["residual", *FOLD],
    ["caustic", *FOLD],
    ["fiber", *FOLD],
    ["trace", *FOLD, "--q", "0,0,1"],
    ["trace", *FOLD, "--p", "0,1,?"],
    ["trace", *FOLD, "--q", "0,0,1", "--p", "0,1,?", "--null-root", "5"],
    ["trace", *FOLD, "--q", "0,0,1", "--p", "0,?,?"],
    ["family"],
    ["wind", *FOLD, "--x", "2:2:1"],
    ["wind", *FOLD, "--z=-1:0:2"],
    ["classify", "--config", "list.json"],
])
def test_usage_error_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text(json.dumps(["--point", "0,0,1"]))
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    lines = err.strip().split("\n")
    assert len(lines) == 1 and json.loads(lines[0])["error"]["code"] == 2


def test_bad_potential_exits_2(capsys):
    code, _, err = _run(capsys, ["classify", "--chart", "T", "--potential", "2x",
                                 "--point", "0,0,1"])
    assert code == 2


def test_missing_gf_exits_2(capsys):
    code, _, err = _run(capsys, ["classify", "--point", "0,0,1"])
    assert code == 2


def test_unknown_flag_exits_2(capsys):
    code, _, err = _run(capsys, ["classify", "--nonsense"])
    assert code == 2
    assert json.loads(err.strip())["error"]["code"] == 2


def test_gf_file_and_config_merge(tmp_path, capsys):
    gf_path = tmp_path / "gf.json"
    gf_path.write_text(json.dumps({
        "chart": "T", "potential": "y^2/2 - x^2*Z/2 + Z^3/6", "eps_q": "1"}))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"gf-file": str(gf_path), "point": "0,0,1"}))
    code, out, _ = _run(capsys, ["classify", "--config", str(cfg_path)])
    assert code == 0 and json.loads(out)["label"] == "hyperbolic"
    # explicit flag overrides the config value
    code, out, _ = _run(capsys, ["classify", "--config", str(cfg_path),
                                 "--point", "0,0,-1"])
    assert json.loads(out)["label"] == "elliptic"


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"chart": "T", "potentail": "Z"}))
    code, _, err = _run(capsys, ["classify", "--config", str(cfg)])
    assert code == 2
    assert "potentail" in json.loads(err.strip())["error"]["message"]


FOLD_CONFIG = {"chart": "T", "potential": "y^2/2 - x^2*Z/2 + Z^3/6"}


@pytest.mark.parametrize("command,config", [
    ("classify", {**FOLD_CONFIG, "point": "0,0,1", "tol": [1]}),
    ("caustic", {**FOLD_CONFIG, "grid": "x=0:1:2,y=0:0:1", "tol": [1]}),
    ("trace", {**FOLD_CONFIG, "q": "0,0,1", "p": "0,1,?", "max_steps": [3]}),
    ("trace", {**FOLD_CONFIG, "q": "0,0,1", "p": "0,1,?", "step": {}}),
    ("trace", {**FOLD_CONFIG, "q": "0,0,1", "p": "0,1,?", "null_root": [0]}),
    ("wind", {**FOLD_CONFIG, "x": "2:2:1", "z": "-1:0:2", "y": [2]}),
    ("wind", {**FOLD_CONFIG, "x": "2:2:1", "z": "-1:0:2", "branch": [0]}),
    ("wind", {"chart": "T", "potential": 5, "x": "2:2:1", "z": "-1:0:2"}),
    ("residual", {**FOLD_CONFIG, "symbolic": "no"}),
    ("residual", {**FOLD_CONFIG, "point": "0,0,1", "symbolic": None}),
    # Config text goes through the flag's converter.
    ("trace", {**FOLD_CONFIG, "q": "0,0,1", "p": "0,1,?", "max-steps": "many"}),
    ("classify", {**FOLD_CONFIG, "point": "0,0,1", "tol": "0"}),
    ("classify", {**FOLD_CONFIG, "point": "1e400,0,0"}),
    ("wind", {**FOLD_CONFIG, "x": "2:2", "z": "-1:0:2"}),
])
def test_wrong_config_value_exits_2(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = _run(capsys, [command, "--config", str(cfg)])
    assert code == 2 and out == ""
    lines = err.strip().split("\n")
    assert len(lines) == 1 and json.loads(lines[0])["error"]["code"] == 2


def test_config_flag_takes_a_json_bool_and_flags_win(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**FOLD_CONFIG, "symbolic": False, "point": "0,0,1"}))
    code, out, _ = _run(capsys, ["residual", "--config", str(cfg)])
    assert code == 0 and "point" in json.loads(out)
    code, out, _ = _run(capsys, ["residual", "--config", str(cfg), "--symbolic"])
    assert code == 0 and json.loads(out)["residual"] == "0"
    cfg.write_text(json.dumps({**FOLD_CONFIG, "symbolic": True}))
    code, out, _ = _run(capsys, ["residual", "--config", str(cfg)])
    assert code == 0 and json.loads(out)["residual"] == "0"


def test_config_values_do_not_outlive_their_call(tmp_path, capsys):
    # One parser serves every call in a process; a config call, whether it
    # succeeds or fails on its second parse, leaves no defaults behind.
    plain = ["classify", *FOLD, "--point", "0,0,1"]
    cfg = tmp_path / "cfg.json"
    for config, expected in (({"tol": "1e-3"}, 0), ({"tol": "1e-3", "grid": "x=1"}, 2)):
        cfg.write_text(json.dumps(config))
        code, out, _ = _run(capsys, [*plain, "--config", str(cfg)])
        assert code == expected
        if code == 0:
            assert json.loads(out)["tol"] == 1e-3
        code, out, _ = _run(capsys, plain)
        assert code == 0 and json.loads(out)["tol"] == 1e-9


def test_config_call_leaves_the_parser_unchanged(tmp_path, monkeypatch, capsys):
    # A parse that runs while a config call is under way, here on each read
    # of its config file, sees the parser's own defaults.
    plain = ["classify", *FOLD, "--point", "0,0,1"]
    read, tols = cli._json_file, []

    def spy(path):
        tols.append(cli.build_parser().parse_args(plain).tol)
        return read(path)

    monkeypatch.setattr(cli, "_json_file", spy)
    cli.build_parser.cache_clear()
    try:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": "1e-3"}))
        code, out, _ = _run(capsys, [*plain, "--config", str(cfg)])
    finally:
        cli.build_parser.cache_clear()
    assert code == 0 and json.loads(out)["tol"] == 1e-3
    assert len(tols) == 1 and all(tol == 1e-9 for tol in tols)


def test_unreadable_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, out, err = _run(capsys, ["classify", *FOLD, "--point", "0,0,1",
                                   "--config", str(missing)])
    assert code == 2 and out == ""
    message = json.loads(err)["error"]["message"]
    assert message.startswith(f"argument --config: cannot read JSON from {missing}")


def test_malformed_config_value_under_a_flag_exits_2(tmp_path, capsys):
    # The flag wins, but the config value is still read as the option.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol": "abc"}))
    code, out, err = _run(capsys, ["classify", *FOLD, "--point", "0,0,1",
                                   "--config", str(cfg), "--tol", "1e-3"])
    assert code == 2 and out == ""
    lines = err.strip().split("\n")
    assert len(lines) == 1 and json.loads(lines[0])["error"]["code"] == 2


def test_every_option_is_named_after_its_dest():
    # A config key is read as "--" + dest with dashes, argparse's own rule inverted.
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for command in commands.values():
        for action in command._actions:
            long = [s for s in action.option_strings if s.startswith("--")]
            assert long == ["--" + action.dest.replace("_", "-")]


@pytest.mark.parametrize("argv,name,record", [
    (["classify", "--gf-file", "in.json", "--point", "0,0,1"], "in.json",
     {"chart": "T", "potential": 5}),
    (["classify", "--gf-file", "in.json", "--point", "0,0,1"], "in.json", ["T", "Z"]),
    (["family", "--spec", "in.json"], "in.json", {**README_SPEC, "t0_constants": 5}),
    (["family", "--spec", "in.json"], "in.json", {**README_SPEC, "t3": {"111": [1]}}),
    (["family", "--spec", "in.json"], "in.json", {**README_SPEC, "t2_constants": 5}),
    (["family", "--spec", "in.json"], "in.json", "spec"),
    # Numbers are JSON strings or integers: a float is not the number it shows.
    (["classify", "--gf-file", "in.json", "--point", "0,0,1"], "in.json",
     {"chart": "T", "potential": "Z^3", "eps_q": 0.5}),
    (["classify", "--gf-file", "in.json", "--point", "0,0,1"], "in.json",
     {"chart": "T", "potential": "Z^3", "eps_q": True}),
    (["family", "--spec", "in.json"], "in.json", {**README_SPEC, "t0_constants": [0.5, 1]}),
    (["family", "--spec", "in.json"], "in.json", {**README_SPEC, "t0_constants": [True, 1]}),
    (["family", "--spec", "in.json"], "in.json", {**README_SPEC, "t3": {"111": True}}),
])
def test_wrong_type_in_input_file_exits_2(tmp_path, monkeypatch, capsys, argv, name, record):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(json.dumps(record))
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    lines = err.strip().split("\n")
    assert len(lines) == 1 and json.loads(lines[0])["error"]["code"] == 2


def test_output_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = ["wind", *FOLD, "--x=-2:2:9", "--z=-2:1:7", "--output"]
    assert main(argv + [str(out1)]) == 0
    assert main(argv + [str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_output_file_receives_the_stdout_bytes(tmp_path, capsys):
    for argv in (["classify", *FOLD, "--point", "0,0,1"],
                 ["wind", *FOLD, "--x=-2:2:3", "--z=-2:1:3"]):
        code, out, _ = _run(capsys, argv)
        assert code == 0
        path = tmp_path / "out.txt"
        assert _run(capsys, [*argv, "--output", str(path)]) == (0, "", "")
        assert path.read_bytes() == out.encode()


def test_verify_paper_failure_exits_1(monkeypatch, capsys):
    name = verify.CRITERIA[0][1]
    monkeypatch.setattr(verify, "CRITERIA", ((1, name, lambda: (False, "forced")),))
    code, out, err = _run(capsys, ["verify-paper"])
    assert code == 1 and err == ""
    report = json.loads(out)
    assert report["all_passed"] is False
    assert report["criteria"] == [{"id": 1, "name": name, "passed": False,
                                   "detail": "forced"}]


def test_verify_paper_list(capsys):
    code, out, _ = _run(capsys, ["verify-paper", "--list"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 12
    assert lines[0].strip().startswith("1 ")


def test_trace_metric_overflow_exits_3(capsys):
    code, out, err = _run(capsys, ["trace", "--chart", "P", "--potential",
                                   "x^4 + y^2/2 - z^2/2", "--q", "1e160,0,0",
                                   "--p", "0,1,?"])
    assert code == 3 and out == ""
    assert json.loads(err.strip())["error"]["code"] == 3


@pytest.mark.parametrize("argv", [
    ["caustic", *FOLD, "--grid", "x=inf:inf:2,y=0:0:1"],
    ["caustic", *FOLD, "--grid", "x=0:nan:2,y=0:0:1"],
    ["classify", *FOLD, "--grid", "x=-inf:0:2,y=0:0:1,Z=0:0:1"],
    ["wind", *FOLD, "--x", "0:inf:2", "--z=-1:0:2"],
    ["wind", *FOLD, "--x", "2:2:1", "--z=-1:0:2", "--y", "nan"],
])
def test_non_finite_grid_exits_2(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert "finite" in json.loads(err.strip())["error"]["message"]


@pytest.mark.parametrize("argv", [
    # The fiber's roots Z = +-1e200 are found, but x^2 and Z^2 in the
    # immersion overflow there.
    ["fiber", *FOLD, "--base", "1e200,0,0"],
    # x^2 in the Hessian overflows a float.
    ["classify", "--chart", "P", "--potential", "x^4/12 + y^2/2 + z^2/2",
     "--point", "1e200,0,0"],
    ["classify", *HUGE, "--point", "0,0,1"],
    ["caustic", *HUGE, "--grid", "x=0:1:2,y=0:0:1"],
    ["fiber", *HUGE, "--base", "0,0,0"],
    ["trace", *HUGE, "--q", "0,0,1", "--p", "0,1,?"],
    # The singular test cubes max |h_ij| = 2e200.
    ["trace", *FOLD, "--q", "0,0,1e200", "--p", "0,1,?"],
    ["wind", *FOLD, "--x", "2:2:1", "--z=-1:0:2", "--eps-q", "1e400"],
    # Fiber evaluation overflows: an error, not an out-of-domain row.
    ["wind", *HUGE, "--x", "2:2:1", "--z=-1:0:2"],
    # h_00 = -2e308 is -inf, so det h is NaN.
    ["trace", *FOLD, "--q", "0,0,1e308", "--p", "0,1,0"],
])
def test_float_range_overflow_exits_3(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 3 and out == ""
    lines = err.strip().split("\n")
    assert len(lines) == 1 and json.loads(lines[0])["error"]["code"] == 3


def test_null_completion_overflow_names_the_point_only(capsys):
    # null_project evaluates the metric at the unit momenta e_j; the error
    # must not name one of them as if the caller had given it.
    code, out, err = _run(capsys, ["trace", *FOLD, "--q=1e-320,0,1e300", "--p=0,1,?"])
    assert code == 3 and out == ""
    lines = err.strip().split("\n")
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["code"] == 3
    assert error["message"] == ("metric evaluation overflows or is not finite at "
                                "q = (1e-320, 0.0, 1e+300)")


def test_trace_ends_at_the_boundary_inside_a_step(monkeypatch, capsys):
    # The first step's stage k2 lands on Z = 0, where the fold metric is singular.
    step, stages = ch._rk4_step, []

    def spy(rhs, *args):
        calls = []

        def counted(*state):
            calls.append(state)
            return rhs(*state)

        try:
            return step(counted, *args)
        except MetricSingularError:
            stages.append((len(calls) + 1, calls[-1][2]))  # k1 is not an rhs call here
            raise

    monkeypatch.setattr(ch, "_rk4_step", spy)
    code, out, _ = _run(capsys, ["trace", *FOLD, "--q", "0,0,0.5", "--p", "0,?,500",
                                 "--null-root", "1"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3 and lines[-1] == "# termination=parabolic_boundary"
    assert stages == [(2, 0.0)]


def test_non_finite_metric_of_a_member_exits_3(capsys):
    gf = build_family(random_generic_spec(random.Random(0))).gf
    code, out, err = _run(capsys, ["classify", "--chart", gf.chart.value, "--potential",
                                   str(gf.potential), "--point", "1e160,1e160,1e160"])
    assert code == 3 and out == ""
    lines = err.strip().split("\n")
    assert len(lines) == 1 and json.loads(lines[0])["error"]["code"] == 3


@pytest.mark.parametrize("argv", [
    ["classify", *FOLD, "--point", "1e400,0,0"],
    ["residual", *FOLD, "--point", "1e400,0,0"],
    ["trace", *FOLD, "--q", "0,0,1", "--p", "0,1e400,?"],
    ["trace", *FOLD, "--q", "0,0,1", "--p", "0,1e400,1"],
    ["fiber", "--chart", "R", "--potential", "X^3/3 + (Y^2 + Z^2)/2",
     "--base", "1,1,1", "--seeds", "1e400,0,0"],
    ["caustic", *FOLD, "--grid", "x=1e400:1e400:2,y=0:0:1"],
    ["wind", *FOLD, "--x", "2:2:1", "--z=-1e400:0:2"],
])
def test_number_beyond_float_range_exits_2(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    lines = err.strip().split("\n")
    assert len(lines) == 1
    record = json.loads(lines[0])["error"]
    assert record["code"] == 2 and "1e400" in record["message"]


def test_grid_bounds_take_the_number_grammar(capsys):
    # A rational bound is the float nearest its value, as for --point.
    outputs = []
    for grid in ("x=1/3:1:2,y=0:0:1", "x=0.3333333333333333:1:2,y=0:0:1"):
        code, out, _ = _run(capsys, ["caustic", *FOLD, "--grid", grid])
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] and outputs[0].count("\n") > 1


def test_oversized_potential_exits_2_fast(capsys):
    # Too many terms, too many coefficient bits, and parentheses nested
    # too deep.
    for potential in ("(x+y+Z)^80", "((10^200)^200)^200", "(" * 200 + "Z" + ")" * 200):
        start = time.perf_counter()
        code, out, err = _run(capsys, ["singular", "--chart", "T", "--potential",
                                       potential])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert "limit" in json.loads(err.strip())["error"]["message"]


NEWTON_R = ["--chart", "R", "--potential", "X^3/3 + (Y^2 + Z^2)/2"]
# Every channel through which a number enters: argv for a value ``v``, and
# the input file it reads, if any.
NUMBER_CHANNELS = {
    "eps-q": (["classify", *FOLD, "--point", "0,0,1", "--eps-q", "{v}"], None),
    "epsilon": (["wind", *FOLD, "--x", "2:2:1", "--z=-1:0:2", "--epsilon", "{v}"], None),
    "point": (["classify", *FOLD, "--point", "{v},0,0"], None),
    "base": (["fiber", *FOLD, "--base", "0,{v},0"], None),
    "seeds": (["fiber", *NEWTON_R, "--base", "1,1,1", "--seeds", "0,0,0;0,{v},0"], None),
    "step": (["trace", *FOLD, "--q", "0,0,1", "--p", "0,1,?", "--step", "{v}"], None),
    "stop-tol": (["trace", *FOLD, "--q", "0,0,1", "--p", "0,1,?", "--stop-tol", "{v}"],
                 None),
    "gf-file": (["classify", "--gf-file", "in.json", "--point", "0,0,1"],
                {"chart": "T", "potential": "Z^3", "eps_q": "{v}"}),
    "spec": (["family", "--spec", "in.json"],
             {**README_SPEC, "t0_constants": ["{v}", "1"]}),
    "potential": (["singular", "--chart", "T", "--potential", "({v})*Z"], None),
}


def _filled(template, value):
    if isinstance(template, str):
        return template.replace("{v}", value)
    if isinstance(template, dict):
        return {k: _filled(v, value) for k, v in template.items()}
    return [_filled(v, value) for v in template]


@pytest.mark.parametrize("value", ["1e999999999", "1e-999999999", "1/0"])
@pytest.mark.parametrize("channel", sorted(NUMBER_CHANNELS))
def test_bad_number_on_every_channel_exits_2_fast(tmp_path, monkeypatch, capsys, channel,
                                                  value):
    argv, record = NUMBER_CHANNELS[channel]
    monkeypatch.chdir(tmp_path)
    if record is not None:
        (tmp_path / "in.json").write_text(json.dumps(_filled(record, value)))
    start = time.perf_counter()
    code, out, err = _run(capsys, _filled(argv, value))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    lines = err.strip().split("\n")
    assert len(lines) == 1 and json.loads(lines[0])["error"]["code"] == 2


def test_eps_q_gets_one_answer_from_flag_and_file(tmp_path, monkeypatch, capsys):
    # One value gets one answer, whether it comes from a flag or a record.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text(json.dumps(
        {"chart": "T", "potential": "Z^3", "eps_q": "1e4000000"}))
    messages = []
    for argv in (["classify", *FOLD, "--point", "0,0,1", "--eps-q", "1e4000000"],
                 ["classify", "--gf-file", "in.json", "--point", "0,0,1"]):
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        messages.append(json.loads(err)["error"]["message"])
    assert all("'1e4000000' exceeds the limit of 4096 bits" in m for m in messages)


def test_zero_epsilon_exits_2(capsys):
    code, out, err = _run(capsys, ["wind", *FOLD, "--x", "2:2:1", "--z=-1:0:2",
                                   "--epsilon", "0"])
    assert code == 2 and out == ""
    assert "epsilon must be positive" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["wind", "--chart", "R", "--potential", "(X^2+Y^2+Z^2)/2", "--x=0:1:2", "--z=0:1:2"],
    ["fiber", "--chart", "R", "--potential", "(X^2+Y^2+Z^2)/2", "--base", "1,1,1"],
    ["fiber", "--chart", "S", "--potential", "(X^2 + Y^2)/2 - z^2/2", "--base", "0.5,0,2"],
])
def test_newton_fiber_without_seeds_exits_2(capsys, argv):
    # An empty fiber would read as "outside the domain".
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    message = json.loads(err)["error"]["message"]
    assert f"fibers of chart {argv[2]}" in message and "seeds" in message


def test_grid_beyond_node_limit_exits_2_fast(capsys):
    start = time.perf_counter()
    code, out, err = _run(capsys, ["classify", "--chart", "T", "--potential", "Z", "--grid",
                                   "x=0:1:100000,y=0:1:100000,Z=0:1:1000"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "exceeds the limit of 1000000" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["residual", "--chart", "P", "--potential", "x^2*y^2/4 + z^2/2",
     "--point", "1e100,1e100,0"],
    ["fiber", "--chart", "P", "--potential", "x^2*y^2/4 + z^2/2",
     "--base", "1e100,1e100,0"],
])
def test_overflowing_value_at_a_finite_point_exits_3(capsys, argv):
    # These values used to print as inf (invalid JSON) with exit code 0.
    code, out, err = _run(capsys, argv)
    assert code == 3 and out == ""
    lines = err.strip().split("\n")
    assert len(lines) == 1 and "not finite" in json.loads(lines[0])["error"]["message"]


def test_fiber_beyond_the_singular_test_range_is_not_convex(capsys):
    # The branch Hessian's singular threshold cubes max |a_ij| = 10^150.
    code, out, err = _run(capsys, ["fiber", "--chart", "T", "--potential",
                                   "10^150*x*Z^2/2 + y^2/2", "--base", "1,0,-1"])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert [p["convex"] for p in report["fiber"]] == [False]
    assert report["convex_branch"] is None


@pytest.mark.parametrize("epsilon,v", [("1e-100", "3.6568542494923805e+100"),
                                       ("1e-120", "3.6568542494923803e+120")])
def test_wind_with_tiny_epsilon_stays_in_domain(capsys, epsilon, v):
    code, out, err = _run(capsys, ["wind", *FOLD, "--x=2:2:1", "--z=-2:-2:1",
                                   "--epsilon", epsilon])
    assert code == 0 and err == ""
    row = dict(zip(*(line.split(",") for line in out.splitlines())))
    assert row["domain_flag"] == "1" and row["v"] == v and row["w"] == "0"


def test_fiber_with_vanishing_fiber_equation_exits_3(capsys):
    code, out, err = _run(capsys, ["fiber", "--chart", "T", "--potential", "0",
                                   "--base", "0,0,0"])
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": {
        "code": 3, "message": "fiber equation vanishes identically over this base point"}}


# -- formatting ------------------------------------------------------------------

def test_write_csv_cells():
    # A str cell as it is, None empty, and any number (a Fraction, a numpy
    # scalar, a bool) by %.17g.
    buf = io.StringIO()
    write_csv(buf, ("a", "b", "c", "d"),
              [(0.1, "x", None, 3), [Fraction(1, 3), np.float64(2.5), True, -0.0]])
    assert buf.getvalue() == "a,b,c,d\n0.10000000000000001,x,,3\n0.33333333333333331,2.5,1,-0\n"


def test_write_csv_writes_each_row_as_it_is_drawn():
    buf = io.StringIO()
    lines_before = []

    def rows():
        for k in range(3):
            lines_before.append(buf.getvalue().count("\n"))
            yield (k,)

    write_csv(buf, ["k"], rows())
    assert lines_before == [1, 2, 3] and buf.getvalue() == "k\n0\n1\n2\n"
    buf = io.StringIO()
    write_csv(buf, ["k"], iter(()))
    assert buf.getvalue() == "k\n"


def test_render_json_empty_containers_and_unknown_types():
    assert render_json({"a": {}, "b": []}) == '{\n  "a": {},\n  "b": []\n}'
    with pytest.raises(TypeError, match="^cannot render object as JSON$"):
        render_json(object())
