"""Deterministic command-line front end.

Every operation is a subcommand taking a generating-function record
(inline flags or a JSON file) plus numeric options, emitting CSV or JSON
with a fixed float format so identical configurations produce
byte-identical output.  A JSON config file may supply any of a command's
long options (keys named like the flags, dashes or underscores); explicit
flags override file values.  Exit codes: 0 success, 1 verification
failure, 2 usage/config error, 3 domain/runtime error.  Every error path
writes a single-line JSON record to standard error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction

from . import characteristics as ch
from . import family as fam
from . import ma_core as mc
from . import sg
from . import singular as sing
from . import verify
from .errors import ConfigError, DomainError, SgmaError
from .formatting import format_float, render_json
from .grid import Axis, Grid
from .polyexpr import ParseError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error(2, message)
        raise SystemExit(2)


def _emit_error(code: int, message: str) -> None:
    record = json.dumps({"error": {"code": code, "message": str(message)}})
    print(record, file=sys.stderr)


def _number(text: str, what: str) -> float:
    try:
        return float(Fraction(text.strip()))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(f"{what} value {text!r} is not a number in float range") from None


def _parse_numbers(text: str, n: int, what: str) -> tuple:
    parts = str(text).split(",")
    if len(parts) != n:
        raise ConfigError(f"{what} must have {n} comma-separated values, got {text!r}")
    return tuple(_number(p, what) for p in parts)


def _resolve_gf(ns) -> mc.GeneratingFunction:
    if getattr(ns, "gf_file", None):
        try:
            with open(ns.gf_file) as fh:
                record = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read generating-function file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {ns.gf_file}: {exc}") from None
        return mc.GeneratingFunction.from_dict(record)
    if not getattr(ns, "chart", None) or not getattr(ns, "potential", None):
        raise ConfigError("supply --gf-file, or --chart and --potential")
    return mc.GeneratingFunction.from_dict({
        "chart": ns.chart,
        "potential": ns.potential,
        "eps_q": ns.eps_q if ns.eps_q is not None else "1",
    })


def _write_output(ns, text: str) -> None:
    if getattr(ns, "output", None):
        with open(ns.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_gf_options(p) -> None:
    p.add_argument("--chart", help="chart name: P, R, S or T")
    p.add_argument("--potential", help="potential polynomial over the chart coordinates")
    p.add_argument("--eps-q", dest="eps_q", help="positive rational constant, default 1")
    p.add_argument("--gf-file", dest="gf_file",
                   help="JSON file with {chart, potential, eps_q}")


def _add_common(p) -> None:
    p.add_argument("--config", help="JSON file of option defaults for this command")
    p.add_argument("--output", help="output path (default: stdout)")


# -- subcommand implementations ---------------------------------------------


def _cmd_classify(ns) -> int:
    gf = _resolve_gf(ns)
    tol = float(ns.tol) if ns.tol is not None else 1e-9
    if ns.grid:
        grid = Grid.parse(ns.grid).ordered(gf.chart.coords)
        eigs, labels = mc.classification_grid(gf, grid.axes(), tol)
        lines = [",".join(list(gf.chart.coords)
                          + ["eig1", "eig2", "eig3", "label"])]
        for node, eig, label in zip(grid.nodes(), eigs.reshape(-1, 3),
                                    labels.reshape(-1)):
            lines.append(",".join([format_float(v) for v in (*node, *eig)]
                                  + [label.value]))
        _write_output(ns, "\n".join(lines) + "\n")
        return 0
    if not ns.point:
        raise ConfigError("supply --point or --grid")
    point = _parse_numbers(ns.point, 3, "--point")
    signature = mc.classify(gf, point, tol)
    report = {
        "point": list(point),
        "eigenvalues": list(signature.eigenvalues),
        "signature": {"n_pos": signature.n_pos, "n_neg": signature.n_neg,
                      "n_zero": signature.n_zero},
        "label": signature.label.value,
        "tol": signature.tol,
    }
    _write_output(ns, render_json(report) + "\n")
    return 0


def _cmd_residual(ns) -> int:
    gf = _resolve_gf(ns)
    if ns.symbolic:
        poly = mc.ma_residual_poly(gf)
        report = {"chart": gf.chart.value, "residual": str(poly),
                  "is_zero": poly.is_zero}
        _write_output(ns, render_json(report) + "\n")
        return 0
    if not ns.point:
        raise ConfigError("supply --point (or --symbolic)")
    point = _parse_numbers(ns.point, 3, "--point")
    value = float(mc.ma_residual(gf, point))
    report = {"point": list(point), "residual": value}
    _write_output(ns, render_json(report) + "\n")
    return 0


def _cmd_singular(ns) -> int:
    gf = _resolve_gf(ns)
    poly = sing.singular_locus_poly(gf)
    report = {"chart": gf.chart.value, "variables": list(gf.chart.coords),
              "locus": str(poly)}
    _write_output(ns, render_json(report) + "\n")
    return 0


def _cmd_caustic(ns) -> int:
    gf = _resolve_gf(ns)
    if not ns.grid:
        raise ConfigError("supply --grid over two chart variables")
    grid = Grid.parse(ns.grid)
    tol = float(ns.tol) if ns.tol is not None else 1e-10
    sweep = sing.caustic_sweep(gf, grid, tol)
    buf = io.StringIO()
    sing.write_caustic_csv(sweep, buf)
    if sweep.degenerate_slices:
        buf.write(f"# degenerate_slices={len(sweep.degenerate_slices)}\n")
    _write_output(ns, buf.getvalue())
    return 0


def _cmd_fiber(ns) -> int:
    gf = _resolve_gf(ns)
    if not ns.base:
        raise ConfigError("supply --base x,y,z")
    base = _parse_numbers(ns.base, 3, "--base")
    seeds = ()
    if ns.seeds:
        seeds = tuple(
            tuple(_number(v, "--seeds") for v in chunk.split(","))
            for chunk in str(ns.seeds).split(";") if chunk.strip()
        )
    bp = sing.fiber_solve(gf, base, seeds)
    choice = sing.branch_select_convex(bp)
    report = {
        "base": list(bp.base_point),
        "fiber": [
            {
                "chart_point": list(bp.fiber_values[i]),
                "P": bp.P_values[i],
                "convex": bp.convex_flags[i],
                "multiplicity": bp.multiplicities[i],
                "degenerate": bp.degenerate_flags[i],
            }
            for i in range(len(bp.fiber_values))
        ],
        "convex_branch": None if choice.index is None else choice.index,
        "ambiguous": choice.ambiguous,
        "failed_seeds": [list(s) for s in bp.failed_seeds],
    }
    _write_output(ns, render_json(report) + "\n")
    return 0


def _cmd_trace(ns) -> int:
    gf = _resolve_gf(ns)
    if not ns.q or not ns.p:
        raise ConfigError("supply --q and --p")
    q = _parse_numbers(ns.q, 3, "--q")
    p_parts = str(ns.p).split(",")
    if len(p_parts) != 3:
        raise ConfigError("--p must have 3 comma-separated values (one may be '?')")
    p = [None if s.strip() == "?" else _number(s, "--p") for s in p_parts]
    free = [i for i, v in enumerate(p) if v is None]
    if len(free) > 1:
        raise ConfigError("at most one component of --p may be '?'")
    if free:
        completions = ch.null_project(gf, q, [v for v in p if v is not None], free[0])
        if not completions:
            raise DomainError("no real null completion at this point")
        root = int(ns.null_root) if ns.null_root is not None else 0
        if not 0 <= root < len(completions):
            raise ConfigError(f"--null-root {root} out of range "
                              f"({len(completions)} completions)")
        p = completions[root]
    trace = ch.trace_bicharacteristic(
        gf,
        ch.BicharState(q, p),
        step=float(ns.step) if ns.step is not None else 1e-3,
        max_steps=int(ns.max_steps) if ns.max_steps is not None else 1000,
        stop_tol=float(ns.stop_tol) if ns.stop_tol is not None else None,
        box=float(ns.box) if ns.box is not None else 10.0,
    )
    buf = io.StringIO()
    ch.write_trace_csv(trace, buf)
    _write_output(ns, buf.getvalue())
    return 0


def _cmd_family(ns) -> int:
    if not ns.spec:
        raise ConfigError("supply --spec FILE (JSON family spec)")
    try:
        with open(ns.spec) as fh:
            record = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read spec file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {ns.spec}: {exc}") from None
    try:
        spec = fam.FamilySpec.from_dict(record)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    sol = fam.build_family(spec)
    report = {
        "potential": str(sol.gf.potential),
        "chart": sol.gf.chart.value,
        "eps_q": str(sol.gf.eps_q),
        "degrees": {
            "t3": sol.degrees.t3, "t2": sol.degrees.t2,
            "t1": sol.degrees.t1, "t0": sol.degrees.t0,
        },
        "residual_is_zero": mc.ma_residual_poly(sol.gf).is_zero,
    }
    if ns.check:
        report["recursion_crosscheck"] = fam.reference_recursion_report()
    _write_output(ns, render_json(report) + "\n")
    return 0


def _cmd_wind(ns) -> int:
    gf = _resolve_gf(ns)
    if not ns.x or not ns.z:
        raise ConfigError("supply --x lo:hi:n and --z lo:hi:n")
    y = float(ns.y) if ns.y is not None else 0.0
    grid = Grid((Axis.parse("x", ns.x), Axis("y", y, y, 1), Axis.parse("z", ns.z)))
    branch = ns.branch if ns.branch is not None else "convex"
    if branch != "convex":
        try:
            branch = int(branch)
        except ValueError:
            raise ConfigError("--branch must be 'convex' or an integer index") from None
    epsilon = Fraction(str(ns.epsilon)) if ns.epsilon is not None else Fraction(1)
    eps = sg.EpsilonChoice.for_gf(gf, epsilon)
    samples = sg.wind_field_sweep(gf, branch, grid, eps)
    buf = io.StringIO()
    sg.write_wind_csv(samples, buf)
    _write_output(ns, buf.getvalue())
    return 0


def _cmd_verify_paper(ns) -> int:
    if ns.list:
        _write_output(ns, "\n".join(verify.criteria_names()) + "\n")
        return 0
    results = verify.run_all()
    _write_output(ns, render_json(verify.summary_dict(results)) + "\n")
    return 0 if all(r.passed for r in results) else 1


COMMANDS = {
    "classify": _cmd_classify,
    "residual": _cmd_residual,
    "singular": _cmd_singular,
    "caustic": _cmd_caustic,
    "fiber": _cmd_fiber,
    "trace": _cmd_trace,
    "family": _cmd_family,
    "wind": _cmd_wind,
    "verify-paper": _cmd_verify_paper,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="sgma",
                     description="Monge-Ampere geometry toolkit for "
                                 "semigeostrophic balance")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="metric signature at a point or over a grid")
    _add_common(p); _add_gf_options(p)
    p.add_argument("--point", help="chart point, e.g. 0,0,1")
    p.add_argument("--grid", help="three axes, e.g. x=-2:2:41,y=-2:2:41,Z=-2:2:41")
    p.add_argument("--tol", help="eigenvalue zero tolerance (default 1e-9)")

    p = sub.add_parser("residual", help="balance-equation residual")
    _add_common(p); _add_gf_options(p)
    p.add_argument("--point", help="chart point, e.g. 0,0,1")
    p.add_argument("--symbolic", action="store_true",
                   help="report the exact residual polynomial instead")

    p = sub.add_parser("singular", help="exact singular-locus polynomial")
    _add_common(p); _add_gf_options(p)

    p = sub.add_parser("caustic", help="caustic sweep over two chart variables")
    _add_common(p); _add_gf_options(p)
    p.add_argument("--grid", help="two axes, e.g. x=-2:2:41,y=-1:1:5")
    p.add_argument("--tol", help="residual determinant tolerance (default 1e-10)")

    p = sub.add_parser("fiber", help="chart preimages over a physical base point")
    _add_common(p); _add_gf_options(p)
    p.add_argument("--base", help="base point, e.g. 2,0,0")
    p.add_argument("--seeds", help="Newton seeds for R/S charts, e.g. 0,0;1,1")

    p = sub.add_parser("trace", help="integrate one bicharacteristic")
    _add_common(p); _add_gf_options(p)
    p.add_argument("--q", help="initial chart point, e.g. 0,0,1")
    p.add_argument("--p", help="initial momentum; one component may be '?' "
                               "to complete onto the null cone")
    p.add_argument("--null-root", dest="null_root",
                   help="which null completion to take (default 0)")
    p.add_argument("--step", help="RK4 step (default 1e-3)")
    p.add_argument("--max-steps", dest="max_steps", help="step budget (default 1000)")
    p.add_argument("--stop-tol", dest="stop_tol",
                   help="absolute |det h| stop threshold (default 1e-6 x initial)")
    p.add_argument("--box", help="domain box half-width (default 10)")

    p = sub.add_parser("family", help="build a polynomial solution-family member")
    _add_common(p)
    p.add_argument("--spec", help="JSON family-spec file")
    p.add_argument("--check", action="store_true",
                   help="include the recursion cross-check report")

    p = sub.add_parser("wind", help="wind reconstruction on an (x, z) section")
    _add_common(p); _add_gf_options(p)
    p.add_argument("--x", help="x range lo:hi:n")
    p.add_argument("--z", help="z range lo:hi:n")
    p.add_argument("--y", help="section y value (default 0)")
    p.add_argument("--branch", help="'convex' (default) or a fiber index")
    p.add_argument("--epsilon", help="Rossby number (default 1)")

    p = sub.add_parser("verify-paper",
                       help="run the end-to-end verification suite")
    _add_common(p)
    p.add_argument("--list", action="store_true",
                   help="list criteria without running them")

    return parser


def _allowed_keys(parser: _Parser, command: str) -> set:
    # Option dests of one subcommand, for config-file validation.
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    cmd_parser = sub.choices[command]
    dests = {a.dest for a in cmd_parser._actions}
    return dests - {"help", "config"}


def _merge_config(parser: _Parser, ns) -> None:
    if not getattr(ns, "config", None):
        return
    try:
        with open(ns.config) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {ns.config}: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    allowed = _allowed_keys(parser, ns.command)
    for key, value in config.items():
        dest = str(key).replace("-", "_")
        if dest not in allowed:
            raise ConfigError(f"unknown config key {key!r} for command {ns.command!r}")
        current = getattr(ns, dest)
        if current is None or current is False:
            setattr(ns, dest, value)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _merge_config(parser, ns)
        return COMMANDS[ns.command](ns)
    except ConfigError as exc:
        _emit_error(2, str(exc))
        return 2
    except (ParseError, ValueError) as exc:
        _emit_error(2, str(exc))
        return 2
    except SgmaError as exc:
        _emit_error(3, str(exc))
        return 3
    except OSError as exc:
        _emit_error(3, str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
