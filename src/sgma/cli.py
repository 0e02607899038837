"""Deterministic command-line front end.

Every operation is a subcommand taking a generating-function record
(inline flags or a JSON file) plus numeric options, emitting CSV or JSON
with a fixed float format so identical configurations produce
byte-identical output.  Each command returns its exit code and a writer of
its output, which :func:`main` calls once, on ``--output`` or stdout.
Each option is declared once, with its converter and default, in
:func:`build_parser`.  A JSON config file, read once per call, may supply
any of a command's long options (keys named like the flags, dashes or
underscores): flags take true or false, other options their text as a
JSON string.  Each key is read as the option it names, placed before the
command line's own options, so it passes through the option's converter
and explicit flags override it.  Exit codes: 0 success, 1 verification
failure, 2 usage/config error, 3 domain/runtime error.  Every error path
writes a single-line JSON record to stderr.
"""

from __future__ import annotations

import argparse
import functools
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
from .formatting import render_json, write_csv
from .grid import Axis, Grid
from .polyexpr import exact_number, float_number


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error(2, message)
        raise SystemExit(2)


def _emit_error(code: int, message: str) -> None:
    record = json.dumps({"error": {"code": code, "message": str(message)}})
    print(record, file=sys.stderr)


# -- option converters: text -> value, argparse.ArgumentTypeError on bad text --


def _checked(parse):
    """``parse`` as a converter: its ValueError becomes a usage error."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


# An exact decimal or rational literal, such as 0.1 or 1/3.
_rational = _checked(exact_number)


# The float nearest a decimal or rational literal.
_number = _checked(float_number)


def _positive(text: str) -> float:
    try:
        value = _number(text)
    except argparse.ArgumentTypeError:
        value = 0.0
    if not value > 0:
        raise argparse.ArgumentTypeError(f"value {text!r} is not positive and finite")
    return value


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"value {text!r} is not an integer") from None


def _point(text: str, free: bool = False) -> tuple:
    """Three comma-separated numbers; with ``free``, one may be '?' (None)."""
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 3 comma-separated values, got {text!r}")
    values = tuple(None if free and s.strip() == "?" else _number(s) for s in parts)
    if values.count(None) > 1:
        raise argparse.ArgumentTypeError("at most one value may be '?'")
    return values


def _seeds(text: str) -> tuple:
    """Points of comma-separated numbers, separated by semicolons."""
    return tuple(tuple(map(_number, chunk.split(",")))
                 for chunk in text.split(";") if chunk.strip())


def _branch(text: str):
    return text if text == "convex" else _integer(text)


def _json_file(path: str):
    """The JSON value held in the file at ``path``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise argparse.ArgumentTypeError(f"cannot read JSON from {path}: {exc}") from None


# -- subcommand implementations ---------------------------------------------
# Each takes the options, and those built with gf=True the generating function
# that main resolves once.  Each finishes its computation, then returns its exit
# code and a writer that takes the stream, so a failing command writes nothing.


def _resolve_gf(ns) -> mc.GeneratingFunction:
    if ns.gf_file is not None:
        return mc.GeneratingFunction.from_dict(ns.gf_file)
    if not ns.chart or not ns.potential:
        raise ConfigError("supply --gf-file, or --chart and --potential")
    return mc.GeneratingFunction.from_dict(
        {"chart": ns.chart, "potential": ns.potential, "eps_q": ns.eps_q})


def _json_output(report, code: int = 0) -> tuple:
    """``code`` and a writer of ``report`` as one JSON document."""
    return code, lambda stream: stream.write(render_json(report) + "\n")


def _cmd_classify(ns, gf: mc.GeneratingFunction) -> tuple:
    if ns.grid is not None:
        grid = ns.grid.ordered(gf.chart.coords)
        eigs, labels = mc.classification_grid(gf, grid.axes(), ns.tol)
        return 0, functools.partial(
            write_csv, columns=[*gf.chart.coords, "eig1", "eig2", "eig3", "label"],
            rows=((*node, *eig, label.value) for node, eig, label
                  in zip(grid.nodes(), eigs.reshape(-1, 3), labels.reshape(-1))))
    if ns.point is None:
        raise ConfigError("supply --point or --grid")
    signature = mc.classify(gf, ns.point, ns.tol)
    report = {
        "point": list(ns.point),
        "eigenvalues": list(signature.eigenvalues),
        "signature": {"n_pos": signature.n_pos, "n_neg": signature.n_neg,
                      "n_zero": signature.n_zero},
        "label": signature.label.value,
        "tol": signature.tol,
    }
    return _json_output(report)


def _cmd_residual(ns, gf: mc.GeneratingFunction) -> tuple:
    if ns.symbolic:
        poly = mc.ma_residual_poly(gf)
        return _json_output({"chart": gf.chart.value, "residual": str(poly),
                             "is_zero": poly.is_zero})
    if ns.point is None:
        raise ConfigError("supply --point (or --symbolic)")
    return _json_output({"point": list(ns.point),
                         "residual": float(mc.ma_residual(gf, ns.point))})


def _cmd_singular(ns, gf: mc.GeneratingFunction) -> tuple:
    poly = sing.singular_locus_poly(gf)
    return _json_output({"chart": gf.chart.value, "variables": list(gf.chart.coords),
                         "locus": str(poly)})


def _cmd_caustic(ns, gf: mc.GeneratingFunction) -> tuple:
    if ns.grid is None:
        raise ConfigError("supply --grid over two chart variables")
    return 0, functools.partial(sing.write_caustic_csv,
                                sing.caustic_sweep(gf, ns.grid, ns.tol))


def _cmd_fiber(ns, gf: mc.GeneratingFunction) -> tuple:
    if ns.base is None:
        raise ConfigError("supply --base x,y,z")
    bp = sing.fiber_solve(gf, ns.base, ns.seeds)
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
        "convex_branch": choice.index,
        "ambiguous": choice.ambiguous,
        "failed_seeds": [list(s) for s in bp.failed_seeds],
    }
    return _json_output(report)


def _cmd_trace(ns, gf: mc.GeneratingFunction) -> tuple:
    if ns.q is None or ns.p is None:
        raise ConfigError("supply --q and --p")
    p = ns.p
    if None in p:
        free = p.index(None)
        completions = ch.null_project(gf, ns.q, [v for v in p if v is not None], free)
        if not completions:
            raise DomainError("no real null completion at this point")
        if not 0 <= ns.null_root < len(completions):
            raise ConfigError(f"--null-root {ns.null_root} out of range "
                              f"({len(completions)} completions)")
        p = completions[ns.null_root]
    trace = ch.trace_bicharacteristic(gf, ch.BicharState(ns.q, p), step=ns.step,
                                      max_steps=ns.max_steps, stop_tol=ns.stop_tol,
                                      box=ns.box)
    return 0, functools.partial(ch.write_trace_csv, trace)


def _cmd_family(ns) -> tuple:
    if ns.spec is None:
        raise ConfigError("supply --spec FILE (JSON family spec)")
    sol = fam.build_family(fam.FamilySpec.from_dict(ns.spec))
    report = {
        "potential": str(sol.gf.potential),
        "chart": sol.gf.chart.value,
        "eps_q": str(sol.gf.eps_q),
        "degrees": sol.degrees._asdict(),
        "residual_is_zero": mc.ma_residual_poly(sol.gf).is_zero,
    }
    if ns.check:
        report["recursion_crosscheck"] = fam.reference_recursion_report()
    return _json_output(report)


def _cmd_wind(ns, gf: mc.GeneratingFunction) -> tuple:
    if ns.x is None or ns.z is None:
        raise ConfigError("supply --x lo:hi:n and --z lo:hi:n")
    grid = Grid((ns.x, Axis("y", ns.y, ns.y, 1), ns.z))
    eps = sg.EpsilonChoice.for_gf(gf, ns.epsilon)
    return 0, functools.partial(sg.write_wind_csv,
                                sg.wind_field_sweep(gf, ns.branch, grid, eps))


def _cmd_verify_paper(ns) -> tuple:
    if ns.list:
        names = verify.criteria_names()
        return 0, lambda stream: stream.writelines(name + "\n" for name in names)
    results = verify.run_all()
    code = 0 if all(r.passed for r in results) else 1
    return _json_output(verify.summary_dict(results), code)


@functools.cache
def build_parser() -> _Parser:
    """The sgma parser, built once per process and never changed after."""
    parser = _Parser(prog="sgma",
                     description="Monge-Ampere geometry toolkit for "
                                 "semigeostrophic balance")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str, gf: bool = True) -> _Parser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--config",
                       help="JSON file of option defaults for this command")
        p.add_argument("--output", help="output path (default: stdout)")
        if gf:
            p.add_argument("--chart", help="chart name: P, R, S or T")
            p.add_argument("--potential",
                           help="potential polynomial over the chart coordinates")
            p.add_argument("--eps-q", type=_rational, default=Fraction(1),
                           help="positive rational constant (default %(default)s)")
            p.add_argument("--gf-file", type=_json_file,
                           help="JSON file with {chart, potential, eps_q}")
        return p

    p = command("classify", _cmd_classify, "metric signature at a point or over a grid")
    p.add_argument("--point", type=_point, help="chart point, e.g. 0,0,1")
    p.add_argument("--grid", type=_checked(Grid.parse),
                   help="three axes, e.g. x=-2:2:41,y=-2:2:41,Z=-2:2:41")
    p.add_argument("--tol", type=_positive, default=1e-9,
                   help="eigenvalue zero tolerance (default %(default)s)")

    p = command("residual", _cmd_residual, "balance-equation residual")
    p.add_argument("--point", type=_point, help="chart point, e.g. 0,0,1")
    p.add_argument("--symbolic", action="store_true",
                   help="report the exact residual polynomial instead")

    command("singular", _cmd_singular, "exact singular-locus polynomial")

    p = command("caustic", _cmd_caustic, "caustic sweep over two chart variables")
    p.add_argument("--grid", type=_checked(Grid.parse),
                   help="two axes, e.g. x=-2:2:41,y=-1:1:5")
    p.add_argument("--tol", type=_positive, default=1e-10,
                   help="residual determinant tolerance (default %(default)s)")

    p = command("fiber", _cmd_fiber, "chart preimages over a physical base point")
    p.add_argument("--base", type=_point, help="base point, e.g. 2,0,0")
    p.add_argument("--seeds", type=_seeds, default=(),
                   help="Newton seeds for R/S charts, e.g. 0,0;1,1")

    p = command("trace", _cmd_trace, "integrate one bicharacteristic")
    p.add_argument("--q", type=_point, help="initial chart point, e.g. 0,0,1")
    p.add_argument("--p", type=functools.partial(_point, free=True),
                   help="initial momentum; one component may be '?' "
                        "to complete onto the null cone")
    p.add_argument("--null-root", type=_integer, default=0,
                   help="which null completion to take (default %(default)s)")
    p.add_argument("--step", type=_positive, default=1e-3,
                   help="RK4 step (default %(default)s)")
    p.add_argument("--max-steps", type=_integer, default=1000,
                   help="step budget (default %(default)s)")
    p.add_argument("--stop-tol", type=_number,
                   help="absolute |det h| stop threshold (default 1e-6 x initial)")
    p.add_argument("--box", type=_positive, default=10.0,
                   help="domain box half-width (default %(default)s)")

    p = command("family", _cmd_family, "build a polynomial solution-family member", gf=False)
    p.add_argument("--spec", type=_json_file, help="JSON family-spec file")
    p.add_argument("--check", action="store_true",
                   help="include the recursion cross-check report")

    p = command("wind", _cmd_wind, "wind reconstruction on an (x, z) section")
    p.add_argument("--x", type=_checked(functools.partial(Axis.parse, "x")),
                   help="x range lo:hi:n")
    p.add_argument("--z", type=_checked(functools.partial(Axis.parse, "z")),
                   help="z range lo:hi:n")
    p.add_argument("--y", type=_number, default=0.0,
                   help="section y value (default %(default)s)")
    p.add_argument("--branch", type=_branch, default="convex",
                   help="'convex' (default) or a fiber index")
    p.add_argument("--epsilon", type=_rational, default=Fraction(1),
                   help="Rossby number (default %(default)s)")

    p = command("verify-paper", _cmd_verify_paper, "run the end-to-end verification suite",
                gf=False)
    p.add_argument("--list", action="store_true",
                   help="list criteria without running them")

    return parser


def _config_options(parser: _Parser, ns) -> list:
    # The values of the --config file, read once, as the options they name:
    # text becomes --name=text, true a bare flag, false nothing.  The first
    # parse's namespace names every option, and a bool marks a flag.
    try:
        config = _json_file(ns.config)
    except argparse.ArgumentTypeError as exc:
        parser.error(f"argument --config: {exc}")
    if not isinstance(config, dict):
        parser.error("config file must hold a JSON object")
    values = {}
    for key, value in config.items():
        dest = key.replace("-", "_")
        if dest in ("command", "config", "run") or dest not in vars(ns):
            parser.error(f"unknown config key {key!r} for command {ns.command!r}")
        kind = bool if isinstance(getattr(ns, dest), bool) else str
        if not isinstance(value, kind):
            expected = "true or false" if kind is bool else "a string"
            parser.error(f"config key {key!r} must be {expected}, got {json.dumps(value)}")
        values[dest] = value
    return ["--" + dest.replace("_", "-") + ("" if value is True else f"={value}")
            for dest, value in values.items() if value is not False]


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = parser.parse_args(argv)
        if ns.config is not None:
            # The config's options go right after the command name, so the
            # options written in argv come later and win.
            at = argv.index(ns.command) + 1
            ns = parser.parse_args(argv[:at] + _config_options(parser, ns) + argv[at:])
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, write = ns.run(ns, _resolve_gf(ns)) if hasattr(ns, "gf_file") else ns.run(ns)
        if ns.output:
            with open(ns.output, "w") as fh:
                write(fh)
        else:
            write(sys.stdout)
        return code
    except (ConfigError, ValueError) as exc:
        _emit_error(2, str(exc))
        return 2
    except (SgmaError, OSError) as exc:
        _emit_error(3, str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
