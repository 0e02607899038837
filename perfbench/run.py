"""Benchmark runner for sgma: one workload, one seed, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {rays,sections,symbolic} --seed N \
        --seconds S --trace {0,1}

With ``--trace 0`` it reports the end-to-end metrics: set-up time (median
of SETUP_RUNS fresh processes), per-item latency p50/p90 (each item's best
time over the passes), items per second (batch size over the sum of those
best times) and the measuring process's peak RSS.  With ``--trace 1`` it runs
the same workload untraced and then traced, each for half the time, and
reports the per-layer metrics of the traced process plus the tracing
overhead.  Every item is gated by an independent oracle; the last stdout
line is ``{"correct", "attempted", "failed", "metrics"}`` and the exit code
is 1 when any gate failed.  Full records (environment, fingerprints, worker
output) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 170
LAYERS = ("polyexpr", "realroots", "ma_core", "singular", "sg", "characteristics",
          "family", "formatting", "cli")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


def _worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(root, env, args, mode, seconds, extra=()) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--mode", mode,
           "--scale", repr(args.scale), "--t-spawn", repr(time.time()), *extra]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(root, args, worker) -> dict:
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": worker.get("python"), "numpy": worker.get("numpy"),
            "git_sha": _git_sha(root), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "scale": args.scale,
            "threads": {var: "1" for var in THREAD_VARS}}


def _pass_median(run) -> float:
    return statistics.median(t * f for t, f in zip(run["pass_s"], run["pass_factor"]))


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def end_to_end(main, setups) -> dict:
    item_s = main["item_s"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (len(item_s) / sum(item_s), "1/s"),
        "item_ms_p50": (1e3 * statistics.median(item_s), "ms"),
        "item_ms_p90": (1e3 * _p90(item_s), "ms"),
        "peak_rss_mb": (main["rss_mb"], "MB"),
    }


def per_layer(traced, untraced) -> dict:
    """Per-pass layer metrics of the traced worker.

    Busy times are medians over the traced passes; counts come from the
    last pass, which later passes repeat exactly (the first pass also
    fills lazily built caches).
    """
    passes = traced["trace"]["passes"]
    counts, calls = passes[-1]["counts"], passes[-1]["layer_calls"]
    keys = set().union(*(p["busy_s"] for p in passes))
    busy = {k: statistics.median(p["busy_s"].get(k, 0.0) * f
                                 for p, f in zip(passes, traced["pass_factor"]))
            for k in keys}

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (calls.get(layer, 0), "count")
        m[f"{layer}.busy_s"] = (busy.get(layer, 0.0), "s")
        m[f"{layer}.us_per_call"] = (1e6 * ratio(busy.get(layer, 0.0), calls.get(layer, 0)),
                                     "us")
    m["bench.busy_s"] = (busy.get("bench", 0.0), "s")
    steps = counts.get("characteristics.steps", 0)
    m["characteristics.us_per_step"] = (1e6 * ratio(busy.get("characteristics", 0.0), steps),
                                        "us")
    m["characteristics.steps"] = (steps, "count")
    for term in ("max_steps", "parabolic_boundary", "domain_exit", "diverged"):
        m[f"characteristics.term.{term}"] = (
            counts.get(f"characteristics.term.{term}", 0), "count")
    rr_calls = counts.get("realroots.real_roots", 0)
    rr_busy = busy.get("realroots.real_roots", 0.0)
    m["realroots.real_roots.calls"] = (rr_calls, "count")
    m["realroots.real_roots.busy_s"] = (rr_busy, "s")
    m["realroots.real_roots.us_per_call"] = (1e6 * ratio(rr_busy, rr_calls), "us")
    m["realroots.roots"] = (counts.get("realroots.roots", 0), "count")
    for fn in ("eval", "mul"):
        m[f"polyexpr.{fn}.calls"] = (counts.get(f"polyexpr.{fn}", 0), "count")
    m["polyexpr.terms_out"] = (counts.get("polyexpr.terms_out", 0), "count")
    for name in ("polyexpr.compose", "polyexpr.eval", "polyexpr.mul", "polyexpr.parse",
                 "ma_core.symbolic", "ma_core.classification_grid", "singular.fiber_solve",
                 "singular.branch_select_convex", "singular.caustic_sweep",
                 "sg.reconstructed_state", "family.build_family", "formatting.csv",
                 "cli.main"):
        m[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
    m["ma_core.cache_hit_ratio"] = (
        ratio(traced["cache_hits"], traced["cache_hits"] + traced["cache_misses"]), "ratio")
    m["singular.convex_ratio"] = (ratio(counts.get("singular.convex_selected", 0),
                                        counts.get("singular.branch_select_convex", 0)),
                                  "ratio")
    m["singular.caustic_rejected"] = (counts.get("singular.caustic_rejected", 0), "count")
    m["sg.in_domain_ratio"] = (ratio(counts.get("sg.in_domain", 0),
                                     counts.get("sg.reconstructed_state", 0)), "ratio")
    m["family.build_family.calls"] = (counts.get("family.build_family", 0), "count")
    m["formatting.csv.bytes"] = (counts.get("formatting.csv.bytes", 0), "bytes")
    m["trace_overhead_frac"] = (_pass_median(traced) / _pass_median(untraced) - 1.0,
                                "fraction")
    m["trace.coverage"] = (statistics.median(
        ratio(sum(p["busy_s"].get(layer, 0.0) for layer in LAYERS + ("bench",)),
              p["item_wall_s"]) for p in passes), "fraction")
    m["trace.spans"] = (passes[-1]["spans"], "count")
    return m


def measure(root: Path, args) -> tuple:
    """Run the workers; return (metrics, records, correct, attempted, failed, notes)."""
    env = _worker_env(root)
    notes = []
    if not args.trace:
        # Set-up samples bracket the measuring run, so that a slow spell of
        # the machine does not hit all of them.
        half = (SETUP_RUNS - 1) // 2
        firsts = [_spawn(root, env, args, "setup", 0) for _ in range(half)]
        main = _spawn(root, env, args, "measure", args.seconds)
        lasts = [_spawn(root, env, args, "setup", 0) for _ in range(SETUP_RUNS - 1 - half)]
        setups = [r["setup_s"] for r in firsts + [main] + lasts]
        raw_setups = [r["setup_raw_s"] for r in firsts + [main] + lasts]
        records = {"measure": main, "setup_s": setups,
                   "setup_raw_s": raw_setups}
        metrics = end_to_end(main, setups)
        runs = [main]
    else:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        untraced = _spawn(root, env, args, "measure", args.seconds / 2)
        traced = _spawn(root, env, args, "trace", args.seconds / 2,
                        ("--spans", str(spans)))
        records = {"measure": untraced, "trace": traced}
        metrics = per_layer(traced, untraced)
        runs = [untraced, traced]
        if traced["fingerprint"] != untraced["fingerprint"]:
            notes.append("traced and untraced fingerprints differ")
        if not traced["trace"]["counts_stable"]:
            notes.append("traced call counts changed between passes")
    for run in runs:
        if not run["fingerprint_stable"]:
            notes.append("fingerprint changed between passes")
        notes.extend(run["errors"])
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    correct = failed == 0 and not notes
    return metrics, records, correct, attempted, failed, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("rays", "sections", "symbolic"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="batch-size factor (tests use a tiny batch)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sgma" / "__init__.py").is_file():
        print("perfbench: run from the root of an sgma checkout (src/sgma not found)",
              file=sys.stderr)
        return 2
    os.environ.update({var: "1" for var in THREAD_VARS})
    # SystemExit inside subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        metrics, records, correct, attempted, failed, notes = measure(root, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    main_run = records["measure"]
    env = _environment(root, args, main_run)
    record = {"environment": env, "correct": correct, "attempted": attempted,
              "failed": failed, "notes": notes,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "workers": records}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"# env {json.dumps(env)}")
    print(f"# {args.workload} seed {args.seed}: {main_run['items']} items x "
          f"{main_run['passes']} passes; latency = each item's median over the passes, "
          "corrected for the machine's slow-down")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    raw = main_run["item_raw_best_s"]
    print(f"# uncorrected: item_ms_p50 {1e3 * statistics.median(raw):.6g} ms, "
          f"item_ms_p90 {1e3 * _p90(raw):.6g} ms (best of {main_run['passes']} passes), "
          f"machine slow-down factors per pass "
          f"{[round(1.0 / f, 3) for f in main_run['pass_factor']]}")
    print(f"error_frac {failed / attempted:.6g} ({failed} of {attempted} items)")
    print(f"# fingerprint {json.dumps(main_run['fingerprint'], sort_keys=True)}")
    if "trace" in records:
        counts = records["trace"]["trace"]["passes"][-1]["counts"]
        print(f"# trace counts {json.dumps(counts, sort_keys=True)}")
    for note in notes[:10]:
        print(f"# FAILED {note}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
