"""One workload in one fresh process; prints a JSON record as its last line.

Usage (normally started by run.py, from the root of a checkout):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --mode {setup,measure,trace} --t-spawn EPOCH [--scale F] [--spans PATH]

``setup`` stops after set-up.  ``measure`` and ``trace`` repeat passes over
the seeded batch for ``--seconds`` (at least MIN_PASSES passes); ``trace``
installs the span wrappers after set-up.  Set-up time counts from
``--t-spawn``, the wall-clock time at which the parent started this process.
The reference kernel of :mod:`calibrate` is timed before every item, and
each pass's times are corrected by the kernel's median in that pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import warnings
from collections import Counter

import calibrate

MIN_PASSES = 3
SETUP_REFERENCES = 25


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    # sgma warns when a family node has several convex branches; the gates
    # check the results, and stderr stays free for real failures.
    warnings.simplefilter("ignore")

    import numpy
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    workload.setup()
    items = workload.items()
    setup_raw_s = time.time() - args.t_spawn
    refs = [calibrate.time_reference() for _ in range(SETUP_REFERENCES)]
    record = {"setup_s": setup_raw_s * calibrate.scale(refs), "setup_raw_s": setup_raw_s,
              "python": sys.version.split()[0], "numpy": numpy.__version__}
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    tracer = None
    if args.mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    samples = [[] for _ in items]  # (pass index, seconds) per execution
    pass_s, factors, fingerprints, errors, trace_passes = [], [], [], [], []
    attempted = failed = hits = misses = 0
    started = time.perf_counter()
    # Start another pass only if it should end within --seconds.
    while len(pass_s) < MIN_PASSES or (time.perf_counter() - started
                                       + statistics.median(pass_s) <= args.seconds):
        workload.before_pass()
        h0, m0 = workload.cache_stats()
        fp = Counter()
        refs = []
        n_pass = len(pass_s)
        t_pass = time.perf_counter()
        for idx, (kind, run, check) in enumerate(items):
            refs.append(calibrate.time_reference())
            for _ in range(workload.REPEATS.get(kind, 1)):
                t0 = time.perf_counter()
                try:
                    out = run() if tracer is None else tracer.run_item(idx, run)
                except Exception as exc:  # an unexpected error fails the item, not the run
                    samples[idx].append((n_pass, time.perf_counter() - t0))
                    problems = [f"{type(exc).__name__}: {exc}"]
                else:
                    samples[idx].append((n_pass, time.perf_counter() - t0))
                    problems = check(out, fp)
                attempted += 1
                if problems:
                    failed += 1
                    errors.append(f"{kind} #{idx}: {problems[0]}")
        pass_s.append(time.perf_counter() - t_pass)
        factors.append(calibrate.scale(refs))
        h1, m1 = workload.cache_stats()
        hits, misses = hits + h1 - h0, misses + m1 - m0
        fingerprints.append(dict(sorted(fp.items())))
        if tracer is not None:
            trace_passes.append(tracer.take_pass())

    record.update({
        "passes": len(pass_s),
        "pass_s": pass_s,
        "pass_factor": factors,
        "items": len(items),
        "item_s": [statistics.median(dt * factors[p] for p, dt in v) for v in samples],
        "item_raw_best_s": [min(dt for _, dt in v) for v in samples],
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:10],
        "fingerprint": fingerprints[0],
        "fingerprint_stable": all(f == fingerprints[0] for f in fingerprints),
        "cache_hits": hits,
        "cache_misses": misses,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        # Lazily built caches make the first pass do extra work; later
        # passes must repeat the same calls exactly.
        steady = [p["counts"] for p in trace_passes[1:]]
        record["trace"] = {
            "passes": trace_passes,
            "counts_stable": all(c == steady[0] for c in steady),
            "spans": len(tracer.spans) + tracer.dropped,
            "spans_dropped": tracer.dropped,
        }
        if args.spans:
            os.makedirs(os.path.dirname(args.spans) or ".", exist_ok=True)
            tracer.write_spans(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
