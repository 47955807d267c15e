"""Benchmark of the opencob verifier, one workload per process.

    python3 perfbench/run.py --workload {compose,glue,functor,all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout: the verifier is imported from ``src/``
there.  Set-up (import, seeded inputs, one untimed warm-up call) comes
first; then whole rounds of verifications run one after another, as
many as fit in ``--seconds`` of wall time (at least one).  Each output is
checked by ``checks.py`` right after its call, outside the timed region.  With
``--trace 0`` the result line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of ``spans.PER_LAYER``.  The last line
of stdout is one JSON object; a copy of it, and with ``--trace 1`` the
spans, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_CHILDREN = 2        # extra set-ups in fresh processes, for setup_s
# workloads.py imports opencob, so it is imported only inside the timed set-up
WORKLOAD_NAMES = ("compose", "glue", "functor")


def setup(workload: str, seed: int, tracer=None):
    """Import opencob from the checkout, generate every input from the seed
    and make one untimed warm-up call.  Returns (seconds, workload module,
    rounds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import opencob
    if SRC.resolve() not in Path(opencob.__file__).resolve().parents:
        raise ImportError(f"opencob imported from {opencob.__file__}, not {SRC}")
    if tracer is not None:
        tracer.install()
        tracer.enabled = True
    import workloads
    spec = workloads.WORKLOADS[workload]
    rounds = spec.make_rounds(random.Random(seed), spec.pool_rounds)
    if tracer is not None:
        tracer.enabled = False
    workloads.call(min(rounds[0], key=lambda op: op.size))
    return time.perf_counter() - t0, workloads, rounds


def child_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def tail_value(latencies: list, percentile: int):
    """Nearest-rank percentile and the number of operations beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                    help="'all' runs each workload in its own process, in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it (used for setup_s)")
    args = ap.parse_args(argv)
    if not (SRC / "opencob" / "__init__.py").is_file():
        print(f"error: no opencob package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))

    if args.workload == "all":
        for name in WORKLOAD_NAMES:
            subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True)
        return 0
    if args.setup_only:
        print(setup(args.workload, args.seed)[0])
        return 0

    tracer = None
    setups = []
    if args.trace:
        import spans
        tracer = spans.Tracer()
    else:
        setups = [child_setup_seconds(args.workload, args.seed)
                  for _ in range(SETUP_CHILDREN)]
    seconds, workloads, rounds = setup(args.workload, args.seed, tracer)
    setups.append(seconds)
    gc.collect()
    gc.freeze()   # the input pool stays out of every later collection

    latencies: list = []
    failed = wrong = 0
    sizes: dict = {}
    tags: dict = {}
    perf_counter = time.perf_counter
    loop_start = perf_counter()
    n_rounds = 0
    while True:
        round_start = perf_counter()
        for op in rounds[n_rounds % len(rounds)]:
            if tracer is not None:
                tracer.enabled = True
            t0 = perf_counter()
            try:
                result = workloads.call(op)
                error = None
            except Exception as exc:   # a failed verification is counted
                result, error = None, f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            if tracer is not None:
                tracer.enabled = False
            latencies.append(t1 - t0)
            sizes[op.size] = sizes.get(op.size, 0) + 1
            if error is None:
                try:
                    error = workloads.check(op, result)
                except Exception as exc:   # a malformed output fails its check
                    error = f"check raised {type(exc).__name__}: {exc}"
                wrong += error is not None
            if error is None:
                tag = workloads.mix_tag(op, result)
                tags[tag] = tags.get(tag, 0) + 1
            else:
                failed += 1
                if failed <= 5:
                    print(f"FAILED {op.kind} h={op.size}: {error}", file=sys.stderr)
            del result
        n_rounds += 1
        # whole rounds only: the next one starts if it should end in time
        now = perf_counter()
        if (now - loop_start) + (now - round_start) > args.seconds:
            break

    attempted = len(latencies)
    busy = sum(latencies)
    spec = workloads.WORKLOADS[args.workload]
    tail, beyond = tail_value(latencies, spec.tail_percentile)
    if args.trace:
        metrics = tracer.layer_metrics(attempted)
    else:
        metrics = {
            "verified_per_s": {"value": (attempted - failed) / busy, "unit": "1/s"},
            "verify_p50_ms": {"value": statistics.median(latencies) * 1e3,
                              "unit": "ms"},
            "verify_tail_ms": {"value": tail * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "rounds": n_rounds,
               "verify_s": busy,
               "tail_percentile": spec.tail_percentile, "beyond_tail": beyond,
               "setups_s": setups, "h_histogram": dict(sorted(sizes.items())),
               "tags": dict(sorted(tags.items()))}
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:   # one span file per workload: the latest run
        tracer.write(OUT / f"spans-{args.workload}.csv.gz")
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({**summary, **result}, indent=1) + "\n")

    print(json.dumps(summary), file=sys.stderr)
    print(f"workload {args.workload}: attempted {attempted}, failed {failed}, "
          f"correct {wrong == 0}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
