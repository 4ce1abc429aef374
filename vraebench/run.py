"""Benchmark of the vraets pipeline: one workload per process.

    python3 vraebench/run.py --workload train-two-class --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
The run repeats the workload's set-up, then runs rounds of its timed CLI
stages until `--seconds` have passed, checks the outputs of the last
round against computations made apart from the program, and prints one
JSON object as its last line. With `--trace 0` it reports the end-to-end
metrics of `BENCHMARK.json`; with `--trace 1` it alternates untraced and
traced rounds and reports the per-layer metrics. See README.md.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS/OpenMP thread, fixed before numpy is first imported: on two
# cores OpenBLAS's default threading doubles CPU time for no wall time.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("train-two-class", "detect-fleet", "analyze-multi-class")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy
    from vraets import _kernels
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "lstm_backend": "numba" if _kernels.HAVE_NUMBA else "numpy",
            "nproc": len(os.sched_getaffinity(0))}


def file_digests(d) -> dict:
    out = {}
    for base, _, files in os.walk(d):
        for f in files:
            path = os.path.join(base, f)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, d)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return out


def run_round(wl, s, r, tracer=None):
    """One round of the workload's stages; returns (wall seconds, exit codes)."""
    from workloads import run_stage
    shutil.rmtree(r, ignore_errors=True)
    os.makedirs(r)
    stages = wl.stages(s, r)
    t0 = time.perf_counter()
    codes = [run_stage(argv, tracer) for argv in stages]
    return time.perf_counter() - t0, codes


def median_metrics(rows: list) -> dict:
    """Per-key median over rounds; a count equal in every round stays as is."""
    out = {}
    for k in rows[0]:
        values = [row[k] for row in rows]
        out[k] = values[0] if len(set(values)) == 1 \
            else statistics.median(values)
    return out


def run_setups(wl, s, tracer):
    """The set-up, repeated so that its median is steady.

    Returns each repeat's time and, when traced, its `generate` time.
    """
    times, generate = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(s, ignore_errors=True)
        t0 = time.perf_counter()
        if tracer:
            first = len(tracer.spans)
            with tracer.installed():
                wl.setup(s, tracer)
            generate.append(sum((sp.duration for sp in tracer.spans[first:]
                                 if sp.name == "cli.generate"), 0.0))
        else:
            wl.setup(s)
        times.append(time.perf_counter() - t0)
    return times, generate


def run_rounds(wl, s, r, seconds, tracer):
    """Rounds until `seconds` have passed.

    With a tracer, untraced and traced rounds alternate, starting
    untraced, so that the two medians give the tracing overhead; at least
    one traced round runs. Returns the untraced walls, the traced rounds
    as (wall, first span, end span), the operations attempted and failed,
    and whether every round wrote the same bytes.
    """
    walls, traced, attempted, failed = [], [], 0, 0
    digests, identical = None, True
    start = time.perf_counter()
    while True:
        if tracer and len(walls) > len(traced):
            first = len(tracer.spans)
            with tracer.installed():
                wall, codes = run_round(wl, s, r, tracer)
            traced.append((wall, first, len(tracer.spans)))
        else:
            wall, codes = run_round(wl, s, r)
            walls.append(wall)
        attempted += len(codes)
        failed += sum(code != 0 for code in codes)
        d = file_digests(r)
        identical &= digests is None or d == digests
        digests = d
        if time.perf_counter() - start >= seconds and (traced or not tracer):
            return walls, traced, attempted, failed, identical


def run_checks(wl, s, r) -> bool:
    from checks import CheckFailed
    try:
        for line in wl.check(s, r):
            print(f"# check ok: {line}")
    except CheckFailed as exc:
        print(f"# check failed: {exc}")
        return False
    except Exception:                  # a missing or unreadable output
        traceback.print_exc()
        print("# check failed: could not read the outputs")
        return False
    return True


def layer_values(tracer, traced, untraced_walls, generate_times) -> dict:
    """Per-layer metrics: medians over the traced rounds."""
    from spans import layer_metrics
    rows = []
    for wall, a, b in traced:
        row = layer_metrics(tracer.spans, a, b)
        stages = sum(v for k, v in row.items()
                     if k.startswith("cli.") and k.endswith("_s"))
        row["trace.cli_share"] = stages / wall
        rows.append(row)
    values = median_metrics(rows)
    values["cli.generate_s"] = statistics.median(generate_times)
    values["trace.overhead_s"] = (statistics.median(w for w, _, _ in traced)
                                  - statistics.median(untraced_walls))
    for name, row in sorted(tracer.self_times(traced[-1][1]).items()):
        print(f"# self {name:<28} calls {row['calls']:>6} "
              f"total {row['total_s']:9.4f} s self {row['self_s']:9.4f} s")
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vraets", "cli.py")):
        print(f"error: no vraets package under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    import vraets.cli
    if not os.path.abspath(vraets.__file__).startswith(SRC + os.sep):
        print(f"error: vraets imported from {vraets.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    # the program's imports end here; the benchmark's own come after
    import_s = time.perf_counter() - _T0
    from spans import Tracer
    from workloads import WORKLOADS
    print("# env " + json.dumps(environment(), sort_keys=True))

    wl = WORKLOADS[args.workload](args.seed)
    work = os.path.join(HERE, "out", f"{wl.name}-s{args.seed}-p{os.getpid()}")
    s, r = os.path.join(work, "setup"), os.path.join(work, "round")
    tracer = Tracer() if args.trace else None
    try:
        setup_times, generate_times = run_setups(wl, s, tracer)
        print(f"# setup: imports {import_s:.3f} s, repeats "
              + " ".join(f"{t:.3f}" for t in setup_times) + " s")
        walls, traced, attempted, failed, identical = run_rounds(
            wl, s, r, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print("# rounds: " + " ".join(f"{w:.3f}" for w in walls)
              + (" | traced: " + " ".join(f"{w:.3f}" for w, _, _ in traced)
                 if tracer else "") + " s")
        if not identical:
            print("# check failed: rounds wrote different bytes")
        correct = run_checks(wl, s, r) and identical
        if tracer:
            values = layer_values(tracer, traced, walls, generate_times)
            tracer.dump(os.path.join(HERE, "out",
                                     f"trace-{wl.name}-s{args.seed}.json"),
                        {"workload": wl.name, "seed": args.seed,
                         "untraced_walls_s": walls,
                         "traced_rounds": [{"wall_s": w, "first": a, "end": b}
                                           for w, a, b in traced]})
            wanted = spec["per_layer"]
        else:
            values = {"setup_s": import_s + statistics.median(setup_times),
                      "wall_s": statistics.median(walls),
                      "peak_rss_mb": peak_rss_mb}
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
