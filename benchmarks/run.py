#!/usr/bin/env python3
"""bvlsc benchmark: one closed-loop client per workload, checked outputs.

Run from the repository root:

    python3 benchmarks/run.py --workload analyze_bundled --seed 1 --seconds 45 --trace 0
    python3 benchmarks/run.py --workload decompose_1d --seed 1 --seconds 45 --trace 1
    python3 benchmarks/run.py --smoke [--negative-control]

One process runs one client that sends the next operation only when the
previous one has returned, with BLAS/OpenMP pinned to one thread.  Whole
passes run for about --seconds.  Every operation is sampled by host-speed
probes and reported in seconds at the nominal host speed (hostspeed.py);
raw wall times are kept beside them.  With --trace 0 the end-to-end metrics
are printed; with --trace 1 one untraced pass is followed by traced passes
of the same inputs, and the per-layer metrics of the traced passes are
printed.  The last line of standard output is one JSON object; the full
result, with the environment and per-operation samples, goes to
.bench_out/.
"""

import os

PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PIN_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5

# (metric, unit, better); bounds live in BENCHMARK.json
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_s_p50", "s", "lower"),
    ("op_s_tail", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_rate", "ratio", "higher"),
]
WORKLOAD_NAMES = ("analyze_bundled", "halfball_2d", "decompose_1d")


def import_package():
    """Import bvlsc from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import importlib.util

    spec = importlib.util.find_spec("bvlsc")
    if spec is None or not spec.origin or not Path(spec.origin).resolve().is_relative_to(SRC):
        raise SystemExit(f"bvlsc benchmark: no bvlsc package under {SRC}")
    import bvlsc  # noqa: F401


def tail_percentile(samples):
    """Highest percentile with at least 10 samples beyond it, as (value,
    percentile, samples beyond).  Below 20 samples that percentile would lie
    under the median, so the interpolated 90th percentile is given instead,
    with the count of samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n >= 20:
        i = n - 11
        return xs[i], 100.0 * (i + 1) / n, n - 1 - i
    if n == 1:
        return xs[0], 100.0, 0
    value = statistics.quantiles(xs, n=10, method="inclusive")[-1]
    return value, 90.0, sum(1 for x in xs if x > value)


def environment(seed):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "bvlsc").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {v: os.environ.get(v) for v in PIN_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def build_workload(name, seed, negative_control=False):
    import workloads

    return workloads.make(name, seed, OUT / "scratch" / name, negative_control)


def setup_probe(name, seed, spawned):
    """The child side of measure_setup, on its own CPU: set-up from the
    parent's spawn time `spawned` until the inputs are ready, with host-speed
    probes from the import of numpy on (the first probe's own time is left
    out).  Prints its wall and scaled times."""
    unwatched = time.time() - spawned
    watch = hostspeed.Stopwatch()
    watch.start()
    import_package()
    build_workload(name, seed)
    timed = watch.stop()
    wall = unwatched + timed["wall_s"]
    print(json.dumps({"wall_s": wall, "s": wall * timed["s"] / timed["wall_s"]}))


def measure_setup(name, seed, probes):
    """Median time from spawning a fresh interpreter until its inputs are
    ready, over `probes` processes run one after another, in seconds at the
    nominal host speed; the raw wall times are returned beside it."""
    walls, times = [], []
    for _ in range(probes):
        spawned = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             repr(spawned), "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT))
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        walls.append(child["wall_s"])
        times.append(child["s"])
    return statistics.median(times), {"s": times, "wall_s": walls}


def run_op(workload, op, samples, errors, watch, span=contextlib.nullcontext):
    """Run one operation inside `span()`, timed by `watch`, then check it."""
    sample = {"op": op.label, "ok": False}
    samples.append(sample)
    watch.start()
    try:
        with span():
            out = op.run()
    except Exception:  # a failed operation is counted, not fatal
        sample.update(watch.stop())
        errors.append({"op": op.label, "error": traceback.format_exc(limit=3)})
        return None
    sample.update(watch.stop())
    try:
        workload.check(op, out)
    except Exception as e:  # CheckFailed, or a malformed output
        errors.append({"op": op.label, "error": f"{type(e).__name__}: {e}"})
        return None
    sample["ok"] = True
    return out


def run_passes(workload, seconds, ops_of_pass, watch, tracer=None):
    """Closed loop over whole passes for about `seconds`: a pass starts only
    if it should end less than half a pass past `seconds`, and at least one
    pass runs (two with a tracer).

    With a tracer, the first pass runs untraced (it gives the untraced rate)
    and every later pass is traced; all repeat the inputs of pass 0, so
    per-pass counts repeat exactly."""
    plain, traced, errors = [], [], []
    n_traced = 0
    start = time.perf_counter()
    k = 0
    while True:
        trace_this = tracer is not None and k > 0
        samples = traced if trace_this else plain
        ops = ops_of_pass(0 if tracer is not None else k)
        if trace_this:
            tracer.install()
        try:
            for op in ops:
                if trace_this:
                    span = functools.partial(tracer.operation, len(samples),
                                             f"op.{workload.name}")
                    out = run_op(workload, op, samples, errors, watch, span)
                    if out is not None:
                        for key, val in workload.counters(op, out).items():
                            tracer.counts[key] += val
                else:
                    run_op(workload, op, samples, errors, watch)
        finally:
            if trace_this:
                tracer.uninstall()
        n_traced += trace_this
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / k >= seconds and (tracer is None or trace_this):
            break
    return plain, traced, n_traced, errors


def ok_per_s(samples, key="s"):
    """Checked operations per second of operation time."""
    return sum(1 for s in samples if s["ok"]) / sum(s[key] for s in samples)


def end_to_end(samples, setup_s, attempted, failed):
    times = [s["s"] for s in samples]
    walls = [s["wall_s"] for s in samples]
    tail, pct, beyond = tail_percentile(times)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": ok_per_s(samples),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": (attempted - failed) / attempted,
    }
    notes = {"op_s_tail": {"percentile": pct, "samples": len(samples), "beyond": beyond},
             "error_rate": failed / attempted,
             "wall": {"ops_per_s": ok_per_s(samples, "wall_s"),
                      "op_s_p50": statistics.median(walls),
                      "op_s_tail": tail_percentile(walls)[0]}}
    return metrics, notes


def run_benchmark(name, seed, seconds, trace, setup_probes=SETUP_PROBES, smoke=False,
                  negative_control=False):
    """One benchmark run; returns (result_line, full_record)."""
    workload = build_workload(name, seed, negative_control)
    ops_of_pass = workload.smoke_ops if smoke else workload.pass_ops
    env = environment(seed)
    record = {"workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
              "trace": trace, "smoke": smoke, "environment": env,
              "loop": "closed, 1 client, 1 process"}
    if not trace:
        setup_s, record["setup_samples"] = measure_setup(name, seed, setup_probes)
    # one untimed operation first, so first-call costs (allocator growth,
    # lazy imports) stay out of the timings; its output is still checked
    warmup, errors = [], []
    # no probes inside a traced operation, where they would sit in its spans
    watch = hostspeed.Stopwatch(sample=not trace)
    if not smoke:
        for op in workload.smoke_ops():
            run_op(workload, op, warmup, errors, watch)
    if trace:
        import tracing

        micro = tracing.micro_timings()
        tracer = tracing.Tracer()
        plain, traced, n_traced, loop_errors = run_passes(
            workload, seconds, ops_of_pass, watch, tracer)
        metrics = tracing.layer_metrics(tracer, n_traced)
        metrics.update(micro)
        plain_rate = ok_per_s(plain)
        metrics["trace.ops_per_s"] = ok_per_s(traced)
        metrics["trace.overhead_pct"] = (100.0 * (plain_rate - metrics["trace.ops_per_s"])
                                         / plain_rate if plain_rate else 0.0)
        record["untraced_ops_per_s"] = plain_rate
        record["traced_passes"] = n_traced
        units = {m: u for m, u, _, _ in tracing.PER_LAYER}
        samples = plain + traced
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{name}-s{seed}.jsonl")
    else:
        samples, _, _, loop_errors = run_passes(workload, seconds, ops_of_pass, watch)
    errors += loop_errors
    attempted = len(warmup) + len(samples)
    failed = sum(1 for s in warmup + samples if not s["ok"])
    if not trace:
        metrics, record["notes"] = end_to_end(samples, setup_s, attempted, failed)
        units = {m: u for m, u, _ in END_TO_END}
    record["warmup"] = warmup
    record["samples"] = samples
    record["errors"] = errors
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    record["result"] = result
    return result, record


def print_report(result, record):
    env = record["environment"]
    print(f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, cpu {env['cpu_model']!r}, threads pinned to 1, "
          f"commit {env['git_commit']}, src sha256 {env['src_sha256'][:12]}, "
          f"seed {env['seed']}")
    print(f"workload {record['workload']}: {result['attempted']} operations, "
          f"{record['loop']}; {record['why']}")
    for err in record["errors"]:
        print(f"FAILED {err['op']}: {err['error'].strip().splitlines()[-1]}")
    notes = record.get("notes", {})
    for name, m in result["metrics"].items():
        extra = ""
        if name == "op_s_tail":
            t = notes["op_s_tail"]
            extra = (f"  (p{t['percentile']:.1f} of {t['samples']} samples, "
                     f"{t['beyond']} beyond)")
        elif name == "success_rate":
            extra = (f"  (error_rate {notes['error_rate']:.4g} = "
                     f"{result['failed']}/{result['attempted']})")
        elif name == "setup_s":
            walls = record["setup_samples"]["wall_s"]
            extra = (f"  (median of {len(walls)} fresh processes; "
                     f"wall median {statistics.median(walls):.6g} s)")
        if name in notes.get("wall", {}):
            extra = f"  (wall {notes['wall'][name]:.6g} {m['unit']})" + extra
        print(f"  {name:<38} {m['value']:.6g} {m['unit']}{extra}")
    if not record["trace"]:
        print("  times are seconds at the nominal host speed (hostspeed.py); "
              "wall times in parentheses")
    else:
        print("  per-layer times are wall times of the traced passes; "
              "trace.ops_per_s is at the nominal host speed (hostspeed.py)")
        print(f"  untraced ops_per_s {record['untraced_ops_per_s']:.6g} 1/s over the "
              f"same run; per-layer figures are per traced pass "
              f"({record['traced_passes']} traced)")


def save(record):
    OUT.mkdir(exist_ok=True)
    tag = "smoke" if record["smoke"] else f"s{record['seed']}-t{record['trace']}"
    path = OUT / f"result-{record['workload']}-{tag}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")


def check_schema(result, trace):
    """Raise ValueError unless `result` is a well-formed last line whose
    metrics are exactly those BENCHMARK.json lists for this mode."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        raise ValueError("metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"][m["name"]]
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            raise ValueError(f"metric {m['name']}: {got}")
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            raise ValueError(f"metric {m['name']} value {got['value']!r}")


def smoke(negative_control):
    """One operation per workload, untraced and traced, each schema-checked.
    Returns the per-workload results."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            result, _ = run_benchmark(name, 1, 0, trace, setup_probes=1, smoke=True,
                                      negative_control=negative_control)
            check_schema(result, trace)
            results[(name, trace)] = result
    return results


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one operation per workload with a schema check")
    ap.add_argument("--negative-control", action="store_true",
                    help="with --smoke: expect wrong verdicts, which must count as failures")
    ap.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe is not None:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0
    import_package()
    if args.smoke:
        results = smoke(args.negative_control)
        for (name, trace), res in results.items():
            print(f"{name} trace={trace}: attempted {res['attempted']}, "
                  f"failed {res['failed']}, correct {res['correct']}")
        ok = all(r["failed"] == (r["attempted"] if args.negative_control else 0)
                 for r in results.values())
        print(json.dumps({"smoke_ok": ok}))
        return 0 if ok else 1
    if args.workload is None:
        ap.error("--workload is required")
    result, record = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    save(record)
    print_report(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
