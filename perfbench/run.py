#!/usr/bin/env python3
"""SDS benchmark: one workload, timed untraced or traced, outputs checked.

    python3 perfbench/run.py --workload refute --seed 1 --seconds 15 --trace 0

Run from the repository root; sds is imported from ./src.  With --trace 0
it times passes over the workload's items until --seconds have gone by and
reports the end-to-end metrics listed in BENCHMARK.json: `wall_ref`, a
pass's time in units of a reference computation timed throughout the same
pass (see SpeedSampler), `setup_s` and `peak_rss_mb`.  The raw pass time
and the time inside decide, verify and sampling calls are printed above the
result.  With --trace 1 it makes one untraced and one traced pass, reports
the per-layer metrics and writes every span to perfbench/out/.  The last
line of stdout is the JSON result.  Outputs are checked against
perfbench/expected.json (written by perfbench/record.py) and by checks that
certify themselves.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 7
REFERENCE_INTERVAL_S = 0.25
PHASES = ("decide", "verify", "sample")


def _use_source_tree() -> None:
    if not (SRC / "sds" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'sds'} not found; run from the root of an sds checkout")
    sys.path[:0] = [str(SRC), str(HERE)]


def setup_probe(workload: str, seed: int) -> None:
    """Time a fresh import of sds plus building the workload's inputs."""
    start = time.perf_counter()
    _use_source_tree()
    import workloads

    workloads.build(workload, seed)
    print(repr(time.perf_counter() - start))


def measure_setup(workload: str, seed: int) -> list:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def reference() -> None:
    """A fixed computation that does not touch sds: exact fractions with
    growing denominators and a tuple-keyed dict, the kind of work sds does."""
    total, table = Fraction(0), {}
    for i in range(1, 800):
        total += Fraction(1, i)
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + i * i


class SpeedSampler:
    """Times `reference()` every REFERENCE_INTERVAL_S while the workload runs.

    The machine's speed drifts during and between runs; dividing a pass's
    time by the mean reference time taken during that pass cancels the
    drift.  The reference runs in a SIGALRM handler on the main thread, so
    its samples are spread evenly over long items too; each sample is the
    main thread's CPU time, which leaves out time spent waiting for the
    interpreter lock held by the engine's pool threads.  `wall` adds up the
    handler's wall time, which the pass loop takes out of the item times.
    """

    def __init__(self) -> None:
        self.samples: list = []
        self.wall = 0.0

    def _tick(self, signum, frame) -> None:
        start, cpu = time.perf_counter(), time.thread_time()
        reference()
        self.samples.append(time.thread_time() - cpu)
        self.wall += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL_S, REFERENCE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_pass(items, tracer=None, sampler=None) -> list:
    results = []
    for item in items:
        if tracer is not None:
            tracer.item = item.key
        paused = sampler.wall if sampler is not None else 0.0
        try:
            out, timing = item.run()
        except Exception as exc:  # a raised exception counts as a wrong output
            results.append((item, None, {"total": 0.0}, f"{type(exc).__name__}: {exc}"))
        else:
            if sampler is not None and timing["total"] > 0:
                # take the sampler's own time out, spread over the item's phases
                keep = 1 - (sampler.wall - paused) / timing["total"]
                for phase in ("total", *PHASES):
                    if phase in timing:
                        timing[phase] *= keep
            results.append((item, out, timing, None))
    return results


def check_pass(results, expected: dict) -> list:
    """Errors of one pass, as (item key, message)."""
    errors = []
    for item, out, _, error in results:
        if error is None:
            want = expected.get(item.key)
            got = item.summary(out)
            if want is None:
                error = "no recorded output"
            elif got != want:
                error = f"output {json.dumps(got)[:300]} differs from recorded {json.dumps(want)[:300]}"
            elif item.certify is not None:
                error = item.certify(out)
        if error is not None:
            errors.append((item.key, error))
    return errors


def phase_totals(results) -> dict:
    totals = {"total": 0.0, **{p: 0.0 for p in PHASES}}
    for _, _, timing, _ in results:
        for name in totals:
            totals[name] += timing.get(name, 0.0)
    return totals


def cli_threads(results):
    seen = [timing["threads"] for _, _, timing, _ in results if "threads" in timing]
    return max(seen) if seen else None


def metric_spec(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def emit(metrics: dict, kind: str, attempted: int, failed: int) -> None:
    spec = metric_spec(kind)
    if set(spec) != set(metrics):
        sys.exit(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {kind} {sorted(spec)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": spec[name]} for name in spec},
    }
    print(json.dumps(result))


def report_errors(errors) -> None:
    for key, error in errors:
        print(f"FAILED {key}: {error}", file=sys.stderr)


def env_line(threads) -> str:
    usable = len(os.sched_getaffinity(0))
    line = (f"env: python {sys.version.split()[0]}, usable cores {usable}, "
            f"os.cpu_count {os.cpu_count()}, cli.threads {threads if threads is not None else 'n/a'}")
    if threads is not None and threads > usable:
        line += f"  FLAG: cli.threads {threads} exceeds the {usable} usable cores"
    return line


def untraced(args, items, expected, setup_times) -> None:
    totals, ratios, errors = [], [], []
    threads = None
    with SpeedSampler() as sampler:
        start = time.perf_counter()
        while True:
            first = len(sampler.samples)
            results = run_pass(items, sampler=sampler)
            refs = sampler.samples[first:] or sampler.samples
            totals.append(phase_totals(results))
            ratios.append(totals[-1]["total"] / statistics.mean(refs))
            # check at once and drop the outputs, so memory does not grow with passes
            errors += check_pass(results, expected)
            threads = cli_threads(results) if threads is None else threads
            del results
            if time.perf_counter() - start >= args.seconds:
                break
    attempted = len(items) * len(totals)
    if args.workload == "breadth":
        import workloads

        attempted += 1
        problem = workloads.breadth_self_check(args.seed)
        if problem is not None:
            errors.append(("breadth-self-check", problem))
    failed = len(errors)

    wall = statistics.median(t["total"] for t in totals)
    wall_ref = statistics.median(ratios)
    setup = statistics.median(setup_times)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(f"workload {args.workload}, seed {args.seed}: {len(totals)} passes over "
          f"{len(items)} items, closed loop, one caller")
    print(f"  setup_s      {setup:.4f} s    median of {len(setup_times)} fresh processes")
    print(f"  wall_s       {wall:.4f} s    median of {len(totals)} passes: "
          + " ".join(f"{t['total']:.3f}" for t in totals))
    print(f"  wall_ref     {wall_ref:.1f} ref   median over passes of the pass time divided by "
          f"the mean of {len(sampler.samples)} reference timings "
          f"({statistics.mean(sampler.samples) * 1e3:.3f} ms mean)")
    for phase in PHASES:
        values = [t[phase] for t in totals]
        shown = f"{statistics.median(values):.4f} s" if any(values) else "n/a"
        print(f"  {phase + '_s':12s} {shown}")
    print(f"  peak_rss_mb  {rss_mib:.1f} MiB")
    print(f"  wrong_share  {failed}/{attempted} = {failed / attempted:.4f}")
    print("  " + env_line(threads))
    report_errors(errors)
    emit({"wall_ref": wall_ref, "setup_s": setup, "peak_rss_mb": rss_mib},
         "end_to_end", attempted, failed)


def traced(args, expected) -> None:
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.item = "setup"
    tracer.install()
    try:
        items = workloads.build(args.workload, args.seed)
    finally:
        tracer.uninstall()
    plain = run_pass(items)
    tracer.install()
    try:
        spanned = run_pass(items, tracer)
    finally:
        tracer.uninstall()

    errors = check_pass(plain, expected) + check_pass(spanned, expected)
    overhead = phase_totals(spanned)["total"] - phase_totals(plain)["total"]
    try:
        metrics, decide_check = tracing.layer_metrics(tracer.spans, overhead)
    except tracing.TraceCheckError as exc:
        errors.append(("trace", str(exc)))
        metrics, decide_check = {name: 0 for name in tracing.LAYER_METRICS}, {"ok": False}
    if not decide_check["ok"]:
        errors.append(("trace", f"decide spans do not add up: {decide_check}"))
    threads = cli_threads(spanned)

    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": args.workload,
            "seed": args.seed,
            "env": env_line(threads),
            "usable_cores": len(os.sched_getaffinity(0)),
            "cli_threads": threads,
            "decide_check": decide_check,
            "metrics": {name: {"value": metrics[name], "unit": unit, "moves": target}
                        for name, (unit, _, target) in tracing.LAYER_METRICS.items()},
            "spans": tracer.dump(),
        }, fh, separators=(",", ":"))
        fh.write("\n")

    print(f"workload {args.workload}, seed {args.seed}: traced pass, {len(tracer.spans)} spans "
          f"written to {path.relative_to(ROOT)}")
    for name, (unit, _, target) in tracing.LAYER_METRICS.items():
        print(f"  {name:32s} {metrics[name]:>14.6g} {unit:6s} -> {target}")
    if decide_check.get("decide_spans"):
        print(f"  decide spans {decide_check['decide_s']:.3f} s, of which substitution "
              f"{decide_check['substitute_share']:.1%} and engine self time "
              f"{decide_check['decide_self_s']:.3f} s")
    print("  " + env_line(threads))
    report_errors(errors)
    emit(metrics, "per_layer", 2 * len(items) + 1, len(errors))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("refute", "certify", "breadth", "sample"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return

    _use_source_tree()
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]
    if args.trace:
        traced(args, expected)
    else:
        import workloads

        untraced(args, workloads.build(args.workload, args.seed), expected, setup_times)


if __name__ == "__main__":
    main()
