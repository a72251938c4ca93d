"""Seeded benchmark of symcirc: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload families --seed 1 --seconds 30 --trace 0

One client in one process runs one check at a time (a closed loop, no
threads).  A run repeats its workload's list of checks in passes.  The
number of passes follows from --seconds and the workload's pass time at the
seed state, and not from the clock, so every run of a workload does the same
work and its order statistics pick the same ranks on any commit.  With
--trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 each untraced pass is followed by a traced one, and the line
reports the per-layer metrics.  Times are in seconds at nominal host speed
(see host.py).  The lines before the JSON line are a readable summary.
Exit code 2 means symcirc could not be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

from host import HostMeter
from spans import Tracer, busy, self_times

try:
    import workloads
except ImportError as exc:  # symcirc is not next to the benchmark
    workloads, IMPORT_ERROR = None, exc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7

#: Seconds one pass takes at the seed state on a 2-core x86 machine, rounded
#: so that --seconds 30 gives 7, 1 and 3 passes.  With those counts the rank
#: of check_s_tail falls inside a block of samples of one check size.
PASS_SECONDS = {"families": 4.25, "lowering": 30.0, "cfi_wl": 9.0}

#: Layer spans; each is reported as its busy time, ``<span>_s``.
SPANS = (
    "generators.build",
    "circuit.serialize", "circuit.deserialize", "circuit.eval",
    "symmetry.check_symmetric", "symmetry.orbits", "symmetry.minimal_support",
    "lowering.value_sets", "lowering.partition", "lowering.expand",
    "lowering.verify", "lowering.orbit_check",
    "cfi.build", "cfi.enumerate", "cfi.permanent", "cfi.census",
    "wl.k1", "wl.k2",
    "cli.gen", "cli.eval", "cli.check-sym", "cli.orbits", "cli.support", "cli.lower",
    "cli.cfi-check", "cli.cfi-build", "cli.cfi-count", "cli.cfi-experiment",
    "cli.wl", "cli.pq",
)

#: Counters per pass, from inputs and public return values, with units.
COUNTERS = {
    "circuit_gates": "gates",
    "lowered_gates": "gates",
    "circuit.json_bytes": "bytes",
    "symmetry.generators": "count",
    "symmetry.support_pairs": "count",
    "lowering.value_set_size": "count",
    "lowering.partition_gates": "gates",
    "lowering.vectors_tried": "count",
    "lowering.vectors_accepted": "count",
    "lowering.assignments": "count",
    "cfi.search_nodes": "count",
    "wl.rounds": "count",
    "wl.tuples": "count",
}


def tail_rank(n: int) -> tuple:
    """(percentile, rank) of the highest whole percentile whose nearest-rank
    sample, out of n, has at least ten samples beyond it."""
    for p in range(100, -1, -1):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= 10:
            return p, rank
    raise ValueError(f"{n} checks leave no percentile with ten beyond it")


def setup_time(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its first check being
    ready: import symcirc and generate the seeded checks."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = perf_counter() - t0
    proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return elapsed


def run_pass(checks, ctx, tracer) -> dict:
    """Run every check once while a HostMeter reads the host's speed, and
    judge the checks after the loop.  A check's time is its clock time, less
    the readings taken during it, divided by the mean slowdown read from
    just before to just after it."""
    lo = len(tracer.spans)
    ctx.counts = Counter()
    raw, windows, observed = [], [], []
    with HostMeter() as meter:
        before = meter.sample(3)
        for check in checks:
            spent, c0 = meter.spent, perf_counter()
            with tracer.span("check"):
                try:
                    obs = check.fn(ctx, **check.args)
                except Exception as exc:  # a check that raises counts as failed
                    obs = exc
            raw.append(perf_counter() - c0 - (meter.spent - spent))
            observed.append(obs)
            after = meter.sample(3)
            windows.append((before, after))
            before = after
    slow = [meter.slowdown(a, b) for a, b in windows]
    times = [t / f for t, f in zip(raw, slow)]
    failures = []
    for check, obs in zip(checks, observed):
        if isinstance(obs, Exception):
            failures.append((check.name, "raised", f"{type(obs).__name__}: {obs}"))
            continue
        for g in workloads.judge(check, obs):
            got = repr(obs[g]) if g in obs else "no answer"
            failures.append((check.name, g, f"got {got}, want {check.expect[g]!r}"))
    return {"wall": sum(times), "raw_wall": sum(raw), "times": times, "slow": slow,
            "failures": failures, "counts": ctx.counts, "spans": (lo, len(tracer.spans))}


def measure(checks, tmpdir: Path, passes: int, trace: bool) -> dict:
    plain, traced = Tracer(False), Tracer(True)
    untraced, with_trace = [], []
    for _ in range(passes):
        untraced.append(run_pass(checks, workloads.Ctx(plain.span, tmpdir), plain))
        if trace:
            with_trace.append(run_pass(checks, workloads.Ctx(traced.span, tmpdir), traced))
    return {"untraced": untraced, "traced": with_trace, "spans": traced.spans}


def summarize(passes) -> dict:
    """Failure totals over passes: checks attempted, checks failed, and the
    distinct failures with how often each occurred."""
    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(len({name for name, _g, _m in p["failures"]}) for p in passes)
    distinct = Counter(f for p in passes for f in p["failures"])
    return {"attempted": attempted, "failed": failed, "distinct": distinct}


def end_to_end(setups, passes) -> dict:
    times = sorted(t for p in passes for t in p["times"])
    pct, rank = tail_rank(len(times))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "check_s_p50": (statistics.median(times), "s"),
        "check_s_tail": (times[rank - 1], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, pct, len(times)


def layer_busy(spans, p) -> dict:
    """Busy time per span name in one pass, each span scaled like its check."""
    out, k = {}, -1
    lo, hi = p["spans"]
    for name, start, end, _parent in spans[lo:hi]:
        k += name == "check"
        out[name] = out.get(name, 0.0) + (end - start) / p["slow"][k]
    return out


def per_layer(run) -> dict:
    spans, traced = run["spans"], run["traced"]
    busy_by_pass = [layer_busy(spans, p) for p in traced]
    out = {}
    for name in SPANS:
        out[f"{name}_s"] = (statistics.median(b.get(name, 0.0) for b in busy_by_pass), "s")
    for name, unit in COUNTERS.items():
        out[name] = (statistics.median(p["counts"][name] for p in traced), unit)
    tried = out["lowering.vectors_tried"][0]
    out["lowering.vector_accept_ratio"] = (
        out["lowering.vectors_accepted"][0] / tried if tried else 0.0, "ratio")
    out["trace_overhead_s"] = (statistics.median(p["wall"] for p in traced)
                               - statistics.median(p["wall"] for p in run["untraced"]), "s")
    return out


def coverage(run) -> float:
    """Share of the traced checks' time that the layer spans directly under
    each check cover."""
    spans = run["spans"]
    shares = []
    for p in run["traced"]:
        b, s = busy(spans, *p["spans"]), self_times(spans, *p["spans"])
        shares.append(1 - s["check"] / b["check"])
    return statistics.median(shares)


def write_trace(run, workload: str, seed: int, scratch: Path) -> Path:
    spans = run["spans"]
    t0 = spans[0][1] if spans else 0.0
    path = scratch / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "passes": [list(p["spans"]) for p in run["traced"]],
        "spans": [[n, s - t0, e - t0, parent] for n, s, e, parent in spans],
    }))
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(PASS_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if workloads is None:
        print(f"perfbench: cannot import symcirc from {ROOT / 'src'}: {IMPORT_ERROR}",
              file=sys.stderr)
        return 2

    meter, setups = HostMeter(), []
    before = meter.sample(3)
    for _ in range(SETUP_PROBES):
        raw = setup_time(args.workload, args.seed)
        after = meter.sample(3)
        setups.append(raw / meter.slowdown(before, after))
        before = after
    checks = workloads.make_checks(args.workload, args.seed)
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        count = max(1, int(args.seconds // PASS_SECONDS[args.workload]))
        run = measure(checks, tmpdir, count, bool(args.trace))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    tally = summarize(run["untraced"] + run["traced"])
    e2e, pct, samples = end_to_end(setups, run["untraced"])
    unknown = [f for f in tally["distinct"] if (f[0], f[1]) not in workloads.KNOWN_DEFECTS]
    first = run["untraced"][0]["counts"]

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {len(run['untraced'])} untraced and "
          f"{len(run['traced'])} traced passes of {len(checks)} checks")
    for name, (value, unit) in e2e.items():
        print(f"{name:<16} {value:.6g} {unit}")
    print(f"{'':<16} check_s_tail is p{pct} of {samples} checks")
    slow = statistics.median(f for p in run["untraced"] for f in p["slow"])
    print(f"{'':<16} times are at nominal host speed; the host ran {slow:.3g}x slower "
          f"than nominal, and one pass took a median "
          f"{statistics.median(p['raw_wall'] for p in run['untraced']):.6g} s on the clock")
    print(f"{'failed_frac':<16} {tally['failed'] / tally['attempted']:.6g} ratio "
          f"({tally['failed']} of {tally['attempted']} checks)")
    for name in ("circuit_gates", "lowered_gates"):
        print(f"{name:<16} {first[name]} gates per pass")
    print("median check times: " + ", ".join(
        f"{c.name} {statistics.median(p['times'][i] for p in run['untraced']):.3g} s"
        for i, c in enumerate(checks)))
    for (check, guarantee, msg), times in sorted(tally["distinct"].items()):
        why = workloads.KNOWN_DEFECTS.get((check, guarantee))
        tag = f"known defect: {why}" if why else "UNEXPECTED"
        print(f"FAILED x{times} {check} {guarantee}: {msg} [{tag}]")

    if args.trace:
        metrics = per_layer(run)
        metrics["failed_frac"] = (tally["failed"] / tally["attempted"], "ratio")
        for name, (value, unit) in metrics.items():
            print(f"{name:<32} {value:.6g} {unit}")
        trace = write_trace(run, args.workload, args.seed, scratch).relative_to(ROOT)
        print(f"layer spans cover {coverage(run):.1%} of the traced checks' time; "
              f"spans written to {trace}")
    else:
        metrics = e2e
    print(json.dumps({
        "correct": not unknown,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
