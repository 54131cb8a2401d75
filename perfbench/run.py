#!/usr/bin/env python3
"""quatype benchmark: ``check`` goodput on four seeded expression corpora.

    python3 perfbench/run.py --workload check_small --seed 1 --seconds 15 --trace 0

One process and one closed-loop client: the corpus's ``check(expr, sig,
trials=T, seed=s)`` calls run one after another, pass after pass, until
``--seconds`` have gone by.  Between calls, every CAL_EVERY seconds, the run
times a fixed calibration task that uses no quatype code; the end-to-end
times are reported at the task's reference speed (see calib.py), which takes
out the host's speed swings, and the raw wall times are logged beside them.  With ``--trace 0`` the run reports the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics, timed by
wrapping the library's entry points from outside (see tracing.py).  Either
way, outside the timed loop a seeded sample of the exact calls is re-checked
by the independent evaluator in reference.py.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (check calls made), ``failed`` (calls that raised
or disagreed with the reference) and ``metrics``.  The lines before it give
the environment stamp, the corpus digest and how each metric was sampled.
The library is imported from ``src/`` of the checkout this file sits in; a
tree without it is an error, never a silent fallback to an installed copy.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import corpus as C
import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

MIN_PASSES = 3  # timed passes per run, however long --seconds is
SETUP_LAUNCHES = 11  # fresh interpreters timed for setup_s
CAL_EVERY = 0.05  # seconds of calls between two calibration samples
CAL_WINDOW = 6  # calibration samples that set a call's scale: half before it, half after
CAL_SAMPLES = 5  # calibration samples a set-up launch takes after its timed part
TAIL_BEYOND = 10  # the tail percentile keeps at least this many calls beyond it
REF_CALLS = 24  # calls the reference re-checks per run, at most
REF_CALL_PAIRS = 300_000  # blade pairs the reference may spend on one call
REF_TOTAL_PAIRS = 1_000_000  # and on one run


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_library() -> None:
    if not (SRC / "quatype" / "__init__.py").is_file():
        die(f"no quatype sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import quatype

    if Path(quatype.__file__).resolve().parent != SRC / "quatype":
        die(f"imported quatype from {quatype.__file__}, not from {SRC}")


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        die(f"missing {path}")
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# environment stamp


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    from quatype import _accel

    thread_vars = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "backend": getattr(_accel, "BACKEND", "n/a"),
        "commit": git_commit(),
        "threads_env": {k: os.environ.get(k, "unset") for k in thread_vars},
    }


# ---------------------------------------------------------------------------
# set-up: a fresh interpreter up to a warm library


def warm_code(corpus: C.Corpus) -> str:
    return (
        f"import sys, time\nsys.path.insert(0, {str(SRC)!r})\n"
        "from quatype.algebra import Signature\nfrom quatype.dsl import check\n"
        f"for p, q in {corpus.signatures!r}:\n"
        f"    check({corpus.warmup_expr!r}, Signature(p, q), trials=1, seed=0)\n"
        "end = time.clock_gettime(time.CLOCK_MONOTONIC)\n"
        f"sys.path.insert(0, {str(HERE)!r})\nfrom calib import interpreter\n"
        f"print(end, *[interpreter() for _ in range({CAL_SAMPLES})])\n"
    )


def measure_setup(corpus: C.Corpus) -> tuple[list[float], list[float]]:
    """Wall times from launching a fresh interpreter until it has imported
    quatype and checked the warm-up expression on every corpus signature:
    (raw, at the reference speed).

    The child stamps its end on the system-wide monotonic clock, which keeps
    interpreter teardown and the parent's wait-polling out of the figure.
    Past its end stamp the child runs the interpreter calibration task, so
    each launch is scaled by the speed of the CPU it ran on.
    """
    code = warm_code(corpus)
    raw, scaled = [], []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, capture_output=True, text=True,
                              timeout=120)
        end, *cal = map(float, proc.stdout.split())
        raw.append(end - t0)
        scaled.append(raw[-1] * calib.speed_scale("interpreter", cal))
    return raw, scaled


# ---------------------------------------------------------------------------
# the closed loop


def run_pass(dsl, sigs: dict, calls, task: str) -> tuple[list[float], list[float], list[tuple]]:
    """One pass over the corpus: (per-call wall seconds, the same at the
    reference speed, outcomes).

    A sample of the calibration task is taken before the first call,
    whenever CAL_EVERY seconds of calls have gone by since the last one, and
    after the last call; each call is scaled by the median of the CAL_WINDOW
    samples around it.  An outcome is ("ok", inferred, observed, failed trial
    indices) or ("raised", exception type, message).
    """
    calibrate = calib.TASKS[task]
    times = []
    cal = []
    cal_before = []  # per call, the index of the last sample taken before it
    outcomes = []
    last_cal = -CAL_EVERY
    for call in calls:
        if time.perf_counter() - last_cal >= CAL_EVERY:
            cal.append(calibrate())
            last_cal = time.perf_counter()
        cal_before.append(len(cal) - 1)
        t0 = time.perf_counter()
        try:
            rep = dsl.check(call.expr, sigs[call.p, call.q], trials=call.trials, seed=call.seed)
            outcome = ("ok", frozenset(rep.inferred), frozenset(rep.observed), [f.trial for f in rep.failures])
        except Exception as exc:  # a raising call is a measured outcome, not a benchmark error
            outcome = ("raised", type(exc).__name__, str(exc)[:120])
        times.append(time.perf_counter() - t0)
        outcomes.append(outcome)
    cal.append(calibrate())
    half = CAL_WINDOW // 2
    scaled = [t * calib.speed_scale(task, cal[max(0, j + 1 - half):j + 1 + half]) for t, j in zip(times, cal_before)]
    return times, scaled, outcomes


def passed_trials(call, outcome, mismatched: bool) -> int:
    if outcome[0] != "ok" or mismatched:
        return 0
    return call.trials - len(outcome[3])


def verify_sample(corpus: C.Corpus, outcomes: list[tuple]) -> tuple[int, int, int, dict[int, str]]:
    """Re-check a seeded sample of exact calls against reference.py.

    Returns (calls checked, trials checked, calls over the pair budget,
    {call index: disagreement}).
    """
    import reference

    eligible = [
        i for i, (call, out) in enumerate(zip(corpus.calls, outcomes))
        if out[0] == "ok" and not C.has_clifford_series(call.tree)
    ]
    Random(f"reference:{corpus.workload}:{corpus.seed}").shuffle(eligible)
    checked = trials = over = spent = 0
    mismatches: dict[int, str] = {}
    for i in eligible:
        if checked >= REF_CALLS or spent >= REF_TOTAL_PAIRS:
            break
        call = corpus.calls[i]
        if C.max_pairs(call.tree, call.p + call.q) > REF_CALL_PAIRS:
            over += 1  # one product alone would exceed the budget
            continue
        _, inferred, observed, failed = outcomes[i]
        try:
            problem, pairs = reference.verify(call, inferred, observed, failed, REF_CALL_PAIRS)
        except reference.OverBudget:
            over += 1
            spent += REF_CALL_PAIRS
            continue
        spent += pairs
        checked += 1
        trials += call.trials
        if problem:
            mismatches[i] = problem
    return checked, trials, over, mismatches


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        die(f"{len(values)} calls are too few for a tail percentile")
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def run_counts(layer: dict) -> dict:
    """The exact (count and ratio) per-layer metrics, without the times."""
    return {k: v for k, v in layer.items() if not k.endswith("_s")}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        die(f"unknown workload {args.workload!r}")
    import_library()
    import quatype.dsl as dsl
    from quatype.algebra import Signature

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    corpus = C.build(args.workload, args.seed)
    digest = corpus.digest()
    if C.build(args.workload, args.seed).digest() != digest:
        die("the corpus generator is not deterministic")
    if C.build(args.workload, args.seed + 1).digest() == digest:
        die("seeds n and n+1 gave the same corpus")
    print(f"corpus {args.workload} seed {args.seed}: {len(corpus.calls)} calls, "
          f"{len(corpus.signatures)} signatures, digest {digest}")

    setup_raw, setup = measure_setup(corpus) if args.trace == 0 else ([], [])
    sigs = {pq: Signature(*pq) for pq in corpus.signatures}
    for pq in corpus.signatures:  # the same warm-up, untimed, in this process
        dsl.check(corpus.warmup_expr, sigs[pq], trials=1, seed=0)

    import tracing

    tracer = tracing.Tracer()
    plain_walls, traced_walls, call_times, scaled_times, layer_runs = [], [], [], [], []
    first_outcomes = None
    nondeterministic = []
    passes = 0
    t_start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - t_start < args.seconds:
        times, scaled, outcomes = run_pass(dsl, sigs, corpus.calls, corpus.calibration)
        plain_walls.append(sum(times))
        call_times.append(times)
        scaled_times.append(scaled)
        runs = [outcomes]
        if args.trace:
            tracer.reset()
            with tracing.installed(tracer):
                times, _, outcomes = run_pass(dsl, sigs, corpus.calls, corpus.calibration)
            traced_walls.append(sum(times))
            layer_runs.append(tracing.layer_metrics(tracer))
            runs.append(outcomes)
        for outcomes in runs:
            if first_outcomes is None:
                first_outcomes = outcomes
            elif outcomes != first_outcomes:
                nondeterministic.append(passes)
        passes += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checked, ref_trials, over, mismatches = verify_sample(corpus, first_outcomes)
    print(f"reference: re-checked {checked} calls ({ref_trials} trials), {over} over the "
          f"{REF_CALL_PAIRS}-pair budget, {len(mismatches)} mismatches")
    for i, problem in sorted(mismatches.items()):
        print(f"  MISMATCH call {i} {corpus.calls[i].expr!r}: {problem}")
    for i, out in enumerate(first_outcomes):
        if out[0] == "raised":
            print(f"  raised call {i} [{corpus.calls[i].slot}] {corpus.calls[i].expr!r}: {out[1]}: {out[2]}")
    if nondeterministic:
        print(f"  NONDETERMINISTIC reports in passes {nondeterministic}")

    requested = sum(c.trials for c in corpus.calls)
    passed = sum(passed_trials(c, o, i in mismatches) for i, (c, o) in enumerate(zip(corpus.calls, first_outcomes)))
    bad_calls = sum(1 for i, o in enumerate(first_outcomes) if o[0] == "raised" or i in mismatches)
    runs_per_pass = 2 if args.trace else 1
    attempted = passes * runs_per_pass * len(corpus.calls)
    failed = passes * runs_per_pass * bad_calls
    correct = not mismatches and not nondeterministic and checked > 0

    if args.trace:
        if any(run_counts(r) != run_counts(layer_runs[0]) for r in layer_runs):
            print("  per-layer counts differ between traced passes")
            correct = False
        metrics = {
            name: statistics.median(r[name] for r in layer_runs) for name in layer_runs[0]
        }
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain_walls)
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans_{args.workload}_seed{args.seed}.json"
        tracer.write(span_file)
        print(f"traced {passes} passes (+{passes} untraced); {len(tracer.span_kind)} spans "
              f"of the last traced pass in {span_file.relative_to(ROOT)}")
        names = spec["per_layer"]
    else:
        def figures(walls, per_pass_times, setup_times):
            per_call = [statistics.median(ts) for ts in zip(*per_pass_times)]
            pct, tail_value = tail(per_call)
            return pct, {
                "trials_per_s": statistics.median(passed / w for w in walls),
                "call_p50_ms": 1e3 * statistics.median(per_call),
                "call_tail_ms": 1e3 * tail_value,
                "passed_share": passed / requested,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": peak_rss_mb,
            }

        pct, metrics = figures([sum(ts) for ts in scaled_times], scaled_times, setup)
        _, raw = figures(plain_walls, call_times, setup_raw)
        print(f"trials_per_s: median over {passes} passes of {passed} passed / {requested} requested trials "
              f"per second of calls; failed_share {1 - passed / requested:.4f}")
        print(f"call_p50_ms, call_tail_ms: over {len(corpus.calls)} calls, each the median of "
              f"{passes} timings; the tail is p{pct:.1f}")
        print("pass walls s: " + ", ".join(f"{w:.3f}" for w in plain_walls))
        print("pass speed scales: " + ", ".join(f"{sum(s) / sum(t):.3f}" for s, t in zip(scaled_times, call_times)))
        print(f"setup_s: median of {len(setup)} fresh interpreters, raw s: " + ", ".join(f"{t:.3f}" for t in setup_raw))
        print("raw wall-clock figures: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        names = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in names}:
        die(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    for m in names:
        print(f"metric {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }))


if __name__ == "__main__":
    main()
