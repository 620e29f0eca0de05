"""Run one stabpres benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 36 --trace 0

Run from the root of a checkout: the library is imported from src/ and
the CLI runs as `stabpres.cli.main` in a child process (`cli_child.py`)
against the same sources.
After set-up, passes over the workload's input set repeat until the
next one would end past --seconds (at least two run); each pass is
followed by the workload's one CLI run.  The first pass warms the
process up (heap growth, lazily computed group data) and is checked
but not timed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: the mean
timed pass, the median CLI run, set-up time as the median of this
process and four fresh set-up-only processes, and peak resident memory.  Times are wall times
scaled to a reference host speed by `speed.SpeedClock`.  --trace 1 alternates
untraced and traced passes and prints the per-layer metrics from the
spans; the spans themselves go to perfbench/out/.  The last line of
output is the JSON result; earlier lines are notes.
"""

from time import perf_counter

from speed import SpeedClock

CLOCK = SpeedClock()
CLOCK.calibrate()
START = perf_counter()  # workload start: set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 4
STARTUP_REPEATS = 5
SUBPROCESS_TIMEOUT = 150


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def subprocess_run(argv):
    return subprocess.run(
        argv, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT
    )


def run_cli(run, wl, state, label):
    """The workload's CLI run, checked, timed under the label."""
    with run.operation(f"cli {wl.name}"), run.tracer.span("cli.run", wl.name):
        start = perf_counter()
        try:
            proc = subprocess_run([sys.executable, str(HERE / "cli_child.py")] + wl.cli_args(run, state))
        finally:
            CLOCK.record(label, start, perf_counter())
        CLOCK.add_samples(json.loads(proc.stderr.strip().splitlines()[-1]))
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
        if not wl.cli_ok(json.loads(proc.stdout)):
            raise RuntimeError(f"unexpected report: {proc.stdout[:500]}")
    CLOCK.calibrate()


def time_subprocess(argv):
    start = perf_counter()
    subprocess_run(argv)
    return perf_counter() - start


def fresh_setup_seconds(args):
    """Scaled set-up time of one fresh process (import included)."""
    proc = subprocess_run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"]
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(spec, tracer, traced, untraced, startup):
    """Per-layer metrics: span self times (set-up plus the median traced
    pass), counts (set-up plus the first traced pass), and the rest."""
    own = tracer.self_time_by_phase()
    phases = sorted({s.phase for s in tracer.spans} - {"setup"})
    expr_ms = [1000 * d for d in tracer.durations("armstrong.express")]
    special = {
        "armstrong.express_ms_p50": percentile(expr_ms, 50),
        "armstrong.express_ms_p99": percentile(expr_ms, 99),
        "cli.startup_s": startup,
        # pass k traced minus pass k untraced: same inputs, so the disc
        # sets of express cancel; pass 0 untraced is the warm-up
        "trace.overhead_s": statistics.median(t - u for t, u in list(zip(traced, untraced))[1:]),
        "trace.spans": len(tracer.spans),
    }
    out = {}
    for m in spec:
        name = m["name"]
        if name in special:
            value = special[name]
        elif m["unit"] == "s":
            span = name[: -len("_s")]
            value = own["setup"][span] + statistics.median(own[p][span] for p in phases)
        else:
            value = tracer.counts["setup"][name] + tracer.counts[phases[0]][name]
        out[name] = value
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "stabpres" / "__init__.py").is_file():
        print(f"perfbench: no stabpres sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from tracing import Tracer
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        run = Run(ROOT, work, args.seed, Tracer(bool(args.trace)))
        state = wl.setup(run)
        CLOCK.record("setup", START, perf_counter())
        CLOCK.calibrate()
        if args.setup_only:
            print(json.dumps({"setup_s": CLOCK.scaled()["setup"]}))
            return 0
        metrics = measure(args, wl, run, state, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for note in run.notes:
        print(note)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def timed_pass(run, wl, state, index, label, sampling):
    """Run one pass, record it on the clock; returns its raw wall time."""
    start = perf_counter()
    with CLOCK.sampling() if sampling else nullcontext():
        wl.run_pass(run, state, index)
    end = perf_counter()
    CLOCK.record(label, start, end)
    CLOCK.calibrate()
    return end - start


def measure(args, wl, run, state, spec):
    tracer = run.tracer
    passes, traced = [], []
    t0 = perf_counter()
    while True:
        index = len(passes)
        tracer.enabled = False
        # a traced run reports raw times only, so it takes no samples
        passes.append(timed_pass(run, wl, state, index, f"pass{index}", not args.trace))
        if args.trace:
            tracer.enabled = True
            tracer.phase = f"pass{index:03d}"
            counting = tracer.counting_s
            raw = timed_pass(run, wl, state, index, f"traced{index}", False)
            traced.append(raw - (tracer.counting_s - counting))
        run_cli(run, wl, state, f"cli{index}")
        elapsed = perf_counter() - t0
        if index >= 1 and elapsed * (index + 2) / (index + 1) > args.seconds:
            break

    if args.trace:
        startup = statistics.median(
            time_subprocess([sys.executable, "-c", "import stabpres"]) for _ in range(STARTUP_REPEATS)
        )
        tracer.write(OUT / f"trace-{wl.name}-seed{args.seed}.json")
        values = per_layer(spec["per_layer"], tracer, traced, passes, startup)
        metric_spec = spec["per_layer"]
    else:
        setups = [fresh_setup_seconds(args) for _ in range(SETUP_REPEATS)]
        scaled = CLOCK.scaled()
        values = {
            "setup_s": statistics.median([scaled["setup"]] + setups),
            # the mean, not the median: express passes contract different
            # disc sets, and the mean averages over all the run contracted
            "pass_s": statistics.mean(scaled[f"pass{i}"] for i in range(1, len(passes))),
            "cli_s": statistics.median(scaled[f"cli{i}"] for i in range(len(passes))),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metric_spec = spec["end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_spec}


if __name__ == "__main__":
    sys.exit(main())
