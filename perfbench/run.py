"""Benchmark: cost per certified round of `invlinopt run` on fixed workloads.

Run from the repository root; nothing needs building:

    python3 perfbench/run.py --workload rv-online --seed 7 --seconds 40 --trace 0

Every measured command is a subprocess of the real CLI,
`python3 -m invlinopt.harness.cli run <workload flags>` with `src` on the
path, timed by wall clock and by its `wait4` rusage.  Unless the seed is
the default one, a run first replays the default seed and compares its
output bytes with perfbench/digests.json.  With `--trace 0` it then
repeats a triple until the next one would end past `--seconds` from the
start: the host-speed gauge (perfbench/calibrate.py), the set-up command
and the workload.  Times are reported against the gauge run just before
them, scaled to the gauge's reference time, so that the host's speed,
which drifts by a third over minutes, cancels.  With `--trace 1` it runs
the self-check for the workload, then alternates untraced and traced
invocations (perfbench/tracer.py) and reports per-layer metrics instead.
Every invocation is checked: exit status 0, `status = ok`, one trace row
per round, and output bytes equal across repeats of a seed and, at the
default seed, equal to the recorded digests.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Samples, medians, spreads and the
environment go to .perfbench-work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, Workload

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"
DIGESTS = HERE / "digests.json"
GAUGE = HERE / "calibrate.py"
# Median wall time of the gauge over the baseline runs (baseline.json).  Times
# are reported as measured time over gauge time, times this constant, so they
# read as what that machine would take; fixed, never re-measured.
GAUGE_REFERENCE_S = 0.6
# numpy's BLAS pool would start one spinning thread per core for 10-element
# vectors; on a 2-core host that measures the scheduler, not the program.
SINGLE_THREADED = {
    "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
}
INVOCATION_TIMEOUT_S = 150
MIN_REPEATS = 5
MIN_TRACED_PAIRS = 2
RECORDED = f"the recorded digests at seed {DEFAULT_SEED}"
RATIO_OF_TOTALS = ("us_per_round", "cpu_us_per_round")


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    layers: dict | None = None


@dataclass
class Tally:
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def spawn(command: list[str], log: Path) -> tuple[float, int, os.struct_rusage]:
    """Run a command to completion; wall seconds, exit code and its rusage."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **SINGLE_THREADED)
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=sink, stderr=subprocess.STDOUT
        )
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


def check_outputs(
    workload: Workload, out: Path, cli_seed: int, rounds: int, code: int
) -> tuple[dict[str, str], list[str]]:
    """Digests of the output files and every way they fail the checks."""
    problems = [] if code == 0 else [f"exit status {code}"]
    digests = {}
    for name in workload.output_files():
        path = out / name
        if path.is_file():
            digests[name] = sha256(path)
        else:
            problems.append(f"{name} missing")
    if "summary.txt" in digests:
        summary = dict(
            line.split(" = ", 1)
            for line in (out / "summary.txt").read_text().splitlines()
            if " = " in line
        )
        if summary.get("status") != "ok":
            problems.append(
                f"status {summary.get('status')}, failed checks "
                f"{summary.get('failed_checks')}"
            )
        if (summary.get("config.seed"), summary.get("config.rounds")) != (
            str(cli_seed), str(rounds)
        ):
            problems.append("summary echoes another seed or horizon")
    if "trace.csv" in digests:
        rows = (out / "trace.csv").read_bytes().count(b"\n") - 1
        if rows != rounds:
            problems.append(f"trace.csv has {rows} rows, expected {rounds}")
    return digests, problems


def invoke(
    workload: Workload, cli_seed: int, out: Path, setup: bool = False,
    traced: bool = False,
) -> Invocation:
    """One CLI run, checked; setup is the one-round command without holdout."""
    rounds = 1 if setup else workload.rounds
    shutil.rmtree(out, ignore_errors=True)
    argv = workload.argv(cli_seed, out, rounds, 0 if setup else None)
    layers_path = out.parent / f"{out.name}.layers.json"
    layers_path.unlink(missing_ok=True)
    if traced:
        command = [sys.executable, str(HERE / "tracer.py"), str(layers_path), *argv]
    else:
        command = [sys.executable, "-m", "invlinopt.harness.cli", *argv]
    wall, code, usage = spawn(command, out.parent / f"{out.name}.log")
    digests, problems = check_outputs(workload, out, cli_seed, rounds, code)
    inv = Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     digests, problems)
    if traced:
        if layers_path.is_file():
            inv.layers = json.loads(layers_path.read_text())
            if not inv.layers["nesting_ok"]:
                inv.problems.append("trace spans do not nest")
        else:
            inv.problems.append("traced run wrote no span summary")
    return inv


def gauge(scratch: Path) -> Invocation:
    """One run of the host-speed gauge, timed like a CLI invocation."""
    out = scratch / "gauge.txt"
    wall, code, usage = spawn(
        [sys.executable, str(GAUGE), str(out)], scratch / "gauge.log"
    )
    problems = [] if code == 0 and out.is_file() else [f"gauge exit status {code}"]
    return Invocation(wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, problems=problems)


def compare(inv: Invocation, expected: dict[str, str], what: str) -> None:
    for name, digest in expected.items():
        if inv.digests.get(name, digest) != digest:
            inv.problems.append(f"{name} differs from {what}")


def default_seed_digests(
    workload: Workload, seed: int, scratch: Path, tally: Tally
) -> dict[str, str]:
    """The digests this run's own invocations must match.

    At the default seed these are the recorded ones.  At any other seed the
    default seed is replayed once and checked here, and nothing is returned.
    """
    golden = json.loads(DIGESTS.read_text())[workload.name]
    if seed == DEFAULT_SEED:
        return golden
    inv = invoke(workload, workload.cli_seed(DEFAULT_SEED), scratch / "golden")
    compare(inv, golden, RECORDED)
    tally.add("golden", inv.problems)
    return {}


def spread(values: list[float]) -> dict:
    """Mean, median, quartile distance as a share of the median, range, samples."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {
        "mean": statistics.fmean(values),
        "median": med,
        "iqr_share": (q3 - q1) / med if med else 0.0,
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "samples": values,
    }


def repeat_until(deadline: float, minimum: int, step) -> list:
    """Call step until the next call would end past the deadline."""
    done: list = []
    while True:
        started = time.perf_counter()
        done.append(step())
        took = time.perf_counter() - started
        if len(done) >= minimum and time.perf_counter() + took > deadline:
            return done


def measure_end_to_end(
    workload: Workload, seed: int, deadline: float, scratch: Path, tally: Tally
) -> tuple[dict, dict]:
    cli_seed = workload.cli_seed(seed)
    expected = default_seed_digests(workload, seed, scratch, tally)
    reference: dict[str, str] = {}  # digests of the first repeat

    def triple() -> tuple[Invocation, Invocation, Invocation]:
        # the host's speed holds for seconds at a time, so the gauge run
        # right before the set-up and the workload sees the host they see
        speed = gauge(scratch)
        tally.add("gauge", speed.problems)
        setup = invoke(workload, cli_seed, scratch / "setup", setup=True)
        tally.add("setup", setup.problems)
        inv = invoke(workload, cli_seed, scratch / "timed")
        compare(inv, reference, "the first repeat of this seed")
        compare(inv, expected, RECORDED)
        if not reference:
            reference.update(inv.digests)
        tally.add("timed", inv.problems)
        return speed, setup, inv

    runs = repeat_until(deadline, MIN_REPEATS, triple)
    per_round = 1e6 / workload.rounds
    scaled = {
        "us_per_round": [
            inv.wall_s / g.wall_s * GAUGE_REFERENCE_S * per_round for g, _, inv in runs
        ],
        "cpu_us_per_round": [
            inv.cpu_s / g.cpu_s * GAUGE_REFERENCE_S * per_round for g, _, inv in runs
        ],
        "setup_s": [s.wall_s / g.wall_s * GAUGE_REFERENCE_S for g, s, _ in runs],
        "peak_rss_mb": [inv.rss_mb for _, _, inv in runs],
    }
    raw = {
        "us_per_round": [inv.wall_s * per_round for _, _, inv in runs],
        "cpu_us_per_round": [inv.cpu_s * per_round for _, _, inv in runs],
        "setup_s": [s.wall_s for _, s, _ in runs],
        "gauge_s": [g.wall_s for g, _, _ in runs],
    }
    stats = {name: spread(values) for name, values in scaled.items()}
    metrics = {name: s["median"] for name, s in stats.items()}
    # Cost per round is the workload's total time over the gauge's total
    # time: the host switches between a fast and a slow state, and a ratio
    # of totals weighs every repeat by its length, as rounds per second do.
    for name, attr in (("us_per_round", "wall_s"), ("cpu_us_per_round", "cpu_s")):
        metrics[name] = (
            sum(getattr(inv, attr) for _, _, inv in runs)
            / sum(getattr(g, attr) for g, _, _ in runs)
            * GAUGE_REFERENCE_S * per_round
        )
    metrics["ok_share"] = 1.0 - tally.failed / tally.attempted
    stats["raw"] = {name: spread(values) for name, values in raw.items()}
    return metrics, stats


def layer_metrics(layers: dict, rounds: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation, from its span summary."""
    self_s, total_s = layers["self_s"], layers["total_s"]
    calls, counts = layers["calls"], layers["counts"]

    def per_round_us(layer: str) -> float:
        return self_s.get(layer, 0.0) / rounds * 1e6

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    oracle_calls = calls.get("oracle", 0)
    traced_s = sum(self_s.values())
    return {
        "generate.self_us_per_round": per_round_us("generate"),
        "generate.repeat_share": ratio(
            counts.get("generate.repeats", 0), counts.get("generate.rounds", 0)
        ),
        "oracle.us_per_call": ratio(total_s.get("oracle", 0.0) * 1e6, oracle_calls),
        "oracle.self_us_per_round": per_round_us("oracle"),
        "oracle.calls_per_round": oracle_calls / rounds,
        "oracle.tie_share": ratio(counts.get("oracle.ties", 0), oracle_calls),
        "learner.self_us_per_round": per_round_us("learner"),
        "learner.zero_grad_share": ratio(
            counts.get("learner.zero_grad", 0), calls.get("learner", 0)
        ),
        "ledger.self_us_per_round": per_round_us("ledger"),
        "verify.ms": self_s.get("verify", 0.0) * 1e3,
        "certify.self_pct": 100.0 * self_s.get("certify", 0.0) / traced_s,
        "certify.members_per_round": counts.get("certify.members", 0) / rounds,
        "eval.self_pct": 100.0 * self_s.get("eval", 0.0) / traced_s,
        "io.ms": self_s.get("io", 0.0) * 1e3,
        "io.bytes": float(counts.get("io.bytes", 0)),
        "runner.self_ms": self_s.get("runner", 0.0) * 1e3,
    }


def measure_layers(
    workload: Workload, seed: int, deadline: float, scratch: Path, tally: Tally
) -> tuple[dict, dict]:
    cli_seed = workload.cli_seed(seed)
    expected = default_seed_digests(workload, seed, scratch, tally)
    _, code, _ = spawn(
        [sys.executable, str(HERE / "selfcheck.py"), "--workload", workload.name],
        scratch / "selfcheck.log",
    )
    tally.add("selfcheck", [] if code == 0 else [f"self-check exit status {code}"])

    def pair() -> tuple[Invocation, Invocation]:
        plain = invoke(workload, cli_seed, scratch / "plain")
        traced = invoke(workload, cli_seed, scratch / "traced", traced=True)
        compare(traced, plain.digests, "the untraced run")
        compare(plain, expected, RECORDED)
        tally.add("untraced", plain.problems)
        tally.add("traced", traced.problems)
        return plain, traced

    pairs = repeat_until(deadline, MIN_TRACED_PAIRS, pair)
    per_run = [layer_metrics(t.layers, workload.rounds) for _, t in pairs if t.layers]
    samples = {name: [m[name] for m in per_run] for name in per_run[0]} if per_run else {}
    plain_wall = statistics.fmean(p.wall_s for p, _ in pairs)
    traced_wall = statistics.fmean(t.wall_s for _, t in pairs)
    samples["trace.overhead_pct"] = [100.0 * (traced_wall / plain_wall - 1.0)]
    stats = {name: spread(values) for name, values in samples.items()}
    return {name: s["median"] for name, s in stats.items()}, stats


def record_digests() -> int:
    """Write the output digests of every workload at the default seed."""
    scratch = WORK / f"record-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    digests = {}
    try:
        for name, workload in WORKLOADS.items():
            inv = invoke(workload, workload.cli_seed(DEFAULT_SEED), scratch / name)
            if inv.problems:
                print(f"error: {name}: {'; '.join(inv.problems)}", file=sys.stderr)
                return 1
            digests[name] = inv.digests
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; else unknown."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help=f"rewrite {DIGESTS.name} from every workload at seed {DEFAULT_SEED}",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "invlinopt" / "harness" / "cli.py").is_file():
        print(f"error: no invlinopt source under {ROOT / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    start = time.perf_counter()
    deadline = start + args.seconds
    workload = WORKLOADS[args.workload]
    scratch = WORK / f"{workload.name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        measure = measure_layers if args.trace else measure_end_to_end
        metrics, stats = measure(workload, args.seed, deadline, scratch, tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    env = environment()
    units = metric_units()
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "cli_seed": workload.cli_seed(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "elapsed_s": time.perf_counter() - start,
        "environment": env,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "stats": stats,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")

    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"# {workload.name} seed {args.seed} (CLI seed {record['cli_seed']}), "
          f"environment {json.dumps(env)}")
    raw = stats.pop("raw", {})
    for metric, s in stats.items():
        kind = "ratio of totals" if metric in RATIO_OF_TOTALS and not args.trace \
            else "median"
        print(f"{metric} = {metrics[metric]:.6g} {units[metric]} ({kind} of "
              f"{s['n']}, range {s['min']:.6g}..{s['max']:.6g})")
    for name, s in raw.items():
        print(f"unscaled {name}: median {s['median']:.6g}, "
              f"range {s['min']:.6g}..{s['max']:.6g}")
    print(f"failed_share = {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} checked invocations)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
