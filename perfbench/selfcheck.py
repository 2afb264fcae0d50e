"""Fast self-check of the benchmark's tracer at tiny horizons.

For each workload (or the one named) it runs the CLI once untraced, in a
subprocess, and once traced, in this process, and checks that

* the traced and untraced runs write byte-identical outputs,
* every patched name is restored once tracing ends,
* (a warning only) every target was found and every layer the workload
  uses was traced,
* spans nest (each child inside its parent), self times are at least 0,
  and the self times sum to the traced wall time within 1%.

Run from the repository root; exits 0 when every check passes:

    python3 perfbench/selfcheck.py [--workload NAME]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

TINY_ROUNDS = 40
ALWAYS = {"generate", "oracle", "learner", "ledger", "verify", "io", "runner"}
ONLY = {"knapsack-gap-repeat": {"certify"}, "dag-noisy-holdout": {"eval"}}


def digests(out: Path, workload: Workload) -> dict[str, str]:
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in workload.output_files()
        if (out / name).is_file()
    }


def check(workload: Workload, scratch: Path) -> list[str]:
    from invlinopt.harness import cli

    cli_seed = workload.cli_seed(DEFAULT_SEED)
    plain, traced = scratch / "plain", scratch / "traced"
    subprocess.run(
        [sys.executable, "-m", "invlinopt.harness.cli",
         *workload.argv(cli_seed, plain, TINY_ROUNDS, TINY_ROUNDS)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        stdout=subprocess.DEVNULL, check=False, timeout=120,
    )
    tracer = Tracer()
    with tracer:
        start = time.perf_counter()
        with tracer.span("cli"), contextlib.redirect_stdout(None):
            code = cli.main(workload.argv(cli_seed, traced, TINY_ROUNDS, TINY_ROUNDS))
        wall = time.perf_counter() - start
    summary = tracer.summary()

    problems = []
    if code != 0:
        problems.append(f"traced run exited {code}")
    expected = digests(plain, workload)
    if len(expected) != len(workload.output_files()):
        problems.append("untraced run wrote too few files")
    if digests(traced, workload) != expected:
        problems.append("traced outputs differ from untraced outputs")
    if not tracer.patched:
        problems.append("nothing was patched")
    for site, bound, original in tracer.patched:
        if vars(site).get(bound) is not original:
            problems.append(f"{site.__name__}.{bound} not restored")
    # a refactor may retire an entry point; that thins the per-layer
    # metrics but does not make the measurement wrong, so it only warns
    if summary["missing"]:
        print(f"warning: targets not found: {summary['missing']}")
    unseen = (ALWAYS | ONLY.get(workload.name, set())) - set(summary["calls"])
    if unseen:
        print(f"warning: layers never traced: {sorted(unseen)}")
    if not summary["nesting_ok"]:
        problems.append("a span lies outside its parent")
    if summary["min_self_s"] < -1e-9:
        problems.append(f"negative self time {summary['min_self_s']}")
    total_self = sum(summary["self_s"].values())
    if abs(total_self - wall) > 0.01 * wall:
        problems.append(f"self times sum to {total_self:.6f} s, wall {wall:.6f} s")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    names = [args.workload] if args.workload else list(WORKLOADS)
    failed = False
    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work, prefix="selfcheck-") as tmp:
        for name in names:
            problems = check(WORKLOADS[name], Path(tmp) / name)
            failed |= bool(problems)
            print(f"{name}: {'; '.join(problems) if problems else 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
