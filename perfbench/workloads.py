"""The benchmark's workloads: `invlinopt run` flags, horizons and CLI seeds."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 7
OUTPUT_FILES = ("trace.csv", "summary.txt", "prediction.txt", "stream.txt")


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple[str, ...]
    rounds: int
    holdout: int = 0
    save_stream: bool = False
    seed_table: str | None = None

    def cli_seed(self, seed: int) -> int:
        """The `--seed` the CLI gets for a benchmark seed."""
        if self.seed_table is None:
            return seed
        table = json.loads((HERE / self.seed_table).read_text())
        return table[seed % len(table)]

    def argv(
        self, cli_seed: int, out: Path, rounds: int | None = None,
        holdout: int | None = None,
    ) -> list[str]:
        """`invlinopt run` arguments, at the workload's horizon unless given."""
        rounds = self.rounds if rounds is None else rounds
        holdout = self.holdout if holdout is None else holdout
        argv = ["run", *self.flags, "--seed", str(cli_seed), "--out", str(out)]
        argv += ["--rounds", str(rounds)]
        if self.holdout:
            argv += ["--holdout", str(holdout)]
        if self.save_stream:
            argv.append("--save-stream")
        return argv

    def output_files(self) -> tuple[str, ...]:
        return OUTPUT_FILES if self.save_stream else OUTPUT_FILES[:3]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rv-online",
            ("--family", "random-vertices", "--dimension", "10", "--num-vertices", "32"),
            rounds=5_000,
        ),
        Workload(
            "knapsack-gap-repeat",
            ("--family", "knapsack", "--dimension", "12", "--gap", "integral",
             "--repeat-instance"),
            rounds=2_000,
            # the one fixed set decides the cost; the table fixes its size
            # and lets the seed vary its content (see pick_seeds.py)
            seed_table="knapsack_seeds.json",
        ),
        Workload(
            "dag-noisy-holdout",
            ("--family", "dag", "--dimension", "10", "--domain", "ball",
             "--schedule", "offset", "--agent-noise", "0.1"),
            rounds=2_500,
            holdout=2_500,
            save_stream=True,
        ),
    )
}
