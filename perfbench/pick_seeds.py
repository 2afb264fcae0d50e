"""Regenerate perfbench/knapsack_seeds.json, the CLI seeds of knapsack-gap-repeat.

The knapsack-gap-repeat workload faces one knapsack set every round, drawn
from the CLI seed.  Its cost per round follows that set's size: over CLI
seeds 1..60 the set holds anywhere from 1 to 4096 of the 2^12 selections,
and the per-round cost spans a factor of six.  So the benchmark fixes the
size and lets the seed vary the content: it uses only CLI seeds whose set
admits every item on its own (all twelve weights fit the capacity, so the
dynamic program keeps every item) and holds between 100 and 136 selections,
a band narrow enough that the seed barely moves the cost.

The table depends only on the stream definition, which is versioned and
byte-stable, so it needs regenerating only when the stream changes.

    PYTHONPATH=src python3 perfbench/pick_seeds.py
"""

from __future__ import annotations

import json
from pathlib import Path

from invlinopt.harness import build_config, generate_instance_stream

SCAN = range(1, 2001)
MIN_MEMBERS, MAX_MEMBERS = 100, 136
TABLE = Path(__file__).with_name("knapsack_seeds.json")


def qualifies(cli_seed: int) -> bool:
    cfg = build_config(
        seed=cli_seed, family="knapsack", dimension=12, gap_mode="integral",
        fresh_sets=False, rounds=1,
    )
    knapsack = generate_instance_stream(cfg).observations[0].feasible_set
    members = knapsack.members().shape[0]
    every_item_fits = bool((knapsack.weights <= knapsack.capacity).all())
    return every_item_fits and MIN_MEMBERS <= members <= MAX_MEMBERS


def main() -> None:
    seeds = [s for s in SCAN if qualifies(s)]
    TABLE.write_text(json.dumps(seeds) + "\n")
    print(f"{len(seeds)} of {len(SCAN)} CLI seeds qualify; wrote {TABLE}")


if __name__ == "__main__":
    main()
