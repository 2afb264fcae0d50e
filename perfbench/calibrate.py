"""Fixed reference work that gauges how fast the host runs right now.

The benchmark runs this script as a subprocess right before every timed
invocation of the CLI and times it the same way.  It never imports
invlinopt, so no change to the program moves it: only the host does.  Its
mix is the one the program's rounds are made of: interpreter start and the
numpy import, small float64 array arithmetic (a 32x10 scan, an argmax, a
softmax, a norm), Python bookkeeping (dicts, lists, string formatting) and
a short text write.  Change nothing here: every recorded time is scaled by
this script's run time, so a change would shift them all.

    python3 perfbench/calibrate.py OUT_FILE
"""

from __future__ import annotations

import math
import sys

import numpy as np

ROUNDS = 10_000


def main(out: str) -> int:
    rng = np.random.default_rng(20250123)
    c = np.full(10, 0.1)
    g = np.zeros(10)
    rows: list[str] = []
    seen: dict[bytes, int] = {}
    for t in range(1, ROUNDS + 1):
        verts = rng.random((32, 10))
        values = verts @ c
        best = int(np.argmax(values))
        x = verts[best]
        pick = verts[int(rng.integers(0, 32))]
        g += pick - x
        beta = math.sqrt(t)
        z = -g / beta
        z -= z.max()
        c = np.exp(z)
        c /= c.sum()
        loss = float(c @ (x - pick))
        key = x.tobytes()
        seen[key] = seen.get(key, 0) + 1
        rows.append(f"{t},{loss:.17g},{float(np.linalg.norm(g)):.17g}")
    with open(out, "w") as sink:
        sink.write("\n".join(rows) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
