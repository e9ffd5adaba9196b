"""Fixed reference task that calibrates the benchmark's timings.

The benchmark runs this script as a child process between every two
timed CLI commands. It never imports codeforest, so no change to the
program can change its cost; what it measures is how fast this machine
runs a fresh interpreter right now. Its work resembles the CLI's:
interpreter start, the numpy import, many small Python objects, string
formatting and a little array arithmetic.

    python3 bench/reference.py
"""

import numpy as np

rows = [(i, str(i), i * 0.5) for i in range(60000)]
groups: dict[str, list[float]] = {}
for number, text, value in rows:
    groups.setdefault(text[-2:], []).append(value)
ordered = sorted(rows, key=lambda row: row[1])
words = " ".join(row[1] for row in ordered[:20000]).split()
points = np.arange(120000, dtype=np.float64).reshape(-1, 3) * 1.5
lines = ["v %.6f %.6f %.6f" % tuple(p) for p in points[:8000].tolist()]
if len(groups) != 110 or len(words) != 20000 or len(lines) != 8000:
    raise SystemExit("reference task computed the wrong result")
