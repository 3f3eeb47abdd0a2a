"""Reader for the two-column plot-data CSVs that ``dataio.write_series``
emits; the tests use it to check the files round-trip."""

import csv
from pathlib import Path

import numpy as np


def read_series(path):
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        rows = [(float(a), float(b)) for a, b in reader]
    arr = np.asarray(rows, dtype=float)
    return arr[:, 0], arr[:, 1]
