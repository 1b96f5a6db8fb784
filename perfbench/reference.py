"""A fixed computation that measures how fast the machine is right now.

The benchmark times it between operations (see ``harness.Reference``) and
rescales operation times by it, so that a shared host that runs everything
slower for a minute does not read as a slower program.  It does what the
workloads do, without the program under test: format floats into CSV text
in pure Python and solve Hermitian eigenproblems.  ``work`` is the
in-process sample.  Run as a script it is the fresh-process sample, which
also starts an interpreter and imports numpy, scipy.linalg and click, as a
CLI call does; its cost is mostly that start-up.
"""

import math

import numpy as np

_RNG = np.random.default_rng(0)
_SMALL = _RNG.normal(size=(96, 96))
_LARGE = _RNG.normal(size=(320, 320))


def work(rows: int = 2400) -> float:
    """Format ``rows`` CSV rows and solve two eigenproblems; returns a checksum."""
    lines = []
    for i in range(rows):
        x = (i + 1) * 1e-3
        lines.append(",".join(format(v, ".12g") for v in (x, math.log1p(x), math.sqrt(x) * math.exp(-x))))
    total = float(len("\n".join(lines)))
    for matrix in (_SMALL, _LARGE):
        total += float(np.linalg.eigvalsh(matrix + matrix.T)[-1])
    return total


if __name__ == "__main__":
    import click  # noqa: F401  (imported for its cost, like the CLI's imports)
    import scipy.linalg  # noqa: F401

    work(rows=9600)
