"""Independent checks of the program's outputs, numpy only.

The exact total-photon distribution comes from the generating function

    tr(rho z^N) = prod_i [((1+v_i) - z (v_i-1)) / 2]^(-1/2)
                  * exp(-(1-z) mt_i^2 / ((1-z) v_i + 1 + z)),

with v_i the eigenvalues of V and mt the mean in V's eigenbasis, sampled on
|z| = 1 and inverted by FFT.  Aliasing folds P(N = k + jK) onto k; with K
far above every cutoff used here that mass is below double rounding.  The
FFT itself leaves an absolute error of about 1e-15 on each probability, so
tail comparisons allow ``TAIL_TOL``.
"""

from __future__ import annotations

import math

import numpy as np

_FFT_POINTS = 1 << 11
#: absolute accuracy of an FFT-derived tail probability
TAIL_TOL = 1e-13


def photon_distribution(mean: np.ndarray, cov: np.ndarray,
                        points: int = _FFT_POINTS) -> np.ndarray:
    """P(N = k) for k = 0 .. points-1, from the generating function."""
    evals, evecs = np.linalg.eigh(np.asarray(cov, dtype=float))
    mean_rot = evecs.T @ np.asarray(mean, dtype=float)
    z = np.exp(2j * np.pi * np.arange(points) / points)
    log_g = np.zeros(points, dtype=complex)
    for v, m in zip(evals, mean_rot):
        log_g += -0.5 * np.log(((1.0 + v) - z * (v - 1.0)) / 2.0)
        log_g += -(1.0 - z) * m * m / ((1.0 - z) * v + 1.0 + z)
    probs = np.fft.fft(np.exp(log_g)).real / points
    return probs


def photons_at_most(mean, cov, cutoff: int) -> float:
    """Exact P(N <= cutoff)."""
    return float(np.sum(photon_distribution(mean, cov)[: cutoff + 1]))


def exact_tail(mean, cov, cutoff: int) -> float:
    """Exact P(N > cutoff), summed from the tail so small values keep digits."""
    probs = photon_distribution(mean, cov)
    return float(max(np.sum(probs[cutoff + 1:]), 0.0))


# ------------------------------------------------------------- Gaussian algebra


def overlap(mean_a, cov_a, mean_b, cov_b) -> float:
    """tr(rho_a rho_b) for Gaussian states (vacuum covariance = identity)."""
    avg = (np.asarray(cov_a) + np.asarray(cov_b)) / 2.0
    delta = np.asarray(mean_a) - np.asarray(mean_b)
    _, logdet = np.linalg.slogdet(avg)
    quad = delta @ np.linalg.solve(np.asarray(cov_a) + np.asarray(cov_b), delta)
    return float(math.exp(-0.5 * logdet - quad))


def hs_floor(overlaps: tuple[float, float, float]) -> float:
    """(1/2)||rho - sigma||_2 from (tr rho^2, tr sigma^2, tr rho sigma); a
    lower bound on the trace distance."""
    aa, bb, ab = overlaps
    return 0.5 * math.sqrt(max(aa + bb - 2.0 * ab, 0.0))


def pure_distance(overlap_ab: float) -> float:
    """Exact trace distance sqrt(1 - tr rho sigma) of two pure states."""
    return math.sqrt(max(1.0 - overlap_ab, 0.0))


def distance_errors(estimate: float, err: float, state_a, state_b, pure: bool) -> list[str]:
    """A certified distance (estimate +- err) between two (mean, cov) states
    must reach the Hilbert-Schmidt floor and, for pure states, cover the
    exact distance."""
    (ma, ca), (mb, cb) = state_a, state_b
    ab = overlap(ma, ca, mb, cb)
    floor = hs_floor((overlap(ma, ca, ma, ca), overlap(mb, cb, mb, cb), ab))
    errors = []
    if not 0.0 <= estimate <= 1.0:
        errors.append(f"estimate {estimate} outside [0, 1]")
    if estimate + err < floor:
        errors.append(f"estimate {estimate} + {err} below the Hilbert-Schmidt floor {floor}")
    if pure and abs(estimate - pure_distance(ab)) > err:
        errors.append(f"pure pair: |{estimate} - {pure_distance(ab)}| > {err}")
    return errors


# ------------------------------------------------------------------- capacity


def inversion_ok(a: float, b: float, c: float, k: float, n: int, min_n: int) -> bool:
    """n is the smallest integer >= min_n with a n - b sqrt(n) - c >= k."""
    def holds(m: int) -> bool:
        return a * m - b * math.sqrt(m) - c >= k

    return n >= min_n and holds(n) and (n == min_n or not holds(n - 1))


def sweep_csv_errors(text: str) -> list[str]:
    """Lower <= upper at equal parameters, and vacuous == (lower value < 0)."""
    lines = text.splitlines()
    header = lines[0].split(",")
    col = {name: i for i, name in enumerate(header)}
    uppers: dict[tuple, float] = {}
    lowers: list[tuple[tuple, float, str]] = []
    errors: list[str] = []
    for line in lines[1:]:
        row = line.split(",")
        value = float(row[col["value"]])
        direction = row[col["direction"]]
        vacuous = row[col["vacuous"]] == "true"
        expect_vacuous = direction != "upper" and value < 0.0
        if vacuous != expect_vacuous:
            errors.append(f"vacuous flag {vacuous} disagrees with value {value}: {line}")
        # the upper bound does not depend on Ns: key on the rest
        key = (row[col["task"]], row[col["lambda"]], row[col["g"]], row[col["n"]], row[col["eps"]])
        if direction == "upper":
            uppers[key] = value
        elif direction == "lower":
            lowers.append((key, value, line))
    for key, value, line in lowers:
        upper = uppers.get(key)
        if upper is not None and value > upper:
            errors.append(f"lower {value} exceeds upper {upper}: {line}")
    return errors
