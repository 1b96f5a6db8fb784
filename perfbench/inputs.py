"""Seeded inputs for every workload, built with numpy alone.

Nothing here imports ``bosonic``: the program under test only ever sees the
states, flags and grids generated below.  Each generator is stratified --
every seed yields the same mix of families, mode counts and energy scales,
and the seed moves only the fine parameters -- so that two seeds exercise
the same amount of work and the run-to-run spread stays small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

FAMILIES = ("thermal", "passive", "displaced", "pure", "active")


@dataclass(frozen=True)
class Pair:
    """One certified-trace-distance operation: two states and a target eps."""

    family: str
    modes: int
    eps: float
    mean_a: np.ndarray
    cov_a: np.ndarray
    mean_b: np.ndarray
    cov_b: np.ndarray

    @property
    def pure(self) -> bool:
        return self.family == "pure"


# ---------------------------------------------------------------- symplectics


def _interleave(mat_xxpp: np.ndarray) -> np.ndarray:
    """Reorder a 2n x 2n matrix from (x1..xn, p1..pn) to (x1, p1, ...)."""
    n = mat_xxpp.shape[0] // 2
    perm = np.empty(2 * n, dtype=int)
    perm[0::2] = np.arange(n)
    perm[1::2] = np.arange(n) + n
    return mat_xxpp[np.ix_(perm, perm)]


def _real_passive(rng: np.random.Generator, modes: int) -> np.ndarray:
    """Real beam-splitter network: the same orthogonal Q on x and on p."""
    q, _ = np.linalg.qr(rng.normal(size=(modes, modes)))
    return _interleave(np.block([[q, np.zeros_like(q)], [np.zeros_like(q), q]]))


def _complex_passive(rng: np.random.Generator, modes: int) -> np.ndarray:
    """Passive unitary with phases: image of a unitary U = X + iY."""
    z = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    u, _ = np.linalg.qr(z)
    x, y = u.real, u.imag
    return _interleave(np.block([[x, -y], [y, x]]))


def _active(rng: np.random.Generator, modes: int, squeeze_db: float,
            jitter: bool) -> np.ndarray:
    """O1 Z with every mode squeezed by ``squeeze_db`` (+-20% under jitter)."""
    r = squeeze_db / (20.0 * math.log10(math.e)) * np.ones(modes)
    if jitter:
        r = r * rng.uniform(0.8, 1.2, size=modes)
    z = np.diag(np.concatenate([np.exp(r), np.exp(-r)]))
    return _complex_passive(rng, modes) @ _interleave(z)


def _thermal_cov(photons: np.ndarray) -> np.ndarray:
    return np.diag(np.repeat(2.0 * photons + 1.0, 2))


def make_state(rng: np.random.Generator, family: str, modes: int, photons: float,
               jitter: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """(mean, cov) of one state of ``family`` with about ``photons`` per mode.

    Without ``jitter`` the covariance spectrum and the mean in the
    covariance eigenbasis are fixed by (family, modes, photons), and the
    seed moves only the orientation.  The photon-number tail, and with it
    the certified cutoff and the Fock dimension, then do not depend on the
    seed.
    """
    if jitter:
        per_mode = photons * rng.uniform(0.7, 1.3, size=modes)
    else:
        per_mode = photons * np.linspace(0.8, 1.2, modes)
    mean = np.zeros(2 * modes)
    if family == "thermal":
        return mean, _thermal_cov(per_mode)
    if family in ("passive", "displaced"):
        o = _real_passive(rng, modes)
        if family == "displaced":
            # half the photons thermal, half coherent
            per_mode = per_mode / 2.0
            mean = o @ _shift(rng, modes, photons / 2.0, jitter)
        cov = o @ _thermal_cov(per_mode) @ o.T
        return mean, (cov + cov.T) / 2.0
    if family == "pure":
        # squeezing stretches ||V|| and with it the certified cutoff, so it
        # carries few photons; the displacement carries half
        s = _active(rng, modes, _squeeze_db(photons / 10.0), jitter)
        cov = s @ s.T
        return s @ _shift(rng, modes, photons / 2.0, jitter), (cov + cov.T) / 2.0
    if family == "active":
        # a common active symplectic on a thermal product of unequal
        # temperatures; without jitter the inner mix is fixed, so the seed
        # moves only the outer passive rotation and the spectrum stays put
        inner = _complex_passive(rng if jitter else np.random.default_rng(modes), modes)
        s = _active(rng, modes, _squeeze_db(photons / 20.0), jitter) @ inner
        cov = s @ _thermal_cov(per_mode / 2.0) @ s.T
        return mean, (cov + cov.T) / 2.0
    raise ValueError(f"unknown family {family!r}")


def _shift(rng: np.random.Generator, modes: int, photons: float, jitter: bool) -> np.ndarray:
    """Displacement carrying ``photons`` per mode (|m|^2 / 2 = n photons):
    a random direction, or a fixed one without jitter."""
    direction = rng.normal(size=2 * modes) if jitter else np.ones(2 * modes)
    return direction / np.linalg.norm(direction) * math.sqrt(2.0 * photons * modes)


def _squeeze_db(photons: float) -> float:
    """Squeezing in dB whose vacuum-squeezed photon number is ``photons``."""
    return 20.0 * math.log10(math.e) * math.asinh(math.sqrt(photons))


def _pair(rng: np.random.Generator, family: str, modes: int, photons: float,
          eps: float, jitter: bool = True) -> Pair:
    mean_a, cov_a = make_state(rng, family, modes, photons, jitter)
    mean_b, cov_b = make_state(rng, family, modes, photons * (1.0 if jitter else 1.25), jitter)
    return Pair(family, modes, eps, mean_a, cov_a, mean_b, cov_b)


# ---------------------------------------------------------------- td workloads

#: (modes, photons per mode, log10 eps range) strata of td-small; dims 2..~300.
#: Two-mode pairs cost several times more than one-mode pairs; with three of
#: five strata two-mode, the median operation sits inside the two-mode
#: cluster of times rather than in the gap between the clusters.
_TD_SMALL_STRATA = (
    (1, 0.3, (-10.0, -4.0)),
    (1, 1.0, (-10.0, -4.0)),
    (2, 0.1, (-5.0, -3.0)),
    (2, 0.2, (-5.0, -3.0)),
    (2, 0.3, (-5.0, -3.0)),
)
#: (modes, photons per mode, eps) strata of td-large; dims ~500..~1800
_TD_LARGE_STRATA = (
    (2, 0.9, 1e-4),
    (3, 0.25, 3e-4),
)
#: one heavier pair on top, so that the passing pairs are odd in number and
#: the median operation sits inside one pair's cluster of times rather than
#: in the gap between two
_TD_LARGE_EXTRA = ("passive", 3, 0.25, 1e-4)


#: the stream the actively mixed family draws from, whatever the seed
_FIXED_STREAM = (0, 6)


def _stream(family: str, seeded: np.random.Generator,
            fixed: np.random.Generator) -> np.random.Generator:
    """The seeded stream, except for the actively mixed family.

    The multi-mode Fock kernel fails on some orientations of an actively
    mixed state and not on others, so a seeded orientation would make the
    number of failing operations depend on the seed.  Drawing that family
    from one fixed stream keeps its pairs, and the failures, the same in
    every run; the other families still move with the seed.
    """
    return fixed if family == "active" else seeded


def td_small_pairs(seed: int, repeats: int = 12) -> list[Pair]:
    """Every family at every td-small stratum, ``repeats`` pairs each, at
    eps spread evenly over the stratum's range.  As in td-large the seed moves
    only orientations, so the Fock dims, and the work, do not depend on it;
    the actively mixed pairs do not move at all (see ``_stream``)."""
    rng, fixed = np.random.default_rng([seed, 1]), np.random.default_rng(_FIXED_STREAM)
    pairs = []
    for r in range(repeats):
        for modes, photons, (lo, hi) in _TD_SMALL_STRATA:
            eps = 10.0 ** (lo + (hi - lo) * (r + 0.5) / repeats)
            for family in FAMILIES:
                pairs.append(_pair(_stream(family, rng, fixed), family, modes, photons, eps,
                                   jitter=False))
    return pairs


def td_large_pairs(seed: int) -> list[Pair]:
    """Every family at every td-large stratum, plus the extra pair, with the
    seed moving only orientations (no jitter): the Fock dims are fixed.  The
    actively mixed pairs do not move at all (see ``_stream``)."""
    rng, fixed = np.random.default_rng([seed, 2]), np.random.default_rng(_FIXED_STREAM)
    pairs = [_pair(_stream(family, rng, fixed), family, modes, photons, eps, jitter=False)
             for family in FAMILIES for modes, photons, eps in _TD_LARGE_STRATA]
    family, modes, photons, eps = _TD_LARGE_EXTRA
    return pairs + [_pair(rng, family, modes, photons, eps, jitter=False)]


def tiny_pairs(seed: int) -> list[Pair]:
    """One small pair per family and mode count, for warm-up and smoke runs."""
    rng = np.random.default_rng([seed, 3])
    return [_pair(rng, family, modes, 0.2, 1e-3)
            for modes in (1, 2) for family in FAMILIES]


# ---------------------------------------------------------------- cli workload

#: every ``--method`` of ``bosonic capacity`` and ``bosonic sweep``
METHODS = ("asymptotic", "aep", "improved", "ec-aep", "ec-variance", "best", "upper")


@dataclass(frozen=True)
class CliCall:
    """One fresh-process CLI call; ``args`` may name files from ``files``."""

    kind: str
    args: tuple[str, ...]


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _channel_args(rng: np.random.Generator, kind: str) -> list[str]:
    if kind == "loss":
        return ["--channel", "loss", "--lam", _fmt(rng.uniform(0.55, 0.95))]
    return ["--channel", "amp", "--g", _fmt(rng.uniform(1.2, 4.0))]


def cli_mix(seed: int) -> tuple[list[CliCall], dict[str, tuple[np.ndarray, np.ndarray]]]:
    """A fixed multiset of CLI calls in seeded order, plus the state files
    they read (name -> (mean, cov))."""
    rng = np.random.default_rng([seed, 4])
    files = {}
    for i, family in enumerate(("thermal", "displaced", "pure", "thermal", "displaced", "pure")):
        files[f"s{i}.json"] = make_state(rng, family, 1, float(rng.uniform(0.2, 1.0)))
    files["m0.json"] = make_state(rng, "passive", 2, 0.5)
    files["m1.json"] = make_state(rng, "thermal", 2, 0.5)
    one_mode = [name for name in files if name.startswith("s")]

    calls = []
    for method in METHODS:
        channel = "loss" if method in ("improved", "ec-variance") else str(rng.choice(["loss", "amp"]))
        # the converse covers Q2 and K only
        task = str(rng.choice(["Q2", "K"] if method == "upper" else ["Q", "Q2", "K"]))
        args = ["capacity", *_channel_args(rng, channel), "--task", task, "--method", method,
                "--n", str(int(rng.integers(200, 5000))), "--eps", _fmt(10.0 ** rng.uniform(-3, -1))]
        if method in ("ec-aep", "ec-variance") or (method in ("asymptotic", "best") and rng.uniform() < 0.5):
            args += ["--ns", _fmt(rng.uniform(0.5, 5.0))]
        calls.append(CliCall("capacity", tuple(args)))
    for channel in ("loss", "amp"):
        args = ["complexity", *_channel_args(rng, channel), "--task", str(rng.choice(["Q2", "K"])),
                "--k", _fmt(rng.uniform(50, 5000)), "--eps", _fmt(10.0 ** rng.uniform(-3, -1))]
        if channel == "loss":
            args += ["--ns", _fmt(rng.uniform(0.5, 5.0))]
        calls.append(CliCall("complexity", tuple(args)))
    calls.append(CliCall("tail-m", ("tail", str(rng.choice(one_mode)),
                                    "--m", str(int(rng.integers(5, 40))))))
    calls.append(CliCall("tail-eps", ("tail", str(rng.choice(one_mode)),
                                      "--target-eps", _fmt(10.0 ** rng.uniform(-8, -2)))))
    a, b = rng.choice(one_mode, size=2, replace=False)
    calls.append(CliCall("tracedist", ("tracedist", str(a), str(b),
                                       "--eps", _fmt(10.0 ** rng.uniform(-4.5, -3.5)))))
    calls.append(CliCall("validate", ("state", "validate", "m0.json")))
    if rng.uniform() < 0.5:
        calls.append(CliCall("evolve", ("state", "evolve", "m1.json", "--beam-splitter",
                                        _fmt(rng.uniform(0.1, 0.9)), "--modes", "0,1")))
    else:
        shift = ",".join(_fmt(x) for x in rng.uniform(-1.0, 1.0, size=2))
        calls.append(CliCall("evolve", ("state", "evolve", str(rng.choice(one_mode)),
                                        "--displace", shift)))
    order = rng.permutation(len(calls))
    return [calls[i] for i in order], files


# -------------------------------------------------------------- sweep workload


@dataclass(frozen=True)
class SweepGrid:
    name: str
    args: tuple[str, ...]
    rows: int


def _range(rng: np.random.Generator, lo: float, hi: float, count: int, log: bool = False) -> str:
    start = rng.uniform(lo, lo + 0.1 * (hi - lo))
    stop = rng.uniform(hi - 0.1 * (hi - lo), hi)
    return f"{_fmt(start)}:{_fmt(stop)}:{count}" + (":log" if log else "")


_AMP_METHODS = ("best", "aep", "ec-aep", "upper")


def sweep_grids(seed: int, scale: int = 12) -> list[SweepGrid]:
    """The loss grid (every method, tasks Q2 and K) and the amp grid.

    ``scale`` sets the n-axis length; rows grow linearly with it.
    """
    rng = np.random.default_rng([seed, 5])
    grids = []
    for name, methods, param_flag, lo, hi, counts in (
        ("loss", METHODS, "--lam", 0.05, 0.95, (20, 10, 3)),
        ("amp", _AMP_METHODS, "--g", 1.05, 6.0, (20, 10, 5)),
    ):
        n_param, n_ns, n_eps = counts
        args = ("sweep", "--channel", name, "--methods", ",".join(methods), "--tasks", "Q2,K",
                param_flag, _range(rng, lo, hi, n_param),
                "--ns", _range(rng, 0.1, 10.0, n_ns, log=True),
                "--n", _range(rng, 50, 50000, scale, log=True),
                "--eps", _range(rng, 1e-4, 0.2, n_eps, log=True))
        rows = len(methods) * 2 * n_param * n_ns * scale * n_eps  # methods x tasks x axes
        grids.append(SweepGrid(name, args, rows))
    return grids
