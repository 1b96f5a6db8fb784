"""Trace distance between Gaussian states with a certified error budget.

The target accuracy eps is split three ways: a photon cutoff M is chosen so
that truncating either state costs at most eps/3 in trace distance, and the
exact finite-dimensional distance between the renormalized truncated blocks
is then within eps/3 + eps/3 of the true value.  The realized certificate
(reported in the result) is usually far smaller than eps.

The difference of the two blocks is diagonalized per exactly decoupled
sector.  Zero-mean phase-insensitive states commute with the total photon
number N and zero-mean Gaussian states with the parity (-1)^N, so their
difference is block diagonal in photon number or in parity.  Every
computed entry between sectors is exactly 0.0, so the trace norm is the sum
over the sector blocks, at sum d_s^3 cost instead of dim^3, and the
certificate is unchanged: nothing is dropped.

The distance takes blocks that ``fock_matrix_elements`` built, raw or
rescaled by ``truncate_normalize``, and nothing else: each carries the sector
the build read off the kernel data (``FockMatrix.sector``) and stores that
sector's blocks alone, and the tile-wise symmetrization leaves exact
conjugate pairs with a real diagonal.  The two blocks are split by the
coarser of their sectors (``fock.sector_pair``, which regroups the finer
block) and their difference is taken sector block by sector block, with no
dim x dim difference, no scan for zeros and no re-symmetrization; a
Hermitian part of an exactly Hermitian block is the block itself, bit for
bit.

Memory: ``gaussian_trace_distance`` owns both blocks it builds.  It divides
each by its trace in place and takes the difference sector block by sector
block into the first block's buffer (or into the regrouped copy
``sector_pair`` makes of it); the second block lives only inside
``_difference``, so no name or view of it reaches the eigensolve.  Blocks
take 16 sum_s d_s^2 bytes each (16 dim^2 on the whole basis).  The peak is
two blocks plus the build's shell temporaries of O(``fock._TILE``^2)
entries, reached while the second block is built; at the eigensolve the
difference and the eigensolver's copy of one sector block are alive.  On
the whole basis at dim 969 a fresh process's resident peak rises 2.3 dense
blocks above a small distance's (3.1 while a view kept the second block
alive into the eigensolve).  ``finite_trace_distance`` takes the difference
into new arrays and leaves its arguments as they are; both go through one
eigensolve route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    TRACE_TOL,
    FockMatrix,
    FockTraceError,
    _normalized,
    basis_dimension,
    fock_matrix_elements,
    sector_pair,
)
from .states import GaussianState, check_eps
from .tail import TAIL_FLOOR, cutoff_for_error, trace_distance_truncation_bound

__all__ = [
    "TraceDistanceResult",
    "finite_trace_distance",
    "gaussian_trace_distance",
]

@dataclass(frozen=True)
class TraceDistanceResult:
    """Certified estimate of (1/2)||rho - sigma||_1.

    ``certified_error`` bounds |estimate - true distance|; it collects the
    two truncation tails and the eigensolver residual.
    """

    estimate: float
    certified_error: float
    cutoff: int
    fock_dim: int
    tail_bounds: tuple[float, float]


def finite_trace_distance(a: FockMatrix, b: FockMatrix) -> float:
    """(1/2) sum |eig(a - b)| for two blocks built by ``fock_matrix_elements``.

    Both blocks, raw or after ``truncate_normalize``, must share (modes,
    cutoff).  The difference is taken and diagonalized per sector of the
    coarser of their two sectors (see the module docstring) -- photon
    number, parity or the whole basis -- on the sector blocks
    ``fock.sector_pair`` hands out, the finer block regrouped, so the
    eigensolve costs sum d_s^3 instead of dim^3 and no block is made dense
    unless the other one is; size-1 sectors are read off the diagonal in
    one step.  The eigensolver itself is accurate to machine precision.

    Raises:
        ValueError: a block is not a ``FockMatrix`` (a plain array, say),
            or the blocks live on different bases.
    """
    (alone_a, blocks_a), (alone_b, blocks_b) = sector_pair(a, b)
    return _half_trace_norm(alone_a - alone_b, (x - y for x, y in zip(blocks_a, blocks_b)))


def _half_trace_norm(alone: np.ndarray, blocks) -> float:
    """(1/2) sum |eig| of a difference split by sector: the diagonal entries
    ``alone`` of its sectors of one index, and its larger sector blocks,
    which ``blocks`` yields one at a time."""
    eigs = [alone.real] + [np.linalg.eigvalsh(diff) for diff in blocks]
    return float(np.sum(np.abs(np.concatenate(eigs)))) / 2.0


def _normalized_block(state: GaussianState, cutoff: int, tail: float) -> FockMatrix:
    """The Fock block of ``state`` divided by its trace in place, once the
    raw trace is checked against the truncation bound ``tail`` (a trace
    distance, so the photon tail is at most ``tail**2``)."""
    raw = fock_matrix_elements(state, cutoff)
    floor = 1.0 - tail * tail
    trace = raw.trace
    if not trace >= floor - TRACE_TOL:  # a NaN trace fails as well
        raise FockTraceError(
            f"Fock block trace {trace!r} is not a number" if math.isnan(trace) else
            f"Fock block trace {trace!r} falls below 1 - tail bound = {floor!r} by more "
            f"than {TRACE_TOL}; the block misses weight the tail cannot hold"
        )
    return _normalized(raw)


def _difference(state_a: GaussianState, state_b: GaussianState, cutoff: int,
                tails: tuple[float, float]) -> tuple[np.ndarray, list[np.ndarray]]:
    """The normalized Fock blocks of ``state_a`` minus ``state_b`` at
    ``cutoff``, split by their shared sector: the diagonal entries of the
    sectors of one index and the larger sector blocks, taken in place in
    block a's buffer (or the copy ``sector_pair`` regroups it into).
    Block b lives only in this call, so no name or view of it reaches the
    eigensolve."""
    block_a = _normalized_block(state_a, cutoff, tails[0])
    block_b = _normalized_block(state_b, cutoff, tails[1])
    (alone, diffs), (alone_b, blocks_b) = sector_pair(block_a, block_b)
    alone -= alone_b
    for diff, sub in zip(diffs, blocks_b):
        diff -= sub
    return alone, diffs


def gaussian_trace_distance(
    state_a: GaussianState, state_b: GaussianState, eps: float
) -> TraceDistanceResult:
    """Trace distance between two Gaussian states to additive accuracy eps.

    Args:
        state_a: first state.
        state_b: second state, on the same number of modes.
        eps: target accuracy in (0, 1).

    Returns:
        ``TraceDistanceResult`` with the estimate clamped to [0, 1] and an
        honest certificate for the realized error.

    Raises:
        DimensionCapError: a Fock block would exceed the dimension cap,
            ``BOSONIC_FOCK_CAP`` or 20000.
        FockTraceError: a raw block's trace leaves [1 - tail^2, 1] by more
            than ``TRACE_TOL``.
        ValueError: eps lies outside (0, 1), or below 3 sqrt(``TAIL_FLOOR``),
            which no cutoff certifies.
    """
    if state_a.modes != state_b.modes:
        raise ValueError(
            f"states live on {state_a.modes} and {state_b.modes} modes"
        )
    eps = check_eps(eps)
    if eps / 3.0 < math.sqrt(TAIL_FLOOR):
        raise ValueError(f"eps {eps} lies below 3 x {math.sqrt(TAIL_FLOOR)}: each of the two "
                         f"truncations gets eps/3, and no cutoff certifies less than "
                         f"{math.sqrt(TAIL_FLOOR)}, the square root of the floor {TAIL_FLOOR} "
                         "on every tail bound")

    cutoff = max(
        cutoff_for_error(state_a, eps / 3.0),
        cutoff_for_error(state_b, eps / 3.0),
    )
    dim = basis_dimension(state_a.modes, cutoff)

    tail_a = trace_distance_truncation_bound(state_a, cutoff).bound
    tail_b = trace_distance_truncation_bound(state_b, cutoff).bound

    estimate = _half_trace_norm(*_difference(state_a, state_b, cutoff, (tail_a, tail_b)))
    # symmetric eigensolve is backward stable; residual ~ dim * ulp * ||diff||
    eig_residual = dim * np.finfo(float).eps * 2.0
    certified = tail_a + tail_b + eig_residual

    return TraceDistanceResult(
        estimate=min(max(estimate, 0.0), 1.0),
        certified_error=float(certified),
        cutoff=cutoff,
        fock_dim=dim,
        tail_bounds=(tail_a, tail_b),
    )
