"""Trace distance between Gaussian states with a certified error budget.

The target accuracy eps is split three ways: a photon cutoff M is chosen so
that truncating either state costs at most eps/3 in trace distance, and the
exact finite-dimensional distance between the renormalized truncated blocks
is then within eps/3 + eps/3 of the true value (``tail._certifiable`` refuses
an eps whose third no cutoff reaches).  The realized certificate t_a + t_b +
s, t the truncation bounds and s the raw blocks' ``fock._rounding_slack``
(2 dim ulp, plus what a vacuum entry exceeds 1 by), is usually far smaller
than eps.  Each raw block's trace must lie in [1 - t^2, 1] up to its own
slack: the block-trace rule, whose one home is ``fock._checked_trace``.

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
two blocks plus the build's shell and symmetrization temporaries of
O(``fock._TILE``^2) entries (``_TILE`` = 128), reached while the second block is
built; at the eigensolve the difference and the eigensolver's copy of one
sector block are alive.  On the whole basis at dim 969 a fresh process's
resident peak rises 2.07 dense blocks above a small distance's.
``finite_trace_distance`` takes the difference into new arrays and leaves
its arguments as they are; both go through one eigensolve route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (
    FockMatrix,
    _checked_trace,
    _normalized,
    _rounding_slack,
    basis_dimension,
    fock_matrix_elements,
    sector_pair,
)
from .states import GaussianState
from .tail import _certifiable, cutoff_for_error, trace_distance_truncation_bound

__all__ = [
    "TraceDistanceResult",
    "finite_trace_distance",
    "gaussian_trace_distance",
]

@dataclass(frozen=True)
class TraceDistanceResult:
    """Certified estimate of (1/2)||rho - sigma||_1.

    ``certified_error`` bounds |estimate - true distance|; it collects the
    two truncation tails and the numerical term, ``fock._rounding_slack``.
    """

    estimate: float
    certified_error: float
    cutoff: int
    fock_dim: int
    tail_bounds: tuple[float, float]


def finite_trace_distance(a: FockMatrix, b: FockMatrix) -> float:
    """(1/2) sum |eig(a - b)| for two blocks built by ``fock_matrix_elements``.

    Both blocks, raw or after ``truncate_normalize``, must share (modes,
    cutoff).  The difference is diagonalized per sector of the coarser of
    their sectors, on the sector blocks ``fock.sector_pair`` hands out (see
    the module docstring); size-1 sectors are read off the diagonal.

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


def _difference(state_a: GaussianState, state_b: GaussianState, cutoff: int,
                tails: tuple[float, float]) -> tuple[np.ndarray, list[np.ndarray], float]:
    """The Fock blocks of ``state_a`` minus ``state_b`` at ``cutoff``, each
    divided by its trace in place once its raw trace passes the block-trace
    rule with the floor 1 - tail^2, split by their shared sector as
    ``sector_pair`` does and taken in place in block a's buffer (see the
    module docstring's memory note); and the raw blocks' ``_rounding_slack``."""
    raw = [_checked_trace(fock_matrix_elements(state, cutoff), 1.0 - tail * tail)
           for state, tail in zip((state_a, state_b), tails)]
    slack = _rounding_slack(*raw)
    (alone, diffs), (alone_b, blocks_b) = sector_pair(*map(_normalized, raw))
    alone -= alone_b
    for diff, sub in zip(diffs, blocks_b):
        diff -= sub
    return alone, diffs, slack


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
        FockTraceError: a raw block's trace fails ``fock``'s block-trace
            rule (``fock._checked_trace``) with the floor 1 - tail^2.
        ValueError: eps lies outside (0, 1), or below 3 sqrt(``TAIL_FLOOR``),
            which no cutoff certifies.
    """
    if state_a.modes != state_b.modes:
        raise ValueError(
            f"states live on {state_a.modes} and {state_b.modes} modes"
        )
    eps = _certifiable(eps, 3)
    cutoff = max(
        cutoff_for_error(state_a, eps / 3.0),
        cutoff_for_error(state_b, eps / 3.0),
    )
    dim = basis_dimension(state_a.modes, cutoff)

    tail_a = trace_distance_truncation_bound(state_a, cutoff).bound
    tail_b = trace_distance_truncation_bound(state_b, cutoff).bound

    alone, diffs, slack = _difference(state_a, state_b, cutoff, (tail_a, tail_b))
    estimate = _half_trace_norm(alone, diffs)
    return TraceDistanceResult(
        estimate=min(max(estimate, 0.0), 1.0),
        certified_error=tail_a + tail_b + slack,
        cutoff=cutoff,
        fock_dim=dim,
        tail_bounds=(tail_a, tail_b),
    )
