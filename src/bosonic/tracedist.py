"""Trace distance between Gaussian states with a certified error budget.

The target accuracy eps is split three ways: a photon cutoff M is chosen so
that truncating either state costs at most eps/3 in trace distance, and the
exact finite-dimensional distance between the renormalized truncated blocks
is then within eps/3 + eps/3 of the true value.  The realized certificate
(reported in the result) is usually far smaller than eps.

The difference of the two blocks is diagonalized per exactly decoupled
sector.  Zero-mean phase-insensitive states commute with the total photon
number N and zero-mean Gaussian states with the parity (-1)^N, so their
difference is block diagonal in photon number or in parity.  Where every
computed entry between sectors is exactly 0.0, the trace norm is the sum
over the sector blocks, at sum d_s^3 cost instead of dim^3, and the
certificate is unchanged: nothing is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import (
    TRACE_TOL,
    FockMatrix,
    FockTraceError,
    basis_dimension,
    fock_matrix_elements,
    truncate_normalize,
)
from .states import GaussianState
from .tail import TAIL_FLOOR, cutoff_for_error, trace_distance_truncation_bound

__all__ = [
    "TraceDistanceResult",
    "finite_trace_distance",
    "gaussian_trace_distance",
]

#: largest tolerated non-Hermiticity of a sector block of the difference
HERMITIAN_TOL = 1e-9


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


def _as_matrix(block) -> np.ndarray:
    if isinstance(block, FockMatrix):
        return block.matrix
    return np.asarray(block)


def _common_totals(a, b) -> np.ndarray | None:
    """Photon totals of the basis two Fock blocks share, or None unless both
    blocks are ``FockMatrix``."""
    if not (isinstance(a, FockMatrix) and isinstance(b, FockMatrix)):
        return None
    if (a.modes, a.cutoff) != (b.modes, b.cutoff):
        raise ValueError(
            f"blocks live on different bases: (modes {a.modes}, cutoff {a.cutoff}) "
            f"and (modes {b.modes}, cutoff {b.cutoff})"
        )
    return a.totals


def _sector_labels(totals: np.ndarray | None, diff: np.ndarray) -> np.ndarray:
    """Sector of each basis index under the finest partition -- photon
    number, then parity, then the whole matrix -- whose off-sector entries
    of ``diff`` are all exactly 0.0."""
    labels = np.zeros(diff.shape[0], dtype=int)
    if totals is None:
        return labels
    coupled = diff != 0.0
    # each partition refines the one before, so the first that fails ends it
    for finer in (totals % 2, totals):
        if np.any(coupled & (finer[:, None] != finer)):
            break
        labels = finer
    return labels


def _hermitian_part(block: np.ndarray) -> np.ndarray:
    """(block + block^H) / 2, once ``block`` is Hermitian to within
    ``HERMITIAN_TOL``; a 1-D ``block`` is read as a diagonal."""
    skew = np.max(np.abs(block - block.conj().T)) if block.size else 0.0
    if skew > HERMITIAN_TOL:
        raise ValueError(f"difference is not Hermitian (defect {skew:.3e})")
    return (block + block.conj().T) / 2.0


def finite_trace_distance(a, b) -> float:
    """(1/2) sum |eig(a - b)| for Hermitian blocks ``a``, ``b``.

    Two ``FockMatrix`` blocks must share (modes, cutoff).  Their difference
    is diagonalized per sector of the finest partition -- photon number,
    then parity -- under which every off-sector entry is exactly 0.0, so
    the sector blocks hold the whole difference and the eigensolve costs
    sum d_s^3 instead of dim^3; size-1 sectors are read off the diagonal.
    Plain arrays, and blocks that no partition decouples, are one sector.

    Each sector block must be Hermitian to within ``HERMITIAN_TOL``; the
    eigensolver itself is accurate to machine precision.
    """
    totals = _common_totals(a, b)
    diff = _as_matrix(a) - _as_matrix(b)
    if diff.shape[0] != diff.shape[1]:
        raise ValueError(f"blocks must be square, got {diff.shape}")
    labels = _sector_labels(totals, diff)
    sizes = np.bincount(labels)
    eigs = [_hermitian_part(np.diagonal(diff)[sizes[labels] == 1]).real]
    for sector in np.flatnonzero(sizes > 1):
        idx = np.flatnonzero(labels == sector)
        lo, hi = idx[0], idx[-1] + 1
        # contiguous sectors (photon number, the whole matrix) are views
        block = diff[lo:hi, lo:hi] if hi - lo == idx.size else diff[np.ix_(idx, idx)]
        eigs.append(np.linalg.eigvalsh(_hermitian_part(block)))
    return float(np.sum(np.abs(np.concatenate(eigs)))) / 2.0


def _normalized_block(state: GaussianState, cutoff: int, tail: float) -> FockMatrix:
    """The Fock block of ``state`` rescaled to unit trace, once its raw trace
    is checked against the truncation bound ``tail`` (a trace distance, so
    the photon tail is at most ``tail**2``)."""
    raw = fock_matrix_elements(state, cutoff)
    floor = 1.0 - tail * tail
    if raw.trace < floor - TRACE_TOL:
        raise FockTraceError(
            f"Fock block trace {raw.trace!r} falls below 1 - tail bound = {floor!r} "
            f"by more than {TRACE_TOL}; the block misses weight the tail cannot hold"
        )
    return truncate_normalize(raw)


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
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
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

    block_a = _normalized_block(state_a, cutoff, tail_a)
    block_b = _normalized_block(state_b, cutoff, tail_b)

    estimate = finite_trace_distance(block_a, block_b)
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
