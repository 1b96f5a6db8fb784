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

Blocks that ``fock_matrix_elements`` built, and ``truncate_normalize``
rescaled, are trusted: each carries the sector the build read off the
kernel data (``FockMatrix.sector``), every entry outside it is exactly 0.0
by construction, and the tile-wise symmetrization leaves exact conjugate
pairs with a real diagonal.  Their difference is split by the coarser of
the two sectors and taken sector block by sector block, with no dim x dim
difference, no scan for zeros and no re-symmetrization; a Hermitian part
of an exactly Hermitian block is the block itself, bit for bit.  Anything
else -- plain arrays, hand-made or deserialized blocks -- is checked: its
entries must be finite and its difference Hermitian to within
``HERMITIAN_TOL``, and it is diagonalized as one sector.
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

#: largest tolerated non-Hermiticity of the difference of two checked blocks
HERMITIAN_TOL = 1e-9

#: the sectors a built block may carry, finest first
_SECTORS = ("number", "parity", "whole")


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


def _shared_sector(a, b) -> str | None:
    """The coarser of the sectors two built ``FockMatrix`` blocks carry, or
    None unless both blocks carry one."""
    if not (isinstance(a, FockMatrix) and isinstance(b, FockMatrix)):
        return None
    if (a.modes, a.cutoff) != (b.modes, b.cutoff):
        raise ValueError(
            f"blocks live on different bases: (modes {a.modes}, cutoff {a.cutoff}) "
            f"and (modes {b.modes}, cutoff {b.cutoff})"
        )
    if a.sector is None or b.sector is None:
        return None
    return max(a.sector, b.sector, key=_SECTORS.index)


def _checked_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Hermitian part (d + d^H) / 2 of d = a - b, once both blocks are
    finite and d is square and Hermitian to within ``HERMITIAN_TOL``."""
    for name, block in (("first", a), ("second", b)):
        bad = np.argwhere(~np.isfinite(block))
        if bad.size:
            shown = ", ".join(str(tuple(ix)) for ix in bad[:3].tolist())
            raise ValueError(f"{name} block has {len(bad)} non-finite entries, at {shown}"
                             + (", ..." if len(bad) > 3 else ""))
    diff = a - b
    if diff.ndim != 2 or diff.shape[0] != diff.shape[1]:
        raise ValueError(f"blocks must be square, got {diff.shape}")
    skew = np.max(np.abs(diff - diff.conj().T)) if diff.size else 0.0
    if skew > HERMITIAN_TOL:
        raise ValueError(f"difference is not Hermitian (defect {skew:.3e})")
    return (diff + diff.conj().T) / 2.0


def finite_trace_distance(a, b) -> float:
    """(1/2) sum |eig(a - b)| for Hermitian blocks ``a``, ``b``.

    Two ``FockMatrix`` blocks must share (modes, cutoff).  When both carry
    the sector their build read off (see the module docstring), they are
    trusted: the difference is taken and diagonalized per sector of the
    coarser of the two -- photon number, parity or the whole basis -- so
    the eigensolve costs sum d_s^3 instead of dim^3; size-1 sectors are
    read off the diagonal.

    Plain arrays, and blocks without a sector, are checked and form one
    sector: every entry must be finite, and the difference Hermitian to
    within ``HERMITIAN_TOL``; its Hermitian part is diagonalized.  The
    eigensolver itself is accurate to machine precision.

    Raises:
        ValueError: the blocks live on different bases, or a checked block
            is not square, has a non-finite entry or a non-Hermitian
            difference.
    """
    kind = _shared_sector(a, b)
    if kind is None:
        herm = _checked_difference(_as_matrix(a), _as_matrix(b))
        labels = np.zeros(herm.shape[0], dtype=int)

        def entries(index):
            return herm[index]
    else:
        totals = a.totals
        labels = {"number": totals, "parity": totals % 2}.get(kind, np.zeros_like(totals))

        def entries(index):
            return a.matrix[index] - b.matrix[index]

    sizes = np.bincount(labels)
    single = np.flatnonzero(sizes[labels] == 1)
    eigs = [entries((single, single)).real]
    for sector in np.flatnonzero(sizes > 1):
        idx = np.flatnonzero(labels == sector)
        lo, hi = idx[0], idx[-1] + 1
        # contiguous sectors (photon number, the whole basis) are slices
        square = (slice(lo, hi),) * 2 if hi - lo == idx.size else np.ix_(idx, idx)
        eigs.append(np.linalg.eigvalsh(entries(square)))
    return float(np.sum(np.abs(np.concatenate(eigs)))) / 2.0


def _normalized_block(state: GaussianState, cutoff: int, tail: float) -> FockMatrix:
    """The Fock block of ``state`` rescaled to unit trace, once its raw trace
    is checked against the truncation bound ``tail`` (a trace distance, so
    the photon tail is at most ``tail**2``)."""
    raw = fock_matrix_elements(state, cutoff)
    floor = 1.0 - tail * tail
    trace = raw.trace
    if not trace >= floor - TRACE_TOL:  # a NaN trace fails as well
        raise FockTraceError(
            f"Fock block trace {trace!r} is not a number" if math.isnan(trace) else
            f"Fock block trace {trace!r} falls below 1 - tail bound = {floor!r} by more "
            f"than {TRACE_TOL}; the block misses weight the tail cannot hold"
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
