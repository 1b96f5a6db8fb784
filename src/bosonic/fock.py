"""Fock-basis representation of Gaussian states.

The basis keeps every n-mode occupation with total photon number at most M
(dimension binom(M+n, n)), ordered by total then lexicographically with the
first mode weighted highest.

Matrix elements come from the Bargmann kernel of the density operator,

    <alpha| rho |beta> e^{(|alpha|^2+|beta|^2)/2}
        = C exp( z^T F z / 2 + u^T z ),     z = (conj(alpha), beta),

whose data follow from the Husimi function: with G = (V + I)^-1 and
y = sqrt(2) (Re beta_i, Im beta_i) per mode, the diagonal kernel is
C exp(|beta|^2 - (y - m)^T G (y - m)).  Continuing conj(beta) -> conj(alpha)
and writing sqrt(2) y = r z, with r the matrix of entries 1 and +-i, gives

    quad = r^T G r,    F = X - quad,    u = quad (conj(mu), mu),

where X exchanges conj(alpha) and beta and mu = (m_x + i m_p) / sqrt(2).
Taylor coefficients of the kernel obey a three-term recurrence over the
combined bra/ket multi-index; running it on sqrt(k! l!)-scaled coefficients
yields <k|rho|l> directly and keeps every intermediate bounded by 1.  A
block's trace is 1 - P(N > M); ``_checked_trace`` is the one block-trace
rule, up to the certificate's numerical term (``_rounding_slack``), which
the build applies with no floor and ``tracedist`` with 1 - t^2.

Entry (a, b), a != 0, with j the first occupied mode of a and p = a - e_j,
is

    <a|rho|b> = (u_j <p|rho|b> + sum_i F_{j,i} sqrt(p_i) <p - e_i|rho|b>
                 + sum_i F_{j,n+i} sqrt(b_i) <p|rho|b - e_i>) / sqrt(a_j),

and row 0 runs the same recursion along the ket index with u_{n+j} and the
ket-ket block of F.  Rows of total k read rows of totals k - 1 and k - 2
only, so the build runs row 0 and then one photon-number shell at a time,
each shell's rows in vectorized row steps of at most ``_TILE``^2 = 128^2
entries (256 KiB) per term (one step for most shells).

Sectors come from exact zeros of the kernel data.  If u is all 0.0 the
block is a parity block; if the bra-bra and ket-ket blocks of F are all 0.0
as well, a photon-number block; otherwise the whole basis.  By induction on
total(a) + total(b): in a parity block every term of an entry between even
and odd totals is 0.0 times a finite number (the u term) or reads an entry
of the same kind ((p - e_i, b) and (p, b - e_i) keep the mismatch of parity),
and row 0 starts from <0|rho|0> = C alone; in a photon-number block the
F_{j,i} terms drop as well, and (p, b - e_i) keeps total(a) - total(b).  A
product with a 0.0 factor and a sum of 0.0s are exactly 0.0 in floating
point, so every entry outside the sector is exactly 0.0, not merely small.
The build therefore computes only the sector's entries of each shell; the
F_{j,i} terms of a photon-number block and the u terms of a sector block
are left out.  Real passive mixes of thermal states come out as
photon-number blocks; passive mixes with complex phases leave bra-bra F
entries of about 1e-17 and fall to parity, as do zero-mean actively mixed
states; displaced states use the whole basis.  The terms of each entry are
summed in the row-by-row order with the same left operands, so
the block is the row-by-row block entry for entry.

Row 0 keeps its scalar loop, on Python complex numbers from ``tolist()``
rather than numpy scalars, which cost a dispatch per operation.  numpy's
scalar complex arithmetic rounds differently from its array loops, so a
vectorized row 0 would not give the same bits; the Python one does.  Sums
and products are the same formulas, with each real factor made complex
first, as numpy promotes it.  Division is the exception: numpy divides by
a real d with Smith's formula on (d, 0.0), which is (re + 0.0 im) / d +
i (im - 0.0 re) / d with 1 / d taken first, while Python's v / d rounds
differently (on random v, d about 4 in 10 quotients differ in the last
bit).  So row 0 writes numpy's formula out.  The basis-only arrays of the
recursion (``prev``, ``div``, ``sqrt_cnt[i, prev]``, ``lower[i, prev]``)
come with the basis tables, one table per mode count, grown on demand: the
graded basis at cutoff M is a prefix of the one at any larger cutoff.

A block stores its sectors and nothing else: one flat buffer of
sum_s d_s^2 complex entries, sector after sector, each a d_s x d_s square
over its basis indices in ascending order (``_Layout``).  That is one tile
per photon-number shell, an even and an odd block for parity, and one
dim x dim array for the whole basis.  The recursion reads and writes
through local indices, which each kind's layout computes for itself from
the kind-free basis tables: the position of each index in its sector, and
of the index each bra and ket term reads.  Where an empty mode points a
term at the vacuum and the vacuum lies in another sector, the term read an
exact 0.0 of the dense block; it reads one here too, a trailing column of
0.0 for the ket terms and the row being written, still 0.0, for the bra
terms.  So every product is the one the dense build formed, signs of zeros
included.  Each sector block is symmetrized as (S + S^H) / 2 in tiles of
at most ``_TILE``^2 entries, the sectors of one index in one vectorized
step.

Each ``FockMatrix`` records the sector it was built in; the trace distance
splits two blocks by the coarser of their sectors with ``sector_pair`` (see
``bosonic.tracedist``), and ``fock_to_dict`` writes a block out
(``tracedist --dump-fock``); nothing reads blocks back.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .states import GaussianState, check_cutoff, check_modes, check_transmissivity, require_valid
from .tail import DimensionCapError, FockTraceError

__all__ = [
    "DimensionCapError",
    "FockMatrix",
    "FockTraceError",
    "basis_dimension",
    "beam_splitter_fock_coeffs",
    "enumerate_basis",
    "fock_matrix_elements",
    "fock_to_dict",
    "truncate_normalize",
]

DEFAULT_DIM_CAP = 20000
#: environment override for the basis-dimension cap
CAP_ENV_VAR = "BOSONIC_FOCK_CAP"


def basis_dimension(modes: int, cutoff: int) -> int:
    """Number of n-mode occupations with total photon number <= cutoff."""
    modes = check_modes(modes)
    return math.comb(check_cutoff(cutoff) + modes, modes)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_basis(modes: int, cutoff: int) -> list[tuple[int, ...]]:
    """Graded ordering of occupations: by total photons, then first mode high."""
    modes, cutoff = check_modes(modes), check_cutoff(cutoff)
    return [occ for total in range(cutoff + 1) for occ in _compositions(total, modes)]


#: the sectors a built block may have, finest first
SECTORS = ("number", "parity", "whole")


@dataclass(frozen=True, init=False, eq=False)
class FockMatrix:
    """Density-matrix block on the truncated basis, plus its trace deficit.

    Only ``fock_matrix_elements`` and ``truncate_normalize`` make blocks;
    the class has no public constructor.  ``sector`` is the sector the
    build read off the kernel data ("number", "parity" or "whole"), and
    the block stores that sector's blocks alone (``_Layout``).
    """

    modes: int
    cutoff: int
    sector: str
    _data: np.ndarray = field(repr=False)

    def __init__(self, *args, **kwargs):
        raise TypeError("a FockMatrix is made by fock_matrix_elements or "
                        "truncate_normalize, not by hand")

    @property
    def matrix(self) -> np.ndarray:
        """The dense dim x dim block, 0.0 outside the sector.

        A photon-number or parity block is assembled from its sector blocks
        on each call; a whole-basis block returns its one array.
        """
        dim = basis_dimension(self.modes, self.cutoff)
        data = self._data if self.sector == "whole" else _regrouped(self, "whole")
        return data.reshape(dim, dim)

    @property
    def totals(self) -> np.ndarray:
        """Total photon number of each basis index.

        Photon-number sector k is the contiguous index range
        [C(k-1+n, n), C(k+n, n)) of the graded basis, and the parity sectors
        are the even and the odd totals.  A read-only view into the cached
        basis tables the Fock build uses.
        """
        return _basis_tables(self.modes, self.cutoff).totals

    @property
    def trace(self) -> float:
        """The sum of the diagonal in basis order, bit for bit ``np.trace``
        of the dense block."""
        diag = _layout(self.modes, self.cutoff, self.sector).diag
        return float(self._data.reshape(-1)[diag].sum().real)


def _built(data: np.ndarray, modes: int, cutoff: int, sector: str) -> FockMatrix:
    """The block whose ``sector`` blocks are stored in ``data`` (see
    ``_Layout``)."""
    block = object.__new__(FockMatrix)
    for name, value in (("modes", modes), ("cutoff", cutoff), ("sector", sector),
                        ("_data", data)):
        object.__setattr__(block, name, value)
    return block


def _check_dimension(modes: int, cutoff: int) -> int:
    env = os.environ.get(CAP_ENV_VAR)
    if env and not (env.isdecimal() and int(env) >= 1):
        raise ValueError(f"{CAP_ENV_VAR} must be a positive integer, got {env!r}")
    limit = int(env) if env else DEFAULT_DIM_CAP
    dim = basis_dimension(modes, cutoff)
    if dim > limit:
        raise DimensionCapError(
            f"cutoff {cutoff} on {modes} modes needs a {dim}-dimensional basis "
            f"(cap {limit}); certified truncations grow like "
            "(2^6 (n+1) E log(2/eps))^(3n) in the worst case, so lower eps or "
            f"the energy, or raise {CAP_ENV_VAR}"
        )
    return dim


@functools.lru_cache(maxsize=8)
def _kernel_constants(modes: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only matrices r (sqrt(2) y = r z) and X (the exchange of
    conj(alpha) and beta) of the kernel data on ``modes`` modes."""
    # x_i -> conj(alpha_i) + beta_i, p_i -> i conj(alpha_i) - i beta_i
    eye = np.eye(modes)
    r = np.hstack([np.kron(eye, [[1.0], [1j]]), np.kron(eye, [[1.0], [-1j]])])
    exchange = np.kron([[0.0, 1.0], [1.0, 0.0]], eye)
    for table in (r, exchange):
        table.flags.writeable = False
    return r, exchange


def _kernel_data(state: GaussianState) -> tuple[complex, np.ndarray, np.ndarray]:
    """(C, F, u) of the Bargmann kernel for ``state``."""
    n = state.modes
    m = state.mean
    shifted = state.cov + np.eye(2 * n)
    g = np.linalg.inv(shifted)

    r, exchange = _kernel_constants(n)
    quad = r.T @ g @ r
    mu = (m[0::2] + 1j * m[1::2]) / math.sqrt(2.0)
    f_mat = exchange - quad
    u_vec = quad @ np.concatenate([np.conj(mu), mu])

    with np.errstate(over="ignore"):  # an overflow takes the slogdet route below
        det = np.linalg.det(shifted / 2.0)
    if not (det > 0.0 and math.isfinite(det)):
        sign, logdet = np.linalg.slogdet(shifted / 2.0)
        if sign <= 0:
            raise ValueError("covariance plus identity must be positive definite")
        norm = math.exp(-0.5 * logdet)
    else:
        norm = 1.0 / math.sqrt(det)
    c0 = norm * math.exp(-float(m @ g @ m))
    return c0, f_mat, u_vec


class _BasisTables(NamedTuple):
    """Index tables of the graded basis of (modes, cutoff), the same for every
    kind of sector.

    Per mode i and basis index b, ``lower[i, b]`` is the index of occ_b - e_i
    and ``sqrt_cnt[i, b]`` is sqrt(occ_b[i]), both 0 where mode i is empty;
    ``first[b]`` is the first occupied mode of occ_b (0 for the vacuum).
    Shell k, the occupations of total k, is the index range
    [starts[k], starts[k + 1]), and ``totals[b]`` is the total of occ_b.  Per
    row b of the recursion, with j = first[b]: ``prev[b]`` is the index of
    occ_b - e_j, ``div[b, 0]`` is sqrt(occ_b[j]), and per mode i
    ``sqrt_prev[i, b]`` and ``lower_prev[i, b]`` are ``sqrt_cnt[i, prev[b]]``
    and ``lower[i, prev[b]]``.  The local indices of each kind of sector are
    in its ``_Layout``.
    """

    lower: np.ndarray
    sqrt_cnt: np.ndarray
    first: np.ndarray
    starts: np.ndarray
    prev: np.ndarray
    div: np.ndarray
    sqrt_prev: np.ndarray
    lower_prev: np.ndarray
    totals: np.ndarray


#: per mode count, the tables at the largest cutoff asked for so far
_TABLES: dict[int, _BasisTables] = {}


def _basis_tables(modes: int, cutoff: int) -> _BasisTables:
    """The read-only ``_BasisTables`` of (modes, cutoff), shared by both
    blocks of a pair, by ``_layout`` and by ``FockMatrix.totals``.  The graded basis at
    cutoff M is a prefix of the basis at any M' > M, and the entries of an
    index are fixed by the indices up to it, so one table per mode count,
    rebuilt when a larger cutoff is asked for, serves every smaller cutoff
    by prefix views."""
    full = _TABLES.get(modes)
    if full is None or full.starts.size < cutoff + 2:
        full = _TABLES[modes] = _build_tables(modes, cutoff)
    dim = int(full.starts[cutoff + 1])
    return _BasisTables(*(table[:cutoff + 2] if name == "starts" else
                          table[:dim] if name == "div" else table[..., :dim]
                          for name, table in zip(_BasisTables._fields, full)))


def _build_tables(modes: int, cutoff: int) -> _BasisTables:
    """``_BasisTables`` of (modes, cutoff), enumerated afresh, read-only."""
    basis = enumerate_basis(modes, cutoff)
    index = {occ: b for b, occ in enumerate(basis)}
    lower = np.array([[index.get(occ[:i] + (occ[i] - 1,) + occ[i + 1:], 0) for occ in basis]
                      for i in range(modes)])
    sqrt_cnt = np.sqrt(np.array(basis, dtype=float).T)
    first = np.argmax(sqrt_cnt > 0.0, axis=0)
    starts = np.array([0] + [basis_dimension(modes, k) for k in range(cutoff + 1)])
    at = np.arange(len(basis))
    prev = lower[first, at]
    tables = _BasisTables(lower, sqrt_cnt, first, starts, prev, sqrt_cnt[first, at][:, None],
                          sqrt_cnt[:, prev], lower[:, prev],
                          np.repeat(np.arange(cutoff + 1), np.diff(starts)))
    for table in tables:
        table.flags.writeable = False
    return tables


def _sector(f_mat: np.ndarray, u_vec: np.ndarray) -> str:
    """The sector of a block with kernel data (F, u), read off exact zeros:
    "parity" when u is 0.0, "number" when the bra-bra and ket-ket blocks of
    F are 0.0 as well, else "whole".  Every entry of the block between two
    photon totals (number) or between even and odd totals (parity) is then
    exactly 0.0; see the module docstring."""
    n = u_vec.size // 2
    if u_vec.any():
        return "whole"
    if f_mat[:n, :n].any() or f_mat[n:, n:].any():
        return "parity"
    return "number"


class _Layout(NamedTuple):
    """Where a block built in one kind of sector keeps its entries, and the
    local indices its recursion reads.

    Sector s holds the basis indices ``members[s]`` (a slice or an index
    array, ascending), ``sizes[s]`` of them, and is stored as a square at
    flat offsets [``offsets[s]``, ``offsets[s + 1]``) of the block's buffer,
    sector after sector.  ``label[b]`` is the sector of index b (its total,
    the parity of its total, or 0) and ``pos[b]`` its position there;
    ``rows[k]`` is the sector of shell k and the slice of local rows it
    takes.  ``diag[b]`` is the flat offset of entry (b, b), and ``alone``
    holds the indices alone in their sector, ascending.

    Per row b of the recursion, ``prev_pos[b]`` is ``pos[prev[b]]`` and
    ``bra_pos[i, b]`` is ``pos[lower_prev[i, b]]``, or ``pos[b]`` where that
    index lies in another sector than b (mode i of prev is empty and the
    vacuum lies in the other parity).  Per sector, ``ket_pos`` holds, for
    each member b and mode i, ``pos[lower[i, b]]``, or -1 where that index
    lies outside the sector of total(b) - 1 (mode i of b is empty and the
    vacuum lies elsewhere), and ``sqrt_cnt`` the basis tables' columns.
    """

    members: list
    sizes: list[int]
    offsets: list[int]
    label: np.ndarray
    pos: np.ndarray
    rows: list[tuple[int, slice]]
    diag: np.ndarray
    alone: np.ndarray
    prev_pos: np.ndarray
    bra_pos: np.ndarray
    ket_pos: list[np.ndarray]
    sqrt_cnt: list[np.ndarray]


@functools.lru_cache(maxsize=256)
def _layout(modes: int, cutoff: int, kind: str) -> _Layout:
    """The ``_Layout`` of a ``kind`` block on (modes, cutoff): one tile per
    photon-number shell, an even and an odd block, or the whole basis.  Its
    index tables are read-only.  A td-small pass of the benchmark asks for
    119 such keys, all of which stay cached."""
    tables = _basis_tables(modes, cutoff)
    starts, totals = tables.starts.tolist(), tables.totals
    # the sector of each index, the sector of total(b) - 1 (where the ket
    # terms of row b read), and the position of each index in its sector
    if kind == "number":
        label, ket_label, pos = totals, totals - 1, np.arange(totals.size) - tables.starts[totals]
        members = [slice(lo, hi) for lo, hi in zip(starts[:-1], starts[1:])]
    elif kind == "parity":
        label = totals % 2
        ket_label, pos = 1 - label, np.where(label, np.cumsum(label), np.cumsum(1 - label)) - 1
        members = [np.flatnonzero(label == p) for p in (0, 1)]
    else:
        label = ket_label = 0 * totals
        pos, members = np.arange(totals.size), [slice(0, starts[-1])]
    bra_pos = np.where(label[tables.lower_prev] == label, pos[tables.lower_prev], pos)
    ket_pos = np.where(label[tables.lower] == ket_label, pos[tables.lower], -1)
    sizes = np.bincount(label, minlength=len(members))
    offsets = np.concatenate([[0], np.cumsum(sizes * sizes)])
    rows = [(int(label[lo]), slice(int(pos[lo]), int(pos[lo]) + hi - lo))
            for lo, hi in zip(starts[:-1], starts[1:])]
    layout = _Layout(members, sizes.tolist(), offsets.tolist(), label, pos, rows,
                     offsets[label] + pos * (sizes[label] + 1), np.flatnonzero(sizes[label] == 1),
                     pos[tables.prev], bra_pos, [ket_pos[:, m] for m in members],
                     [tables.sqrt_cnt[:, m] for m in members])
    for table in (label, pos, layout.prev_pos, bra_pos, *layout.ket_pos):
        table.flags.writeable = False
    return layout


def _views(data: np.ndarray, layout: _Layout) -> list[np.ndarray]:
    """The square sector blocks of the buffer ``data``, as views, in sector
    order."""
    ends = layout.offsets
    return [data[lo:hi].reshape(d, d) for lo, hi, d in zip(ends[:-1], ends[1:], layout.sizes)]


#: tile edge of the blockwise symmetrization, and the shell row steps' bound
#: of _TILE^2 entries per term.  128 reaches the memory floor with no slower
#: build: a dim-969 whole-basis distance raises a fresh process's resident
#: peak by 2.07 dense blocks at edges 64, 96 and 128 (the difference plus
#: eigvalsh's copy), 2.14 at 192 and 2.31 at 256, while the Fock builds of a
#: td-large pass take 0.90x their time at 256 with 96 or 128 and 1.11x at 64.
_TILE = 128


def _symmetrize(data: np.ndarray, layout: _Layout) -> None:
    """Each sector block S of the buffer ``data`` <- (S + S^H) / 2 in place:
    the sectors of one index in one vectorized step, each larger one tile
    by tile, without a transposed temporary of its size."""
    single = layout.diag[layout.alone]
    alone = data[single]
    alone += alone.conj()
    alone /= 2.0
    data[single] = alone
    for block in _views(data, layout):
        dim = block.shape[0]
        if dim < 2:
            continue
        edges = [*range(0, dim, _TILE), dim]
        spans = list(zip(edges[:-1], edges[1:]))
        for a, (lo, hi) in enumerate(spans):
            for lo2, hi2 in spans[a:]:
                # both tiles from the old values, each as its own sum, so
                # that even the signs of zeros match S + S^H
                sym = block[lo:hi, lo2:hi2] + block[lo2:hi2, lo:hi].conj().T
                if lo2 != lo:
                    block[lo2:hi2, lo:hi] += block[lo:hi, lo2:hi2].conj().T
                    block[lo2:hi2, lo:hi] /= 2.0
                sym /= 2.0
                block[lo:hi, lo2:hi2] = sym


def _row_zero(c0: float, f_ket: np.ndarray, u_ket: np.ndarray, cols: np.ndarray,
              tables: _BasisTables) -> list[complex]:
    """Row 0 of a block: the recursion along the ket index alone, with the
    ket-ket block ``f_ket`` of F and the ket half ``u_ket`` of u, over the
    columns ``cols`` (0 not among them) on Python scalars; c0 at column 0
    and 0j wherever ``cols`` does not reach.  Each step is the numpy-scalar
    step bit for bit (see the module docstring)."""
    n = u_ket.size
    f_ket, u_ket = f_ket.tolist(), u_ket.tolist()
    first, prev, div = tables.first.tolist(), tables.prev.tolist(), tables.div[:, 0].tolist()
    # complex, so that every product is the full complex product numpy forms
    sqrt_prev = tables.sqrt_prev.astype(complex).tolist()
    lower_prev = tables.lower_prev.tolist()
    row = [0j] * len(first)
    row[0] = complex(c0)
    for b in cols.tolist():
        j = first[b]
        val = u_ket[j] * row[prev[b]]
        for i in range(n):
            s = sqrt_prev[i][b]
            if s:
                val += f_ket[j][i] * s * row[lower_prev[i][b]]
        # numpy's complex / real division: Smith's formula on (d, 0.0), so
        # 1 / d scales val + i 0.0 val, signs of zeros included
        scl = 1.0 / div[b]
        re, im = val.real, val.imag
        row[b] = complex((re + im * 0.0) * scl, (im - re * 0.0) * scl)
    return row


def fock_matrix_elements(state: GaussianState, cutoff: int) -> FockMatrix:
    """Exact Fock matrix elements <k|rho|l> for all totals up to ``cutoff``.

    Args:
        state: the Gaussian state.
        cutoff: maximum total photon number retained.

    The rows of each photon-number shell are computed in row steps of at
    most ``_TILE``^2 entries per term (a shell that fits one step in one),
    and the symmetrization runs in tiles of that size, so the temporaries
    stay O(``_TILE``^2) whatever the dimension: 256 KiB per 128^2 complex
    entries.  Each entry is the same products summed in the same order
    either way.

    Returns:
        ``FockMatrix`` whose trace equals one minus the photon-number tail,
        storing its sector blocks alone: 16 sum_s d_s^2 bytes.

    Raises:
        DimensionCapError: basis dimension exceeds ``BOSONIC_FOCK_CAP`` or 20000.
        ValueError: ``BOSONIC_FOCK_CAP`` is set but not a positive integer.
        FockTraceError: the block's trace is NaN or exceeds 1 by more
            than ``_rounding_slack`` (``_checked_trace``, with no floor).
    """
    cutoff = check_cutoff(cutoff)
    dim = _check_dimension(state.modes, cutoff)
    require_valid(state)
    n = state.modes
    tables = _basis_tables(n, cutoff)

    c0, f_mat, u_vec = _kernel_data(state)
    kind = _sector(f_mat, u_vec)
    whole, number = kind == "whole", kind == "number"
    layout = _layout(n, cutoff, kind)

    data = np.zeros(layout.offsets[-1], dtype=complex)
    blocks = _views(data, layout)
    blocks[0][0, 0] = c0
    cols = np.arange(dim)[layout.members[0]][1:]
    if cols.size:
        row = _row_zero(c0, f_mat[n:, n:], u_vec[n:], cols, tables)
        blocks[0][0] = np.array(row)[layout.members[0]]

    # per row a, with j = first[a]: the local row of prev = a - e_j it
    # recurses from, its divisor sqrt(occ_a[j]), u_j and F[j, :], and per
    # mode i the coefficient F[j, i] sqrt(occ_prev[i]) and the local row of
    # prev - e_i its bra-bra term reads (0.0 times the vacuum's row, or a's
    # own row, where mode i of prev is empty)
    u_rows = u_vec[tables.first][:, None]
    f_rows = f_mat[tables.first]
    prev_pos, div = layout.prev_pos, tables.div
    bra = [((f_rows[:, i] * tables.sqrt_prev[i])[:, None], layout.bra_pos[i])
           for i in range(n)]

    def terms(rows, target, source, ket, sqrt_cnt):
        """The row-by-row recursion's terms for the rows ``rows`` of one
        shell on the columns of their sector block ``target``, reading the
        rows they recurse from in ``source``, in the row-by-row order and
        with its left operands; the terms the sector makes exactly 0.0 are
        left out."""
        if whole:
            above = source.take(prev_pos[rows], axis=0)
            yield u_rows[rows] * above
        else:  # a last column of 0.0, which the ket index -1 reads
            above = np.zeros((rows.stop - rows.start, source.shape[1] + 1), dtype=complex)
            source.take(prev_pos[rows], axis=0, out=above[:, :-1], mode="clip")
        for i in range(n):
            if not number:
                coef, src = bra[i]
                term = target.take(src[rows], axis=0)
                yield np.multiply(coef[rows], term, out=term)
            term = above.take(ket[i], axis=1)
            np.multiply(sqrt_cnt[i], term, out=term)
            yield np.multiply(f_rows[rows, n + i, None], term, out=term)

    # the other rows one shell at a time: rows of total k read rows of
    # totals k - 1 and k - 2 only, and the shell's own rows are still 0.0;
    # a row reads no other row of its shell, so a shell runs in row steps
    # of at most _TILE^2 entries per term
    bounds = tables.starts.tolist()
    for k in range(1, cutoff + 1):
        sector, local_rows = layout.rows[k]
        target, source = blocks[sector], blocks[layout.rows[k - 1][0]]
        step, shift = max(1, _TILE**2 // target.shape[1]), local_rows.start - bounds[k]
        for lo in range(bounds[k], bounds[k + 1], step):
            rows = slice(lo, min(lo + step, bounds[k + 1]))
            shell = terms(rows, target, source, layout.ket_pos[sector], layout.sqrt_cnt[sector])
            acc = next(shell)
            for term in shell:
                acc += term
            acc /= div[rows]
            target[rows.start + shift:rows.stop + shift] = acc

    _symmetrize(data, layout)
    return _checked_trace(_built(data, n, cutoff, kind))


def _rounding_slack(*blocks: FockMatrix) -> float:
    """The numerical term of a certified distance between raw ``blocks`` on
    one basis, and for one block the block-trace rule's slack: 2 dim ulp, the
    eigensolve's (backward stable, residual ~ dim ulp ||diff||), plus what
    each vacuum entry C exceeds 1 by.  C tops 1 only on a covariance that the
    validity test accepts below the vacuum, by its tolerance or by rounding,
    whose cutoff-0 block (trace C) no density operator has."""
    slack = float(basis_dimension(blocks[0].modes, blocks[0].cutoff) * np.finfo(float).eps * 2.0)
    for block in blocks:
        vacuum = block._data.reshape(-1)[_layout(block.modes, block.cutoff, block.sector).diag[0]]
        slack += max(0.0, float(vacuum.real) - 1.0)
    return slack


def _checked_trace(block: FockMatrix, floor: float = -math.inf) -> FockMatrix:
    """``block`` if its trace lies in [``floor``, 1] up to ``_rounding_slack``,
    the block-trace rule; ``FockTraceError`` otherwise, a NaN trace included."""
    trace = block.trace
    slack = _rounding_slack(block)
    if floor - slack <= trace <= 1.0 + slack:
        return block
    raise FockTraceError(
        f"Fock block trace {trace!r} is not a number" if math.isnan(trace) else
        f"Fock block trace {trace!r} exceeds 1 by more than its rounding slack {slack!r}; "
        "the block is not a truncation of a density operator" if trace > 1.0 else
        f"Fock block trace {trace!r} falls below 1 - tail bound = {floor!r} by more "
        f"than its rounding slack {slack!r}; the block misses weight the tail cannot hold"
    )


def _regrouped(block: FockMatrix, kind: str) -> np.ndarray:
    """A buffer laid out by the sectors of ``kind``, coarser than the sector
    of the built ``block``, holding each sector block of ``block`` where
    ``kind`` keeps those indices and 0.0 elsewhere."""
    src = _layout(block.modes, block.cutoff, block.sector)
    dst = _layout(block.modes, block.cutoff, kind)
    data = np.zeros(dst.offsets[-1], dtype=block._data.dtype)
    data[dst.diag[src.alone]] = block._data[src.diag[src.alone]]
    targets = _views(data, dst)
    indices = np.arange(src.label.size)
    for members, sub in zip(src.members, _views(block._data, src)):
        if sub.shape[0] > 1:
            idx = indices[members]
            at = dst.pos[idx]
            targets[dst.label[idx[0]]][np.ix_(at, at)] = sub
    return data


def sector_pair(a: FockMatrix, b: FockMatrix) -> tuple[tuple[np.ndarray, list[np.ndarray]], ...]:
    """Two built blocks on one basis, each split by the coarser of their two
    sectors, the finer block regrouped into it.

    Per block, returns the diagonal entries of the sectors of one index, in
    basis order, and the square blocks of the larger sectors, in sector
    order: photon number k ascending, even before odd.  Every entry of a
    block outside them is exactly 0.0.

    Raises:
        ValueError: a block is not a ``FockMatrix`` (a plain array, say),
            or the blocks live on different bases.
    """
    for name, block in (("first", a), ("second", b)):
        if not isinstance(block, FockMatrix):
            raise ValueError(f"{name} block was not built by fock_matrix_elements: "
                             "only built blocks carry the sector the distance splits by")
    if (a.modes, a.cutoff) != (b.modes, b.cutoff):
        raise ValueError(
            f"blocks live on different bases: (modes {a.modes}, cutoff {a.cutoff}) "
            f"and (modes {b.modes}, cutoff {b.cutoff})"
        )
    kind = max(a.sector, b.sector, key=SECTORS.index)
    layout = _layout(a.modes, a.cutoff, kind)

    def split(block):
        data = block._data if block.sector == kind else _regrouped(block, kind)
        return (data[layout.diag[layout.alone]],
                [sub for sub in _views(data, layout) if sub.shape[0] > 1])

    return split(a), split(b)


def truncate_normalize(fock: FockMatrix) -> FockMatrix:
    """Rescale the truncated block to unit trace, keeping its sector: one
    division of a copy of the stored entries; ``fock`` is left as it is."""
    return _normalized(_built(fock._data.copy(), fock.modes, fock.cutoff, fock.sector))


def _normalized(fock: FockMatrix) -> FockMatrix:
    """``fock`` itself, divided by its trace in place: ``x /= t`` gives the
    bits of ``x / t``."""
    tr = fock.trace
    if not tr > 0.0:  # a NaN trace fails as well
        raise ValueError(f"cannot normalize trace {tr}")
    np.divide(fock._data, tr, out=fock._data)
    return fock


def beam_splitter_fock_coeffs(i: int, j: int, transmissivity: float) -> np.ndarray:
    """Fock coefficients of a beam splitter acting on |i, j>.

    Entry m is the amplitude of |i+j-m, m> in U |i, j>, for m = 0 .. i+j:

        c_m = sum_k (-1)^k sqrt(m! (i+j-m)! / (i! j!)) C(i,k) C(j,m-k)
              * lam^((i+m-2k)/2) * (1-lam)^((j+2k-m)/2)

    The coefficient vector has unit norm.
    """
    if i < 0 or j < 0:
        raise ValueError(f"occupations must be >= 0, got ({i}, {j})")
    lam = check_transmissivity(transmissivity)
    mu = 1.0 - lam
    out = np.zeros(i + j + 1)
    for m in range(i + j + 1):
        scale = math.sqrt(
            math.factorial(m) * math.factorial(i + j - m)
            / (math.factorial(i) * math.factorial(j))
        )
        acc = 0.0
        for k in range(max(0, m - j), min(i, m) + 1):
            acc += (
                (-1.0) ** k
                * math.comb(i, k)
                * math.comb(j, m - k)
                * lam ** ((i + m - 2 * k) / 2.0)
                * mu ** ((j + 2 * k - m) / 2.0)
            )
        out[m] = scale * acc
    return out


# ---------------------------------------------------------------------------
# JSON export


def fock_to_dict(fock: FockMatrix) -> dict:
    """Serialize to {"modes", "cutoff", "entries"}; entries are row-major
    [re, im] pairs."""
    flat = fock.matrix.reshape(-1)
    return {
        "modes": fock.modes,
        "cutoff": fock.cutoff,
        "entries": [[float(z.real), float(z.imag)] for z in flat],
    }
