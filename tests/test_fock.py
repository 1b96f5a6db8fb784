"""Fock-basis matrix elements against exact analytic families."""

import json
import math

import numpy as np
import pytest

import bosonic as b
from bosonic import fock, tracedist
from conftest import (
    interleave,
    photon_distribution,
    random_orthogonal_symplectic,
    random_state,
    numpy_scalar_row_zero,
    random_symplectic,
    rowwise_fock_matrix,
    sector_block,
)


def test_basis_enumeration():
    basis = b.enumerate_basis(2, 2)
    assert len(basis) == b.basis_dimension(2, 2) == 6
    totals = [sum(t) for t in basis]
    assert totals == sorted(totals)  # graded by total photon number
    assert basis[0] == (0, 0)
    # one-mode case is the integer ladder
    assert b.enumerate_basis(1, 3) == [(0,), (1,), (2,), (3,)]
    # the sector view follows from (modes, cutoff) without the tuples
    for modes, cutoff in [(1, 3), (2, 2), (3, 4), (2, 0)]:
        block = b.fock_matrix_elements(b.vacuum_state(modes), cutoff)
        assert list(block.totals) == [sum(occ) for occ in b.enumerate_basis(modes, cutoff)]


def test_vacuum_matrix():
    f = b.fock_matrix_elements(b.vacuum_state(), 3)
    expect = np.zeros((4, 4))
    expect[0, 0] = 1.0
    assert np.allclose(f.matrix, expect, atol=1e-14)


def test_thermal_matrix_exact():
    f = b.fock_matrix_elements(b.thermal_state(1.0), 2)
    assert np.array_equal(np.diag(f.matrix).real, [0.5, 0.25, 0.125])
    assert np.max(np.abs(f.matrix - np.diag(np.diag(f.matrix)))) == 0.0
    n_mean = 2.5
    f2 = b.fock_matrix_elements(b.thermal_state(n_mean), 20)
    for k in range(21):
        expect = n_mean**k / (n_mean + 1.0) ** (k + 1)
        assert f2.matrix[k, k].real == pytest.approx(expect, rel=1e-13)


def test_coherent_matrix_poisson():
    coh = b.apply_transform(b.vacuum_state(), b.displacement([math.sqrt(2.0), 0.0]))
    f = b.fock_matrix_elements(coh, 12)
    for k in range(13):
        assert f.matrix[k, k].real == pytest.approx(math.exp(-1.0) / math.factorial(k), abs=1e-14)
    # rank one: <k|rho|l> = sqrt(p_k p_l) for real amplitude
    for k in range(13):
        for l in range(13):
            expect = math.exp(-1.0) / math.sqrt(math.factorial(k) * math.factorial(l))
            assert f.matrix[k, l].real == pytest.approx(expect, abs=1e-13)


def test_tmsv_matrix_exact():
    f = b.fock_matrix_elements(b.tmsv_state(1.0), 4)
    basis = b.enumerate_basis(f.modes, f.cutoff)
    for i, ka in enumerate(basis):
        for j, kb in enumerate(basis):
            expect = 0.0
            if ka[0] == ka[1] and kb[0] == kb[1]:
                expect = 2.0 ** (-(ka[0] + kb[0]) / 2.0 - 1.0)
            assert abs(f.matrix[i, j] - expect) < 1e-12


def test_trace_is_one_minus_tail():
    st = b.thermal_state(1.0)
    f = b.fock_matrix_elements(st, 30)
    exact_tail = 0.5 ** 31
    assert f.trace == pytest.approx(1.0 - exact_tail, abs=1e-13)


@pytest.mark.filterwarnings("error")
def test_kernel_norm_past_the_det_overflow():
    # det((V + 1) / 2) = prod (N_j + 1)^2 = 1e360 overflows; the slogdet route
    # gives the vacuum entry prod 1 / (N_j + 1), with no numpy warning
    photons = [1e60, 2e60, 5e59]
    state = b.tensor([b.thermal_state(nj) for nj in photons])
    want = math.prod(1.0 / (nj + 1.0) for nj in photons)
    assert b.fock_matrix_elements(state, 0).trace == pytest.approx(want, rel=1e-12, abs=0.0)


def test_truncate_normalize():
    f = b.fock_matrix_elements(b.thermal_state(1.0), 2)
    g = b.truncate_normalize(f)
    assert g.trace == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(np.diag(g.matrix).real, np.array([4.0, 2.0, 1.0]) / 7.0, rtol=1e-15)


def test_fock_overlap_matches_gaussian_overlap():
    # Tr[rho sigma] from truncated blocks agrees within the two tail bounds
    a = b.thermal_state(0.8)
    c = b.thermal_state(1.7)
    cutoff = 60
    fa = b.fock_matrix_elements(a, cutoff)
    fc = b.fock_matrix_elements(c, cutoff)
    fock_val = float(np.real(np.sum(fa.matrix * fc.matrix.T)))
    exact = b.gaussian_overlap(a, c)
    slack = b.tail_bound_optimized(a, cutoff).bound + b.tail_bound_optimized(c, cutoff).bound
    assert abs(fock_val - exact) <= slack + 1e-12


def test_displaced_two_mode_state():
    # displacement on one arm only shifts that arm's marginal statistics
    st = b.apply_transform(
        b.tensor([b.vacuum_state(), b.vacuum_state()]),
        b.displacement([1.0, 0.0]), modes=[1])
    f = b.fock_matrix_elements(st, 6)
    basis = b.enumerate_basis(f.modes, f.cutoff)
    idx = {t: i for i, t in enumerate(basis)}
    for k in range(7):
        expect = math.exp(-0.5) * 0.5**k / math.factorial(k)
        assert f.matrix[idx[(0, k)], idx[(0, k)]].real == pytest.approx(expect, abs=1e-13)


def test_hermiticity_and_psd_of_output():
    st = b.GaussianState(np.array([0.3, -0.2]), 2.2 * np.eye(2))
    f = b.fock_matrix_elements(st, 25)
    assert np.allclose(f.matrix, f.matrix.T.conj(), atol=1e-14)
    evals = np.linalg.eigvalsh(f.matrix)
    assert evals.min() >= -1e-12


@pytest.mark.parametrize("modes,cutoff", [(1, 20), (2, 8), (3, 4)])
def test_trace_matches_exact_photon_distribution(modes, cutoff):
    # mixed, squeezed, displaced and (for 2-3 modes) actively mixed states
    rng = np.random.default_rng(100 + modes)
    for _ in range(6):
        st = random_state(rng, modes)
        exact = float(np.sum(photon_distribution(st)[: cutoff + 1]))
        assert b.fock_matrix_elements(st, cutoff).trace == pytest.approx(exact, abs=1e-12)


@pytest.mark.parametrize("modes,cutoff", [(2, 6), (3, 3)])
def test_block_distance_invariant_under_passive_unitary(modes, cutoff):
    # a passive unitary keeps the total photon number, so it acts unitarily
    # on the truncated space and leaves the distance between blocks unchanged
    rng = np.random.default_rng(200 + modes)

    def distance(x, y):
        return b.finite_trace_distance(
            b.truncate_normalize(b.fock_matrix_elements(x, cutoff)),
            b.truncate_normalize(b.fock_matrix_elements(y, cutoff)))

    for _ in range(4):
        x, y = random_state(rng, modes), random_state(rng, modes)
        rot = b.Transform(random_orthogonal_symplectic(rng, modes), np.zeros(2 * modes))
        turned = distance(b.apply_transform(x, rot), b.apply_transform(y, rot))
        assert turned == pytest.approx(distance(x, y), abs=1e-12)


def test_beam_splitter_coeffs_single_photon_reduction():
    # j = 0 column: U|n,0> = sum_l (-1)^l sqrt(C(n,l)) lam^{(n-l)/2} (1-lam)^{l/2} |n-l,l>
    for lam in (0.3, 0.7):
        for n in range(11):
            coeffs = b.beam_splitter_fock_coeffs(n, 0, lam)
            assert len(coeffs) == n + 1
            for m, c in enumerate(coeffs):
                expect = ((-1.0) ** m * math.sqrt(math.comb(n, m))
                          * lam ** ((n - m) / 2.0) * (1.0 - lam) ** (m / 2.0))
                assert c == pytest.approx(expect, abs=1e-10)


def test_beam_splitter_coeffs_unitary_rows():
    lam = 0.42
    for i, j in ((2, 3), (4, 1), (5, 5)):
        coeffs = np.array(b.beam_splitter_fock_coeffs(i, j, lam))
        assert np.sum(coeffs**2) == pytest.approx(1.0, abs=1e-12)
    # orthogonality within a fixed total photon number
    va = np.array(b.beam_splitter_fock_coeffs(3, 2, lam))
    vb = np.array(b.beam_splitter_fock_coeffs(2, 3, lam))
    assert float(va @ vb) == pytest.approx(0.0, abs=1e-12)


def test_dimension_cap(monkeypatch):
    with pytest.raises(b.DimensionCapError):
        b.fock_matrix_elements(b.tmsv_state(1.0), 300)
    monkeypatch.setenv("BOSONIC_FOCK_CAP", "10")
    with pytest.raises(b.DimensionCapError):
        b.fock_matrix_elements(b.thermal_state(1.0), 30)
    monkeypatch.setenv("BOSONIC_FOCK_CAP", "100000")
    b.fock_matrix_elements(b.thermal_state(1.0), 30)  # now allowed


def test_fock_serialization_roundtrip():
    # row-major [re, im] pairs at 17 digits rebuild the block bit for bit;
    # the package writes these payloads (tracedist --dump-fock) and reads none
    f = b.fock_matrix_elements(b.tmsv_state(0.5), 3)
    d = json.loads(json.dumps(b.fock_to_dict(f)))
    assert (d["modes"], d["cutoff"]) == (f.modes, f.cutoff)
    back = np.array(d["entries"], dtype=float).view(complex).reshape(f.matrix.shape)
    assert np.array_equal(back, f.matrix)


def test_invalid_state_for_fock():
    bad = b.GaussianState(np.zeros(2), 0.2 * np.eye(2))
    with pytest.raises((ValueError, RuntimeError)):
        b.fock_matrix_elements(bad, 5)


def test_fock_matrix_shape_checked_on_construction():
    # only the build makes blocks, so a block always fits its basis: one mode
    # at cutoff 5 is 6-dimensional, and no array of another shape gets in
    built = b.fock_matrix_elements(b.vacuum_state(), 5)
    assert built.matrix.shape == (6, 6)
    assert b.truncate_normalize(built).matrix.shape == (6, 6)
    for args, kwargs in [((np.eye(4) / 4,), {"modes": 1, "cutoff": 5}),
                         ((np.ones((6, 5)), 1, 5), {}),
                         ((built.matrix,), {"modes": 1, "cutoff": 5, "sector": "number"})]:
        with pytest.raises(TypeError, match="not by hand"):
            b.FockMatrix(*args, **kwargs)


# ---------------------------------------------------------------------------
# shell-by-shell, sector-restricted build against the row-by-row oracle

#: family -> the sector its kernel data select on two or more modes
_SECTORS = {
    "thermal": "number",
    "real passive": "number",
    "complex passive": "parity",
    "active": "parity",
    "displaced": "whole",
    "pure": "whole",
}


def _family_state(family: str, modes: int, seed: int = 0) -> b.GaussianState:
    """A state of ``family`` on ``modes`` modes, thermal at unequal
    temperatures where it is mixed."""
    rng = np.random.default_rng([modes, len(family), seed])
    thermal = np.diag(np.repeat(1.0 + (1 + seed) * np.linspace(0.4, 1.6, modes), 2))
    if family == "real passive":
        q, _ = np.linalg.qr(rng.normal(size=(modes, modes)))
        s = interleave(np.kron(np.eye(2), q))
    elif family == "complex passive":
        s = random_orthogonal_symplectic(rng, modes)
    elif family == "active":
        s = random_symplectic(rng, modes)
    else:
        s = np.eye(2 * modes)
    if family in ("displaced", "pure"):
        return random_state(rng, modes, pure=family == "pure")
    return b.GaussianState(np.zeros(2 * modes), s @ thermal @ s.T)


_BUILDS = [(family, modes, cutoff) for family in _SECTORS for modes in (1, 2, 3)
           for cutoff in (0, 1, 4, {1: 25, 2: 22, 3: 11}[modes])]  # dims 276, 364 > fock._TILE


@pytest.mark.parametrize("family,modes,cutoff", _BUILDS)
def test_shell_build_matches_rowwise_oracle(family, modes, cutoff):
    st = _family_state(family, modes)
    built = b.fock_matrix_elements(st, cutoff)
    # the block stores its sectors alone: 16 bytes per entry of each shell
    # tile, of the even and the odd block, or of the whole basis
    shells = [math.comb(k + modes - 1, modes - 1) for k in range(cutoff + 1)]
    entries = {"number": sum(d * d for d in shells),
               "parity": sum(shells[0::2]) ** 2 + sum(shells[1::2]) ** 2,
               "whole": sum(shells) ** 2}[built.sector]
    assert built._data.nbytes == 16 * entries
    # the oracle computes the entries outside the sector too: they must be
    # exact zeros (of either sign), which the assembled block holds as 0.0
    want = rowwise_fock_matrix(st, cutoff)
    totals = built.totals
    label = {"number": totals, "parity": totals % 2, "whole": 0 * totals}[built.sector]
    outside = label[:, None] != label
    assert np.all(want[outside] == 0.0)
    want[outside] = 0.0
    assert built.matrix.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", list(_SECTORS))
@pytest.mark.parametrize("modes,cutoff", [(2, 9), (3, 6)])
def test_row_steps_and_small_tiles_leave_every_entry_unchanged(family, modes, cutoff,
                                                                monkeypatch):
    # at fock._TILE = 2..4 a shell runs in steps of max(1, _TILE^2 // width)
    # rows, one row at a time for the most part, and the symmetrization in
    # tiles of 2..4: the same products summed in the same order
    st = _family_state(family, modes)
    want = b.fock_matrix_elements(st, cutoff)
    assert want.sector == _SECTORS[family]
    for tile in (2, 3, 4):
        monkeypatch.setattr(fock, "_TILE", tile)
        got = b.fock_matrix_elements(st, cutoff)
        assert got._data.tobytes() == want._data.tobytes(), tile


def _row_zero_columns(kind: str, tables) -> np.ndarray:
    """The columns of row 0 the recursion fills: none in a photon-number
    block, the even totals in a parity block, all in the whole basis; never 0."""
    totals = np.repeat(np.arange(tables.starts.size - 1), np.diff(tables.starts))
    keep = {"number": totals == 0, "parity": totals % 2 == 0}.get(kind, totals >= 0)
    return np.flatnonzero(keep)[1:]


@pytest.mark.parametrize("family", list(_SECTORS))
@pytest.mark.parametrize("modes", [1, 2, 3])
def test_row_zero_bit_equal_to_numpy_scalar_loop(family, modes, monkeypatch):
    # the Python-scalar row 0 is the numpy-scalar row 0, signs of zeros
    # included, and so is every block built on it
    for seed in (0, 1):
        st = _family_state(family, modes, seed)
        c0, f_mat, u_vec = fock._kernel_data(st)
        kind = fock._sector(f_mat, u_vec)
        for cutoff in range(15):
            tables = fock._basis_tables(modes, cutoff)
            cols = _row_zero_columns(kind, tables)
            got = np.array(fock._row_zero(c0, f_mat[modes:, modes:], u_vec[modes:], cols, tables))
            want = numpy_scalar_row_zero(c0, f_mat, u_vec, cols, tables)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (seed, cutoff)
        for cutoff in (1, 6, 14):
            fast = b.fock_matrix_elements(st, cutoff).matrix
            with monkeypatch.context() as patch:
                patch.setattr(fock, "_row_zero", lambda c0, f_ket, u_ket, cols, tables:
                              numpy_scalar_row_zero(c0, f_mat, u_vec, cols, tables))
                slow = b.fock_matrix_elements(st, cutoff).matrix
            assert np.array_equal(fast.view(np.uint64), slow.view(np.uint64)), (seed, cutoff)


@pytest.mark.parametrize("family", list(_SECTORS))
@pytest.mark.parametrize("modes", [1, 2, 3])
def test_sector_of_each_family_and_its_exact_zeros(family, modes):
    st = _family_state(family, modes)
    _, f_mat, u_vec = fock._kernel_data(st)
    kind = fock._sector(f_mat, u_vec)
    if modes > 1 or family not in ("complex passive", "active"):
        assert kind == _SECTORS[family]
    else:
        # one mode: a phase turn of a thermal state may round to number
        assert kind in ("number", "parity")
    block = b.fock_matrix_elements(st, 6 if modes < 3 else 4)
    assert block.sector == kind and b.truncate_normalize(block).sector == kind
    totals = block.totals
    label = {"number": totals, "parity": totals % 2, "whole": np.zeros_like(totals)}[kind]
    outside = label[:, None] != label
    assert np.all(block.matrix[outside] == 0.0)
    if kind != "whole":  # the exact zeros are the kernel's, not the build's
        assert np.all(rowwise_fock_matrix(st, block.cutoff)[outside] == 0.0)
    # paired with a block of its own sector or a coarser one, in either
    # order, the block splits by the coarser sector into the dense one and
    # its all-0.0 partner into the 0.0s: the sectors of one index by the
    # diagonal, the others as squares
    dense, zeros = block.matrix, np.zeros_like(block.matrix)
    for coarser in fock.SECTORS[fock.SECTORS.index(kind):]:
        label = {"number": totals, "parity": totals % 2, "whole": 0 * totals}[coarser]
        sizes = np.bincount(label)
        single = np.flatnonzero(sizes[label] == 1)
        members = [label == s for s in np.flatnonzero(sizes > 1)]
        partner = sector_block(zeros, modes, block.cutoff, coarser)
        for splits in (fock.sector_pair(block, partner), fock.sector_pair(partner, block)[::-1]):
            for (alone, squares), matrix in zip(splits, (dense, zeros)):
                assert alone.tobytes() == matrix[single, single].tobytes()
                assert [sq.tobytes() for sq in squares] == [matrix[np.ix_(m, m)].tobytes()
                                                             for m in members]


@pytest.mark.parametrize("family", list(_SECTORS))
def test_trace_distance_bit_equal_to_rowwise_build(family, monkeypatch):
    x, y = _family_state(family, 2), _family_state(family, 2, seed=1)
    fast = tracedist.gaussian_trace_distance(x, y, 1e-3)

    def rowwise(state, cutoff):
        # store the row-by-row block by the sector the kernel data select,
        # so that both pairs take the same split
        kind = fock._sector(*fock._kernel_data(state)[1:])
        return sector_block(rowwise_fock_matrix(state, cutoff), state.modes, cutoff, kind)

    monkeypatch.setattr(tracedist, "fock_matrix_elements", rowwise)
    slow = tracedist.gaussian_trace_distance(x, y, 1e-3)
    assert fast == slow  # estimate, certificate, cutoff and tails, bit for bit


def test_kernel_constants_cached_and_read_only():
    fock._kernel_constants.cache_clear()
    b.gaussian_trace_distance(b.thermal_state(0.3), b.thermal_state(0.5), 1e-3)
    info = fock._kernel_constants.cache_info()
    assert info.misses == 1 and info.hits >= 1  # both kernels of the pair
    r, exchange = fock._kernel_constants(2)
    assert r.shape == (4, 4) and exchange.shape == (4, 4)
    for table in (r, exchange):
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 1


def test_basis_tables_cached_and_read_only(monkeypatch):
    monkeypatch.setattr(fock, "_TABLES", {})
    fock._layout.cache_clear()
    builds = []
    build = fock._build_tables
    monkeypatch.setattr(fock, "_build_tables", lambda *args: builds.append(args) or build(*args))
    b.gaussian_trace_distance(b.thermal_state(0.3), b.thermal_state(0.5), 1e-3)
    # the first block builds the tables; the second block, its layout and
    # the sector split of the trace distance reuse them
    assert len(builds) == 1
    tables = fock._basis_tables(2, 5)
    assert [t.shape for t in tables] == [(2, 21), (2, 21), (21,), (7,), (21,), (21, 1),
                                         (2, 21), (2, 21), (21,)]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1
    # each kind's local index tables live in its layout, read-only too
    for kind in fock.SECTORS:
        layout = fock._layout(2, 5, kind)
        assert [t.shape for t in (layout.label, layout.pos, layout.prev_pos, layout.bra_pos)] == [
            (21,), (21,), (21,), (2, 21)]
        assert sum(t.shape[1] for t in layout.ket_pos) == 21
        for table in (layout.label, layout.pos, layout.prev_pos, layout.bra_pos, *layout.ket_pos):
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = 1
    assert builds[1:] == [(2, 5)]  # the layouts read the tables, not a build of their own


def _fresh_tables(modes: int, cutoff: int) -> list[np.ndarray]:
    """The fields of ``fock._BasisTables`` straight from the enumerated basis."""
    basis = b.enumerate_basis(modes, cutoff)
    index = {occ: k for k, occ in enumerate(basis)}
    lower = np.array([[index.get(occ[:i] + (occ[i] - 1,) + occ[i + 1:], 0) for occ in basis]
                      for i in range(modes)])
    sqrt_cnt = np.sqrt(np.array(basis, dtype=float).T)
    first = np.array([next((i for i, c in enumerate(occ) if c), 0) for occ in basis])
    starts = np.array([sum(sum(occ) < k for occ in basis) for k in range(cutoff + 2)])
    prev = lower[first, np.arange(len(basis))]
    div = sqrt_cnt[first, np.arange(len(basis))][:, None]
    totals = np.array([sum(occ) for occ in basis])
    return [lower, sqrt_cnt, first, starts, prev, div, sqrt_cnt[:, prev], lower[:, prev], totals]


#: the sector of an occupation, per kind of sector
_SECTOR_OF = {"number": lambda occ: sum(occ), "parity": lambda occ: sum(occ) % 2,
              "whole": lambda occ: 0}


def _fresh_local_tables(modes: int, cutoff: int, kind: str) -> list[np.ndarray]:
    """``label``, ``pos``, ``prev_pos``, ``bra_pos`` and ``ket_pos`` (all
    members' columns, in basis order) of the ``kind`` layout, straight from
    the enumerated basis: the sector of each occupation and its rank there;
    a bra term reads prev - e_i, or its own row where that leaves the
    sector, and a ket term reads occ - e_i, or -1 where that is not in the
    sector of total(occ) - 1."""
    basis = b.enumerate_basis(modes, cutoff)
    lower, _, _, _, prev, *_ = _fresh_tables(modes, cutoff)
    of = _SECTOR_OF[kind]
    label = [of(occ) for occ in basis]
    rank = [sum(of(other) == of(occ) for other in basis[:k]) for k, occ in enumerate(basis)]
    bra = [[rank[lower[i, prev[a]]] if of(basis[lower[i, prev[a]]]) == of(occ) else rank[a]
            for a, occ in enumerate(basis)] for i in range(modes)]
    ket = [[rank[lower[i, c]] if of(basis[lower[i, c]]) == of((occ[0] - 1,) + occ[1:]) else -1
            for c, occ in enumerate(basis)] for i in range(modes)]
    return [np.array(label), np.array(rank), np.array(rank)[prev], np.array(bra), np.array(ket)]


@pytest.mark.parametrize("modes", [1, 2, 3])
def test_basis_tables_grow_and_serve_prefix_views(modes, monkeypatch):
    # one table per mode count, rebuilt only for a larger cutoff; every
    # cutoff asked for gets views equal to a fresh enumeration, read-only,
    # and a layout of each kind whose local tables equal one too
    monkeypatch.setattr(fock, "_TABLES", {})
    fock._layout.cache_clear()
    builds = []
    build = fock._build_tables
    monkeypatch.setattr(fock, "_build_tables", lambda *args: builds.append(args) or build(*args))
    for cutoff in (4, 0, 2, 9, 4, 9, 1, 12, 7):
        tables = fock._basis_tables(modes, cutoff)
        for got, want, full in zip(tables, _fresh_tables(modes, cutoff), fock._TABLES[modes]):
            assert got.dtype == want.dtype and np.array_equal(got, want), (cutoff, got, want)
            assert np.shares_memory(got, full)
            with pytest.raises(ValueError, match="read-only"):
                got[(0,) * got.ndim] = 1
        for kind in fock.SECTORS:
            layout = fock._layout(modes, cutoff, kind)
            ket = np.zeros((modes, tables.totals.size), dtype=layout.ket_pos[0].dtype)
            for members, cols in zip(layout.members, layout.ket_pos):
                ket[:, members] = cols
            got = [layout.label, layout.pos, layout.prev_pos, layout.bra_pos, ket]
            for got_t, want in zip(got, _fresh_local_tables(modes, cutoff, kind)):
                assert got_t.dtype == want.dtype and np.array_equal(got_t, want), (
                    cutoff, kind, got_t, want)
    assert builds == [(modes, 4), (modes, 9), (modes, 12)]
