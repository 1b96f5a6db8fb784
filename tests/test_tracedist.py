"""Certified trace distance: exact finite cases, thermal oracles, metric laws."""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref

import numpy as np
import pytest

import bosonic as b
from bosonic import fock, tracedist
from conftest import (
    fock_fidelity,
    gaussian_fidelity,
    interleave,
    random_orthogonal_symplectic,
    random_state,
    random_symplectic,
    scale_blocks,
    scanned_trace_distance,
)


def thermal_distance_oracle(n1: float, n2: float, terms: int = 6000) -> float:
    """Both states are diagonal in the Fock basis, so the distance is a
    half l1 norm of geometric distributions."""
    total = 0.0
    p, q = 1.0 / (n1 + 1.0), 1.0 / (n2 + 1.0)
    for _ in range(terms):
        total += abs(p - q)
        p *= n1 / (n1 + 1.0)
        q *= n2 / (n2 + 1.0)
    return total / 2.0


def test_finite_trace_distance_exact_case():
    # renormalized tau_1 truncation vs the vacuum projector
    t = b.truncate_normalize(b.fock_matrix_elements(b.thermal_state(1.0), 2))
    vac = b.fock_matrix_elements(b.vacuum_state(), 2)
    assert np.array_equal(vac.matrix, np.diag([1.0, 0.0, 0.0]))
    assert b.finite_trace_distance(t, vac) == pytest.approx(3.0 / 7.0, abs=1e-14)
    assert b.finite_trace_distance(t, t) == pytest.approx(0.0, abs=1e-15)


def test_finite_trace_distance_takes_built_blocks_only():
    # only fock_matrix_elements gives a block its sector, and no block is
    # made by hand; a plain array has no sector, however fit it is, and is refused
    built = b.fock_matrix_elements(b.tensor([b.thermal_state(0.5)] * 2), 1)
    assert built.sector == b.truncate_normalize(built).sector == "number"
    with pytest.raises(TypeError):
        b.FockMatrix(built.matrix.copy(), modes=2, cutoff=1)
    with pytest.raises(TypeError):
        b.FockMatrix(built.matrix, modes=2, cutoff=1, sector="number")
    for a, c, name in [(built.matrix, built.matrix, "first"), (built, built.matrix, "second"),
                       (built.matrix, built, "first")]:
        with pytest.raises(ValueError, match=f"^{name} block was not built by fock_matrix_elements"):
            b.finite_trace_distance(a, c)


@pytest.mark.parametrize("modes,cutoff", [(5, 1), (2, 3)])
def test_finite_trace_distance_rejects_blocks_on_different_bases(modes, cutoff):
    # (1, 5) against (5, 1) agree in dimension, 6, but not in basis
    a = b.fock_matrix_elements(b.vacuum_state(), 5)
    other = b.fock_matrix_elements(b.vacuum_state(modes), cutoff)
    with pytest.raises(ValueError, match=rf"\(modes 1, cutoff 5\) and \(modes {modes}, cutoff {cutoff}\)"):
        b.finite_trace_distance(a, other)


def _real_passive(rng, modes):
    """Beam-splitter network without phases: one orthogonal Q on x and on p."""
    q, _ = np.linalg.qr(rng.normal(size=(modes, modes)))
    return interleave(np.kron(np.eye(2), q))


#: the Gaussian unitary each family applies to a thermal product
_SECTOR_MAPS = {
    "real-passive": _real_passive,
    "complex-passive": random_orthogonal_symplectic,
    "active": random_symplectic,
}


def _sector_pair(family, modes, rng):
    """Two states of ``family``: zero-mean unless displaced or pure."""
    if family == "pure":
        return tuple(random_state(rng, modes, pure=True, max_squeeze=1.3, max_shift=0.5)
                     for _ in range(2))
    pair = []
    for _ in range(2):
        st = b.tensor([b.thermal_state(n) for n in rng.uniform(0.2, 0.8, size=modes)])
        sym = _SECTOR_MAPS[family](rng, modes) if family in _SECTOR_MAPS else np.eye(2 * modes)
        shift = rng.uniform(-0.5, 0.5, size=2 * modes) if family == "displaced" else np.zeros(2 * modes)
        pair.append(b.apply_transform(st, b.Transform(sym, shift)))
    return tuple(pair)


_SECTOR_CASES = [
    ("thermal", 1, "number"), ("thermal", 2, "number"), ("thermal", 3, "number"),
    ("real-passive", 2, "number"), ("real-passive", 3, "number"),
    ("complex-passive", 2, "parity"), ("complex-passive", 3, "parity"),
    ("active", 1, "parity"), ("active", 2, "parity"), ("active", 3, "parity"),
    ("displaced", 1, "whole"), ("displaced", 2, "whole"), ("displaced", 3, "whole"),
    ("pure", 1, "whole"), ("pure", 2, "whole"), ("pure", 3, "whole"),
]


@pytest.mark.parametrize("family,modes,partition", _SECTOR_CASES)
def test_sector_split_matches_dense_eigensolve(monkeypatch, family, modes, partition):
    # the eigensolve runs once per sector of more than one index; size-1
    # sectors are read off the diagonal
    cutoff = {1: 12, 2: 7, 3: 4}[modes]
    x, y = _sector_pair(family, modes, np.random.default_rng(300 + modes))
    fa, fb = (b.truncate_normalize(b.fock_matrix_elements(st, cutoff)) for st in (x, y))
    dim = fa.matrix.shape[0]
    sizes = []
    eigvalsh = np.linalg.eigvalsh

    def spy(m):
        sizes.append(m.shape[0])
        return eigvalsh(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    split = b.finite_trace_distance(fa, fb)
    totals = np.array([sum(occ) for occ in b.enumerate_basis(modes, cutoff)])
    expected = {
        "number": [s for s in np.bincount(totals) if s > 1],
        "parity": list(np.bincount(totals % 2)),
        "whole": [dim],
    }[partition]
    assert sizes == expected
    dense = float(np.sum(np.abs(np.linalg.eigvalsh(fa.matrix - fb.matrix)))) / 2.0
    assert sizes[len(expected):] == [dim]
    assert abs(split - dense) <= 2 * dim * np.finfo(float).eps


@pytest.mark.parametrize("family,modes,partition", _SECTOR_CASES)
def test_built_blocks_carry_their_sector_and_match_the_scan(family, modes, partition):
    # the build's sector, kept through the normalization, gives the partition
    # the zero scan of the whole difference found, and the same bits
    cutoff = {1: 12, 2: 7, 3: 4}[modes]
    x, y = _sector_pair(family, modes, np.random.default_rng(300 + modes))
    raw = [b.fock_matrix_elements(st, cutoff) for st in (x, y)]
    fa, fb = (b.truncate_normalize(block) for block in raw)
    assert [f.sector for f in (fa, fb)] == [f.sector for f in raw]
    assert {fa.sector, fb.sector} <= set(fock.SECTORS)
    coarser = max(fa.sector, fb.sector, key=fock.SECTORS.index)
    assert coarser == partition
    assert b.finite_trace_distance(fa, fb).hex() == scanned_trace_distance(fa, fb).hex()


def test_number_blocks_normalize_on_their_shells_only():
    # the entries outside the shells stay the 0.0 they were, with their bits;
    # truncate_normalize leaves its argument as it was
    raw = b.fock_matrix_elements(b.tensor([b.thermal_state(0.4), b.thermal_state(0.9)]), 9)
    assert raw.sector == "number"
    trace, dense = raw.trace, raw.matrix
    normalized = b.truncate_normalize(raw)
    assert (raw.trace, raw.matrix.tobytes()) == (trace, dense.tobytes())
    assert normalized.matrix.tobytes() == (dense / trace).tobytes()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_number_pair_peak_memory_holds_its_sectors_only():
    # a 2-mode photon-number pair at cutoff 70 (dim 2556): a dense block is
    # 104.5 MB and three are live at once while the pair is built and
    # normalized; by sector each block is 1.9 MB.  A fresh process reports
    # the peak resident set of its own address space, VmHWM: its ru_maxrss
    # would carry the peak of the test process it was forked from.
    code = textwrap.dedent("""
        import bosonic as b
        pair = [b.tensor([b.thermal_state(0.4), b.thermal_state(0.9)]),
                b.tensor([b.thermal_state(0.5), b.thermal_state(0.7)])]
        blocks = [b.truncate_normalize(b.fock_matrix_elements(st, 70)) for st in pair]
        assert [block.sector for block in blocks] == ["number"] * 2
        with open("/proc/self/status") as fh:
            peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
        print(b.finite_trace_distance(*blocks), peak)
    """)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(b.__file__)),
               OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    distance, peak_kib = out.stdout.split()
    assert 0.0 < float(distance) < 1.0
    assert int(peak_kib) * 1024 < 150e6


#: (shift, photons per mode) of the dim-969 whole-basis pair of the CI pin,
#: d3.json against e3.json
_WHOLE_969 = (([0.3, 0.1, -0.2, 0.0, 0.1, 0.2], [0.2, 0.3, 0.25]),
              ([0.0, 0.2, 0.1, -0.1, 0.0, 0.1], [0.25, 0.2, 0.3]))


def _displaced(shift, photons):
    return b.GaussianState(np.array(shift), np.diag(np.repeat(1.0 + 2.0 * np.array(photons), 2)))


def test_whole_basis_distance_holds_two_dense_blocks_and_small_temporaries():
    # a displaced 3-mode pair at dim 969: the two blocks, the difference
    # taken into the first and shell and symmetrization temporaries of at
    # most fock._TILE^2 = 128^2 entries peak at 2.12 dense blocks (2.32 with
    # tiles of 256^2).  Whole shells of terms read 2.69, a normalized copy
    # or a separate difference 3.04.  eigvalsh's own copy is allocated
    # outside numpy's tracked memory.
    x, y = (_displaced(*pair) for pair in _WHOLE_969)
    tracemalloc.start()
    try:
        res = b.gaussian_trace_distance(x, y, 3e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.fock_dim == 969
    assert peak <= 2.25 * 16 * res.fock_dim**2, peak / (16 * res.fock_dim**2)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_whole_basis_distance_raises_the_resident_peak_by_two_dense_blocks():
    # tracemalloc misses eigvalsh's LAPACK copy of the difference, which
    # used to land beside block b, kept alive by a view: the resident peak
    # rose 3.12 dense blocks above a dim-28 distance, 2.31 once b was freed
    # before the eigensolve, and rises 2.07 with fock._TILE = 128 (the
    # difference, eigvalsh's copy and its workspace).  A fresh process,
    # warmed up by the small distance, reads its VmHWM before and after the
    # dim-969 one.
    code = textwrap.dedent(f"""
        import numpy as np
        import bosonic as b

        def peak_kib():
            with open("/proc/self/status") as fh:
                return next(line.split()[1] for line in fh if line.startswith("VmHWM:"))

        x, y = (b.GaussianState(np.array(shift), np.diag(np.repeat(1.0 + 2.0 * np.array(n), 2)))
                for shift, n in {_WHOLE_969!r})
        small = b.gaussian_trace_distance(b.thermal_state(0.5), b.thermal_state(1.0), 1e-3)
        before = peak_kib()
        res = b.gaussian_trace_distance(x, y, 3e-4)
        print(small.fock_dim, res.fock_dim, before, peak_kib())
    """)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(b.__file__)),
               OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    small_dim, dim, before, after = map(int, out.stdout.split())
    assert (small_dim, dim) == (28, 969)
    blocks = (after - before) * 1024 / (16 * dim**2)
    assert blocks <= 2.2, blocks


def _lifetime_pair(kind):
    """A pair whose shared sector is whole, parity, or parity with the
    second block (a thermal product, split by photon number) regrouped."""
    if kind == "whole":
        return _sector_pair("displaced", 2, np.random.default_rng(302))
    if kind == "parity":
        return b.tmsv_state(0.3), b.tmsv_state(0.2)
    return b.tmsv_state(0.3), b.tensor([b.thermal_state(0.4), b.thermal_state(0.6)])


def _root(array):
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


@pytest.mark.parametrize("kind", ["whole", "parity", "regrouped"])
def test_second_block_is_freed_before_the_eigensolve(monkeypatch, kind):
    # every buffer that sector_pair hands out for block b -- its own, or
    # the copy it regroups b into -- is gone when the eigensolve starts, so
    # eigvalsh's copy of the difference is the second dense block alive
    x, y = _lifetime_pair(kind)
    expected = b.gaussian_trace_distance(x, y, 1e-3)
    split, solve, handed = tracedist.sector_pair, tracedist._half_trace_norm, []

    def spy_split(block_a, block_b):
        splits = split(block_a, block_b)
        for block, (alone, blocks) in zip((block_a, block_b), splits):
            handed.append((block.sector, [weakref.ref(_root(a)) for a in [alone, *blocks]]))
        return splits

    def spy_solve(alone, blocks):
        (_, refs_a), (sector_b, refs_b) = handed
        assert sector_b == {"whole": "whole", "parity": "parity", "regrouped": "number"}[kind]
        assert len(refs_b) > 1 and all(ref() is None for ref in refs_b)
        assert any(ref() is not None for ref in refs_a)
        return solve(alone, blocks)

    monkeypatch.setattr(tracedist, "sector_pair", spy_split)
    monkeypatch.setattr(tracedist, "_half_trace_norm", spy_solve)
    assert b.gaussian_trace_distance(x, y, 1e-3) == expected
    assert len(handed) == 2


def test_finite_distance_and_normalization_leave_their_arguments_alone():
    # blocks of each sector, compared as they are and regrouped into the
    # coarser sector of the other: no argument buffer changes
    rng = np.random.default_rng(5)
    states = [_sector_pair(family, 2, rng)[0] for family in ("thermal", "complex-passive",
                                                             "displaced")]
    blocks = [b.fock_matrix_elements(st, 6) for st in states]
    assert [block.sector for block in blocks] == list(fock.SECTORS)
    blocks += [b.truncate_normalize(block) for block in blocks]
    saved = [block._data.tobytes() for block in blocks]
    for x in blocks:
        for y in blocks:
            assert 0.0 <= b.finite_trace_distance(x, y) <= 1.0
    assert [block._data.tobytes() for block in blocks] == saved


def test_nan_block_traces_rejected(monkeypatch):
    nan_block = fock._built(np.full(4, math.nan, dtype=complex), 1, 1, "whole")
    with pytest.raises(ValueError, match="cannot normalize trace nan"):
        b.truncate_normalize(nan_block)
    # a NaN trace fails the build's check and the check against 1 - tail
    monkeypatch.setattr(tracedist, "fock_matrix_elements", lambda state, cutoff: nan_block)
    with pytest.raises(b.FockTraceError, match="trace nan is not a number"):
        b.gaussian_trace_distance(b.thermal_state(0.5), b.thermal_state(1.0), 0.9)
    monkeypatch.undo()
    scale_blocks(monkeypatch, math.nan)
    with pytest.raises(b.FockTraceError, match="trace nan is not a number"):
        b.fock_matrix_elements(b.thermal_state(0.5), 3)


@pytest.mark.parametrize("modes,pure", [(1, True), (2, False)])
def test_undecoupled_estimate_is_bitwise_the_dense_eigensolve(modes, pure):
    # a displaced pair couples every parity, so the one-sector path must
    # return exactly what the dense eigensolve of the whole difference does
    rng = np.random.default_rng(17 + modes)
    x, y = (random_state(rng, modes, pure=pure, max_squeeze=1.3, max_shift=0.6)
            for _ in range(2))
    res = b.gaussian_trace_distance(x, y, 1e-3)
    diff = (b.truncate_normalize(b.fock_matrix_elements(x, res.cutoff)).matrix
            - b.truncate_normalize(b.fock_matrix_elements(y, res.cutoff)).matrix)
    herm = (diff + diff.conj().T) / 2.0
    assert res.estimate == float(np.sum(np.abs(np.linalg.eigvalsh(herm)))) / 2.0


def test_vacuum_vs_thermal():
    res = b.gaussian_trace_distance(b.vacuum_state(), b.thermal_state(1.0), 1e-3)
    assert res.estimate == pytest.approx(0.5, abs=1e-3)
    assert res.certified_error <= 1e-3
    assert res.fock_dim == res.cutoff + 1


def test_thermal_pairs_within_certificate():
    pairs = [(0.2, 0.5), (0.5, 1.0), (1.0, 2.0), (1.5, 3.0), (2.0, 3.0)]
    for n1, n2 in pairs:
        res = b.gaussian_trace_distance(b.thermal_state(n1), b.thermal_state(n2), 1e-4)
        oracle = thermal_distance_oracle(n1, n2)
        assert abs(res.estimate - oracle) <= 1e-4
        assert abs(res.estimate - oracle) <= res.certified_error


def test_certificate_composition():
    a, c = b.thermal_state(0.5), b.thermal_state(1.2)
    eps = 1e-3
    res = b.gaussian_trace_distance(a, c, eps)
    tail_sum = sum(res.tail_bounds)
    assert res.certified_error >= tail_sum
    assert res.certified_error <= eps
    # the numerical term is the block-trace rule's slack for the two raw blocks
    blocks = (b.fock_matrix_elements(s, res.cutoff) for s in (a, c))
    assert res.certified_error == tail_sum + fock._rounding_slack(*blocks)


def test_symmetry_range_and_identity():
    rng = np.random.default_rng(53)
    eps = 1e-3
    for _ in range(4):
        x = random_state(rng, 1, max_squeeze=1.4, max_shift=0.7)
        y = random_state(rng, 1, max_squeeze=1.4, max_shift=0.7)
        d_xy = b.gaussian_trace_distance(x, y, eps)
        d_yx = b.gaussian_trace_distance(y, x, eps)
        assert abs(d_xy.estimate - d_yx.estimate) <= 2 * eps
        assert 0.0 <= d_xy.estimate <= 1.0
        d_xx = b.gaussian_trace_distance(x, x, eps)
        assert d_xx.estimate <= eps


def test_triangle_inequality():
    rng = np.random.default_rng(59)
    eps = 1e-3
    for _ in range(3):
        sts = [random_state(rng, 1, max_squeeze=1.3, max_shift=0.5) for _ in range(3)]
        d_ab = b.gaussian_trace_distance(sts[0], sts[1], eps).estimate
        d_bc = b.gaussian_trace_distance(sts[1], sts[2], eps).estimate
        d_ac = b.gaussian_trace_distance(sts[0], sts[2], eps).estimate
        assert d_ac <= d_ab + d_bc + 3 * eps


def test_orthogonal_states_near_one():
    far = b.apply_transform(b.vacuum_state(), b.displacement([12.0, 0.0]))
    res = b.gaussian_trace_distance(b.vacuum_state(), far, 1e-2)
    assert res.estimate == pytest.approx(1.0, abs=1e-2)


def test_two_mode_distance():
    res = b.gaussian_trace_distance(b.tmsv_state(0.5), b.tmsv_state(0.8), 1e-2)
    # fidelity-based sanity: distance strictly between 0 and 1
    assert 0.05 < res.estimate < 0.95
    assert res.certified_error <= 1e-2


def test_domain_errors():
    with pytest.raises(ValueError):
        b.gaussian_trace_distance(b.vacuum_state(), b.tmsv_state(1.0), 1e-3)
    with pytest.raises(ValueError):
        b.gaussian_trace_distance(b.vacuum_state(), b.vacuum_state(), 0.0)
    with pytest.raises(ValueError):
        b.gaussian_trace_distance(b.vacuum_state(), b.vacuum_state(), 1.5)


def test_resource_cap_propagates(monkeypatch):
    monkeypatch.setenv("BOSONIC_FOCK_CAP", "10")
    with pytest.raises(b.DimensionCapError):
        b.gaussian_trace_distance(b.thermal_state(1.0), b.thermal_state(2.0), 1e-4)


def test_thermal_product_under_common_active_symplectic():
    # the true distance is invariant under a common Gaussian unitary; the
    # actively mixed pair must be computed, and agree within both certificates
    x = b.tensor([b.thermal_state(0.3), b.thermal_state(0.8)])
    y = b.tensor([b.thermal_state(0.6), b.thermal_state(0.2)])
    plain = b.gaussian_trace_distance(x, y, 1e-2)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        s = b.Transform(random_symplectic(rng, 2, 1.2), np.zeros(4))
        mixed = b.gaussian_trace_distance(b.apply_transform(x, s), b.apply_transform(y, s), 1e-2)
        slack = mixed.certified_error + plain.certified_error
        assert abs(mixed.estimate - plain.estimate) <= slack


_MIXED_FAMILIES = ("thermal", "complex-passive", "active", "displaced")


@pytest.mark.parametrize("modes,cutoff", [(1, 30), (2, 24)])
@pytest.mark.parametrize("family", _MIXED_FAMILIES)
def test_gaussian_fidelity_matches_the_fock_blocks(family, modes, cutoff):
    # the closed form against ||sqrt(rho') sqrt(sigma')||_1 of the normalized
    # blocks.  A normalized truncation lies within Bures angle arcsin(t) of
    # its state (Uhlmann: F(rho, rho') >= sqrt(1 - P(N > M)) >= sqrt(1 - t^2)),
    # and the angle is a metric with |cos A - cos A'| <= |A - A'|
    x, y = _sector_pair(family, modes, np.random.default_rng(500 + modes))
    fa, fb = (b.truncate_normalize(b.fock_matrix_elements(st, cutoff)) for st in (x, y))
    ta, tb = (b.trace_distance_truncation_bound(st, cutoff).bound for st in (x, y))
    slack = math.asin(ta) + math.asin(tb) + 1e-9  # and the roots' rounding
    assert abs(gaussian_fidelity(x, y) - fock_fidelity(fa, fb)) <= slack


@pytest.mark.parametrize("modes", [1, 2])
@pytest.mark.parametrize("family", _MIXED_FAMILIES)
def test_fidelity_brackets_mixed_pair_distances(family, modes):
    # 1 - F <= D <= sqrt(1 - F^2) (Fuchs and van de Graaf), with F from the
    # Gaussian closed form: a two-sided check that does not use the Fock path
    rng = np.random.default_rng(900 + modes)
    for _ in range(3):
        x, y = _sector_pair(family, modes, rng)
        res = b.gaussian_trace_distance(x, y, 1e-3)
        fid = gaussian_fidelity(x, y)
        slack = res.certified_error + 1e-9  # and the closed form's rounding
        assert 1.0 - fid - slack <= res.estimate <= math.sqrt(1.0 - fid * fid) + slack


def test_two_mode_pure_pairs_match_overlap_identity():
    # for pure states D = sqrt(1 - tr(rho sigma)) exactly
    rng = np.random.default_rng(7)
    for _ in range(4):
        x = random_state(rng, 2, pure=True, max_squeeze=1.3, max_shift=0.5)
        y = random_state(rng, 2, pure=True, max_squeeze=1.3, max_shift=0.5)
        res = b.gaussian_trace_distance(x, y, 1e-3)
        exact = math.sqrt(1.0 - b.gaussian_overlap(x, y))
        assert abs(res.estimate - exact) <= res.certified_error


@pytest.mark.parametrize("factor,photons,eps,defect", [
    pytest.param(1.01, (0.5, 1.0), 1e-3, "exceeds 1", id="1.01-exceeds 1"),
    pytest.param(0.99, (0.5, 1.0), 1e-3, "falls below 1 - tail", id="0.99-falls below 1 - tail"),
    # a defect of 1e-9 against a certificate of 7.4e-14: the slack is the
    # certificate's own numerical term, not a fixed tolerance
    pytest.param(1.0 + 1e-9, (0.01, 0.02), 1e-12, "exceeds 1 by more than its rounding slack",
                 id="1e-9-over"),
    pytest.param(1.0 - 1e-9, (0.01, 0.02), 1e-12,
                 "falls below 1 - tail bound = 1.0 by more than its rounding slack",
                 id="1e-9-under"),
])
def test_block_trace_invariant_both_sides(monkeypatch, factor, photons, eps, defect):
    # a block may neither hold more than the state nor lose more than the tail
    scale_blocks(monkeypatch, factor)
    with pytest.raises(b.FockTraceError, match=defect):
        b.gaussian_trace_distance(*map(b.thermal_state, photons), eps)


def _reference_block(mpmath, state: b.GaussianState, cutoff: int):
    """The normalized 1-mode Fock block of ``state`` at ``cutoff`` in mpmath's working
    precision, from the float entries of its mean and covariance read exactly:
    the kernel data of the ``fock`` docstring, G = (V + I)^-1, quad = r^T G r,
    F = X - quad, u = quad (conj(mu), mu) and C = det((V + I)/2)^(-1/2)
    exp(-m^T G m), then its recursion, row 0 along the ket index, and its
    division by its trace."""
    mp = mpmath.mp
    m = mpmath.matrix([mp.mpf(x) for x in state.mean])
    g = (mpmath.matrix(state.cov.tolist()) + mpmath.eye(2)) ** -1
    r = mpmath.matrix([[1, 1], [1j, -1j]])
    quad = r.T * g * r
    mu = (m[0] + 1j * m[1]) / mp.sqrt(2)
    f = mpmath.matrix([[0, 1], [1, 0]]) - quad
    u = quad * mpmath.matrix([mp.conj(mu), mu])
    c0 = mp.exp(-(m.T * g * m)[0]) * mp.sqrt(mpmath.det(g)) * 2
    rho = mpmath.matrix(cutoff + 1, cutoff + 1)
    rho[0, 0] = c0
    for col in range(1, cutoff + 1):
        val = u[1] * rho[0, col - 1]
        if col > 1:
            val += f[1, 1] * mp.sqrt(col - 1) * rho[0, col - 2]
        rho[0, col] = val / mp.sqrt(col)
    for row in range(1, cutoff + 1):
        for col in range(cutoff + 1):
            val = u[0] * rho[row - 1, col]
            if row > 1:
                val += f[0, 0] * mp.sqrt(row - 1) * rho[row - 2, col]
            if col > 0:
                val += f[0, 1] * mp.sqrt(col) * rho[row - 1, col - 1]
            rho[row, col] = val / mp.sqrt(row)
    return rho / sum(rho[k, k] for k in range(cutoff + 1))


def test_distances_match_a_40_digit_reference_within_their_numerical_term():
    # the float pipeline (kernel data, recursion, normalization, eigensolve)
    # against the same steps at 40 digits: the difference must lie within the
    # certificate's numerical term, 2 dim ulp plus any vacuum excess.  Pure
    # and mixed, displaced pairs (the whole basis) and zero-mean ones (parity
    # blocks); the differences measured at most 0.06 of the term
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(31)
    with mpmath.workdps(40):
        for i in range(8):
            pure, shift = i % 2 == 0, 3.0 if i % 4 < 2 else 0.0
            pair = [random_state(rng, 1, pure=pure, max_squeeze=2.5, max_shift=shift)
                    for _ in range(2)]
            cutoff = int(rng.integers(8, 41))
            raw = [fock.fock_matrix_elements(st, cutoff) for st in pair]
            estimate = b.finite_trace_distance(*map(b.truncate_normalize, raw))
            ref_a, ref_b = (_reference_block(mpmath, st, cutoff) for st in pair)
            diff = ref_a - ref_b
            eigs = mpmath.eighe((diff + diff.H) / 2, eigvals_only=True)
            reference = sum(abs(e) for e in eigs) / 2
            term = fock._rounding_slack(*raw)
            assert abs(estimate - reference) <= term, (i, pure, cutoff, estimate, reference, term)
