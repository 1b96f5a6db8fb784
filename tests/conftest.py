"""Shared helpers: seeded random Gaussian states and symplectics, and the
earlier implementations the faster ones must match bit for bit."""

import collections
import math

import numpy as np

from bosonic import GaussianState, fock, symplectic_form, tail


def interleave(mat_xxpp: np.ndarray) -> np.ndarray:
    """Reorder a 2n x 2n matrix from (x1..xn, p1..pn) to (x1, p1, ...)."""
    n = mat_xxpp.shape[0] // 2
    perm = np.empty(2 * n, dtype=int)
    perm[0::2] = np.arange(n)
    perm[1::2] = np.arange(n) + n
    return mat_xxpp[np.ix_(perm, perm)]


def random_orthogonal_symplectic(rng: np.random.Generator, modes: int) -> np.ndarray:
    """Passive Gaussian unitary: image of a Haar-ish unitary U = X + iY."""
    z = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    u, _ = np.linalg.qr(z)
    x, y = u.real, u.imag
    o_xxpp = np.block([[x, -y], [y, x]])
    return interleave(o_xxpp)


def random_symplectic(rng: np.random.Generator, modes: int, max_squeeze: float = 1.5) -> np.ndarray:
    """Euler form O1 Z O2 with diagonal squeezing Z."""
    o1 = random_orthogonal_symplectic(rng, modes)
    o2 = random_orthogonal_symplectic(rng, modes)
    z = np.exp(rng.uniform(-np.log(max_squeeze), np.log(max_squeeze), size=modes))
    z_xxpp = np.diag(np.concatenate([z, 1.0 / z]))
    return o1 @ interleave(z_xxpp) @ o2


def random_state(rng: np.random.Generator, modes: int, pure: bool = False,
                 max_squeeze: float = 1.5, max_shift: float = 1.0) -> GaussianState:
    s = random_symplectic(rng, modes, max_squeeze)
    if pure:
        d = np.ones(modes)
    else:
        d = 1.0 + rng.uniform(0.0, 2.0, size=modes)
    d_diag = np.repeat(d, 2)
    cov = s @ np.diag(d_diag) @ s.T
    mean = rng.uniform(-max_shift, max_shift, size=2 * modes)
    return GaussianState(mean, cov)


def eigh_counter(monkeypatch, cov: np.ndarray) -> collections.Counter:
    """Count the ``np.linalg.eigh`` calls from here on: "V" those on a real
    matrix equal to ``cov``, "williamson" those on a complex matrix of its
    shape, which the Williamson form of a state of as many modes solves."""
    calls = collections.Counter()
    solve = np.linalg.eigh

    def spy(matrix, *args, **kwargs):
        if np.shape(matrix) == cov.shape:
            if np.iscomplexobj(matrix):
                calls["williamson"] += 1
            elif np.array_equal(matrix, cov):
                calls["V"] += 1
        return solve(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


def reference_williamson(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Williamson form (S, d) by ``spectral.williamson``'s algorithm as it
    ran before the state held it, on a symmetric positive definite ``cov``:
    its own eigensolve of V, then of i V^(1/2) Omega V^(1/2).  An oracle for
    ``GaussianState._williamson``, which must match it bit for bit."""
    n = cov.shape[0] // 2
    evals, evecs = np.linalg.eigh(cov)
    w = evecs @ np.diag(np.sqrt(evals)) @ evecs.T
    skew = w @ symplectic_form(n) @ w
    skew = (skew - skew.T) / 2.0
    lam, vecs = np.linalg.eigh(1j * skew)
    d = -lam[:n]
    q = np.empty((2 * n, 2 * n))
    q[:, 0::2] = np.sqrt(2.0) * vecs[:, :n].real
    q[:, 1::2] = np.sqrt(2.0) * vecs[:, :n].imag
    return w @ q @ np.diag(np.repeat(1.0 / np.sqrt(d), 2)), d


def photon_distribution(state: GaussianState, points: int = 1 << 11) -> np.ndarray:
    """Exact P(N = k) of the total photon number, k = 0 .. points-1.

    The generating function

        tr(rho z^N) = prod_i [((1+v_i) - z (v_i-1)) / 2]^(-1/2)
                      * exp(-(1-z) mt_i^2 / ((1-z) v_i + 1 + z)),

    with v_i the eigenvalues of V and mt the mean in V's eigenbasis, is
    sampled on |z| = 1 and inverted by FFT.  Aliasing folds P(N = k + j
    points) onto k, which is below double rounding for the states used here;
    each probability carries an absolute error of about 1e-15.
    """
    evals, evecs = np.linalg.eigh(state.cov)
    mean_rot = evecs.T @ state.mean
    z = np.exp(2j * np.pi * np.arange(points) / points)
    log_g = np.zeros(points, dtype=complex)
    for v, m in zip(evals, mean_rot):
        log_g -= 0.5 * np.log(((1.0 + v) - z * (v - 1.0)) / 2.0)
        log_g -= (1.0 - z) * m * m / ((1.0 - z) * v + 1.0 + z)
    return np.fft.fft(np.exp(log_g)).real / points


def scale_blocks(monkeypatch, factor: float) -> None:
    """Make every Fock block ``factor`` times its true value."""
    kernel = fock._kernel_data

    def scaled(state):
        c0, f_mat, u_vec = kernel(state)
        return factor * c0, f_mat, u_vec

    monkeypatch.setattr(fock, "_kernel_data", scaled)


def rowwise_fock_matrix(state: GaussianState, cutoff: int) -> np.ndarray:
    """The Fock block by the row-by-row recursion over the whole basis, an
    oracle for the shell-by-shell, sector-restricted build of
    ``fock.fock_matrix_elements``: every entry is computed, none skipped."""
    dim = fock.basis_dimension(state.modes, cutoff)
    n = state.modes
    basis = fock.enumerate_basis(n, cutoff)
    index = {occ: b for b, occ in enumerate(basis)}

    c0, f_mat, u_vec = fock._kernel_data(state)

    # per mode i and basis index b: the index of occ_b - e_i and sqrt(occ_b[i]),
    # both 0 where mode i is empty; first[b] is the first occupied mode of occ_b
    lower = np.array([[index.get(occ[:i] + (occ[i] - 1,) + occ[i + 1:], 0) for occ in basis]
                      for i in range(n)])
    sqrt_cnt = np.sqrt(np.array(basis, dtype=float).T)
    first = np.argmax(sqrt_cnt > 0.0, axis=0)

    out = np.zeros((dim, dim), dtype=complex)
    out[0, 0] = c0

    # bra side empty: recurse along the ket index only
    for b in range(1, dim):
        j = first[b]
        prev = lower[j, b]
        val = u_vec[n + j] * out[0, prev]
        for i in range(n):
            if sqrt_cnt[i, prev]:
                val += f_mat[n + j, n + i] * sqrt_cnt[i, prev] * out[0, lower[i, prev]]
        out[0, b] = val / sqrt_cnt[j, b]

    # remaining rows, vectorized across the ket index
    for a in range(1, dim):
        j = first[a]
        prev = lower[j, a]
        row = u_vec[j] * out[prev]
        for i in range(n):
            if sqrt_cnt[i, prev]:
                row = row + f_mat[j, i] * sqrt_cnt[i, prev] * out[lower[i, prev]]
            row = row + f_mat[j, n + i] * (sqrt_cnt[i] * out[prev, lower[i]])
        out[a] = row / sqrt_cnt[j, a]

    out += out.conj().T
    out /= 2.0
    return out


def sector_block(matrix: np.ndarray, modes: int, cutoff: int, kind: str) -> fock.FockMatrix:
    """The block of sector ``kind`` that stores the sector blocks of the dense
    ``matrix``, as ``fock.fock_matrix_elements`` stores the ones it builds."""
    indices = np.arange(matrix.shape[0])
    data = np.concatenate([matrix[np.ix_(indices[m], indices[m])].ravel()
                           for m in fock._layout(modes, cutoff, kind).members])
    return fock._built(data, modes, cutoff, kind)


def log_x_minus_one(t: float) -> float:
    """ln(coth(t) - 1) for t > 0: ln 2 - 2t - ln(1 - e^(-2t)), or ln 2 - ln(e^(2t) - 1)
    once e^(-2t) rounds to 1."""
    if math.exp(-2.0 * t) == 1.0:
        return math.log(2.0) - math.log(math.expm1(2.0 * t))
    return math.log(2.0) - 2.0 * t - math.log1p(-math.exp(-2.0 * t))


def numpy_scalar_row_zero(c0: float, f_mat: np.ndarray, u_vec: np.ndarray, cols: np.ndarray,
                          tables) -> np.ndarray:
    """Row 0 of a Fock block by the numpy-scalar loop over the columns
    ``cols`` of the row-0 sector, from the full kernel data (F, u): an
    oracle for ``fock._row_zero``, which runs the same steps on Python
    scalars."""
    n = u_vec.size // 2
    lower, sqrt_cnt, first = tables.lower, tables.sqrt_cnt, tables.first
    out = np.zeros((1, first.size), dtype=complex)
    out[0, 0] = c0

    # bra side empty: recurse along the ket index only, in scalar arithmetic
    for b in cols.tolist():
        j = first[b]
        prev = lower[j, b]
        val = u_vec[n + j] * out[0, prev]
        for i in range(n):
            if sqrt_cnt[i, prev]:
                val += f_mat[n + j, n + i] * sqrt_cnt[i, prev] * out[0, lower[i, prev]]
        out[0, b] = val / sqrt_cnt[j, b]
    return out[0]


def numpy_scalar_objective(evals: np.ndarray, mean_rot: np.ndarray, cutoff: int):
    """The tail objective on numpy scalars, an oracle for the Python-float
    loop of ``tail._make_objective``: the same operations in the same order."""
    one_minus = 1.0 - evals  # positive on squeezed/vacuum directions
    msq = mean_rot**2

    def objective(t: float) -> float:
        log_s = log_x_minus_one(t)
        s = math.exp(log_s)  # x - 1; may underflow to 0 for huge t
        total = -2.0 * t * cutoff
        for lam_gap, m2 in zip(one_minus, msq):
            gap = s + lam_gap  # x - eval, computed without cancellation
            if lam_gap == 0.0:
                log_gap = log_s
            elif gap <= 0.0:
                return math.inf
            else:
                log_gap = math.log(gap)
            if m2 != 0.0:
                if gap <= 0.0:
                    return math.inf
                total += m2 / gap
            total -= 0.25 * (log_gap - log_s)
        return total

    return objective


def _scan_sector_labels(totals, diff: np.ndarray) -> np.ndarray:
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


def _scan_hermitian_part(block: np.ndarray) -> np.ndarray:
    """(block + block^H) / 2, once ``block`` is Hermitian to within 1e-9; a
    1-D ``block`` is read as a diagonal."""
    skew = np.max(np.abs(block - block.conj().T)) if block.size else 0.0
    if skew > 1e-9:
        raise ValueError(f"difference is not Hermitian (defect {skew:.3e})")
    return (block + block.conj().T) / 2.0


def scanned_trace_distance(a: fock.FockMatrix, b: fock.FockMatrix) -> float:
    """(1/2) sum |eig(a - b)| per sector of the finest partition the dim x
    dim difference decouples by exact zeros, each sector block re-checked
    and re-symmetrized: an oracle for the trace distance of built blocks,
    which reads the partition off the blocks' sectors instead."""
    totals = a.totals
    diff = a.matrix - b.matrix
    labels = _scan_sector_labels(totals, diff)
    sizes = np.bincount(labels)
    eigs = [_scan_hermitian_part(np.diagonal(diff)[sizes[labels] == 1]).real]
    for sector in np.flatnonzero(sizes > 1):
        idx = np.flatnonzero(labels == sector)
        lo, hi = idx[0], idx[-1] + 1
        # contiguous sectors (photon number, the whole matrix) are views
        block = diff[lo:hi, lo:hi] if hi - lo == idx.size else diff[np.ix_(idx, idx)]
        eigs.append(np.linalg.eigvalsh(_scan_hermitian_part(block)))
    return float(np.sum(np.abs(np.concatenate(eigs)))) / 2.0


def full_search_cutoff(state: GaussianState, eps: float, cap: int = 10**6) -> int:
    """The cutoff search as it was before the shared spectral data, the short
    estimate and the early-passing check: a 64-iteration estimate, confirmed
    with the public ``trace_distance_truncation_bound``.  An oracle for
    ``tail.cutoff_for_error``."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if eps < math.sqrt(tail.TAIL_FLOOR):
        raise ValueError(f"eps {eps} lies below {math.sqrt(tail.TAIL_FLOOR)}, the square "
                         f"root of the floor {tail.TAIL_FLOOR} on every tail bound; no "
                         "cutoff certifies it")
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")

    def ok(m: int) -> bool:
        return tail.trace_distance_truncation_bound(state, m).bound <= eps

    estimate = _full_estimate_cutoff(state, eps)
    guess = math.ceil(estimate) if math.isfinite(estimate) else 0
    cutoff = tail.smallest_passing(ok, guess, -1, cap)
    if cutoff is None:
        raise tail.CutoffCapError(f"no cutoff up to {cap} reaches truncation error {eps}; "
                                  "the state is too energetic for a certified truncation")
    return cutoff


def _full_estimate_cutoff(state: GaussianState, eps: float) -> float:
    """min over t of M*(t) = (f(t) - 2 ln eps) / (2t) by a 64-iteration
    golden search; f is the M = 0 objective."""
    objective = tail._make_objective(*tail._checked(state)._eig[:2], 0)
    log_target = 2.0 * math.log(eps)  # the photon tail must reach eps^2

    def needed(t: float) -> float:
        return (objective(t) - log_target) / (2.0 * t)

    bracket = tail._t_bracket(state, 0)
    return tail._golden_min(needed, *bracket, iters=64)[1]


def gaussian_fidelity(rho: GaussianState, sigma: GaussianState) -> float:
    """Root fidelity ||sqrt(rho) sqrt(sigma)||_1 of two Gaussian states in
    closed form (Banchi, Braunstein & Pirandola, PRL 115, 260501 (2015)):

        F = F_tot exp(-d^T (V1 + V2)^-1 d / 4) / det(V1 + V2)^(1/4),
        F_tot^4 = det(2 (sqrt(I + (W Omega)^-2 / 4) + I) W),
        W = Omega^T (V1 + V2)^-1 (Omega / 4 + V2 Omega V1),

    with d the difference of the means.  The paper's vacuum covariance is
    I / 2 and this package's is I, so V1, V2 are half of ``cov``; both take
    the mean as <R> with x = (a + a^dag) / sqrt(2), so the means carry over
    as they are.  The matrix square root (W Omega is not normal) is taken
    through ``eig``.  On pure states its argument is singular and about 1e-9
    of F is lost (F(psi, psi) reads 1 + 6e-10), so it is meant for mixed
    pairs.
    """
    v1, v2 = rho.cov / 2.0, sigma.cov / 2.0
    omega = symplectic_form(rho.modes)
    eye = np.eye(2 * rho.modes)
    sum_inv = np.linalg.inv(v1 + v2)
    w_aux = omega.T @ sum_inv @ (omega / 4.0 + v2 @ omega @ v1)
    inv = np.linalg.inv(w_aux @ omega)
    vals, vecs = np.linalg.eig(eye + inv @ inv / 4.0)
    root = vecs @ np.diag(np.sqrt(vals.astype(complex))) @ np.linalg.inv(vecs)
    f_tot = np.linalg.det(2.0 * (root + eye) @ w_aux) ** 0.25
    d = sigma.mean - rho.mean
    fid = f_tot * np.exp(-d @ sum_inv @ d / 4.0) / np.linalg.det(v1 + v2) ** 0.25
    return float(fid.real)


def fock_fidelity(a: fock.FockMatrix, b: fock.FockMatrix) -> float:
    """Root fidelity ||sqrt(a) sqrt(b)||_1 of two Fock blocks: the sum of
    the singular values of the product of their square roots, each root
    through ``eigh`` with rounding-level negative eigenvalues set to 0."""
    roots = []
    for block in (a, b):
        vals, vecs = np.linalg.eigh(block.matrix)
        roots.append((vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T)
    return float(np.sum(np.linalg.svd(roots[0] @ roots[1], compute_uv=False)))
