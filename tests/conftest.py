"""Shared helpers: seeded random Gaussian states and symplectics."""

import numpy as np

from bosonic import GaussianState, fock


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
