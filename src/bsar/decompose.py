"""Leading singular triplets of the complex raw-data matrix.

Only the few dominant triplets are ever consumed downstream, so only they
are computed, by seeded block power iteration in which every product over X,
alternately X and X^H, gets its own Rayleigh-Ritz extraction (Halko,
Martinsson & Tropp, SIAM Review, 2011, Alg. 4.4).  The result holds the
triplets, the product count and the gate's sigma1/sigma2 bound.
"""

from dataclasses import dataclass

import numpy as np

from .core import as_complex_matrix
from .errors import ConvergenceError, ParameterError

OVERSAMPLE = 5
MAX_SWEEPS = 5000
TOL = 1e-9  # relative sweep-to-sweep change that declares convergence
ROUNDING = 1e-12  # allowance, relative to ||X||_F^2, on each bound of the gate certificate


@dataclass
class TruncatedSVD:
    """Leading k singular triplets of an M x N complex matrix.

    singular_values (k of them) are non-negative and non-increasing; the
    columns of left_vectors (M x k) and right_vectors (N x k) satisfy
    X @ v_i = sigma_i * u_i, orthonormal for non-zero singular values and zero
    for a zero one.  ratio_bound is the least proven upper bound on
    sigma1/sigma2 over `products` products over X (inf when no gate was given).
    """

    singular_values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray
    products: int
    ratio_bound: float

    @property
    def dominance_ratio(self):
        if self.singular_values.size < 2:
            raise ParameterError("dominance ratio undefined for fewer than two singular values")
        s1, s2 = self.singular_values[0], self.singular_values[1]
        return float(s1 / s2) if s2 > 0 else float("inf")


def _ratio_bound(evals, total, residual=np.inf):
    """Proven upper bound on sigma1/sigma2 from the ascending eigenvalues of
    H = Q^H A Q, A the Gram operator and Q an orthonormal block (Parlett,
    1998): sigma2^2 >= theta2 by Cauchy interlacing, and sigma1^2 <=
    lambda_max([[theta1, beta], [beta, tau]]), where the PSD block Q_perp^H A
    Q_perp has trace tau = trace A - trace H and beta bounds Q_perp^H A Q by
    the residual ||A Q - Q H||_F, when A Q is at hand, and by sqrt(theta1 *
    tau), as A is PSD; that term alone gives sigma1^2 <= theta1 + tau.  Each
    term moves by ROUNDING * trace A to its loose side.  A may be X^H X or
    X X^H: both have trace ||X||_F^2 and eigenvalues sigma_i^2, the larger
    one padded with zeros, so both bounds hold on either side."""
    slack = ROUNDING * total
    theta1, theta2 = evals[-1] + slack, evals[-2] - slack
    tau = total - float(np.sum(evals)) + slack
    beta = min(residual + slack, np.sqrt(theta1 * tau))
    top = 0.5 * (theta1 + tau) + np.hypot(0.5 * (theta1 - tau), beta)
    return float(np.sqrt(top / theta2)) if theta2 > 0 else np.inf


def leading_triplets(X, k, seed=0, gate=None):
    """Compute the k dominant singular triplets of X.

    Block power iteration (with guard vectors), one product over X at a time,
    alternately X and X^H, from the side of the smaller Gram operator.  Each
    product orthonormalizes the last one's output, Q R = W, forms W = X Q (or
    X^H Q) and takes Ritz values from H = W^H W = Q^H A Q, A being X^H X or
    X X^H.  Every second product, back on the starting side, ends a sweep;
    once all k leading singular values move by less than TOL relatively
    between sweeps, its Ritz pairs are the result.  With a `gate`, each
    product bounds sigma1/sigma2 (`_ratio_bound`) from H alone, then the
    previous block's from its residual, as W R = A Q_prev; the first bound
    below the gate returns the Ritz pairs of the block that proved it,
    unconverged, for the caller to refuse the scene.  ConvergenceError carries
    the last sweep's triplets after MAX_SWEEPS sweeps.  X is made C-contiguous
    once, so that no product takes numpy's strided path.
    """
    X = np.ascontiguousarray(as_complex_matrix(X))
    M, N = X.shape
    k = int(k)
    if not (1 <= k <= min(M, N)):
        raise ParameterError(f"k={k} outside [1, min(M, N)={min(M, N)}]")
    total = float(np.vdot(X, X).real)
    if not np.isfinite(total):
        raise ParameterError("matrix energy is not finite: NaN or Inf samples, or overflow")

    # ops[product parity]: X^H B (no conjugate copy of X), X B; swapped if U starts (N > M)
    right_side = N <= M
    ops = (lambda B: (B.conj().T @ X).conj().T, lambda B: X @ B)[::1 if right_side else -1]
    dim = N if right_side else M
    block = min(k + OVERSAMPLE, dim)
    gated = gate is not None and block >= 2

    rng = np.random.default_rng(seed)
    W = rng.standard_normal((dim, block)) + 1j * rng.standard_normal((dim, block))
    prev, step = None, float("nan")  # step: the last sweep's max |change| in sigma
    stalled, bound, last = False, np.inf, None  # bound: on sigma1/sigma2, only with a gate
    for products in range(1, 2 * MAX_SWEEPS):
        Q, R = np.linalg.qr(W)
        W = ops[products % 2](Q)
        H = W.conj().T @ W  # Q^H A Q, of which eigh reads one triangle
        evals, evecs = np.linalg.eigh(H)
        current = (products % 2 == 1, Q, W, H, evals, evecs)  # first: on the starting side?
        if gated:
            bound = min(bound, _ratio_bound(evals, total))
            if bound >= gate and last is not None:
                _, Q_prev, _, H_prev, evals_prev, _ = last
                residual = float(np.linalg.norm(W @ R - Q_prev @ H_prev))
                bound = min(bound, _ratio_bound(evals_prev, total, residual))
                current = last if bound < gate else current
            if bound < gate:
                break  # refusal proven: the Ritz pairs that prove it are returned unconverged
        if products % 2:  # back on the starting side: a sweep ends
            sigma = np.sqrt(np.clip(np.sort(evals)[::-1][:k], 0.0, None))
            scale = max(float(sigma[0]), np.finfo(float).tiny)
            step = float(np.max(np.abs(sigma - prev))) if prev is not None else step
            if step <= TOL * scale:
                break
            prev = sigma
        last = current
    else:
        stalled = True

    # Ritz vectors on the block's side, and their images X v or X^H u
    starting, Q, W, _, evals, evecs = current
    order = np.argsort(evals)[::-1][:k]
    sigma = np.sqrt(np.clip(evals[order], 0.0, None))
    basis = Q @ evecs[:, order]
    image = W @ evecs[:, order]
    nonzero = sigma > 1e-12 * (sigma[0] if sigma[0] > 0 else 1.0)
    sigma = np.where(nonzero, sigma, 0.0)
    basis[:, ~nonzero] = 0.0
    other = np.zeros_like(image)
    other[:, nonzero] = image[:, nonzero] / sigma[nonzero]
    U, V = (other, basis) if starting == right_side else (basis, other)
    result = TruncatedSVD(singular_values=sigma, left_vectors=U, right_vectors=V,
                          products=products, ratio_bound=bound)
    if stalled:
        raise ConvergenceError(
            f"singular values did not stabilize to {TOL} within {MAX_SWEEPS} sweeps: "
            f"last relative Ritz change max|dsigma|/sigma1 = {step / scale:.6g}",
            last_iterate=result,
        )
    return result
