"""Leading singular triplets of the complex raw-data matrix.

Only the few dominant triplets are ever consumed downstream, so only they
are computed, by block power iteration in which every product over X,
alternately X and X^H, gets its own Rayleigh-Ritz extraction (Halko,
Martinsson & Tropp, SIAM Review, 2011, Alg. 4.4).  The result holds the
triplets, the product count and the gate's sigma1/sigma2 bound.

Each product over X runs in X's own precision: a complex64 payload is
multiplied as it is, in float32, and each product is taken back to
complex128 for everything else (QR, Ritz values and vectors, the gate).
The two constants that depend on precision, the gate's rounding allowance
and the sweep tolerance, follow from X's dtype (``_float32_allowance``).
"""

from dataclasses import dataclass

import numpy as np

from .core import as_complex_matrix
from .errors import ConvergenceError, ParameterError

OVERSAMPLE = 5
MAX_SWEEPS = 5000
TOL = 1e-9  # relative sweep-to-sweep change that declares convergence, at least X's unit roundoff
ROUNDING = 1e-12  # float64 allowance, relative to ||X||_F^2, on each bound of the gate certificate


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


def _ratio_bound(evals, total, rounding=ROUNDING):
    """Proven upper bound on sigma1/sigma2 from the ascending eigenvalues of
    H = Q^H A Q, A the Gram operator and Q an orthonormal block:
    sigma2^2 >= theta2 by Cauchy interlacing, and sigma1^2 <= theta1 + tau,
    where the PSD block Q_perp^H A Q_perp, the energy Q misses, has trace
    tau = trace A - trace H.  Each term moves by `rounding` * trace A to its
    loose side: ROUNDING for float64 products, more for float32 ones
    (``_float32_allowance``).  A may be X^H X or X X^H: both have trace
    ||X||_F^2 and eigenvalues sigma_i^2, the larger one padded with zeros,
    so both bounds hold on either side."""
    slack = rounding * total
    theta1, theta2 = evals[-1] + slack, evals[-2] - slack
    tau = total - float(np.sum(evals)) + slack
    return float(np.sqrt((theta1 + tau) / theta2)) if theta2 > 0 else np.inf


def _float32_allowance(X, norms, block):
    """(total, rounding, zero) for complex64 X, M x N, from `norms`, the
    float32 squared norms of its rows or columns: a proven upper bound on
    ||X||_F^2, the gate's allowance relative to it, and the singular value
    at or below which a computed one cannot be told from zero.

    With u = 2^-24 and eta = 2^-149 (float32's unit roundoff and least
    subnormal), gamma_k = k u / (1 - k u) and n = max(M, N), the inner length
    of a product (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2002, ch. 3, in any summation order):

    * total.  Each float32 norm sums 2L squares, L = N for a row or M for
      a column (its I and Q halves, then added), so it is at least (1 - 2L
      u) times its exact value, less 2L eta / 2 for underflow; the float64
      sum of the MN / L norms loses at most u more, for MN / L <= 2^29.
      So ||X||_F^2 <= (sum + M N eta) / (1 - (2L + 1) u) = total.
    * the product.  Q is cast, |Q~ - Q| <= u |Q|, and W^ = fl(op(Q~)) has
      real and imaginary parts that are sums of 2n products, so W^ = op(Q)
      + E with |E| <= c |X| |Q| + sqrt(2) n eta elementwise, where c = u +
      sqrt(2) gamma_2n (1 + u).  Column by column ||X| |q_j|| <= ||X||_F,
      so ||E||_F <= e = c sqrt(block total) + sqrt(2) n eta sqrt(min(M, N)
      block), and e / sqrt(total) = eps.
    * the Ritz values.  H^ = W^^H W^ = H + (X Q)^H E + E^H X Q + E^H E, so
      ||H^ - H||_2 and |trace(H^ - H)| are both <= (2 eps + eps^2) total,
      as ||X Q|| <= ||X||_F: that bounds the move of theta1, theta2
      (Weyl) and tau.

    rounding = ROUNDING + 4 eps + 2 eps^2 covers that move twice over
    (ROUNDING for the float64 algebra), and a computed singular value moves
    by at most ||E||_2 <= e from that of X Q, so zero = e.
    """
    M, N = X.shape
    u, eta = float(np.finfo(np.float32).eps) / 2, float(np.finfo(np.float32).smallest_subnormal)
    L = X.size // norms.size
    total = (float(np.sum(norms, dtype=np.float64)) + X.size * eta) / (1 - (2 * L + 1) * u)
    n = max(M, N)
    c = u + np.sqrt(2) * (2 * n * u / (1 - 2 * n * u)) * (1 + u)
    e = c * np.sqrt(block * total) + np.sqrt(2) * n * eta * np.sqrt(min(M, N) * block)
    # an infinite total, float32 squares that overflow, is refused by the caller
    eps = e / np.sqrt(total) if 0 < total < np.inf else 0.0
    return total, ROUNDING + 4 * eps + 2 * eps * eps, e


def leading_triplets(X, k, gate=None):
    """Compute the k dominant singular triplets of X.

    Block power iteration (with guard vectors), one product over X at a time,
    alternately X and X^H, from the side of the smaller Gram operator.  Each
    product orthonormalizes the last one's output, Q R = W, forms W = X Q (or
    X^H Q) and takes Ritz values from H = W^H W = Q^H A Q, A being X^H X or
    X X^H.  Every second product, back on the starting side, ends a sweep;
    once all k leading singular values move by less than TOL relatively
    between sweeps, its Ritz pairs are the result.  The stop bounds the
    Ritz values, not the vectors: those are only as converged as the values'
    move allows, and the side not iterated on satisfies X v = sigma u (or
    X^H u = sigma v) only to about the square root of it.  With a `gate`, each
    product bounds sigma1/sigma2 (`_ratio_bound`) from its H alone; the
    first bound below the gate returns that product's Ritz pairs,
    unconverged, for the caller to refuse the scene; MAX_SWEEPS sweeps raise
    ConvergenceError.  X is made C-contiguous once, so that no product takes
    numpy's strided path.  The squared norms of X's rows (columns if U
    starts), one pass over X, sum to ||X||_F^2 and give the start block: the
    strongest row, conjugated (column), of each of block - 1 equal strips,
    and one fixed Gaussian column, which no singular vector is orthogonal to.

    complex64 X stays complex64: each product casts Q to it and takes its
    output back to complex128.  The tolerance is then float32's unit
    roundoff, u = 6e-8, as products in float32 resolve no finer change
    (at that floor the change hovered between 3e-10 and 2e-8 on 512 x 1024
    and 2048 x 4096 scenes), and the gate's allowance and the zero
    threshold come from ``_float32_allowance``.  Any other X is made
    complex128, where the casts do nothing and ROUNDING is the allowance.
    """
    X = np.ascontiguousarray(as_complex_matrix(X))
    M, N = X.shape
    k = int(k)
    if not (1 <= k <= min(M, N)):
        raise ParameterError(f"k={k} outside [1, min(M, N)={min(M, N)}]")
    right_side = N <= M
    dim = N if right_side else M
    block = min(k + OVERSAMPLE, dim)
    parts = X.view(np.float32 if X.dtype == np.complex64 else np.float64)
    norms = np.einsum("ij,ij->i" if right_side else "ij,ij->j", parts, parts)  # one pass over X
    norms = norms if right_side else norms[0::2] + norms[1::2]  # a column's I + Q
    if X.dtype == np.complex64:
        total, rounding, zero = _float32_allowance(X, norms, block)
    else:
        total, rounding, zero = float(np.sum(norms)), ROUNDING, 0.0
    tol = max(TOL, float(np.finfo(X.dtype).eps) / 2)
    if not np.isfinite(total):
        raise ParameterError("matrix energy is not finite: NaN or Inf samples, or overflow")

    # ops[product parity]: X^H B (no conjugate copy of X), X B; swapped if U starts (N > M);
    # each in X's precision, its product back in complex128
    def adjoint(B):
        W = (B.astype(X.dtype, copy=False).conj().T @ X).T.astype(np.complex128, copy=False)
        return np.conj(W, out=W)

    def forward(B):
        return (X @ B.astype(X.dtype, copy=False)).astype(np.complex128, copy=False)

    ops = (adjoint, forward)[::1 if right_side else -1]
    gated = gate is not None and block >= 2

    edges = np.linspace(0, norms.size, block, dtype=int)
    picks = [lo + int(np.argmax(norms[lo:hi])) for lo, hi in zip(edges[:-1], edges[1:])]
    rng = np.random.default_rng(0)
    W = np.column_stack([X[picks].conj().T if right_side else X[:, picks],
                         rng.standard_normal(dim) + 1j * rng.standard_normal(dim)])
    prev, step = None, float("nan")  # step: the last sweep's max |change| in sigma
    bound = np.inf  # on sigma1/sigma2, only with a gate
    Q = None
    for products in range(1, 2 * MAX_SWEEPS):
        del Q  # the last block's, before the QR
        Q, _ = np.linalg.qr(W)
        del W  # the last product is Q R from here on
        W = ops[products % 2](Q)
        H = W.conj().T @ W  # Q^H A Q, of which eigh reads one triangle
        evals, evecs = np.linalg.eigh(H)
        if gated:
            bound = min(bound, _ratio_bound(evals, total, rounding))
            if bound < gate:
                break  # refusal proven: the Ritz pairs that prove it are returned unconverged
        if products % 2:  # back on the starting side: a sweep ends
            sigma = np.sqrt(np.clip(np.sort(evals)[::-1][:k], 0.0, None))
            scale = max(float(sigma[0]), np.finfo(float).tiny)
            step = float(np.max(np.abs(sigma - prev))) if prev is not None else step
            if step <= tol * scale:
                break
            prev = sigma
    else:
        raise ConvergenceError(
            f"singular values did not stabilize to {tol} within {MAX_SWEEPS} sweeps: "
            f"last relative Ritz change max|dsigma|/sigma1 = {step / scale:.6g}")

    # Ritz vectors on the block's side, and their images X v or X^H u
    order = np.argsort(evals)[::-1][:k]
    sigma = np.sqrt(np.clip(evals[order], 0.0, None))
    basis = Q @ evecs[:, order]
    other = W @ evecs[:, order]  # divided by sigma in place
    nonzero = sigma > max(1e-12 * sigma[0], zero)
    other /= np.where(nonzero, sigma, 1.0)
    sigma = np.where(nonzero, sigma, 0.0)
    basis[:, ~nonzero] = 0.0
    other[:, ~nonzero] = 0.0
    starting = products % 2 == 1  # is the block on the starting side?
    U, V = (other, basis) if starting == right_side else (basis, other)
    return TruncatedSVD(singular_values=sigma, left_vectors=U, right_vectors=V,
                        products=products, ratio_bound=bound)
