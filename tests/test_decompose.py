import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bsar import decompose
from bsar.decompose import leading_triplets
from bsar.errors import ConvergenceError, ParameterError
from bsar.simulate import simulate_raw
from oracles import gibbs_rotation_check, jacobi_eigh, singular_values_by_jacobi


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# --- leading_triplets -----------------------------------------------------------

def test_identity_singular_values():
    svd = leading_triplets(np.eye(2, dtype=np.complex128), k=2)
    np.testing.assert_allclose(svd.singular_values, [1.0, 1.0], atol=1e-12)


def test_diagonal_matrix():
    svd = leading_triplets(np.diag([3.0, 4.0]).astype(np.complex128), k=1)
    assert svd.singular_values[0] == pytest.approx(4.0, abs=1e-12)
    v = svd.right_vectors[:, 0]
    assert abs(abs(v[1]) - 1.0) < 1e-10 and abs(v[0]) < 1e-10


def test_matches_jacobi_oracle():
    rng = np.random.default_rng(42)
    X = random_complex(rng, (12, 8))
    svd = leading_triplets(X, k=8)
    expected = singular_values_by_jacobi(X)[:8]
    np.testing.assert_allclose(svd.singular_values, expected,
                               rtol=1e-9, atol=1e-9 * expected[0])


def test_jacobi_oracle_self_check():
    # the oracle must reproduce the eigendecomposition it claims to compute
    rng = np.random.default_rng(5)
    H = random_complex(rng, (6, 6))
    H = H @ H.conj().T
    evals, evecs = jacobi_eigh(H)
    np.testing.assert_allclose(H @ evecs, evecs * evals[None, :], atol=1e-10)
    np.testing.assert_allclose(evecs.conj().T @ evecs, np.eye(6), atol=1e-10)


ORIENTATIONS = pytest.mark.parametrize("transpose", [False, True], ids=["tall", "wide"])


@ORIENTATIONS
def test_orthonormality_and_factorization(transpose):
    # tall iterates on the right Gram side, wide on the left
    rng = np.random.default_rng(7)
    X = random_complex(rng, (40, 25))
    X = X.T.copy() if transpose else X
    svd = leading_triplets(X, k=6)
    U, V, s = svd.left_vectors, svd.right_vectors, svd.singular_values
    assert np.max(np.abs(U.conj().T @ U - np.eye(6))) < 1e-10
    assert np.max(np.abs(V.conj().T @ V - np.eye(6))) < 1e-10
    for i in range(6):
        # the modulus of X @ v_i is the singular value
        assert abs(np.linalg.norm(X @ V[:, i]) - s[i]) < 1e-8 * s[i]
    # The side not iterated on is the image of the Ritz vectors, so its
    # relation is exact: X v_i = s_i u_i when tall, X^H u_i = s_i v_i when
    # wide.  The Ritz vectors are only as converged as the singular-value
    # stopping rule makes them: about 1e-5 * s[0] on this clustered random
    # spectrum.
    forward = max(np.linalg.norm(X @ V[:, i] - s[i] * U[:, i]) for i in range(6))
    adjoint = max(np.linalg.norm(X.conj().T @ U[:, i] - s[i] * V[:, i]) for i in range(6))
    exact, ritz = (adjoint, forward) if transpose else (forward, adjoint)
    assert exact < 1e-8 * s[0]
    assert ritz < 1e-4 * s[0]


def test_singular_values_non_increasing():
    rng = np.random.default_rng(10)
    X = random_complex(rng, (16, 16))
    svd = leading_triplets(X, k=10)
    assert np.all(np.diff(svd.singular_values) <= 1e-12)


@ORIENTATIONS
def test_rank_deficiency_flagged(transpose):
    rng = np.random.default_rng(11)
    u = random_complex(rng, 12)
    v = random_complex(rng, 9)
    X = np.outer(v, u) if transpose else np.outer(u, v)  # rank 1
    svd = leading_triplets(X, k=3)
    s, U, V = svd.singular_values, svd.left_vectors, svd.right_vectors
    np.testing.assert_allclose(s[1:], 0.0, atol=1e-12)
    # the non-zero pair factors X, and the zero values' vectors are zero
    assert s[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)
    np.testing.assert_allclose(s[0] * np.outer(U[:, 0], V[:, 0].conj()), X,
                               atol=1e-12 * s[0])
    assert abs(np.linalg.norm(U[:, 0]) - 1.0) < 1e-12 and abs(np.linalg.norm(V[:, 0]) - 1.0) < 1e-12
    assert not np.any(U[:, 1:]) and not np.any(V[:, 1:])


def test_runs_are_identical():
    rng = np.random.default_rng(12)
    X = random_complex(rng, (20, 20))
    a = leading_triplets(X, k=4)
    b = leading_triplets(X, k=4)
    assert np.array_equal(a.singular_values, b.singular_values)
    assert np.array_equal(a.left_vectors, b.left_vectors)
    assert np.array_equal(a.right_vectors, b.right_vectors)


def test_parameter_validation():
    X = np.eye(4, dtype=np.complex128)
    with pytest.raises(ParameterError):
        leading_triplets(X, k=0)
    with pytest.raises(ParameterError):
        leading_triplets(X, k=5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_non_finite_matrix_rejected(bad):
    # 1e200 is finite, but its squared modulus overflows the energy sum
    X = np.ones((6, 5), dtype=np.complex128)
    X[2, 3] = bad
    with pytest.raises(ParameterError, match="not finite"):
        leading_triplets(X, k=2)


@pytest.mark.parametrize("shape", [(512, 1024), (1024, 512)], ids=["512x1024", "1024x512"])
def test_peak_memory_stays_below_an_eighth_of_the_matrix(shape):
    # no sweep may copy X (a conjugate transpose is a full M x N copy)
    X = random_complex(np.random.default_rng(17), shape)
    leading_triplets(X, k=2)  # warm-up: lazy imports inside numpy are not the method's
    tracemalloc.start()
    try:
        leading_triplets(X, k=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < X.nbytes / 8, f"peak {peak / X.nbytes:.3f} x X.nbytes"


def test_sweep_limit_raises_with_last_sweep(monkeypatch):
    monkeypatch.setattr(decompose, "MAX_SWEEPS", 1)
    X = random_complex(np.random.default_rng(18), (30, 20))
    # one sweep has no predecessor, so no Ritz change to report
    with pytest.raises(ConvergenceError, match=r"within 1 sweeps: .* change .* = nan"):
        leading_triplets(X, k=3)
    # after more sweeps the message carries their count and the last change
    # max|dsigma|/sigma1, here between sweeps 2 and 3: the Ritz values of
    # products 3 and 5 (a sweep ends on each odd product), as eigh gave them
    ritz, eigh = [], np.linalg.eigh

    def spy(H):
        evals, evecs = eigh(H)
        ritz.append(np.sqrt(np.sort(evals)[::-1][:3]))
        return evals, evecs

    monkeypatch.setattr(decompose, "MAX_SWEEPS", 3)
    monkeypatch.setattr(np.linalg, "eigh", spy)
    with pytest.raises(ConvergenceError, match="within 3 sweeps") as info:
        leading_triplets(X, k=3)
    assert len(ritz) == 5  # one eigh per product, ungated
    change = float(re.search(r"max\|dsigma\|/sigma1 = (\S+)$", str(info.value)).group(1))
    expected = np.max(np.abs(ritz[4] - ritz[2])) / ritz[4][0]
    assert 0 < change == pytest.approx(expected, rel=1e-5)


def test_phase_gauge_leaves_product_invariant():
    rng = np.random.default_rng(13)
    X = random_complex(rng, (15, 10))
    svd = leading_triplets(X, k=2)
    u, v, s = svd.left_vectors[:, 0], svd.right_vectors[:, 0], svd.singular_values[0]
    theta = 1.234
    u2, v2 = u * np.exp(1j * theta), v * np.exp(1j * theta)
    np.testing.assert_allclose(s * np.outer(u, v.conj()),
                               s * np.outer(u2, v2.conj()), atol=1e-12)


# --- gate certificate -----------------------------------------------------------

GATE = 3.0


def planted(rng, shape, ratio, tail, level, decay):
    """U diag(s) V^H with s = [ratio, 1, level * decay**i for i < tail]."""
    rank = 2 + tail
    U, _ = np.linalg.qr(random_complex(rng, (shape[0], rank)))
    V, _ = np.linalg.qr(random_complex(rng, (shape[1], rank)))
    s = np.concatenate([[ratio, 1.0], level * decay ** np.arange(tail)])
    return (U * s) @ V.conj().T


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("shape", [(70, 120), (120, 70)], ids=["wide", "tall"])
def test_gate_certificate_is_sound(shape, seed):
    # sigma1/sigma2 planted 0.1 % either side of the gate, over flat and
    # decaying tails of 5 to 60 values: a certified bound must never sit
    # below the dense ratio, and so never below the gate when the scene
    # passes it
    certified = 0
    for tail in (5, 20, 60):
        for level in (0.05, 0.3, 0.9):
            for decay in (1.0, 0.9):
                for side in (-1, 1):
                    rng = np.random.default_rng([seed, tail, round(100 * level),
                                                 round(10 * decay), side + 1])
                    X = planted(rng, shape, GATE * (1 + side * 1e-3), tail, level, decay)
                    s = np.linalg.svd(X, compute_uv=False)
                    svd = leading_triplets(X, k=2, gate=GATE)
                    assert svd.ratio_bound >= s[0] / s[1], (tail, level, decay, side)
                    if svd.ratio_bound < GATE:
                        certified += 1
                        assert side < 0, (tail, level, decay)
    # the Ritz values alone decide 8 of the 18 planted below the gate in each
    # case; a scene they cannot decide is refused once its Ritz ratio converges
    assert certified >= 8


@pytest.mark.parametrize("tilted", ["first", "all"])
def test_ratio_bound_holds_for_any_orthonormal_block(tilted):
    # the bound must hold for whatever block a product has reached, on either
    # Gram operator of a wide X: here the dominant eigenvectors of A = X X^H
    # and of A = X^H X, which has 18 zero eigenvalues, tilted by eps toward
    # the rest of the spectrum, either the first one alone or all of them
    for seed in range(4):
        rng = np.random.default_rng(seed)
        s = np.concatenate([[GATE * (1 + 1e-3), 1.0], 0.3 * 0.9 ** np.arange(20)])
        U, _ = np.linalg.qr(random_complex(rng, (24, 24)))
        V, _ = np.linalg.qr(random_complex(rng, (40, 40)))
        X = (U[:, :s.size] * s) @ V[:, :s.size].conj().T
        for B, op in ((U, X.conj().T), (V, X)):
            for eps in (1e-3, 1e-2, 0.1, 0.5):
                tilt = eps * random_complex(rng, (B.shape[0], 7))
                if tilted == "first":
                    tilt[:, 1:] = 0.0
                Q, _ = np.linalg.qr(B[:, :7] + tilt)
                W = op @ Q
                H = W.conj().T @ W
                evals, total = np.linalg.eigvalsh(H), float(np.sum(s**2))
                # from H alone, as after any product
                alone = decompose._ratio_bound(evals, total)
                assert alone >= s[0] / s[1], (seed, eps, B.shape)


@pytest.mark.parametrize("n", [2, 16])
def test_gate_certificate_never_fires_on_the_gate(n):
    # sigma1/sigma2 exactly 3: the Ritz pairs are exact after one sweep, so
    # only the rounding allowance keeps the bound at or above the gate
    X = np.diag(np.r_[GATE, np.ones(n - 1)]).astype(np.complex128)
    svd = leading_triplets(X, k=2, gate=GATE)
    assert svd.ratio_bound >= GATE


@pytest.mark.parametrize("shape", [(70, 120), (120, 70)], ids=["wide", "tall"])
def test_gate_certificate_holds_on_complex64(monkeypatch, shape):
    # sigma1/sigma2 from 2.7 to 3.3 over short and long tails, planted in
    # float64 and stored as complex64: every bound any product computes from
    # its own block must sit at or above the float64 ratio of the stored
    # values, so no matrix at or above the gate is refused
    bounds, ratio_bound = [], decompose._ratio_bound

    def recorded(*args, **kwargs):
        bounds.append(ratio_bound(*args, **kwargs))
        return bounds[-1]

    monkeypatch.setattr(decompose, "_ratio_bound", recorded)
    refused = 0
    for i, ratio in enumerate(np.linspace(2.7, 3.3, 13)):
        for tail, level in ((3, 0.05), (20, 0.3), (60, 0.9)):
            rng = np.random.default_rng([i, tail])
            X = planted(rng, shape, ratio, tail, level, 0.9).astype(np.complex64)
            s = np.linalg.svd(X.astype(np.complex128), compute_uv=False)
            bounds.clear()
            svd = leading_triplets(X, k=2, gate=GATE)
            assert min(bounds) == svd.ratio_bound >= s[0] / s[1], (ratio, tail)
            if s[0] / s[1] < GATE:
                refused += svd.ratio_bound < GATE
    assert refused >= 13  # most below the gate are refused: 13 of 19 (wide) and of 21 (tall)


@ORIENTATIONS
def test_rank_one_complex64_has_an_infinite_ratio(transpose):
    # the stored outer product is rank one only to float32's rounding, which
    # products in float32 cannot tell from zero
    rng = np.random.default_rng(19)
    u, v = random_complex(rng, 40), random_complex(rng, 64)
    X = (np.outer(v, u) if transpose else np.outer(u, v)).astype(np.complex64)
    svd = leading_triplets(X, k=2, gate=GATE)
    assert svd.singular_values[1] == 0.0 and svd.dominance_ratio == np.inf
    assert svd.singular_values[0] == pytest.approx(np.linalg.norm(X.astype(np.complex128)),
                                                   rel=1e-6)
    assert not np.any(svd.left_vectors[:, 1]) and not np.any(svd.right_vectors[:, 1])


def test_clutter_scene_is_certified_within_three_sweeps(clutter_sim):
    svd = leading_triplets(clutter_sim, k=2, gate=GATE)
    assert svd.products <= 5 and svd.ratio_bound < GATE  # sweep 3 starts at product 5
    s = np.linalg.svd(clutter_sim, compute_uv=False)
    assert s[0] / s[1] <= svd.ratio_bound
    # without a gate the same scene only stops once both values converge
    assert leading_triplets(clutter_sim, k=2).products > svd.products


def test_clutter_scene_is_certified_at_its_first_product(clutter_sim, monkeypatch):
    # the start block holds X's own strongest columns, so the bound from
    # product 1's H = W^H W refuses the scene: one product over X
    calls, ratio_bound = [], decompose._ratio_bound

    def recorded(evals, total, rounding):
        calls.append(ratio_bound(evals, total, rounding))
        return calls[-1]

    monkeypatch.setattr(decompose, "_ratio_bound", recorded)
    svd = leading_triplets(clutter_sim.astype(np.complex128), k=2, gate=GATE)
    assert svd.products == 1 and len(calls) == 1
    assert calls[0] == svd.ratio_bound < GATE


def strip_trap(rng):
    """Wide 40 x 96: sigma1 = 10 on a target spread thin over three columns
    in four, and on every fourth column a structure orthogonal to u1, of
    singular values 2.5 to 3, one column each: every strip of the start
    block holds a structure column, and it is the strip's strongest."""
    M, N = 40, 96
    basis, _ = np.linalg.qr(random_complex(rng, (M, M)))
    structure = np.arange(0, N, 4)
    v1 = np.exp(2j * np.pi * rng.random(N))
    v1[structure] = 0.0
    X = 10.0 * np.outer(basis[:, 0], v1.conj() / np.linalg.norm(v1))
    X[:, structure] = basis[:, 1:structure.size + 1] * np.linspace(2.5, 3.0, structure.size)
    return X


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@ORIENTATIONS
def test_start_block_finds_a_target_its_strongest_columns_miss(transpose, dtype):
    # a start block of X's strongest columns alone is orthogonal to u1 here,
    # so it would stop at sigma1 = 3, not 10; its Gaussian column finds u1
    for seed in range(3):
        X = strip_trap(np.random.default_rng([29, seed]))
        X = (X.T if transpose else X).astype(dtype)
        s = np.linalg.svd(X.astype(np.complex128), compute_uv=False)
        svd = leading_triplets(X, k=2, gate=GATE)
        if svd.ratio_bound < GATE:  # refused: only on a bound at or above the dense ratio
            assert svd.ratio_bound >= s[0] / s[1], seed
        else:
            assert svd.singular_values[0] == pytest.approx(s[0], rel=1e-6), seed


def test_start_block_of_one_pick_and_the_gaussian_column():
    # k = 1 on 2 x 3: block 2, one strip's strongest column and the Gaussian one
    X = random_complex(np.random.default_rng(30), (2, 3))
    svd = leading_triplets(X, k=1)
    s = np.linalg.svd(X, compute_uv=False)
    assert svd.singular_values[0] == pytest.approx(s[0], rel=1e-9)


@ORIENTATIONS
def test_matrix_zero_outside_one_strip(transpose):
    # the other strips' strongest columns are zero, so the start block holds
    # one column of X, the Gaussian one and what the QR makes of zero columns
    X = np.zeros((40, 96), np.complex128)
    X[:, 16:32] = random_complex(np.random.default_rng(31), (40, 16))  # strip 2 of 6
    X = X.T if transpose else X
    s = np.linalg.svd(X, compute_uv=False)
    svd = leading_triplets(X, k=2)
    np.testing.assert_allclose(svd.singular_values, s[:2], rtol=1e-8)


def test_gate_leaves_an_accepted_decomposition_unchanged(default_sim):
    raw, _ = default_sim
    plain = leading_triplets(raw, k=2)
    gated = leading_triplets(raw, k=2, gate=GATE)
    assert plain.ratio_bound == np.inf and gated.products == plain.products
    assert plain.dominance_ratio <= gated.ratio_bound
    for name in ("singular_values", "left_vectors", "right_vectors"):
        assert np.array_equal(getattr(plain, name), getattr(gated, name))


# --- dominance_ratio ------------------------------------------------------------

def test_dominance_ratio_value():
    rng = np.random.default_rng(14)
    X = random_complex(rng, (10, 10))
    svd = leading_triplets(X, k=3)
    patched = replace(svd, singular_values=np.array([10.0, 1.0, 1.0]))
    assert patched.dominance_ratio == pytest.approx(10.0)


def test_dominance_ratio_needs_two_values():
    svd = leading_triplets(np.eye(3, dtype=np.complex128), k=1)
    with pytest.raises(ParameterError):
        svd.dominance_ratio


def test_scatterer_raises_dominance_over_noise(default_sim, default_scene):
    raw, _ = default_sim
    config, _ = default_scene
    scene_svd = leading_triplets(raw, k=2)
    noise, _ = simulate_raw(replace(config, noise_sigma=1.0), [])
    noise_svd = leading_triplets(noise, k=2)
    assert scene_svd.dominance_ratio > noise_svd.dominance_ratio


def test_noise_only_ratio_near_one():
    ratios = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        X = random_complex(rng, (256, 280))
        svd = leading_triplets(X, k=5)
        ratios.append(svd.dominance_ratio)
    assert min(ratios) >= 1.0
    assert max(ratios) <= 1.5


# --- gibbs_rotation_check -------------------------------------------------------

def test_rotation_orthogonal_input():
    x1 = np.array([1.0, 0.0, 0.0], dtype=np.complex128)
    x2 = np.array([0.0, 0.5j, 0.0], dtype=np.complex128)
    rot = gibbs_rotation_check(x1, x2)
    assert abs(abs(rot.c) - 1.0) < 1e-12
    assert abs(rot.s) < 1e-12
    assert rot.orthogonality_residual < 1e-12


def test_rotation_rank_one_input():
    rng = np.random.default_rng(15)
    x1 = random_complex(rng, 32)
    rot = gibbs_rotation_check(x1, x1.copy())
    assert rot.column_norms[1] < 1e-10 * np.linalg.norm(x1)


def test_rotation_random_pair_cross_check():
    rng = np.random.default_rng(16)
    x1 = random_complex(rng, 64)
    x2 = random_complex(rng, 64)
    rot = gibbs_rotation_check(x1, x2)
    assert abs(abs(rot.c) ** 2 + abs(rot.s) ** 2 - 1.0) < 1e-12
    assert rot.orthogonality_residual < 1e-10 * np.linalg.norm(x1) * np.linalg.norm(x2)
    svd = leading_triplets(np.column_stack([x1, x2]), k=2)
    np.testing.assert_allclose(sorted(rot.column_norms, reverse=True),
                               svd.singular_values, rtol=1e-9)


def test_rotation_rejects_degenerate_inputs():
    ones = np.ones(4, dtype=np.complex128)
    with pytest.raises(ParameterError):
        gibbs_rotation_check(ones, np.zeros(4, dtype=np.complex128))
    with pytest.raises(ParameterError):
        gibbs_rotation_check(ones, np.ones(5, dtype=np.complex128))
