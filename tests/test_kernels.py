"""Property tests of the batched small-matrix kernels against ``np.linalg``.

Every property runs on C-ordered inputs and on inputs stored with their
axes reversed, so that the first (trial) axis is innermost in memory as
the Monte-Carlo sampler lays it out; the outputs must keep that order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaydmt.channel_sim import _cholesky, _forward_sub, _logdet, _matmul

batch_shapes = st.lists(st.integers(1, 4), min_size=0, max_size=2).map(tuple)
sizes = st.integers(1, 5)
seeds = st.integers(0, 2**32 - 1)
# log10 of the condition number of the Hermitian positive-definite inputs
log_conds = st.floats(0.0, 10.0)
orders = st.sampled_from(["C", "trials"])

# Derandomized so that every run of the suite checks the same examples.
KERNEL_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def arrange(a, order):
    """``a`` in C order, or with its first axis innermost (Fortran order)."""
    return np.ascontiguousarray(a) if order == "C" else np.asfortranarray(a)


def assert_keeps_order(out, order, batch):
    """The output is C-ordered for C input, else its first batch axis is innermost."""
    if order == "C":
        assert out.flags.c_contiguous, out.strides
    elif batch and batch[0] > 1:
        longer = [s for s, n in zip(out.strides, out.shape) if n > 1]
        assert out.strides[0] == min(longer), out.strides


def hermitian_pd(rng, batch, n, log_cond):
    """Batch of Hermitian positive-definite matrices with a set condition number."""
    q, _ = np.linalg.qr(complex_normal(rng, batch + (n, n)))
    scale = 10.0 ** rng.uniform(-2.0, 2.0, size=batch + (1,))
    eig = scale * np.logspace(0.0, log_cond, n)
    a = (q * eig[..., None, :]) @ q.conj().swapaxes(-1, -2)
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


@KERNEL_SETTINGS
@given(batch=batch_shapes, m=sizes, k=sizes, n=sizes, seed=seeds, order=orders)
def test_matmul_matches_numpy(batch, m, k, n, seed, order):
    rng = np.random.default_rng(seed)
    a = arrange(complex_normal(rng, batch + (m, k)), order)
    b = arrange(complex_normal(rng, batch + (k, n)), order)
    out = _matmul(a, b)
    assert np.allclose(out, a @ b, rtol=1e-12, atol=1e-12)
    assert_keeps_order(out, order, batch)
    # Broadcasting an unbatched real operand against a batch, as relay ops do.
    c = rng.standard_normal((m, k))
    out = _matmul(c, b)
    assert np.allclose(out, c @ b, rtol=1e-12, atol=1e-12)
    # With one column neither operand orders the trial axis against the
    # row axis (each has stride 0 on one of them), so numpy falls back to C.
    if n > 1:
        assert_keeps_order(out, order, batch)


def test_matmul_rejects_mismatched_inner_dimensions():
    with pytest.raises(ValueError):
        _matmul(np.ones((3, 2, 2)), np.ones((3, 3, 2)))


@KERNEL_SETTINGS
@given(batch=batch_shapes, n=sizes, seed=seeds, log_cond=log_conds, order=orders)
def test_cholesky_matches_numpy(batch, n, seed, log_cond, order):
    rng = np.random.default_rng(seed)
    a = arrange(hermitian_pd(rng, batch, n, log_cond), order)
    low = _cholesky(a)
    assert_keeps_order(low, order, batch)
    ref = np.linalg.cholesky(a)
    norm = np.linalg.norm(a, axis=(-2, -1), keepdims=True)
    assert np.all(np.triu(low, 1) == 0)
    assert np.all(np.abs(low @ low.conj().swapaxes(-1, -2) - a) <= 1e-12 * norm)
    # The factor itself is as well determined as the conditioning allows.
    tol = 1e-13 * 10.0**log_cond * np.sqrt(norm)
    assert np.all(np.abs(low - ref) <= tol)


@KERNEL_SETTINGS
@given(batch=batch_shapes, n=sizes, seed=seeds, log_cond=log_conds, order=orders)
def test_logdet_matches_slogdet(batch, n, seed, log_cond, order):
    rng = np.random.default_rng(seed)
    a = arrange(hermitian_pd(rng, batch, n, log_cond), order)
    sign, ref = np.linalg.slogdet(a)
    assert np.all(sign.real > 0)
    # Rounding A moves log(lambda_min) by up to about cond(A) * eps.
    tol = 1e-12 + n * 1e-14 * 10.0**log_cond
    out = _logdet(a)
    assert np.allclose(out, ref, rtol=1e-12, atol=tol)
    assert_keeps_order(out, order, batch)


@KERNEL_SETTINGS
@given(batch=batch_shapes, n=sizes, cols=sizes, seed=seeds, log_cond=log_conds, order=orders)
def test_forward_sub_matches_solve(batch, n, cols, seed, log_cond, order):
    rng = np.random.default_rng(seed)
    low = arrange(np.linalg.cholesky(hermitian_pd(rng, batch, n, log_cond)), order)
    b = arrange(complex_normal(rng, batch + (n, cols)), order)
    x = _forward_sub(low, b)
    assert_keeps_order(x, order, batch)
    ref = np.linalg.solve(low, b)
    # Backward error is small whatever the conditioning.
    resid = np.abs(low @ x - b)
    assert np.all(resid <= 1e-10 * (np.abs(low) @ np.abs(x) + np.abs(b)))
    if log_cond <= 4.0:
        assert np.allclose(x, ref, rtol=1e-7, atol=1e-7 * np.abs(ref).max())


@KERNEL_SETTINGS
@given(batch=batch_shapes, n=sizes, seed=seeds, negative=st.integers(0, 4), order=orders)
def test_cholesky_rejects_indefinite(batch, n, seed, negative, order):
    rng = np.random.default_rng(seed)
    a = arrange(hermitian_pd(rng, batch, n, 3.0), order)
    # Shift one matrix of the batch until one eigenvalue is <= 0.
    idx = tuple(rng.integers(0, s) for s in batch)
    shift = np.linalg.eigvalsh(a[idx])[min(negative, n - 1)]
    a[idx] = a[idx] - shift * np.eye(n) - 1e-3 * np.linalg.norm(a[idx]) * np.eye(n)
    with pytest.raises(np.linalg.LinAlgError):
        _cholesky(a)
    with pytest.raises(np.linalg.LinAlgError):
        _logdet(a)


@KERNEL_SETTINGS
@given(
    batch=batch_shapes,
    n=sizes,
    seed=seeds,
    bad=st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.nan), complex(np.inf, 1)]),
    order=orders,
)
def test_cholesky_rejects_non_finite(batch, n, seed, bad, order):
    rng = np.random.default_rng(seed)
    a = arrange(hermitian_pd(rng, batch, n, 2.0), order)
    idx = tuple(rng.integers(0, s) for s in batch + (n, n))
    a[idx] = bad
    with pytest.raises(np.linalg.LinAlgError):
        _cholesky(a)


def test_real_input_and_zero_batch():
    # Covariances may arrive real (a broadcast identity) and unbatched.
    eye = np.broadcast_to(np.eye(3), (4, 3, 3))
    assert np.array_equal(_cholesky(eye), np.broadcast_to(np.eye(3), (4, 3, 3)))
    assert np.array_equal(_logdet(eye), np.zeros(4))
    assert _logdet(np.array([[4.0]])) == pytest.approx(np.log(4.0))
