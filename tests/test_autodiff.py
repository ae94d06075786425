"""Tape correctness: every primitive op against central finite differences."""

import numpy as np
import pytest

from tape import Tensor, concat, log_softmax, no_grad


def fd_check(build, shapes, seed=0, h=1e-6, tol=1e-6):
    """Compare tape gradients of scalar-valued ``build(*tensors)`` with
    central finite differences over every input component."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(0, 1, s) for s in shapes]
    tensors = [Tensor(a.copy()) for a in arrays]
    out = build(*tensors)
    out.backward()
    for pos, arr in enumerate(arrays):
        grad = tensors[pos].grad
        if grad is None:
            grad = np.zeros_like(arr)
        fd = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[pos][idx] += h
            minus[pos][idx] -= h
            fp = build(*[Tensor(a) for a in plus]).data
            fm = build(*[Tensor(a) for a in minus]).data
            fd[idx] = (float(fp) - float(fm)) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=tol, atol=tol)


class TestElementwise:
    def test_add_mul_broadcast(self):
        fd_check(lambda a, b: ((a + b) * a).sum(), [(3, 4), (4,)])

    def test_sub_neg_div(self):
        fd_check(lambda a, b: ((a - b) / (b * b + 3.0)).sum(), [(2, 3), (2, 3)])

    def test_scalar_const_ops(self):
        fd_check(lambda a: ((2.0 * a + 1.0) - (a / 2.0)).sum(), [(5,)])

    def test_tanh_exp_log(self):
        fd_check(lambda a: (a.tanh() + (a * a + 1.0).log() + (0.1 * a).exp()).sum(), [(4, 2)])

    def test_reflected_ops_with_ndarray(self):
        c = np.array([1.0, 2.0, 3.0])
        fd_check(lambda a: ((c * a) + (c - a) + (c / (a * a + 1.0))).sum(), [(3,)])


class TestMatmulAndShape:
    def test_matmul_2d(self):
        fd_check(lambda a, b: (a @ b).sum(), [(3, 4), (4, 2)])

    def test_matmul_batched_3d_2d(self):
        fd_check(lambda a, b: ((a @ b) * (a @ b)).sum(), [(2, 3, 4), (4, 2)])

    def test_matmul_3d_3d(self):
        fd_check(lambda a, b: (a @ b).sum(), [(2, 1, 3), (2, 3, 2)])

    def test_reshape_concat(self):
        fd_check(lambda a, b: concat([a.reshape(2, 2), b], axis=1).sum(), [(4,), (2, 3)])

    def test_sum_axis_keepdims(self):
        fd_check(lambda a: (a.sum(axis=1, keepdims=True) * a).sum(), [(3, 4)])
        fd_check(lambda a: (a.sum(axis=0) * a.sum(axis=0)).sum(), [(3, 4)])


class TestIndexing:
    def test_slice(self):
        fd_check(lambda a: (a[:, 1:3] * a[:, 0:2]).sum(), [(3, 4)])

    def test_fancy_rows_with_duplicates(self):
        idx = np.array([0, 2, 0, 1])
        fd_check(lambda a: (a[idx] * a[idx]).sum(), [(3, 5)])

    def test_fancy_pair_index(self):
        rows = np.arange(3)
        cols = np.array([2, 0, 1])
        fd_check(lambda a: a[rows, cols].sum(), [(3, 4)])


class TestLogSoftmax:
    def test_gradient(self):
        fd_check(lambda a: (log_softmax(a, axis=1) * np.arange(8.0).reshape(2, 4)).sum(),
                 [(2, 4)])

    def test_zero_logits_exact(self):
        ls = log_softmax(Tensor(np.zeros((1, 7))), axis=1)
        assert np.all(ls.data == -np.log(7.0))

    def test_rows_normalize(self):
        rng = np.random.default_rng(0)
        ls = log_softmax(Tensor(rng.normal(0, 3, (5, 6))), axis=1)
        np.testing.assert_allclose(np.exp(ls.data).sum(axis=1), 1.0, atol=1e-12)


class TestGraphMechanics:
    def test_grad_accumulates_over_reuse(self):
        x = Tensor(np.array([2.0]))
        y = x * x + x * 3.0
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_no_grad_disables_tape(self):
        with no_grad():
            x = Tensor(np.ones(3))
            y = x * 2.0
        assert y._parents == () and y._backward is None

    def test_deep_chain_no_recursion_limit(self):
        x = Tensor(np.array([1.0]))
        y = x
        for _ in range(5000):
            y = y + 1.0
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0])
