"""Adam updates, learning-rate groups, and the cosine schedule."""

import numpy as np
import pytest

from vld.errors import ConfigError, ContractError
from vld.optim import Adam, cosine_lr
from vld.tensor import Tensor


def test_zero_gradient_leaves_params_unchanged():
    p = Tensor([1.0, -2.0], requires_grad=True)
    p.grad = np.zeros(2)
    opt = Adam({"": ([("p", p)], 1.0)})
    opt.step(lr=0.1)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_first_step_moves_against_gradient_by_lr():
    p = Tensor([0.0], requires_grad=True)
    p.grad = np.array([1.0])
    opt = Adam({"": ([("p", p)], 1.0)})
    opt.step(lr=0.05)
    assert p.data[0] == pytest.approx(-0.05, rel=1e-6)


def test_quadratic_descent_is_monotone():
    p = Tensor([1.0], requires_grad=True)
    opt = Adam({"": ([("p", p)], 1.0)})
    history = [abs(p.data[0])]
    for _ in range(10):
        opt.zero_grad()
        loss = (p * p).sum()
        loss.backward()
        opt.step(lr=0.1)
        history.append(abs(p.data[0]))
    assert all(b < a for a, b in zip(history, history[1:]))


def test_missing_gradient_names_parameter():
    p = Tensor([1.0], requires_grad=True)
    q = Tensor([1.0], requires_grad=True)
    p.grad = np.array([1.0])
    opt = Adam({"grp": ([("has_grad", p), ("no_grad", q)], 1.0)})
    with pytest.raises(ContractError, match="no_grad"):
        opt.step(lr=0.1)


def test_group_multiplier_scales_first_step():
    p = Tensor([0.0], requires_grad=True)
    q = Tensor([0.0], requires_grad=True)
    opt = Adam({"base": ([("p", p)], 1.0), "prompt": ([("q", q)], 25.0)})
    p.grad = np.array([1.0])
    q.grad = np.array([1.0])
    opt.step(lr=0.01)
    assert q.data[0] == pytest.approx(25.0 * p.data[0], rel=1e-9)


def test_cosine_lr_endpoints_and_midpoint():
    assert cosine_lr(0, 100, 0.5) == pytest.approx(0.5)
    assert cosine_lr(100, 100, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert cosine_lr(50, 100, 0.5) == pytest.approx(0.25)


def test_cosine_lr_rejects_zero_total():
    with pytest.raises(ConfigError):
        cosine_lr(0, 0, 0.5)


def test_cosine_lr_rejects_out_of_range_step():
    with pytest.raises(ContractError):
        cosine_lr(11, 10, 0.5)
