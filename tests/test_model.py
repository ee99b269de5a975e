"""Whole-model integration: end-to-end gradient correctness and ablation
equivalence at the model level."""

import time

import numpy as np

from gradcheck import check_gradients
from util import tiny_e2e_problem


def test_every_parameter_present_in_e2e_problem():
    params, _ = tiny_e2e_problem()
    names = [n for n, _ in params]
    assert len(names) == len(set(names))
    for expected in ("enc/patch_w", "enc/pos", "stp/hub", "stp/sta/wq",
                     "imlp/prompts", "imlp/logit_scale", "head/cls/w",
                     "head/hub/b"):
        assert expected in names, expected


def test_full_objective_gradients_match_finite_differences():
    """Every parameter of the full five-part objective, checked end to end."""
    params, build_loss = tiny_e2e_problem()
    start = time.time()
    errs = check_gradients(build_loss, params)
    elapsed = time.time() - start
    worst = max(errs.values())
    assert worst < 1e-3, sorted(errs.items(), key=lambda kv: -kv[1])[:5]
    assert elapsed < 110.0, f"gradient suite too slow: {elapsed:.1f}s"


def test_e2e_loss_is_deterministic():
    _, build_a = tiny_e2e_problem()
    _, build_b = tiny_e2e_problem()
    assert build_a().item() == build_b().item()


def test_backward_twice_reproduces_gradients():
    params, build_loss = tiny_e2e_problem()

    def grads():
        for _, p in params:
            p.grad = None
        build_loss().backward()
        return {n: np.array(p.grad, copy=True) for n, p in params}

    first = grads()
    second = grads()
    for name in first:
        np.testing.assert_array_equal(first[name], second[name])
