"""Central finite-difference oracle for gradient verification.

Deliberately independent of the autodiff path: it only perturbs raw
parameter buffers and re-runs the forward closure under no_grad.
"""

from __future__ import annotations

import numpy as np

from vld.tensor import Tensor, no_grad


def numeric_gradient(f, param: Tensor, h: float = 1e-5) -> np.ndarray:
    """d f / d param via central differences, elementwise."""
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    with no_grad():
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            up = f()
            flat[i] = saved - h
            down = f()
            flat[i] = saved
            gflat[i] = (up - down) / (2.0 * h)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_gradients(build_loss, params: list[tuple[str, Tensor]],
                    h: float = 1e-5) -> dict[str, float]:
    """Compare autodiff gradients of ``build_loss()`` against the oracle.

    Returns per-parameter max relative error. ``build_loss`` must construct
    the loss from the current parameter buffers each time it is called.
    """
    for _, p in params:
        p.grad = None
    loss = build_loss()
    loss.backward()
    analytic = {name: np.array(p.grad, copy=True) for name, p in params}

    def value() -> float:
        return build_loss().item()

    errors = {}
    for name, p in params:
        numeric = numeric_gradient(value, p, h=h)
        errors[name] = max_relative_error(analytic[name], numeric)
    return errors
