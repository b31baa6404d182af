"""RAdam with two learning-rate groups (language trunk vs graph-side parts)."""

from __future__ import annotations

import numpy as np

# Graph-side parameters get the higher learning rate.
_GRAPH_PREFIXES = ("pool", "fg.", "gnn.")

# The moment estimates' decay rates, the floor under the second's root, and
# the largest length of the second's approximating moving average.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
_RHO_INF = 2.0 / (1.0 - BETA2) - 1.0


def is_graph_param(name: str) -> bool:
    return name.startswith(_GRAPH_PREFIXES)


class RAdam:
    """Rectified Adam; falls back to unadapted momentum while variance is untrusted."""

    def __init__(self, params: dict[str, np.ndarray], lr_lm: float, lr_graph: float):
        self.lr = {name: (lr_graph if is_graph_param(name) else lr_lm) for name in params}
        self.step_count = 0
        self.m = {name: np.zeros_like(arr) for name, arr in params.items()}
        self.v = {name: np.zeros_like(arr) for name, arr in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        t = self.step_count
        beta1_t = BETA1**t
        beta2_t = BETA2**t
        rho = _RHO_INF - 2.0 * t * beta2_t / (1.0 - beta2_t)
        if rho > 4.0:
            rect = np.sqrt(
                ((rho - 4.0) * (rho - 2.0) * _RHO_INF)
                / ((_RHO_INF - 4.0) * (_RHO_INF - 2.0) * rho)
            )
        else:
            rect = None
        for name, grad in grads.items():
            m = self.m[name]
            v = self.v[name]
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * grad * grad
            m_hat = m / (1.0 - beta1_t)
            if rect is not None:
                v_hat = np.sqrt(v / (1.0 - beta2_t)) + EPS
                params[name] -= self.lr[name] * rect * m_hat / v_hat
            else:
                params[name] -= self.lr[name] * m_hat
