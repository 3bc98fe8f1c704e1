"""The parameter-update rule used for pretraining and test-time adaptation."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class AdamW:
    """Adam with decoupled weight decay.

    m_t = b1*m + (1-b1)*g ; v_t = b2*v + (1-b2)*g^2, bias-corrected,
    then p <- p - lr*wd*p - lr * m_hat / (sqrt(v_hat) + eps).
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params, lr: float, weight_decay: float = 0.0):
        self.params: list[Tensor] = list(params)
        self.lr = float(lr)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads: dict[Tensor, np.ndarray]) -> None:
        """Apply ``grads`` (as ``backward`` returns them); a param without an
        entry keeps its value and moments."""
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            g = grads.get(p)
            if g is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            if self.weight_decay != 0.0:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
