"""Shared test oracles."""
import numpy as np
import pytest

from sgps.sure import _evaluate


def _central_difference_gradient(den, evaluation):
    """Central differences, step 1e-4 * (1 + max|x|), of the risk expression
    the evaluation froze: its sigma_used, epsilon and probes held fixed."""
    x = evaluation.point
    h = 1e-4 * (1.0 + float(np.max(np.abs(x.data))))
    g = np.zeros(x.n)
    for i in range(x.n):
        step = np.zeros(x.n)
        step[i] = h
        f = [
            _evaluate(den, x.with_data(x.data + s), evaluation.sigma_used,
                      evaluation.epsilon, evaluation.probes).value
            for s in (step, -step)
        ]
        g[i] = (f[0] - f[1]) / (2.0 * h)
    return x.with_data(g)


@pytest.fixture
def central_difference_gradient():
    """The reference the exact risk gradient is checked against."""
    return _central_difference_gradient
