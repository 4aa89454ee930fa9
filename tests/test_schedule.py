import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgps import ConfigError, build_schedule


def test_endpoints_exact():
    sigmas = build_schedule(16, 0.02, 16.0, 7.0)
    assert abs(sigmas[0] - 16.0) <= 1e-12 * 16.0
    assert abs(sigmas[-1] - 0.02) <= 1e-12 * 0.02


def test_strictly_decreasing():
    sigmas = build_schedule(33, 0.02, 33.0, 7.0)
    assert np.all(np.diff(sigmas) < 0)


def test_rho_one_is_affine():
    # rho = 1 degenerates to an arithmetic ramp
    sigmas = build_schedule(9, 0.5, 4.5, 1.0)
    expected = np.linspace(4.5, 0.5, 9)
    np.testing.assert_allclose(sigmas, expected, rtol=1e-15)


def test_closed_form_midpoints():
    steps, t_min, t_max, rho = 12, 0.02, 10.0, 7.0
    sigmas = build_schedule(steps, t_min, t_max, rho)
    i = np.arange(steps)
    inv = 1.0 / rho
    expected = (t_max**inv + i / (steps - 1) * (t_min**inv - t_max**inv)) ** rho
    np.testing.assert_allclose(sigmas, expected, rtol=4e-15)


def test_len_and_terminal_level():
    sigmas = build_schedule(8, 0.02, 8.0, 7.0)
    assert len(sigmas) == 8


def test_sigmas_read_only():
    sigmas = build_schedule(4, 0.02, 4.0, 7.0)
    with pytest.raises(ValueError):
        sigmas[0] = 1.0


@pytest.mark.parametrize(
    "steps,t_min,t_max,rho",
    [(1, 0.02, 1.0, 7.0), (4, 0.0, 1.0, 7.0), (4, 2.0, 1.0, 7.0), (4, 0.02, 1.0, 0.0)],
)
def test_validation(steps, t_min, t_max, rho):
    with pytest.raises(ConfigError):
        build_schedule(steps, t_min, t_max, rho)


@settings(max_examples=80)
@given(
    steps=st.integers(2, 64),
    t_min=st.floats(1e-3, 0.5),
    span=st.floats(1.1, 100.0),
    rho=st.floats(0.5, 10.0),
)
def test_schedule_properties(steps, t_min, span, rho):
    t_max = t_min * span
    sigmas = build_schedule(steps, t_min, t_max, rho)
    assert sigmas.shape == (steps,)
    assert abs(sigmas[0] - t_max) <= 1e-12 * t_max
    assert abs(sigmas[-1] - t_min) <= 1e-12 * max(t_min, 1.0)
    assert np.all(np.diff(sigmas) < 0)
    assert np.all(np.isfinite(sigmas))
