import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgps import (
    RngStream,
    SamplerConfig,
    ConfigError,
    NonFiniteError,
    SgpsError,
    ShapeMismatchError,
    Signal,
    mse,
    psnr,
)
from sgps.core import (
    MAX_STEPS,
    RHO,
    STEP_CSV_COLUMNS,
    T_MIN,
    RunReport,
    StepRecord,
    all_finite,
    csv_text,
    format_float,
)


class TestSignal:
    def test_flattens_and_freezes(self):
        s = Signal(np.arange(6.0), (2, 3))
        assert s.data.shape == (6,)
        assert s.as_nd().shape == (2, 3)
        with pytest.raises(ValueError):
            s.data[0] = 7.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            Signal(np.zeros(5), (2, 3))

    def test_rejects_3d(self):
        with pytest.raises(ShapeMismatchError):
            Signal(np.zeros(8), (2, 2, 2))

    def test_rejects_nonpositive_extent(self):
        with pytest.raises(ShapeMismatchError):
            Signal(np.zeros(0), (0,))

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteError):
            Signal(np.array([1.0, np.nan]), (2,))
        with pytest.raises(NonFiniteError):
            Signal(np.array([1.0, np.inf]), (2,))

    def test_with_data_keeps_shape(self):
        s = Signal(np.zeros(4), (2, 2))
        t = s.with_data(np.ones((2, 2)))
        assert t.shape == (2, 2)
        assert np.all(t.data == 1.0)

    def test_copies_input(self):
        a = np.zeros(3)
        s = Signal(a, (3,))
        a[0] = 5.0
        assert s.data[0] == 0.0

    def test_dtype_is_float64(self):
        s = Signal(np.array([1, 2, 3], dtype=np.int32), (3,))
        assert s.data.dtype == np.float64

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_finite_check_survives_overflowing_sum_of_squares(self):
        # finite entries whose squares overflow are still accepted (numpy
        # warns about the overflow), and infinities of opposite sign are
        # still caught
        big = Signal(np.array([1e200, -1e200]), (2,))
        assert big.data[0] == 1e200
        with pytest.raises(NonFiniteError):
            Signal(np.array([np.inf, -np.inf]), (2,))
        with pytest.raises(NonFiniteError):
            Signal(np.array([1e200, np.nan]), (2,))

    def test_overflowing_sum_of_squares_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Signal(np.array([1e200, 3.0]), (2,)).data[0] == 1e200
            assert all_finite(np.full((3, 2), 1e300))
            assert not all_finite(np.array([[1e300, 0.0], [np.nan, 1.0]]))

    def test_with_data_copies_checks_and_freezes(self):
        s = Signal(np.zeros(4), (2, 2))
        a = np.arange(4.0)
        t = s.with_data(a)
        a[0] = 9.0
        assert t.data[0] == 0.0 and a.flags.writeable
        with pytest.raises(ValueError):
            t.data[0] = 1.0
        assert t.with_data([1, 2, 3, 4]).data.dtype == np.float64
        with pytest.raises(ShapeMismatchError):
            s.with_data(np.zeros(5))
        with pytest.raises(NonFiniteError):
            s.with_data(np.array([0.0, 1.0, np.nan, 2.0]))


class TestRngStream:
    def test_same_key_same_draws(self):
        a = RngStream(42, 3).normal(16)
        b = RngStream(42, 3).normal(16)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42, 0).normal(16)
        b = RngStream(42, 1).normal(16)
        assert not np.array_equal(a, b)

    def test_substream_deterministic(self):
        a = RngStream(7, 5).substream(2).normal(8)
        b = RngStream(7, 5).substream(2).normal(8)
        assert np.array_equal(a, b)

    def test_substreams_distinct(self):
        r = RngStream(7, 5)
        ids = {r.substream(k).stream_id for k in range(64)}
        assert len(ids) == 64
        assert 5 not in ids

    def test_substream_independent_of_parent_state(self):
        r1 = RngStream(9, 0)
        r1.normal(100)  # consume some of the parent
        r2 = RngStream(9, 0)
        assert np.array_equal(r1.substream(1).normal(4), r2.substream(1).normal(4))

    def test_clone_rewinds(self):
        r = RngStream(11, 2)
        first = r.normal(4)
        assert np.array_equal(r.clone().normal(4), first)

    def test_rejects_bad_seed(self):
        with pytest.raises(SgpsError):
            RngStream(-1)
        with pytest.raises(SgpsError):
            RngStream(2**64)

    def test_rejects_zero_draws(self):
        with pytest.raises(SgpsError):
            RngStream(0).normal(0)

    def test_normal_into_fills_with_the_normal_draws(self):
        rows = np.empty((2, 37))
        r = RngStream(12, 4)
        r.normal_into(rows[0])
        r.normal_into(rows[1])
        want = RngStream(12, 4)
        assert np.array_equal(rows[0], want.normal(37))
        assert np.array_equal(rows[1], want.normal(37))


class TestSamplerConfig:
    def test_defaults(self):
        cfg = SamplerConfig(steps=16, t_max=16.0, sigma_y=0.05)
        assert cfg.alpha == 0.5
        assert cfg.langevin_steps == 100
        assert cfg.mc_probes == 1
        assert cfg.sure_repeats == 1
        assert cfg.ode_substeps == 1
        assert RHO == 7.0
        assert T_MIN == 0.02

    def test_replace(self):
        cfg = SamplerConfig(steps=16, t_max=16.0, sigma_y=0.05)
        other = cfg.replace(alpha=0.0)
        assert other.alpha == 0.0
        assert cfg.alpha == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"steps": 1},
            {"t_max": 0.01},  # below T_MIN
            {"t_max": 0.02},  # at T_MIN
            {"alpha": -0.1},
            {"sigma_y": 0.0},
            {"langevin_steps": 0},
            {"langevin_eta": 0.0},
            {"sure_repeats": -1},
            {"mc_probes": 0},
            {"ode_substeps": 0},
            {"sigma_hat_scale": 0.0},
            {"steps": MAX_STEPS + 1},
            {"steps": 10**30},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(steps=16, t_max=16.0, sigma_y=0.05)
        base.update(kwargs)
        with pytest.raises(ConfigError):
            SamplerConfig(**base)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(SamplerConfig) if "float" in f.type]
    )
    def test_non_finite_floats_rejected(self, name, value):
        base = dict(steps=16, t_max=16.0, sigma_y=0.05)
        base[name] = value
        with pytest.raises(ConfigError, match=name):
            SamplerConfig(**base)


def test_mse_oracle():
    a = Signal(np.zeros(4), (4,))
    b = Signal(np.full(4, 0.1), (4,))
    assert mse(a, b) == pytest.approx(0.01)


def test_mse_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        mse(Signal(np.zeros(4), (4,)), Signal(np.zeros(4), (2, 2)))


def test_psnr_oracle():
    a = Signal(np.zeros(4), (4,))
    b = Signal(np.full(4, 0.1), (4,))
    assert psnr(a, b) == pytest.approx(20.0)


def test_psnr_equal_signals_is_inf():
    a = Signal(np.ones(3), (3,))
    assert psnr(a, a) == math.inf


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips(x):
    assert float(format_float(x)) == x


def _record(step=1, nfe=3):
    return StepRecord(
        step=step,
        sigma_t=1.5,
        sigma_hat_raw=0.3,
        sigma_hat_used=0.25,
        sure_value=-1.25,
        psnr_x0t=20.0,
        psnr_x0ty=21.0,
        psnr_star=22.0,
        nfe_step=nfe,
        sigma_hat_star=0.1,
    )


def _step_csv_lines():
    report = RunReport(steps=(_record(),), psnr_final=22.0, mse_final=0.01, total_nfe=3)
    return report.step_csv().split("\n")


def test_step_csv_schema_pinned():
    assert STEP_CSV_COLUMNS == (
        "step",
        "sigma_t",
        "sigma_hat_raw",
        "sigma_hat_used",
        "sure_value",
        "psnr_x0t",
        "psnr_x0ty",
        "psnr_star",
        "nfe_step",
    )
    header, row = _step_csv_lines()[:2]
    assert header == ",".join(STEP_CSV_COLUMNS)
    assert len(row.split(",")) == len(STEP_CSV_COLUMNS)


def test_step_csv_row_values():
    fields = _step_csv_lines()[1].split(",")
    assert fields[0] == "1"
    assert float(fields[1]) == 1.5
    assert fields[-1] == "3"


def test_csv_text_cell_rules():
    text = csv_text(
        ("s", "zero", "int", "nan", "inf", "neg", "tenth", "np", "half"),
        [("as is", 0, 12, math.nan, math.inf, -math.inf, 0.1, np.float64(1.5), 0.5),
         ("0.1", -3, 0, 2.0, 1e-300, 0.0, 1 / 3, np.float64(math.nan), -0.0)],
    )
    assert text == (
        "s,zero,int,nan,inf,neg,tenth,np,half\n"
        "as is,0,12,nan,inf,-inf,0.10000000000000001,1.5,0.5\n"
        "0.1,-3,0,2,1e-300,0,0.33333333333333331,nan,-0\n"
    )
    assert csv_text(("a", "b"), []) == "a,b\n"


@settings(max_examples=30)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
def test_stream_reproducibility_property(seed, sid):
    a = RngStream(seed, sid).normal(4)
    b = RngStream(seed, sid).normal(4)
    assert np.array_equal(a, b)
