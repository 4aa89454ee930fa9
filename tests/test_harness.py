"""Experiment harness: config parsing, task construction, PGM and SVG I/O,
the driver's artifact layout, and the CLI."""
import os
import subprocess
import sys

import numpy as np
import pytest

import sgps
from sgps.core import ConfigError, RngStream, Signal
from sgps.harness.cli import main
from sgps.harness.config import (
    make_task,
    parse_config,
    parse_config_text,
    run_stream,
)
from sgps.harness.pgm import read_pgm, write_pgm
from sgps.harness.runner import (
    curves_svg_name,
    expand_sweep,
    run_experiment,
    step_csv_name,
    summary_csv_name,
)
from sgps.harness.svg import polyline_chart
from sgps.operators import BlurOp, MaskOp


MINIMAL = """
[experiment]
name = mini
seed = 3

[prior]
shape = 16 16
mean_kind = smooth
s2 = 0.04

[operator]
kind = identity

[sampler]
steps = 4
langevin_steps = 20
"""


def minimal_with(out: str) -> str:
    return MINIMAL.replace("name = mini", f"name = mini\noutput_dir = {out}")


class TestConfigParsing:
    def test_minimal_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.name == "mini"
        assert cfg.seed == 3
        assert cfg.repeats == 1
        assert cfg.measurement_sigma == 0.05
        assert cfg.peak == 1.0
        assert cfg.image is None
        assert cfg.sampler.steps == 4
        assert cfg.sampler.t_max == 4.0
        assert cfg.sampler.sigma_y == 0.05
        assert cfg.patch.patch_size == 7
        assert cfg.sweep_axes == {}
        assert len(cfg.config_hash) == 8

    def test_sigma_y_defaults_to_measurement_sigma(self):
        cfg = parse_config_text(MINIMAL.replace("seed = 3", "seed = 3\nmeasurement_sigma = 0.2"))
        assert cfg.sampler.sigma_y == 0.2
        explicit = parse_config_text(MINIMAL.replace("steps = 4", "steps = 4\nsigma_y = 0.3"))
        assert explicit.sampler.sigma_y == 0.3

    def test_hash_tracks_text(self):
        a = parse_config_text(MINIMAL)
        b = parse_config_text(MINIMAL)
        c = parse_config_text(MINIMAL.replace("steps = 4", "steps = 5"))
        assert a.config_hash == b.config_hash
        assert a.config_hash != c.config_hash

    def test_sampler_fields_pass_through(self):
        text = MINIMAL.replace(
            "steps = 4",
            "steps = 4\nalpha = 0.7\nmc_probes = 3\nsure_enabled = off\nsigma_hat_scale = 1.5",
        )
        cfg = parse_config_text(text)
        assert cfg.sampler.alpha == 0.7
        assert cfg.sampler.mc_probes == 3
        assert cfg.sampler.sure_enabled is False
        assert cfg.sampler.sigma_hat_scale == 1.5

    @pytest.mark.parametrize("token,value", [("yes", True), ("0", False), ("ON", True)])
    def test_bool_tokens(self, token, value):
        cfg = parse_config_text(MINIMAL.replace("steps = 4", f"steps = 4\nsure_enabled = {token}"))
        assert cfg.sampler.sure_enabled is value

    @pytest.mark.parametrize(
        "mutation,fragment",
        [
            (("steps = 4", "steps = four"), "[sampler] steps"),
            (("steps = 4", "steps = 4\nalpha = big"), "[sampler] alpha"),
            (("shape = 16 16", "shape = 16 16 16"), "[prior] shape"),
            (("shape = 16 16", "shape = 0 4"), "[prior] shape"),
            (("mean_kind = smooth", "mean_kind = fractal"), "[prior] mean_kind"),
            (("kind = identity", "kind = teleport"), "[operator] kind"),
            (("seed = 3", "seed = 3\nmeasurement_sigma = -1"), "measurement_sigma"),
            (("seed = 3", "seed = 3\nrepeats = 0"), "repeats"),
            (("seed = 3", "seed = 3\npeak = 0"), "peak"),
            (("steps = 4", "steps = 4\nsure_enabled = maybe"), "[sampler] sure_enabled"),
            (("steps = 4", "steps = 4\nlangevin_step = 5"), "[sampler] langevin_step"),
            (("steps = 4", "steps = 4\nseed = 99"), "[sampler] seed"),
            (("langevin_steps = 20", "langevin_steps = 20\n[sweep]\nseed = 1 2 3"),
             "[sweep] seed"),
            (("steps = 4", "steps = 4\nsigma_y = nan"), "sigma_y must be finite"),
            (("steps = 4", "steps = 4\nalpha = nan"), "alpha must be finite"),
            (("seed = 3", "seed = 3\nmeasurement_sigma = nan"), "measurement_sigma"),
            (("seed = 3", "seed = 3\nmeasurement_sigma = inf"), "measurement_sigma"),
            (("seed = 3", "seed = 3\npeak = nan"), "peak"),
            (("seed = 3", "seed = 3\npeak = inf"), "peak"),
            (("steps = 4", "steps = 4\nprobe_resample = true"), "[sampler] probe_resample"),
        ],
    )
    def test_typed_errors_name_section_and_key(self, mutation, fragment):
        with pytest.raises(ConfigError, match=__import__("re").escape(fragment)):
            parse_config_text(MINIMAL.replace(*mutation))

    def test_missing_sections(self):
        no_prior = MINIMAL.replace("[prior]", "[priorx]")
        with pytest.raises(ConfigError, match="prior"):
            parse_config_text(no_prior)
        no_sampler = MINIMAL.replace("[sampler]", "[samplerx]")
        with pytest.raises(ConfigError, match="sampler"):
            parse_config_text(no_sampler)

    def test_inline_means(self):
        text = """
[experiment]
seed = 1
[prior]
shape = 3
weights = 0.5 0.5
mean_kind = inline
means = 1 2 3 | 4 5 6
s2 = 0.5
[operator]
kind = identity
[sampler]
steps = 2
"""
        cfg = parse_config_text(text)
        np.testing.assert_array_equal(cfg.prior.means, [[1, 2, 3], [4, 5, 6]])
        bad = text.replace("means = 1 2 3 | 4 5 6", "means = 1 2 | 4 5 6")
        with pytest.raises(ConfigError, match="means"):
            parse_config_text(bad)

    def test_smooth_means_deterministic(self):
        text = MINIMAL.replace("mean_kind = smooth", "mean_kind = smooth\nmean_seed = 9")
        a = parse_config_text(text)
        b = parse_config_text(text)
        np.testing.assert_array_equal(a.prior.means, b.prior.means)

    def test_mask_keep_fraction_deterministic(self):
        text = MINIMAL.replace("kind = identity", "kind = mask\nkeep_fraction = 0.6")
        a = parse_config_text(text)
        b = parse_config_text(text)
        assert isinstance(a.op, MaskOp)
        np.testing.assert_array_equal(a.op.keep, b.op.keep)
        assert a.op.keep.size == round(0.6 * 256)
        with pytest.raises(ConfigError, match="keep_fraction"):
            parse_config_text(text.replace("keep_fraction = 0.6", "keep_fraction = 1.5"))

    def test_mask_explicit_keep(self):
        text = MINIMAL.replace("shape = 16 16", "shape = 6").replace(
            "kind = identity", "kind = mask\nkeep = 0 2 4"
        )
        cfg = parse_config_text(text)
        np.testing.assert_array_equal(cfg.op.keep, [0, 2, 4])

    def test_blur_kernel_from_params(self):
        text = MINIMAL.replace("kind = identity", "kind = blur\nkernel_size = 3\nkernel_width = 0.8")
        cfg = parse_config_text(text)
        assert isinstance(cfg.op, BlurOp)

    def test_perturbed_denoiser_toggle(self):
        cfg = parse_config_text(MINIMAL.replace("s2 = 0.04", "s2 = 0.04\nperturb_amplitude = 0.01"))
        assert type(cfg.denoiser).__name__ == "PerturbedDenoiser"

    def test_parse_config_missing_file(self):
        with pytest.raises(ConfigError, match="no such config"):
            parse_config("/nonexistent/path.cfg")


class TestSweepConfig:
    def test_axes_parse_and_expand_order(self):
        text = MINIMAL + "\n[sweep]\nalpha = 0.25 0.5\nmc_probes = 1 3\n"
        cfg = parse_config_text(text)
        pts = expand_sweep(cfg)
        assert pts == [
            {"alpha": 0.25, "mc_probes": 1},
            {"alpha": 0.25, "mc_probes": 3},
            {"alpha": 0.5, "mc_probes": 1},
            {"alpha": 0.5, "mc_probes": 3},
        ]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match=r"\[sweep\] girth"):
            parse_config_text(MINIMAL + "\n[sweep]\ngirth = 1 2\n")

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="empty axis"):
            parse_config_text(MINIMAL + "\n[sweep]\nalpha =\n")

    def test_cap_enforced(self):
        text = MINIMAL + "\n[sweep]\nmax_points = 3\nalpha = 0.1 0.2 0.3 0.4\n"
        cfg = parse_config_text(text)
        with pytest.raises(ConfigError, match="cap"):
            expand_sweep(cfg)

    def test_no_axes_expands_to_single_point(self):
        assert expand_sweep(parse_config_text(MINIMAL)) == [{}]


class TestMakeTask:
    def test_deterministic(self):
        cfg = parse_config_text(MINIMAL)
        xa, ya = make_task(cfg)
        xb, yb = make_task(cfg)
        assert np.array_equal(xa.data, xb.data)
        assert np.array_equal(ya.data, yb.data)

    def test_measurement_lives_in_operator_range(self):
        text = MINIMAL.replace("kind = identity", "kind = downsample\nfactor = 2")
        cfg = parse_config_text(text)
        x0, y = make_task(cfg)
        assert x0.shape == (16, 16)
        assert y.shape == (8, 8)

    def test_image_source(self, tmp_path):
        img = Signal(np.clip(RngStream(1, 0).normal(256) * 0.1 + 0.5, 0, 1), (16, 16))
        path = str(tmp_path / "truth.pgm")
        write_pgm(path, img)
        cfg = parse_config_text(MINIMAL.replace("seed = 3", f"seed = 3\nimage = {path}"))
        x0, _ = make_task(cfg)
        assert np.max(np.abs(x0.data - img.data)) <= 0.5 / 65535 + 1e-12

    def test_image_shape_mismatch(self, tmp_path):
        img = Signal(np.full(64, 0.5), (8, 8))
        path = str(tmp_path / "small.pgm")
        write_pgm(path, img)
        cfg = parse_config_text(MINIMAL.replace("seed = 3", f"seed = 3\nimage = {path}"))
        with pytest.raises(ConfigError, match="image"):
            make_task(cfg)

    def test_run_streams_distinct(self):
        cfg = parse_config_text(MINIMAL)
        a = run_stream(cfg, 0, 0).normal(4)
        b = run_stream(cfg, 0, 1).normal(4)
        c = run_stream(cfg, 1, 0).normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestPgm:
    def test_round_trip_16_bit(self, tmp_path):
        img = Signal(np.clip(RngStream(2, 0).normal(48) * 0.2 + 0.5, 0, 1), (6, 8))
        path = str(tmp_path / "a.pgm")
        write_pgm(path, img)
        back = read_pgm(path)
        assert back.shape == (6, 8)
        assert np.max(np.abs(back.data - img.data)) <= 0.5 / 65535

    def test_round_trip_8_bit(self, tmp_path):
        img = Signal(np.linspace(0, 1, 24), (4, 6))
        path = str(tmp_path / "b.pgm")
        write_pgm(path, img, maxval=255)
        back = read_pgm(path)
        assert np.max(np.abs(back.data - img.data)) <= 0.5 / 255

    def test_comment_headers(self, tmp_path):
        payload = bytes(range(12))
        raw = b"P5\n# one comment\n4 3\n# another\n255\n" + payload
        path = tmp_path / "c.pgm"
        path.write_bytes(raw)
        img = read_pgm(str(path))
        assert img.shape == (3, 4)
        np.testing.assert_allclose(img.data, np.arange(12) / 255.0)

    def test_rejects_ascii_magic(self, tmp_path):
        path = tmp_path / "d.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(Exception, match="P5"):
            read_pgm(str(path))

    def test_rejects_truncated_pixels(self, tmp_path):
        path = tmp_path / "e.pgm"
        path.write_bytes(b"P5\n4 3\n255\n" + bytes(5))
        with pytest.raises(Exception, match="truncated"):
            read_pgm(str(path))

    def test_write_rejects_1d(self, tmp_path):
        with pytest.raises(Exception, match="2D"):
            write_pgm(str(tmp_path / "f.pgm"), Signal(np.zeros(4), (4,)))


class TestSvg:
    def test_series_labels_present(self):
        doc = polyline_chart(
            [("alpha curve", [1, 2, 3], [1.0, 2.0, 1.5]), ("beta", [1, 2, 3], [0.5, 0.4, 0.3])],
            title="t", xlabel="x", ylabel="y",
        )
        assert doc.startswith("<svg")
        assert "alpha curve" in doc and "beta" in doc
        assert doc.count("<polyline") == 2

    def test_non_finite_points_dropped(self):
        doc = polyline_chart(
            [("s", [1, 2, 3, 4], [1.0, float("nan"), 2.0, float("inf")])],
            title="t", xlabel="x", ylabel="y",
        )
        line = [l for l in doc.split("\n") if "<polyline" in l][0]
        assert line.count(",") == 2  # two surviving points

    def test_empty_series_ok(self):
        doc = polyline_chart([], title="t", xlabel="x", ylabel="y")
        assert "</svg>" in doc


class TestRunner:
    def test_artifact_names_are_pure(self):
        cfg = parse_config_text(MINIMAL)
        assert step_csv_name(cfg, 3, 2) == f"steps_{cfg.config_hash}_p003_r02.csv"
        assert summary_csv_name(cfg) == f"summary_{cfg.config_hash}.csv"
        assert curves_svg_name(cfg, 0) == f"curves_{cfg.config_hash}_p000.svg"

    def test_minimal_run_writes_exactly_three_files(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        out = str(tmp_path / "out")
        cfg = parse_config_text(minimal_with(out=out))
        assert run_experiment(cfg, sweep=False) == 0
        files = sorted(os.listdir(out))
        assert files == sorted(
            [step_csv_name(cfg, 0, 0), summary_csv_name(cfg), curves_svg_name(cfg, 0)]
        )

    def test_rerun_is_bitwise_identical(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        out = str(tmp_path / "out")
        cfg = parse_config_text(minimal_with(out=out))
        run_experiment(cfg, sweep=False)
        first = {f: (tmp_path / "out" / f).read_bytes() for f in os.listdir(out)}
        run_experiment(cfg, sweep=False)
        second = {f: (tmp_path / "out" / f).read_bytes() for f in os.listdir(out)}
        assert first == second

    def test_summary_schema_and_status(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        out = str(tmp_path / "out")
        cfg = parse_config_text(minimal_with(out=out).replace("seed = 3", "seed = 3\nrepeats = 2"))
        assert run_experiment(cfg, sweep=False) == 0
        lines = (tmp_path / "out" / summary_csv_name(cfg)).read_text().strip().split("\n")
        assert lines[0] == (
            "point,repeat,status,psnr_final,mse_final,total_nfe,"
            "mean_sigma_hat_raw,mean_sigma_hat_star"
        )
        assert len(lines) == 3
        for row in lines[1:]:
            parts = row.split(",")
            assert parts[2] == "ok"
            assert float(parts[3]) > 0
            assert int(parts[5]) == 4 * 3

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        redirected = str(tmp_path / "redirected")
        monkeypatch.setenv("SGPS_OUTPUT_DIR", redirected)
        cfg = parse_config_text(minimal_with(out=str(tmp_path / "ignored")))
        assert run_experiment(cfg, sweep=False) == 0
        assert os.path.isdir(redirected)
        assert not os.path.isdir(str(tmp_path / "ignored"))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_failed_run_reported_and_exit_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        out = str(tmp_path / "out")
        text = minimal_with(out=out).replace(
            "steps = 4\nlangevin_steps = 20",
            "steps = 3\nlangevin_steps = 300\nlangevin_eta = 50.0\nsigma_y = 0.0001",
        )
        cfg = parse_config_text(text)
        assert run_experiment(cfg, sweep=False) == 2
        lines = (tmp_path / "out" / summary_csv_name(cfg)).read_text().strip().split("\n")
        parts = lines[1].split(",")
        assert parts[2] == "failed"
        assert parts[3] == "nan"
        assert "failed" in capsys.readouterr().err

    def test_sweep_requires_axes(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        cfg = parse_config_text(minimal_with(out=str(tmp_path / "out")))
        with pytest.raises(ConfigError, match="no \\[sweep\\]"):
            run_experiment(cfg, sweep=True)


SWEEP_TASK = """
[experiment]
name = alpha-sweep
seed = 11
measurement_sigma = 0.005
repeats = 6
output_dir = {out}

[prior]
shape = 16 16
mean_kind = smooth
mean_seed = 101
mean_amplitude = 0.5
s2 = 0.00016

[operator]
kind = identity

[sampler]
steps = 16

[sweep]
alpha = 0.25 0.5 1.0 1.5
"""


class TestAlphaSweep:
    def test_rows_per_repeat_and_mid_alpha_beats_high(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        out = str(tmp_path / "out")
        cfg = parse_config_text(SWEEP_TASK.format(out=out))
        assert run_experiment(cfg, sweep=True) == 0
        lines = (tmp_path / "out" / summary_csv_name(cfg)).read_text().strip().split("\n")
        header = lines[0].split(",")
        assert "alpha" in header
        ai = header.index("alpha")
        pi = header.index("psnr_final")
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 4 * 6
        by_alpha = {}
        for r in rows:
            by_alpha.setdefault(float(r[ai]), []).append(float(r[pi]))
        assert sorted(by_alpha) == [0.25, 0.5, 1.0, 1.5]
        assert all(len(v) == 6 for v in by_alpha.values())
        assert np.mean(by_alpha[0.5]) > np.mean(by_alpha[1.5])


class TestCli:
    def test_run_subcommand(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        path = tmp_path / "exp.cfg"
        path.write_text(minimal_with(out=str(tmp_path / "out")))
        assert main(["run", str(path)]) == 0
        assert len(os.listdir(tmp_path / "out")) == 3

    def test_missing_config_is_usage_error(self, capsys):
        assert main(["run", "/no/such/file.cfg"]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_synth_then_estimate(self, tmp_path, capsys):
        img = str(tmp_path / "noisy.pgm")
        assert main(["synth", "--sigma", "0.08", "--size", "32x32", "--out", img, "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["estimate", img]) == 0
        printed = capsys.readouterr().out.strip()
        val = float(printed)
        assert printed == f"{val:.6f}"
        assert abs(val - 0.08) / 0.08 < 0.25

    def test_synth_bad_size(self, capsys):
        assert main(["synth", "--sigma", "0.1", "--size", "banana", "--out", "/tmp/x.pgm"]) == 1
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["estimate", "{img}", "--patch", "0"],
        ["estimate", "{tmp}/no/such.pgm"],
        ["synth", "--sigma", "0.1", "--size", "8x8", "--out", "{tmp}/o.pgm", "--maxval", "0"],
        ["synth", "--sigma", "0.1", "--size", "8x8", "--out", "{tmp}/o.pgm", "--maxval", "70000"],
        ["synth", "--sigma", "nan", "--size", "8x8", "--out", "{tmp}/o.pgm"],
    ])
    def test_bad_arguments_are_usage_errors(self, argv, tmp_path, capsys):
        img = tmp_path / "ok.pgm"
        write_pgm(str(img), Signal(np.full(64, 0.5), (8, 8)))
        argv = [a.format(img=img, tmp=tmp_path) for a in argv]
        assert main(argv) == 1
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "o.pgm").exists()

    def test_estimate_bad_image_is_run_error(self, tmp_path, capsys):
        path = tmp_path / "ascii.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        assert main(["estimate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_numerical_failure_is_a_failed_run(self, tmp_path, monkeypatch, capsys):
        # magnitude-DFT guidance at default settings blows the iterate up, so
        # the first noise estimate meets a covariance that is not finite
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        path = tmp_path / "exp.cfg"
        path.write_text(minimal_with(out=str(tmp_path / "out"))
                        .replace("shape = 16 16", "shape = 8 8")
                        .replace("kind = identity", "kind = magnitude-dft")
                        .replace("steps = 4\nlangevin_steps = 20", "steps = 8"))
        with pytest.warns(UserWarning):  # 4 patches for 49 dimensions
            assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "divergence in stage 'estimate' at step 1" in err
        assert "Traceback" not in err
        cfg = parse_config(str(path))
        rows = (tmp_path / "out" / summary_csv_name(cfg)).read_text().strip().split("\n")
        assert len(rows) == 2 and rows[1].split(",")[2] == "failed"

    def test_numerical_failure_prints_no_numpy_warning(self, tmp_path):
        # a separate process, so stderr is what a user sees: the failure
        # line, and no floating-point warning from inside the package
        path = tmp_path / "exp.cfg"
        path.write_text(minimal_with(out=str(tmp_path / "out"))
                        .replace("shape = 16 16", "shape = 8 8")
                        .replace("kind = identity", "kind = magnitude-dft")
                        .replace("steps = 4\nlangevin_steps = 20", "steps = 8"))
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(sgps.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.pop("SGPS_OUTPUT_DIR", None)
        proc = subprocess.run([sys.executable, "-m", "sgps.harness.cli", "run", str(path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "divergence in stage 'estimate' at step 1" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "overflow" not in proc.stderr
        # the estimator's config warning is one line, with no source line
        assert "warning: only 4 patches for 49 dimensions" in proc.stderr
        assert "return _stage(" not in proc.stderr
        assert "UserWarning" not in proc.stderr

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()
