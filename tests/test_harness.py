"""Experiment harness: config parsing, task construction, PGM and SVG I/O,
the driver's artifact layout, and the CLI."""
import dataclasses
import errno
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgps
from sgps.core import MAX_STEPS, ConfigError, RngStream, SamplerConfig, Signal
from sgps.harness.cli import main
from sgps.harness.config import (
    MAX_REPEATS,
    make_task,
    parse_config,
    parse_config_text,
    run_stream,
)
from sgps.harness.pgm import read_pgm, write_pgm
from sgps.harness.runner import (
    curves_svg_name,
    run_experiment,
    step_csv_name,
    summary_csv_name,
)
from sgps.harness.svg import polyline_chart
from sgps.noise_est import PatchConfig
from sgps.operators import BlurOp, MaskOp

SAMPLER_INTS = {"steps", "langevin_steps", "sure_repeats", "mc_probes", "ode_substeps"}

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


def run_cli(argv: list[str], entry=("-m", "sgps.harness.cli")) -> subprocess.CompletedProcess:
    """The CLI in a separate process, so stderr is what a user sees; entry
    is how python starts it."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(sgps.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("SGPS_OUTPUT_DIR", None)
    return subprocess.run([sys.executable, *entry, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


class TestConfigParsing:
    def test_minimal_defaults(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.name == "mini"
        assert cfg.seed == 3
        assert cfg.repeats == 1
        assert cfg.measurement_sigma == 0.05
        assert cfg.image is None
        assert cfg.sampler.steps == 4
        assert cfg.sampler.t_max == 4.0
        assert cfg.sampler.sigma_y == 0.05
        assert cfg.patch.patch_size == 7
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
            "steps = 4\nalpha = 0.7\nmc_probes = 3\nsure_repeats = 0\nsigma_hat_scale = 1.5",
        )
        cfg = parse_config_text(text)
        assert cfg.sampler.alpha == 0.7
        assert cfg.sampler.mc_probes == 3
        assert cfg.sampler.sure_repeats == 0
        assert cfg.sampler.sigma_hat_scale == 1.5

    @pytest.mark.parametrize("token,value", [("yes", True), ("0", False), ("ON", True)])
    def test_bool_tokens(self, token, value):
        cfg = parse_config_text(
            MINIMAL.replace("kind = identity", f"kind = range-clip\nsmooth = {token}")
        )
        assert cfg.op.smooth is value

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
            (("seed = 3", "seed = 3\npeak = 1"), "[experiment] peak"),
            (("steps = 4", "steps = 4\nsure_enabled = false"), "[sampler] sure_enabled"),
            (("steps = 4", "steps = 4\nlangevin_step = 5"), "[sampler] langevin_step"),
            (("steps = 4", "steps = 4\nseed = 99"), "[sampler] seed"),
            (("langevin_steps = 20", "langevin_steps = 20\n[sweep]\nseed = 1 2 3"),
             "[sweep] seed"),
            (("langevin_steps = 20", "langevin_steps = 20\n[sweep]\nsigma_y = nan"),
             "[sweep] sigma_y: expected a finite real number, got 'nan'"),
            (("steps = 4", "steps = 4\nalpha = nan"),
             "[sampler] alpha: expected a finite real number, got 'nan'"),
            (("seed = 3", "seed = 3\nmeasurement_sigma = nan"), "measurement_sigma"),
            (("seed = 3", "seed = 3\nmeasurement_sigma = inf"), "measurement_sigma"),
            (("steps = 4", "steps = 4\nsigma_floor = 0.001"), "[sampler] sigma_floor"),
            (("langevin_steps = 20", "langevin_steps = 20\n[sweep]\nalpha = 0.5 -1.0"),
             "[sweep] alpha=-1.0: alpha must be >= 0"),
            (("steps = 4", "steps = 4\nprobe_resample = true"), "[sampler] probe_resample"),
            (("seed = 3", "seed = 3\nreapeats = 5"), "[experiment] reapeats"),
            (("s2 = 0.04", "s2 = 0.04\ns_2 = 0.5"), "[prior] s_2"),
            (("kind = identity", "kind = blur\nkernal_size = 3"), "[operator] kernal_size"),
            (("kind = identity", "kind = blur\nfactor = 2"), "[operator] factor"),
            (("langevin_steps = 20", "langevin_steps = 20\n[patch]\npatchsize = 5"),
             "[patch] patchsize"),
            (("kind = identity", "kind = range-clip\nsmooth = maybe"), "[operator] smooth"),
            (("steps = 4", "steps = 4\nrho = 5"), "[sampler] rho"),
            (("steps = 4", "steps = 4\nt_min = 0.1"), "[sampler] t_min"),
            (("langevin_steps = 20", "langevin_steps = 20\n[patch]\nrel_tol = 0.01"),
             "[patch] rel_tol"),
            (("steps = 4", f"steps = {10**30}"), "[sampler]: steps must be in [2, 1000000]"),
            (("steps = 4", f"steps = {MAX_STEPS + 1}"), "[sampler]: steps must be in [2, 1000000]"),
            (("s2 = 0.04", "s2 = 0.04\nweights = -1"),
             "[prior]: mixture weights must be strictly positive"),
            (("s2 = 0.04", "s2 = 0.04\nweights = 0.5 0"),
             "[prior]: mixture weights must be strictly positive"),
            (("s2 = 0.04", "s2 = 0"), "[prior]: var_scale must be positive and finite"),
            (("s2 = 0.04", "s2 = -1"), "[prior]: var_scale must be positive and finite"),
            (("s2 = 0.04", "s2 = 0.04\nperturb_amplitude = 0.01\nperturb_frequency = nan"),
             "[prior] perturb_frequency: expected a finite real number, got 'nan'"),
            (("s2 = 0.04", "s2 = 0.04\nperturb_amplitude = inf"),
             "[prior] perturb_amplitude: expected a finite real number, got 'inf'"),
        ],
    )
    def test_typed_errors_name_section_and_key(self, mutation, fragment):
        with pytest.raises(ConfigError, match=__import__("re").escape(fragment)):
            parse_config_text(MINIMAL.replace(*mutation))

    def test_bad_patch_value_names_section_once(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL + "\n[patch]\nstride = x\n")
        assert str(err.value) == "[patch] stride: expected an integer, got 'x'"

    @pytest.mark.parametrize("section", ["sampler", "sweep"])
    @pytest.mark.parametrize("name,value", [
        (f.name, value)
        for f in dataclasses.fields(SamplerConfig)
        for value in ("nan", "inf", "-inf", "big", *(("4.5",) if f.name in SAMPLER_INTS else ()))
    ])
    def test_bad_sampler_value_names_section_and_key(self, section, name, value):
        # one message for every [sampler] and [sweep] value that is not a
        # number of its field's type
        if section == "sampler":
            lines = "\n".join(f"{k} = {v}" for k, v in {"steps": 4, name: value}.items())
            text = MINIMAL.replace("steps = 4\nlangevin_steps = 20", lines)
        else:
            text = MINIMAL + f"\n[sweep]\n{name} = 1 {value}\n"
        label = "an integer" if name in SAMPLER_INTS else "a finite real number"
        with pytest.raises(ConfigError) as err:
            parse_config_text(text)
        assert str(err.value) == f"[{section}] {name}: expected {label}, got {value!r}"

    def test_every_sampler_field_parses_as_before(self):
        # every field in spellings float() and int() accept, and a sweep
        # over an int, a float and an optional float field; the expected
        # values and types were taken from the bare int()/float() reader
        # that the typed one replaced
        text = MINIMAL.replace("steps = 4\nlangevin_steps = 20", (
            "steps = 03\nt_max = 8\nsigma_y = .25\nalpha = 1e-1\nlangevin_steps = +7\n"
            "langevin_eta = 2.5E-4\nsure_repeats = 0\nmc_probes = 2\node_substeps = 1_0\n"
            "sigma_hat_scale = 1.5"))
        base = SamplerConfig(steps=3, t_max=8.0, sigma_y=0.25, alpha=0.1, langevin_steps=7,
                             langevin_eta=0.00025, sure_repeats=0, mc_probes=2,
                             ode_substeps=10, sigma_hat_scale=1.5)
        cfg = parse_config_text(text)
        assert cfg.sampler == base
        assert [type(getattr(cfg.sampler, f.name)) for f in dataclasses.fields(base)] == \
            [int, float, float, float, int, float, int, int, int, float]
        assert cfg.sweep_points == (({}, base),)
        swept = parse_config_text(text + "\n[sweep]\nmc_probes = 1 04\nalpha = 0 .5\n"
                                  "langevin_eta = 1e-3 2\nmax_points = 8\n")
        assert swept.sampler == base
        overrides = [o for o, _ in swept.sweep_points]
        assert [repr(o) for o in overrides] == [
            repr({"alpha": a, "langevin_eta": e, "mc_probes": m})
            for a in (0.0, 0.5) for e in (0.001, 2.0) for m in (1, 4)
        ]
        assert [c for _, c in swept.sweep_points] == \
            [dataclasses.replace(base, **o) for o in overrides]

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
        with pytest.raises(ConfigError, match="cannot read config file /nonexistent/path.cfg: "):
            parse_config("/nonexistent/path.cfg")

    def test_readme_example_parses(self):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        block = text.split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = parse_config_text(block)
        assert isinstance(cfg.op, BlurOp)
        assert cfg.prior.shape == (24, 24)
        # the [sampler] note lists the keys it lets a config set after
        # "is an error:", up to the next full stop
        section = block.split("[sampler]\n", 1)[1].split("\n[", 1)[0]
        note = " ".join(ln[1:].strip() for ln in section.splitlines() if ln.startswith(";"))
        listed = note.split("is an error:", 1)[1].split(".", 1)[0]
        keys = {re.sub(r"\(.*?\)", "", k).strip() for k in listed.split(",")}
        fields = {f.name for f in dataclasses.fields(SamplerConfig)}
        assert keys <= fields
        assert keys | {"steps", "t_max", "sigma_y"} == fields


_DELETED_KEYS = ("sure_enabled", "rho", "t_min", "rel_tol", "sigma_floor")
_FUZZ_KEYS = st.one_of(
    st.sampled_from(
        [f.name for f in dataclasses.fields(SamplerConfig)]
        + [f.name for f in dataclasses.fields(PatchConfig)]
        + list(_DELETED_KEYS)
    ),
    st.from_regex(r"[a-z_][a-z0-9_]{0,11}", fullmatch=True),
)
_FUZZ_VALUES = st.one_of(
    st.integers(-(10**30), 10**30).map(str),
    st.sampled_from(["nan", "inf", "1e400", "true", "", "1 2"]),
    st.text(st.characters(blacklist_categories=("Cc", "Cs")), max_size=12),
)
_FUZZ_SECTION = st.dictionaries(_FUZZ_KEYS, _FUZZ_VALUES, max_size=5)


@settings(max_examples=300, deadline=None)
@given(sampler=_FUZZ_SECTION, patch=_FUZZ_SECTION)
def test_fuzzed_sampler_and_patch_sections_raise_only_config_errors(sampler, patch):
    sampler.setdefault("steps", "4")
    text = MINIMAL.split("[sampler]", 1)[0]
    for name, sec in (("sampler", sampler), ("patch", patch)):
        text += f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in sec.items())
    try:
        parse_config_text(text)
    except ConfigError:
        return
    assert not set(_DELETED_KEYS) & (set(sampler) | set(patch))


class TestSweepConfig:
    def test_axes_parse_and_expand_order(self):
        text = MINIMAL + "\n[sweep]\nalpha = 0.25 0.5\nmc_probes = 1 3\n"
        cfg = parse_config_text(text)
        pts = [overrides for overrides, _ in cfg.sweep_points]
        assert pts == [
            {"alpha": 0.25, "mc_probes": 1},
            {"alpha": 0.25, "mc_probes": 3},
            {"alpha": 0.5, "mc_probes": 1},
            {"alpha": 0.5, "mc_probes": 3},
        ]
        assert [s for _, s in cfg.sweep_points] == [cfg.sampler.replace(**o) for o in pts]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match=r"\[sweep\] girth"):
            parse_config_text(MINIMAL + "\n[sweep]\ngirth = 1 2\n")

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigError, match="empty axis"):
            parse_config_text(MINIMAL + "\n[sweep]\nalpha =\n")

    def test_cap_enforced(self):
        text = MINIMAL + "\n[sweep]\nmax_points = 3\nalpha = 0.1 0.2 0.3 0.4\n"
        with pytest.raises(ConfigError, match="cap"):
            parse_config_text(text)

    @pytest.mark.parametrize("base,axes,want", [
        ("", "steps = 4 16", [4.0, 16.0]),
        ("t_max = 8\n", "steps = 4 16", [8.0, 8.0]),
        ("", "steps = 4 16\nt_max = 6", [6.0, 6.0]),
    ])
    def test_swept_steps_set_t_max_unless_given(self, base, axes, want):
        # t_max defaults to float(steps) at each point, as in [sampler]; the
        # overrides stay the swept values alone
        text = MINIMAL.replace("steps = 4\n", f"steps = 4\n{base}") + f"\n[sweep]\n{axes}\n"
        cfg = parse_config_text(text)
        assert [s.t_max for _, s in cfg.sweep_points] == want
        assert [s.steps for _, s in cfg.sweep_points] == [4, 16]
        assert all("t_max" not in o for o, _ in cfg.sweep_points) == ("t_max" not in axes)

    def test_no_axes_expands_to_single_point(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.sweep_points == (({}, cfg.sampler),)


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
        # the image is read with the config, so the parse refuses it
        with pytest.raises(ConfigError, match="image"):
            parse_config_text(MINIMAL.replace("seed = 3", f"seed = 3\nimage = {path}"))

    def test_run_streams_distinct(self):
        cfg = parse_config_text(MINIMAL)
        a = run_stream(cfg, 0, 0).normal(4)
        b = run_stream(cfg, 0, 1).normal(4)
        c = run_stream(cfg, 1, 0).normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_repeats_beyond_a_points_streams_are_rejected(self):
        # each sweep point owns MAX_REPEATS run streams; one repeat more would
        # reuse the next point's repeat-0 stream
        cfg = parse_config_text(MINIMAL.replace("seed = 3", f"seed = 3\nrepeats = {MAX_REPEATS}"))
        assert cfg.repeats == MAX_REPEATS
        last = run_stream(cfg, 0, MAX_REPEATS - 1)
        assert last.stream_id + 1 == run_stream(cfg, 1, 0).stream_id
        with pytest.raises(ConfigError) as err:
            parse_config_text(MINIMAL.replace("seed = 3", f"seed = 3\nrepeats = {MAX_REPEATS + 1}"))
        assert str(err.value) == "[experiment] repeats: must be in [1, 65536], got 65537"


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

    def test_text_is_escaped(self):
        doc = polyline_chart([("p<q", [1, 2], [1.0, 2.0])], title="a&b", xlabel="x>0",
                             ylabel="'y' & \"z\"")
        texts = [el.text for el in ET.fromstring(doc).iter("{http://www.w3.org/2000/svg}text")]
        assert {"a&b", "x>0", "'y' & \"z\"", "p<q"} <= set(texts)


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
    def test_invalid_sweep_value_runs_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        out = tmp_path / "out"
        out.mkdir()
        path = tmp_path / "exp.cfg"
        path.write_text(minimal_with(out=str(out)) + "\n[sweep]\nalpha = 0.5 -1.0\n")
        assert main(["sweep", str(path)]) == 1
        assert "[sweep]" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_oversized_sweep_rejected_before_building_points(self, tmp_path, capsys):
        axis = " ".join(str(0.01 * (i + 1)) for i in range(60))
        path = tmp_path / "exp.cfg"
        path.write_text(MINIMAL + f"\n[sweep]\nalpha = {axis}\nsigma_hat_scale = {axis}\n"
                        f"sigma_y = {axis}\n")
        with mock.patch.object(sgps.harness.config, "_sampler_config",
                               side_effect=sgps.harness.config._sampler_config) as build:
            assert main(["sweep", str(path)]) == 1
        # the [sampler] config alone, no sweep point
        build.assert_called_once()
        err = capsys.readouterr().err
        assert "[sweep]: 216000 points, above the cap of 64" in err

    def test_run_subcommand(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        path = tmp_path / "exp.cfg"
        path.write_text(minimal_with(out=str(tmp_path / "out")))
        assert main(["run", str(path)]) == 0
        assert len(os.listdir(tmp_path / "out")) == 3

    def test_missing_config_is_usage_error(self, capsys):
        assert main(["run", "/no/such/file.cfg"]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_undecodable_config_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_bytes(b"\xff\xfe[experiment]\n")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config file {path}: ")
        assert err.count("\n") == 1

    def test_directory_config_is_a_config_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config file {tmp_path}: ")
        assert err.count("\n") == 1

    def test_synth_then_estimate(self, tmp_path, capsys):
        img = str(tmp_path / "noisy.pgm")
        assert main(["synth", "--sigma", "0.08", "--size", "32x32", "--out", img, "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(["estimate", img]) == 0
        printed = capsys.readouterr().out.strip()
        val = float(printed)
        assert printed == f"{val:.6f}"
        assert abs(val - 0.08) / 0.08 < 0.25

    @pytest.mark.parametrize("via", ["config", "environment"])
    def test_uncreatable_output_dir_is_a_config_error(self, via, tmp_path, monkeypatch, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = str(blocker / "out")
        path = tmp_path / "exp.cfg"
        if via == "config":
            monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
            path.write_text(minimal_with(out=out))
        else:
            monkeypatch.setenv("SGPS_OUTPUT_DIR", out)
            path.write_text(MINIMAL)
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory {out}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("artifact", ["step_csv", "summary_csv", "curves_svg"])
    def test_blocked_artifact_path_is_a_config_error(self, artifact, tmp_path, monkeypatch,
                                                     capsys):
        # a directory where the artifact goes fails the write; the CLI says
        # which path in one line, as for an uncreatable output directory
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        out = tmp_path / "out"
        path = tmp_path / "exp.cfg"
        path.write_text(minimal_with(out=str(out)))
        cfg = parse_config_text(path.read_text())
        name = {"step_csv": step_csv_name(cfg, 0, 0), "summary_csv": summary_csv_name(cfg),
                "curves_svg": curves_svg_name(cfg, 0)}[artifact]
        (out / name).mkdir(parents=True)
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write {out / name}: ")
        assert err.count("\n") == 1

    def test_curves_svg_parses_for_a_name_with_markup(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        out = tmp_path / "out"
        cfg = parse_config_text(minimal_with(out=str(out)).replace("name = mini",
                                                                   "name = a&b <x>"))
        assert run_experiment(cfg, sweep=False) == 0
        root = ET.parse(out / curves_svg_name(cfg, 0)).getroot()
        texts = [el.text for el in root.iter("{http://www.w3.org/2000/svg}text")]
        assert texts[0] == "a&b <x>: noise level per step (point 0)"

    def test_synth_bad_size(self, capsys):
        assert main(["synth", "--sigma", "0.1", "--size", "banana", "--out", "/tmp/x.pgm"]) == 1
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["estimate", "{img}", "--patch", "0"],
        ["estimate", "{tmp}/no/such.pgm"],
        ["synth", "--sigma", "0.1", "--size", "8x8", "--out", "{tmp}/o.pgm", "--maxval", "0"],
        ["synth", "--sigma", "0.1", "--size", "8x8", "--out", "{tmp}/o.pgm", "--maxval", "70000"],
        ["synth", "--sigma", "nan", "--size", "8x8", "--out", "{tmp}/o.pgm"],
        ["synth", "--sigma", "0.1", "--size", "8x8", "--out", "{img}/o.pgm"],
        ["synth", "--sigma", "0.1", "--size", "8x8", "--out", "{tmp}/o.pgm", "--seed", "-1"],
        ["synth", "--sigma", "0.1", "--size", "8x8", "--out", "{tmp}/o.pgm",
         "--seed", str(2**64)],
        # one pixel above MAX_SYNTH_PIXELS
        ["synth", "--sigma", "0.1", "--size", "2049x2048", "--out", "{tmp}/o.pgm"],
    ])
    def test_bad_arguments_are_usage_errors(self, argv, tmp_path, capsys):
        img = tmp_path / "ok.pgm"
        write_pgm(str(img), Signal(np.full(64, 0.5), (8, 8)))
        argv = [a.format(img=img, tmp=tmp_path) for a in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not (tmp_path / "o.pgm").exists()

    @pytest.mark.parametrize("mutation,where", [
        (("seed = 3", "seed = -1"), "[experiment] seed"),
        (("seed = 3", f"seed = {2**64}"), "[experiment] seed"),
        (("s2 = 0.04", "s2 = 0.04\nmean_seed = -5"), "[prior] mean_seed"),
    ])
    def test_bad_seed_is_a_config_error(self, mutation, where, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        path = tmp_path / "exp.cfg"
        path.write_text(minimal_with(out=str(tmp_path / "out")).replace(*mutation))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {where}: must be in [0, {2**64 - 1}], got ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_sweep_without_axes_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        path = tmp_path / "exp.cfg"
        path.write_text(minimal_with(out=str(tmp_path / "out")))
        assert main(["sweep", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: sweep requested but the config has no [sweep] axes\n"
        assert not (tmp_path / "out").exists()

    def test_estimate_bad_image_is_run_error(self, tmp_path, capsys):
        path = tmp_path / "ascii.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        assert main(["estimate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_numerical_failure_is_a_failed_run(self, tmp_path, monkeypatch, capsys):
        # magnitude-DFT guidance at the step of an operator bound of 1 blows
        # the iterate up, so the first noise estimate meets a covariance that
        # is not finite
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        path = tmp_path / "exp.cfg"
        path.write_text(minimal_with(out=str(tmp_path / "out"))
                        .replace("shape = 16 16", "shape = 8 8")
                        .replace("kind = identity", "kind = magnitude-dft")
                        .replace("steps = 4\nlangevin_steps = 20",
                                 "steps = 8\nlangevin_eta = 0.00125")
                        + "\n[patch]\npatch_size = 3\n")
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
                        .replace("steps = 4\nlangevin_steps = 20",
                                 "steps = 8\nlangevin_eta = 0.00125")
                        + "\n[patch]\npatch_size = 3\n")
        proc = run_cli(["run", str(path)])
        assert proc.returncode == 2
        assert "divergence in stage 'estimate' at step 1" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "overflow" not in proc.stderr
        assert "warning" not in proc.stderr.lower()

    def test_out_of_memory_is_one_line_and_exit_2(self, tmp_path, monkeypatch, capsys):
        # a task too large to allocate fails as a run, with no traceback
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        path = tmp_path / "exp.cfg"
        path.write_text(minimal_with(out=str(tmp_path / "out")))
        monkeypatch.setattr(sgps.harness.runner, "make_task", mock.Mock(
            side_effect=MemoryError("Unable to allocate 37.3 TiB")))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 37.3 TiB\n"

    def test_warning_is_one_line(self, tmp_path):
        # a warning reaches a user as one line, with no source line and no
        # category name.  No image the CLI accepts makes the estimator warn
        # (too few patches is a config error), so the program below wraps the
        # estimator in one that warns first
        img = tmp_path / "flat.pgm"
        write_pgm(str(img), Signal(np.full(256, 0.5), (16, 16)))
        program = (
            "import sys, warnings\n"
            "from sgps.harness import cli\n"
            "estimate = cli.estimate_sigma\n"
            "def warned(*args):\n"
            "    warnings.warn('covariance is rank-deficient')\n"
            "    return estimate(*args)\n"
            "cli.estimate_sigma = warned\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        proc = run_cli(["estimate", str(img)], entry=("-c", program))
        assert proc.returncode == 0
        assert proc.stderr == "warning: covariance is rank-deficient\n"

    @pytest.mark.parametrize("size,count", [(4, 0), (8, 4)])
    def test_estimate_with_too_few_patches_is_a_config_error(self, size, count, tmp_path,
                                                             capsys):
        # the rule run_experiment applies to a config's shape: a 4x4 image is
        # smaller than one 7x7 patch, and an 8x8 one gives 4 patches for 49
        # dimensions, which would leave the covariance rank-deficient
        img = tmp_path / "small.pgm"
        write_pgm(str(img), Signal(np.full(size * size, 0.5), (size, size)))
        assert main(["estimate", str(img)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"config error: image shape ({size}, {size}) gives {count} patches of size 7 "
            f"at stride 1; the noise estimate needs more than 49\n")

    @pytest.mark.parametrize("shape,patch,count,size,stride", [
        ("8 8", "", 4, 7, 1),
        ("4 4", "", 0, 7, 1),  # smaller than one patch
        ("5 5", "patch_size = 3", 9, 3, 1),  # exactly patch_size^2
        ("16 16", "stride = 4", 9, 7, 4),
    ])
    def test_too_few_patches_is_a_config_error(self, shape, patch, count, size, stride,
                                               tmp_path, monkeypatch, capsys):
        # every step estimates the noise from at most size^2 patches, so the
        # run is refused before it starts
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        path = tmp_path / "exp.cfg"
        path.write_text(minimal_with(out=str(tmp_path / "out"))
                        .replace("shape = 16 16", f"shape = {shape}")
                        + f"\n[patch]\n{patch}\n")
        assert main(["run", str(path)]) == 1
        dims = tuple(int(d) for d in shape.split())
        assert capsys.readouterr().err == (
            f"config error: [patch]: shape {dims} gives {count} patches of size {size} "
            f"at stride {stride}; the noise estimate needs more than {size ** 2}\n")
        assert not (tmp_path / "out").exists()

    def test_more_patches_than_dimensions_runs(self, tmp_path, monkeypatch):
        # 6x6 gives 16 patches of 3x3, more than their 9 dimensions
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        path = tmp_path / "exp.cfg"
        path.write_text(minimal_with(out=str(tmp_path / "out"))
                        .replace("shape = 16 16", "shape = 6 6")
                        + "\n[patch]\npatch_size = 3\n")
        assert main(["run", str(path)]) == 0

    def test_empty_output_dir_variable_is_unset(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SGPS_OUTPUT_DIR", "")
        path = tmp_path / "exp.cfg"
        path.write_text(minimal_with(out=str(tmp_path / "out")))
        assert main(["run", str(path)]) == 0
        assert len(os.listdir(tmp_path / "out")) == 3
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind", ["identity", "mask", "blur", "downsample", "magnitude-dft", "range-clip"]
    )
    def test_every_operator_runs_at_default_settings(self, kind, tmp_path, monkeypatch):
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        path = tmp_path / "exp.cfg"
        path.write_text(minimal_with(out=str(tmp_path / "out"))
                        .replace("kind = identity", f"kind = {kind}")
                        .replace("steps = 4\nlangevin_steps = 20", "steps = 8"))
        assert main(["run", str(path)]) == 0
        cfg = parse_config(str(path))
        rows = (tmp_path / "out" / summary_csv_name(cfg)).read_text().strip().split("\n")
        assert len(rows) == 2 and rows[1].split(",")[2] == "ok"

    @pytest.mark.parametrize(
        "taps,message",
        [
            ("", "kernel is empty"),
            ("0.1 0.1 0.1\n0.1 nan 0.1\n0.1 0.1 0.1\n", "kernel taps must be finite"),
            ("0 0 0\n0 inf 0\n0 0 0\n", "kernel taps must be finite"),
            ("0 0 0\n0 0 0\n0 0 0\n", "kernel has no nonzero tap"),
        ],
    )
    def test_degenerate_kernel_file_is_a_config_error(self, taps, message, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        kfile = tmp_path / "kernel.txt"
        kfile.write_text(taps)
        path = tmp_path / "exp.cfg"
        path.write_text(minimal_with(out=str(tmp_path / "out"))
                        .replace("kind = identity", f"kind = blur\nkernel_file = {kfile}"))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: [operator] kind=blur: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("prior_lines", ["s2 = 0.04\nweights = nan", "s2 = nan",
                                             "s2 = 0.04\nperturb_amplitude = 0.01\n"
                                             "perturb_frequency = nan",
                                             "s2 = 0.04\nperturb_amplitude = inf"],
                             ids=["weights", "s2", "perturb_frequency", "perturb_amplitude"])
    def test_non_finite_prior_setting_is_a_config_error(self, prior_lines, tmp_path,
                                                        monkeypatch, capsys):
        # each used to reach the run: a traceback from the draw, or exit 2
        # in the denoiser after the output directory was made
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        path = tmp_path / "exp.cfg"
        path.write_text(minimal_with(out=str(tmp_path / "out")).replace("s2 = 0.04", prior_lines))
        assert main(["run", str(path)]) == 1
        key, value = prior_lines.split("\n")[-1].split(" = ")
        expected = "a list of finite reals" if key == "weights" else "a finite real number"
        assert capsys.readouterr().err == \
            f"config error: [prior] {key}: expected {expected}, got {value!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section,lines", [
        ("experiment", "seed = 3\nmeasurement_sigma = {}"),
        ("prior", "s2 = {}"),
        ("prior", "s2 = 0.04\nweights = {}"),
        ("prior", "s2 = 0.04\nmean_amplitude = {}"),
        ("prior", "s2 = 0.04\nperturb_amplitude = {}"),
        ("prior", "s2 = 0.04\nperturb_amplitude = 0.01\nperturb_frequency = {}"),
        ("operator", "kind = mask\nkeep_fraction = {}"),
        ("operator", "kind = blur\nkernel_width = {}"),
        ("operator", "kind = magnitude-dft\noversample = {}"),
        ("operator", "kind = range-clip\nthreshold = {}"),
    ], ids=lambda v: v.split("\n")[-1].split(" = ")[0])
    def test_non_finite_real_is_a_config_error(self, section, lines, value, tmp_path,
                                               monkeypatch, capsys):
        # every real of these sections; threshold = inf would give an operator
        # that maps every image to 0, and kernel_width = inf a box blur
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        old = {"experiment": "seed = 3", "prior": "s2 = 0.04", "operator": "kind = identity"}
        path = tmp_path / "exp.cfg"
        path.write_text(minimal_with(out=str(tmp_path / "out"))
                        .replace(old[section], lines.format(value)))
        assert main(["run", str(path)]) == 1
        key = lines.split("\n")[-1].split(" = ")[0]
        expected = "a list of finite reals" if key == "weights" else "a finite real number"
        assert capsys.readouterr().err == \
            f"config error: [{section}] {key}: expected {expected}, got {value!r}\n"
        assert not (tmp_path / "out").exists()

    def test_missing_image_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        # known at parse time, so no output directory is made
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        missing = tmp_path / "missing.pgm"
        path = tmp_path / "exp.cfg"
        path.write_text(minimal_with(out=str(tmp_path / "out"))
                        .replace("seed = 3", f"seed = 3\nimage = {missing}"))
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err == \
            f"config error: [experiment] image: cannot read image file {missing}: " \
            f"No such file or directory\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "estimate"])
    def test_unreadable_image_is_a_config_error(self, command, tmp_path, monkeypatch, capsys):
        # a file that exists but cannot be opened, as for a user without
        # read permission, is one line and no traceback
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        image = tmp_path / "truth.pgm"
        write_pgm(str(image), Signal(np.full(256, 0.5), (16, 16)))
        path = tmp_path / "exp.cfg"
        path.write_text(minimal_with(out=str(tmp_path / "out"))
                        .replace("seed = 3", f"seed = 3\nimage = {image}"))
        real_open = open

        def denying_open(file, *args, **kwargs):
            if str(file) == str(image):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", denying_open)
        argv, where = {"run": (["run", str(path)], "[experiment] image: "),
                       "estimate": (["estimate", str(image)], "")}[command]
        assert main(argv) == 1
        assert capsys.readouterr().err == \
            f"config error: {where}cannot read image file {image}: Permission denied\n"
        assert not (tmp_path / "out").exists()

    def test_operator_too_large_to_allocate_is_out_of_memory(self, tmp_path, monkeypatch,
                                                              capsys):
        # a 2D kernel of 10000001^2 taps (800 TB, beyond a 64-bit process's
        # address space) cannot be allocated: out of memory, not a bad config
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        path = tmp_path / "exp.cfg"
        path.write_text(minimal_with(out=str(tmp_path / "out"))
                        .replace("shape = 16 16", "shape = 24 24")
                        .replace("kind = identity", "kind = blur\nkernel_size = 10000001"))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_malformed_image_is_a_failed_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        image = tmp_path / "ascii.pgm"
        image.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        path = tmp_path / "exp.cfg"
        path.write_text(minimal_with(out=str(tmp_path / "out"))
                        .replace("seed = 3", f"seed = 3\nimage = {image}"))
        assert main(["run", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_steps_above_the_cap_are_a_config_error(self, tmp_path, monkeypatch, capsys):
        # far above the cap, so a run that got past the parser would fail
        # building its ladder instead of running for hours
        monkeypatch.delenv("SGPS_OUTPUT_DIR", raising=False)
        path = tmp_path / "exp.cfg"
        path.write_text(minimal_with(out=str(tmp_path / "out"))
                        .replace("steps = 4", f"steps = {10**30}"))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: [sampler]: steps must be in [2, {MAX_STEPS}], got {10**30}\n"

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()
