"""Smoke runs of each script in scripts/ with tiny arguments."""
import importlib.util
import os

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name,argv",
    [
        ("estimator_scan", ["--levels", "0.1", "--images", "1", "--size", "16", "--patch", "3"]),
        ("hyperparam_sweep", ["--values", "0.5", "--repeats", "1", "--size", "16",
                              "--steps", "2", "--out", "out"]),
        ("influx_trace", ["--size", "16", "--steps", "2", "--seeds", "1", "--out", "out"]),
        ("theory_checks", ["--w2-samples", "20", "--kl-trials", "1", "--kl-samples", "2"]),
    ],
)
def test_script_runs(name, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert load_script(name).main(argv) == 0
    assert capsys.readouterr().out
