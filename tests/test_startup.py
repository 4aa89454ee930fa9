"""Start-up cost: scipy loads only at the call sites that need it, and no
thread outlives the call that started it.

Each check runs in a fresh interpreter, because the test process itself has
scipy loaded already.
"""
import os
import subprocess
import sys

import sgps

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(sgps.__file__)))

_CONFIG = """
[experiment]
name = startup
seed = 3

[prior]
shape = 16 16
mean_kind = smooth
s2 = 0.04

[operator]
kind = identity

[sampler]
steps = 2
langevin_steps = 5
"""

# importing the package and running a task without a blur loads no scipy and
# leaves one thread, also after a run whose guide noise is drawn a level
# ahead on a worker (256 pixels and 1000 iterations: 2 MB a level), after a
# walk of 40 chains whose worker draws two chunks ahead (256 pixels and 100
# iterations: 7.8 MiB a level) and after such a walk of one chain (4096
# pixels and 130 iterations: 4.1 MiB a level); a blur loads scipy.sparse,
# and only the normality check loads scipy.special
_SCRIPT = f"""
import sys
import threading
import numpy as np
import sgps, sgps.analysis, sgps.harness
from sgps.harness import make_task, parse_config_text, run_stream

text = {_CONFIG!r}
cfg = parse_config_text(text)
x0, y = make_task(cfg)
down = parse_config_text(text.replace("kind = identity", "kind = downsample\\nfactor = 2"))
make_task(down)
assert threading.active_count() == 1, "importing sgps started a thread"
for langevin_steps in (cfg.sampler.langevin_steps, 1000):
    sgps.sgps_run(cfg.denoiser, cfg.op, y, cfg.sampler.replace(langevin_steps=langevin_steps),
                  run_stream(cfg, 0, 0), patch=cfg.patch, x_true=x0)
    assert threading.active_count() == 1, "a thread outlived its run"
sgps.analysis.chain_prefix(cfg.denoiser, cfg.op, y, cfg.sampler.replace(langevin_steps=100),
                           [run_stream(cfg, 0, b) for b in range(40)], 2)
assert threading.active_count() == 1, "a thread outlived a walk of 40 chains"
big = parse_config_text(text.replace("shape = 16 16", "shape = 64 64"))
_, y_big = make_task(big)
sgps.analysis.chain_prefix(big.denoiser, big.op, y_big, big.sampler.replace(langevin_steps=130),
                           [run_stream(big, 0, 0)], 2)
assert threading.active_count() == 1, "a thread outlived a one-row walk"
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, f"loaded before any blur: {{loaded[:5]}}"

sgps.BlurOp((4, 4), np.ones((3, 3)))
assert "scipy.sparse" in sys.modules, "blur did not load scipy.sparse"
assert "scipy.special" not in sys.modules, "blur loaded scipy.special"

sgps.analysis.normality_report(sgps.RngStream(1, 0).normal(200))
assert "scipy.special" in sys.modules, "the normality check did not load scipy.special"
"""


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_scipy_loads_only_where_used():
    proc = _run(["-c", _SCRIPT])
    assert proc.returncode == 0, proc.stderr


def test_cli_help_loads_no_scipy():
    proc = _run(["-X", "importtime", "-m", "sgps.harness.cli", "--help"])
    assert proc.returncode == 0, proc.stderr
    assert "usage: sgps" in proc.stdout
    # -X importtime writes one "import time: self | cumulative | name" line
    # per module imported; the CLI module itself runs as __main__
    names = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")]
    assert "sgps.harness.runner" in names
    assert [n for n in names if n == "scipy" or n.startswith("scipy.")] == []
