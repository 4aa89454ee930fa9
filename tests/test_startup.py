"""Start-up cost: scipy loads only at the call sites that need it, and no
thread outlives the call that started it; a process on one CPU walks with
the guide-noise worker and the bytes of the guide's own draws.

Each check runs in a fresh interpreter, because the test process itself has
scipy loaded already, and may run on more than one CPU.
"""
import os
import subprocess
import sys

import pytest

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

# pinned to one CPU before numpy loads, a walk of 40 chains (256 pixels and
# 100 iterations: 7.8 MiB a level, above PREFETCH_BYTES) and a walk of one
# chain (4096 pixels and 100 iterations: 3.1 MiB, within it) each make the
# worker, leave one thread and give the bytes of a walk that makes none
_ONE_CPU_SCRIPT = f"""
import os
os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
import threading
import sgps.analysis, sgps.guidance, sgps.sampler
from sgps.harness import make_task, parse_config_text, run_stream

workers = []
guide = sgps.sampler.langevin_guide

def spy(*args, **kw):
    workers.append(args[6]._thread is not None)
    return guide(*args, **kw)

sgps.sampler.langevin_guide = spy
text = {_CONFIG!r}
noise_bytes = sgps.guidance.NOISE_BYTES
for shape, rows in (("16 16", 40), ("64 64", 1)):
    cfg = parse_config_text(text.replace("shape = 16 16", "shape = " + shape))
    _, y = make_task(cfg)
    walks = []
    for limit in (noise_bytes, 1 << 62):
        sgps.guidance.NOISE_BYTES = limit
        states = sgps.analysis.chain_prefix(cfg.denoiser, cfg.op, y,
                                            cfg.sampler.replace(langevin_steps=100),
                                            [run_stream(cfg, 0, b) for b in range(rows)], 2)
        walks.append(b"".join(a.tobytes() for _, x0t, x0ty in states for a in (x0t, x0ty)))
        assert threading.active_count() == 1, "a thread outlived a walk of %d rows" % rows
    assert workers == [True, True, False, False], workers
    assert walks[0] == walks[1], "a walk of %d rows drew other bytes" % rows
    workers.clear()
assert len(os.sched_getaffinity(0)) == 1
"""


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_scipy_loads_only_where_used():
    proc = _run(["-c", _SCRIPT])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_one_cpu_walks_draw_ahead_with_in_call_bytes():
    proc = _run(["-c", _ONE_CPU_SCRIPT])
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
