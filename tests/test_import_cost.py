"""What a run loads, and when. Importing scipy.special takes 0.1-0.2 s and
about 16 MB, and only the KS probe (ndtr, smirnov) calls it: the fbm
Volterra constant's Gamma is a port with scipy's bits. So
`import sheetforge.cli` loads no scipy module, and no run without the
Gaussianity probe loads scipy, whatever its kernels. A run with that probe
loads scipy.special in set-up, where the CLI checks the probe's sample
floor, before its first sheet draw. No run loads a module after its first
draw, so set-up cost stays out of the replicate timings."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

IMPORT_PROBE = """
import sys
import sheetforge.cli
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""

# Runs the CLI in-process, with harness.simulate_sheet wrapped the way the
# bench does to find the first draw. Reports the exit code, whether
# scipy.special was loaded at that first draw, whether scipy is loaded at
# the end, and the modules loaded after the first draw began.
RUN_PROBE = """
import sys
import sheetforge.cli as cli
import sheetforge.harness as harness
draw, first = harness.simulate_sheet, []
def simulate_sheet(*args, **kwargs):
    if not first:
        first.append(set(sys.modules))
    return draw(*args, **kwargs)
harness.simulate_sheet = simulate_sheet
code = cli.main(sys.argv[1:])
print(code, "scipy.special" in first[0], "scipy" in sys.modules,
      sorted(set(sys.modules) - first[0]))
"""


def _run(probe, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", probe, *args], env=env, check=True,
                          capture_output=True, text=True).stdout.splitlines()


def test_cli_import_loads_no_scipy():
    assert _run(IMPORT_PROBE) == ["[]"]


def test_brownian_covariance_run_never_loads_scipy(tmp_path):
    out = _run(RUN_PROBE, "covariance", "--preset", "brownian-baseline",
               "--set", "lattice_m=16", "--set", "replicates=50", "--out", str(tmp_path))
    assert out[-1] == "0 False False []"


def test_fbm_run_loads_scipy_special_before_the_first_draw(tmp_path):
    out = _run(RUN_PROBE, "covariance", "--preset", "fbm-wave",
               "--set", "lattice_m=16", "--set", "replicates=500", "--out", str(tmp_path))
    assert out[-1] == "0 True True []"


@pytest.mark.parametrize("command, args", [
    ("sweep", ()),
    ("check-hypotheses", ("--set", 'probes=["profiles","bilinear","window-scaling"]')),
], ids=["sweep", "check-hypotheses"])
def test_fbm_run_without_the_ks_probe_never_loads_scipy(tmp_path, command, args):
    out = _run(RUN_PROBE, command, "--preset", "fbm-wave", *args,
               "--set", "lattice_m=16", "--set", "replicates=50", "--out", str(tmp_path))
    assert out[-1] == "0 False False []"
