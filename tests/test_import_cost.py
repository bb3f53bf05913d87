"""What `import sheetforge.cli` loads. scipy.stats alone took about half
of every CLI run's set-up, so a fresh interpreter must import the CLI
without it; scipy.special is the only public scipy subpackage loaded."""
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import sheetforge.cli
print(sorted(name for name, mod in sys.modules.items()
             if name.startswith("scipy.") and hasattr(mod, "__path__")
             and not name.split(".")[1].startswith("_")))
print("scipy.stats" in sys.modules)
"""


def test_cli_import_leaves_scipy_stats_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out == ["['scipy.special']", "False"]
