"""Byte-identity gate for refactors (a helper script; not collected by pytest).

    python3 tests/byte_identity.py <revision>

Runs a fixed matrix of CLI runs on the given revision and on the working
tree, and prints every output that differs between the two. The revision is
exported with `git archive` into a temporary directory (local, no network);
the working tree runs from its own `src`, uncommitted edits included. Both
sides run `python -m sheetforge.cli` with OPENBLAS_NUM_THREADS=1, one run at
a time, from a scratch directory with relative `--out` paths.

Each run leaves its output directory and a `stdout.txt` holding its stdout
and exit code. Files are compared byte for byte, except that
`provenance.json` is compared without its `generated_at` line. Exits 0 when
nothing differs, 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

REPO = Path(__file__).resolve().parents[1]

# lattice_m 64 and 500 replicates (the fewest the Gaussianity probe takes):
# the variants check the code paths, the pinned presets their full-size outputs
SMALL = ("--set", "lattice_m=64", "--set", "replicates=500")
HYPOTHESES = ("--set", 'probes=["profiles","bilinear","window-scaling"]')
# the kernel variants run profiles apart from the moment probes: a kernel
# that fails its profile check stops its run with exit 3
PROFILES = ("--set", 'probes=["profiles"]')
MOMENTS = ("--set", 'probes=["bilinear","window-scaling"]')
KERNELS = {
    "goursat": {"kind": "goursat", "terms": [[[1.0, 2.0], [0.5, -1.0, 0.3]]]},
    "lipschitz": {"kind": "lipschitz_diff", "xs": [0.0, 0.5, 1.0], "ys": [1.0, -0.5, 2.0]},
    "holmgren-0.5": {"kind": "holmgren_rl", "h": 0.5},
    "holmgren-0.3": {"kind": "holmgren_rl", "h": 0.3},
    "fbm-0.5": {"kind": "fbm_volterra", "alpha": 0.5},
    "fbm-0.3": {"kind": "fbm_volterra", "alpha": 0.3},
}
# per-cell sheets: a Gaussian part, drift, and jump laws other than fixed jumps
MODELS = {
    "two-point": {"sigma": 0.5, "drift": 0.1, "jump_rate": 1.0,
                  "jump_dist": {"kind": "two_point", "h_plus": 1.0, "h_minus": -2.0, "p": 0.3}},
    "gaussian-jump": {"sigma": 0.0, "drift": 0.0, "jump_rate": 1.5,
                      "jump_dist": {"kind": "gaussian", "mu": 0.3, "tau": 0.6}},
}
NON_DYADIC = ("--set", 'eval_grid={"s_points":[0.1,0.3,0.7,0.9],"t_points":[0.2,0.6,1.0]}')
_GENERATED_AT = re.compile(rb'^\s*"generated_at": .*$\n?', re.MULTILINE)


def _set(path: str, value) -> Tuple[str, str]:
    return ("--set", f"{path}={json.dumps(value, separators=(',', ':'))}")


def matrix() -> Dict[str, Tuple[str, ...]]:
    """Run name -> CLI arguments (without --out)."""
    runs: Dict[str, Tuple[str, ...]] = {}
    for name in ("brownian-baseline", "fbm-wave"):
        preset = ("--preset", name)
        for command in ("simulate", "covariance", "kernel-table", "sweep"):
            runs[f"{command}-{name}"] = (command, *preset)
        runs[f"hypotheses-{name}"] = ("check-hypotheses", *preset, *HYPOTHESES)
        runs[f"non-dyadic-covariance-{name}"] = ("covariance", *preset, *SMALL, *NON_DYADIC)
    wave = ("--preset", "fbm-wave", *SMALL)
    for name in ("kernel-table", "simulate"):
        runs[f"non-dyadic-{name}"] = (name, *wave, *NON_DYADIC)
    runs["non-dyadic-hypotheses"] = ("check-hypotheses", *wave, *NON_DYADIC, *HYPOTHESES)
    for name, kernel in KERNELS.items():
        both = (*_set("kernel1", kernel), *_set("kernel2", kernel))
        runs[f"kernel-table-{name}"] = ("kernel-table", *wave, *both)
        runs[f"profiles-{name}"] = ("check-hypotheses", *wave, *both, *PROFILES)
        runs[f"moments-{name}"] = ("check-hypotheses", *wave, *both, *MOMENTS)
        runs[f"covariance-{name}"] = ("covariance", *wave, *both)
    runs["covariance-goursat-holmgren"] = (
        "covariance", *wave, *_set("kernel1", KERNELS["goursat"]),
        *_set("kernel2", KERNELS["holmgren-0.3"]))
    for name, model in MODELS.items():
        for command in ("covariance", "simulate", "sweep"):
            runs[f"{command}-{name}"] = (command, *wave, *_set("theta.model", model))
    brownian = ("--preset", "brownian-baseline", *SMALL)
    runs["error-independence-parity"] = (
        "covariance", *brownian, "--set", 'probes=["independence"]')
    runs["error-tiny-gaussianity"] = (
        "covariance", *wave, "--set", "replicates=60", "--set", 'probes=["gaussianity"]')
    runs["error-malformed-value"] = ("covariance", *brownian, "--set", "lattice_m=abc")
    runs["error-unknown-path"] = ("covariance", *brownian, "--set", "theta.nope=1")
    runs["error-m-guard"] = ("covariance", *wave, "--set", "theta.m_guard=10002")
    runs["error-missing-config"] = ("covariance", "--config", "missing.json")
    tiny = ("--set", "lattice_m=8", "--set", "replicates=500")
    for name, rate in (("brownian-baseline", "1e17"), ("brownian-baseline", "1e308"),
                       ("fbm-wave", "1e17")):
        runs[f"error-jump-rate-{rate}-{name}"] = (
            "covariance", "--preset", name, *tiny, "--set", f"theta.model.jump_rate={rate}")
    return runs


def run_matrix(src: Path, root: Path, runs: Dict[str, Sequence[str]]) -> None:
    """Run every case with the package under src; case outputs go to
    root/<case>/out and root/<case>/stdout.txt."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    root.mkdir(parents=True)
    for name, args in runs.items():
        (root / name).mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "sheetforge.cli", *args, "--out", f"{name}/out"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        (root / name / "stdout.txt").write_bytes(
            proc.stdout + f"exit {proc.returncode}\n".encode())


def _comparable(path: Path) -> bytes:
    data = path.read_bytes()
    return _GENERATED_AT.sub(b"", data) if path.name == "provenance.json" else data


def differing_files(first: Path, second: Path) -> List[str]:
    """Relative paths of the files that differ between two trees, or that
    exist in only one of them, sorted. provenance.json is compared without
    its generated_at line."""
    def files(root: Path):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    left, right = files(first), files(second)
    return sorted(
        rel for rel in left | right
        if rel not in left or rel not in right
        or _comparable(first / rel) != _comparable(second / rel)
    )


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("revision", help="git revision to compare the working tree against")
    rev = parser.parse_args(argv).revision
    runs = matrix()
    with tempfile.TemporaryDirectory(prefix="byte-identity-") as tmp:
        base = Path(tmp)
        parent = base / "parent"
        parent.mkdir()
        archive = subprocess.run(["git", "-C", str(REPO), "archive", rev],
                                 stdout=subprocess.PIPE, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        for side, src in (("before", parent / "src"), ("after", REPO / "src")):
            print(f"running {len(runs)} cases on {side} ({src})", flush=True)
            run_matrix(src, base / side, runs)
        diffs = differing_files(base / "before", base / "after")
        compared = len({p for p in (base / "after").rglob("*") if p.is_file()})
    for rel in diffs:
        print(f"differs: {rel}")
    print(f"{len(runs)} runs, {compared} files, {len(diffs)} differing")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
