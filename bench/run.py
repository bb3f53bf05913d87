"""Benchmark of the `sheetforge` CLI: four Monte Carlo workloads, end-to-end
metrics, a traced run for per-layer metrics, and an output correctness check.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --smoke        # tiny replicate counts

Run it from the root of a checkout; it runs the CLI from `src/` there. Every
CLI run is a fresh interpreter, one at a time, with at most two worker
threads and single-threaded BLAS. Within one benchmark run every CLI run uses
the same (config, seed). The first, untimed run uses the other worker count
(1 <-> 2); every later run's outputs must be byte-identical to its outputs
(provenance `generated_at` aside). `--trace 0` times untraced CLI runs and
prints the end-to-end metrics; `--trace 1` traces the first run for memory,
then alternates untraced and traced runs (bench/trace_cli.py), and prints
the per-layer metrics. The last line of standard output is the result as
one JSON object. Scratch outputs go under `.bench_out/` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
# the console script's entry point; when main returns it reports, on stderr,
# when the first sheet draw began (time.perf_counter(), one clock with this
# process's): everything before it is set-up
FIRST_DRAW = "first-draw-at"
CLI_SHIM = f"""
import sys, time
import sheetforge.cli as cli
import sheetforge.harness as harness
draw, first = harness.simulate_sheet, []
def simulate_sheet(*args, **kwargs):
    if not first:
        first.append(time.perf_counter())
    return draw(*args, **kwargs)
harness.simulate_sheet = simulate_sheet
code = cli.main()
if first:
    print('{FIRST_DRAW}', repr(min(first)), file=sys.stderr, flush=True)
sys.exit(code)
"""
# numpy's OpenBLAS would otherwise start up to nproc threads in every worker
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
DENSE_GRID = json.dumps({"s_points": [k / 12 for k in range(1, 13)],
                         "t_points": [k / 12 for k in range(1, 13)]})


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    preset: str
    overrides: tuple
    replicates: int
    workers: int
    smoke_overrides: tuple
    # whether CovarianceReport.passes() must hold for a run to count as correct
    gate_passes: bool = False

    def sets(self, smoke: bool) -> list:
        extra = self.smoke_overrides if smoke else (f"replicates={self.replicates}",)
        return [*self.overrides, *extra]


WORKLOADS = {w.name: w for w in (
    Workload(
        "brownian-cov",
        "pinned baseline: sheet and theta do nearly all the work at M=256, on the 2-thread pool",
        # passes() holds at R=1500 for every seed tried, with the margin it
        # has at the preset's R=2000 (see README.md)
        "covariance", "brownian-baseline", (), 1500, 2,
        ("replicates=50",), gate_passes=True),
    Workload(
        "fbm-wave-cov",
        "coupled cos/sin: two theta transforms per draw, FbmVolterra rows, KS and independence"
        " probes, 1 thread",
        "covariance", "fbm-wave", (), 500, 1,
        # the KS probe needs 500 replicates, so smoke shrinks the lattice instead
        ("replicates=500", "lattice_m=32")),
    Workload(
        "fbm-sweep-m1024",
        "north-star M=1024: 8 MB arrays overflow L2, so sheet and theta move more bytes per cell;"
        " n schedule 25/100/400",
        "sweep", "fbm-wave", ("lattice_m=1024",), 10, 2,
        ("replicates=2",)),
    Workload(
        "dense-grid",
        "12x12 eval grid at M=64: the R*P*P reduction and report writing dominate time and"
        " peak RSS",
        "covariance", "brownian-baseline",
        ("lattice_m=64", f"eval_grid={DENSE_GRID}"), 2000, 1, ("replicates=50",)),
)}

END_TO_END_UNITS = {"wall_s": "s", "replicates_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.import_ms": "ms", "config.load_ms": "ms", "kernels.rows_ms": "ms",
    "sheet.us_per_rep": "us", "sheet.draws": "count",
    "theta.us_per_rep": "us", "theta.transforms_per_draw": "count",
    "approx.us_per_rep": "us", "harness.reduce_ms": "ms",
    "harness.reduce_peak_mb": "MB", "harness.pool_efficiency": "ratio",
    "cli.write_ms": "ms", "trace.wall_s": "s", "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
}
# timed runs at least in an end-to-end run (a traced run makes one pair at least)
MIN_SAMPLES = 3


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SHEETFORGE_THREADS"}
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Spawned:
    code: int
    start: float  # time.perf_counter(), the same clock as the child's spans
    end: float
    peak_rss_mb: float
    stdout: str

    @property
    def wall(self) -> float:
        return self.end - self.start


def spawn(argv: list, log: Path) -> Spawned:
    """Run argv to completion, stdout to log. The child's own peak RSS comes
    from wait4."""
    with open(log, "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Spawned(proc.returncode, start, end, usage.ru_maxrss / 1024.0, log.read_text())


def cli_args(w: Workload, seed: int, workers: int, out: Path, smoke: bool) -> list:
    args = [w.command, "--preset", w.preset]
    for item in w.sets(smoke):
        args += ["--set", item]
    return args + ["--seed", str(seed), "--workers", str(workers), "--out", str(out)]


# -- correctness -------------------------------------------------------------


def _number(field: str) -> float:
    # covariance_report.csv writes numpy scalars with repr(), which numpy >= 2
    # renders as np.float64(x); parse that form too
    if field.startswith("np.float64(") and field.endswith(")"):
        field = field[len("np.float64("):-1]
    return float(field)


def _check_csv(path: Path) -> None:
    lines = path.read_text().splitlines()
    if len(lines) < 2:
        raise ValueError(f"{path.name}: no data rows")
    width = len(lines[0].split(","))
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != width:
            raise ValueError(f"{path.name}: ragged row {line[:60]!r}")
        for f in fields:
            if f:
                _number(f)


def _check_covariance_report(out: Path) -> dict:
    """The report's CSV must carry exactly its JSON's matrices."""
    report = json.loads((out / "covariance_report.json").read_text())
    for line in (out / "covariance_report.csv").read_text().splitlines()[1:]:
        i, j, *_, emp, se, theo = line.split(",")
        i, j = int(i), int(j)
        if (_number(emp), _number(se), _number(theo)) != (
            report["empirical"][i][j], report["std_errors"][i][j],
            report["theoretical"][i][j],
        ):
            raise ValueError(f"covariance_report.csv disagrees with its JSON at ({i}, {j})")
    return report


def check_outputs(out: Path) -> dict:
    """Check one CLI output directory; raise ValueError on any defect.
    Returns the run's statistical verdicts; the caller decides whether they
    gate (see README.md)."""
    prov = json.loads((out / "provenance.json").read_text())
    outputs = prov["outputs"]
    if not outputs:
        raise ValueError("provenance lists no outputs")
    for name in outputs:
        path = out / name
        if not path.is_file() or path.stat().st_size == 0:
            raise ValueError(f"missing or empty output {name}")
        if name.endswith(".json"):
            json.loads(path.read_text())
        elif name.endswith(".csv"):
            _check_csv(path)
    info = {}
    if "covariance_report.json" in outputs:
        report = _check_covariance_report(out)
        info = {"max_std_deviation": report["max_std_deviation"], "passes": _passes(report)}
    if "sweep_summary.json" in outputs:
        final = json.loads((out / "sweep_summary.json").read_text())["trend"][-1]
        info = {"max_std_deviation": final["max_std_deviation"], "passes": final["passes"]}
    return info


def _import_sheetforge() -> None:
    """Make the checkout's sources importable in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _passes(report: dict) -> bool:
    _import_sheetforge()
    import numpy as np
    from sheetforge.harness import CovarianceReport

    return CovarianceReport(
        points=tuple(tuple(p) for p in report["points"]),
        empirical=np.array(report["empirical"]),
        std_errors=np.array(report["std_errors"]),
        theoretical=np.array(report["theoretical"]),
        replicates=report["replicates"],
        zero_mean=report["zero_mean"],
    ).passes()


def same_outputs(ref: Path, out: Path) -> None:
    """Raise ValueError unless out holds byte-identical outputs to ref,
    ignoring provenance's generated_at."""
    p_ref = json.loads((ref / "provenance.json").read_text())
    p_out = json.loads((out / "provenance.json").read_text())
    p_ref.pop("generated_at")
    p_out.pop("generated_at")
    if p_ref != p_out:
        raise ValueError("provenance differs beyond generated_at")
    for name in p_ref["outputs"]:
        if (ref / name).read_bytes() != (out / name).read_bytes():
            raise ValueError(f"{name} differs from the first run's")


class Runner:
    """Runs and checks the CLI runs of one benchmark run, keeping counts."""

    def __init__(self, w: Workload, seed: int, smoke: bool, directory: Path):
        self.w, self.seed, self.smoke = w, seed, smoke
        # smoke replicate counts are too few for the covariance verdict
        self.gate_passes = w.gate_passes and not smoke
        self.dir = directory
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.failures = []
        self.ref = None
        self.info = []

    def cli(self, tag: str, workers: int, traced: bool = False, memory: bool = False) -> dict:
        """One CLI run, checked against the first. Returns its sample. A
        traced run with memory also takes the reductions' tracemalloc peak,
        which slows them, so its times are not used."""
        out = self.dir / tag
        args = cli_args(self.w, self.seed, workers, out, self.smoke)
        if traced:
            spans = self.dir / f"{tag}.spans.json"
            argv = [sys.executable, str(BENCH / "trace_cli.py"),
                    *(["--memory"] if memory else []), str(spans),
                    f"{self.w.name}/{self.seed}/{tag}", *args]
        else:
            argv = [sys.executable, "-c", CLI_SHIM, *args]
        run = spawn(argv, self.dir / f"{tag}.log")
        self.attempted += 1
        sample = {"wall_s": run.wall, "peak_rss_mb": run.peak_rss_mb, "ok": False,
                  "start": run.start, "end": run.end}
        try:
            if run.code != 0:
                raise ValueError(f"exit code {run.code}")
            if not traced:
                err = (self.dir / f"{tag}.err").read_text().splitlines()
                stamp = next((line for line in err if line.startswith(FIRST_DRAW)), None)
                if stamp is None:
                    raise ValueError("the entry-point shim printed no first-draw time")
                sample["setup_s"] = float(stamp.split()[1]) - run.start
            info = check_outputs(out)
            self.info.append(info)
            if self.gate_passes and not info["passes"]:
                raise ValueError("CovarianceReport.passes() does not hold "
                                 f"(max_std_deviation {info['max_std_deviation']:.3g})")
            if self.ref is None:
                self.ref = out
            else:
                same_outputs(self.ref, out)
                shutil.rmtree(out)
            sample["ok"] = True
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.failures.append(f"{tag}: {exc}")
        if traced and sample["ok"]:
            sample["spans"] = json.loads(spans.read_text())["spans"]
        return sample

    def cross_workers(self, traced: bool = False) -> dict:
        """The untimed first run, at the other worker count: every later run
        must match its outputs. Traced, it also gives the memory figures."""
        other = 1 if self.w.workers == 2 else 2
        return self.cli(f"workers{other}", other, traced=traced, memory=traced)

    def ref_config(self) -> dict:
        return json.loads((self.ref / "provenance.json").read_text())["config"]


# -- statistics --------------------------------------------------------------


def high_percentile(values: list) -> str:
    """The highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            q = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
            return f"p{p}={q:.4g}"
    return "none (fewer than 20 samples)"


def self_times(spans: list) -> dict:
    """Span name -> summed self time: each span's duration minus the part of
    its interval that its child spans cover (children on several threads may
    overlap; their union counts once)."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    totals = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        totals[s["name"]] = totals.get(s["name"], 0.0) + (s["end"] - s["start"]) - covered
    return totals


def reduce_peak_mb(spans: list) -> float:
    """The reductions' tracemalloc peak, from a run traced with memory."""
    return max((s["peak_bytes"] for s in spans if s["name"] == "harness.reduce"),
               default=0) / 2**20


def layer_metrics(sample: dict, workers: int) -> dict:
    """Per-layer figures of one traced run, from its spans and the parent's
    spawn and exit times (all on one monotonic clock)."""
    spans = sample["spans"]
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    draws = len(by_name.get("sheet", ()))
    if not draws:
        raise ValueError("traced run drew no sheets")
    # projection residual: on each pool thread, a replicate runs from its
    # sheet start to the next sheet start; what its sheet and theta spans do
    # not cover is the inline projection (plus slot write and dispatch)
    gaps = []
    for loop in by_name["harness.replicates"]:
        threads = {}
        for s in spans:
            if s["parent"] == loop["id"] and s["name"] in ("sheet", "theta"):
                threads.setdefault(s["thread"], []).append(s)
        for seq in threads.values():
            seq.sort(key=lambda s: s["start"])
            firsts = [i for i, s in enumerate(seq) if s["name"] == "sheet"]
            for i, j in zip(firsts, firsts[1:]):
                gaps.append(seq[j]["start"] - seq[i]["start"]
                            - sum(s["end"] - s["start"] for s in seq[i:j]))
    residual = statistics.fmean(gaps) if gaps else 0.0
    sheet, theta = own["sheet"], own.get("theta", 0.0)
    busy = sheet + theta + residual * draws
    # every quadrature_rows call happens inside a replicate loop
    loop_time = sum(s["end"] - s["start"] for s in by_name["harness.replicates"]) - own.get(
        "kernels.rows", 0.0)
    # interpreter start-up before the import, and tear-down after main returns
    interp = (by_name["cli.import"][0]["start"] - sample["start"]
              + sample["end"] - by_name["cli.main"][0]["end"])
    setup = own["cli.import"] + own.get("config.load", 0.0) + own.get("kernels.rows", 0.0)
    reduce_s, write_s = own.get("harness.reduce", 0.0), own.get("cli.write", 0.0)
    return {
        "cli.import_ms": own["cli.import"] * 1e3,
        "config.load_ms": own.get("config.load", 0.0) * 1e3,
        "kernels.rows_ms": own.get("kernels.rows", 0.0) * 1e3,
        "sheet.us_per_rep": sheet / draws * 1e6,
        "sheet.draws": draws,
        "theta.us_per_rep": theta / draws * 1e6,
        "theta.transforms_per_draw": len(by_name.get("theta", ())) / draws,
        "approx.us_per_rep": residual * 1e6,
        "harness.reduce_ms": reduce_s * 1e3,
        "harness.pool_efficiency": busy / (loop_time * workers),
        "cli.write_ms": write_s * 1e3,
        "_accounted_s": interp + setup + busy / workers + reduce_s + write_s,
        "_self_s": own | {"interpreter start and exit": interp},
    }


# -- the two run modes -------------------------------------------------------


def keep_going(start: float, seconds: float, samples: list, last: float, minimum: int) -> bool:
    if len(samples) < minimum:
        return True
    return time.perf_counter() - start + last <= seconds


def run_end_to_end(r: Runner, seconds: float) -> tuple:
    minimum = 1 if r.smoke else MIN_SAMPLES
    samples = []
    start = time.perf_counter()
    r.cross_workers()
    last = time.perf_counter()
    while keep_going(start, seconds, samples, time.perf_counter() - last, minimum):
        last = time.perf_counter()
        samples.append(r.cli(f"s{len(samples)}", r.w.workers))
    ok = [s for s in samples if s["ok"]]
    r.info.append({"wall_s": [s["wall_s"] for s in samples],
                   "setup_s": [s["setup_s"] for s in ok]})
    if not ok:
        return {}, []
    walls = [s["wall_s"] for s in ok]
    setup_s = [s["setup_s"] for s in ok]
    cfg = r.ref_config()
    runs_per_config = len(cfg["n_schedule"]) if r.w.command == "sweep" else 1
    reps = cfg["replicates"] * runs_per_config
    wall, setup = statistics.median(walls), statistics.median(setup_s)
    # set-up and the rest are split inside each run, at its first sheet draw
    replicate_s = statistics.median(s["wall_s"] - s["setup_s"] for s in ok)
    metrics = {
        "wall_s": wall,
        "replicates_per_s": reps / replicate_s,
        "setup_s": setup,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in ok),
    }
    table = [
        ("wall_s", wall, high_percentile(walls), len(walls)),
        ("replicates_per_s", metrics["replicates_per_s"], f"{reps} replicates", len(walls)),
        ("setup_s", setup, high_percentile(setup_s), len(setup_s)),
        ("peak_rss_mb", metrics["peak_rss_mb"],
         high_percentile([s["peak_rss_mb"] for s in ok]), len(ok)),
    ]
    return metrics, table


def run_traced(r: Runner, seconds: float) -> tuple:
    plain, traced = [], []
    start = time.perf_counter()
    ref = r.cross_workers(traced=True)
    last = time.perf_counter()
    while keep_going(start, seconds, traced, time.perf_counter() - last, 1):
        last = time.perf_counter()
        plain.append(r.cli(f"s{len(plain)}", r.w.workers))
        traced.append(r.cli(f"t{len(traced)}", r.w.workers, traced=True))
    plain = [s for s in plain if s["ok"]]
    traced = [s for s in traced if s["ok"]]
    if not plain or not traced or not ref["ok"]:
        return {}, []
    layers = []
    for s in traced:
        lm = layer_metrics(s, r.w.workers)
        lm["trace.wall_s"] = s["wall_s"]
        lm["trace.accounted_share"] = lm.pop("_accounted_s") / s["wall_s"]
        r.info.append({"self_s": lm.pop("_self_s")})
        layers.append(lm)
    metrics = {name: statistics.median(lm[name] for lm in layers)
               for name in PER_LAYER_UNITS
               if name not in ("trace.overhead_s", "harness.reduce_peak_mb")}
    # tracemalloc slows allocation, so the peak comes from the untimed run
    metrics["harness.reduce_peak_mb"] = reduce_peak_mb(ref["spans"])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
        s["wall_s"] for s in plain)
    table = [(name, metrics[name], "median", len(layers)) for name in PER_LAYER_UNITS]
    return metrics, table


# -- machine record ------------------------------------------------------------


def machine_info() -> dict:
    from importlib.metadata import version

    import numpy as np

    def getconf(name):
        try:
            text = subprocess.run(["getconf", name], capture_output=True, text=True,
                                  check=True).stdout.strip()
            return int(text) if text.isdigit() else None
        except (OSError, subprocess.CalledProcessError):
            return None

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": BLAS_ENV,
    }


# -- entry points ----------------------------------------------------------------


def bench(w: Workload, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    r = Runner(w, seed, smoke, WORK / w.name)
    metrics, table = (run_traced if trace else run_end_to_end)(r, seconds)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    failed = len(r.failures)
    cfg = r.ref_config() if r.ref else {}
    grid = cfg.get("eval_grid", {})
    shown = [item if len(item) <= 40 else item.split("=")[0] + "=..." for item in w.sets(smoke)]
    record = {
        "workload": w.name, "why": w.why, "seed": seed, "trace": int(trace),
        "smoke": smoke, "workers": w.workers,
        "cli": " ".join([w.command, "--preset", w.preset, *w.sets(smoke)]),
        "M": cfg.get("lattice_m"),
        "P": len(grid.get("s_points", ())) * len(grid.get("t_points", ())),
        "R": cfg.get("replicates"),
        "machine": machine_info(),
        "failures": r.failures,
        # passes() and max_std_deviation (gated only where w.gate_passes)
        "statistics": next((i for i in r.info if "passes" in i), None),
        "table": table,
        "per_run": r.info,
    }
    (r.dir / f"record-{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print(f"workload {w.name}: {' '.join([w.command, '--preset', w.preset, *shown])} "
          f"--workers {w.workers} "
          f"(M={record['M']}, P={record['P']}, R={record['R']}, seed {seed})")
    print(f"  {'metric':26s} {'value':>14s} {'unit':6s} {'median; high percentile':28s} samples")
    for name, value, spread, count in table:
        print(f"  {name:26s} {value:14.6g} {units[name]:6s} {spread:28s} {count}")
    print(f"  {'failed_share':26s} {failed / max(r.attempted, 1):14.6g} {'ratio':6s} "
          f"{f'{failed} of {r.attempted} CLI runs':28s} {r.attempted}")
    for line in r.failures:
        print(f"  FAILED {line}")
    print("record " + json.dumps({k: record[k] for k in (
        "machine", "workers", "statistics")}))
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": r.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="CLI master seed (default: the preset's)")
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny replicate counts and the fewest runs")
    args = parser.parse_args(argv)
    if not (SRC / "sheetforge" / "cli.py").is_file():
        print(f"no sheetforge sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        parser.error("--workload is required")
    w = WORKLOADS[args.workload]
    if args.seed is None:
        _import_sheetforge()
        from sheetforge.config import preset

        seed = preset(w.preset)["master_seed"]
    else:
        seed = args.seed % 2**63
    seconds = 0.0 if args.smoke else args.seconds
    result = bench(w, seed, seconds, bool(args.trace), args.smoke)
    if not result["metrics"]:
        print("no CLI run passed its checks; no result", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
