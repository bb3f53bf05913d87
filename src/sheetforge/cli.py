"""Command-line experiment runner.

    sheetforge <subcommand> --config path | --preset name
               [--set dotted.path=json]... [--out dir] [--seed u64]

(--workers k is still parsed, and must be a positive integer, but does
nothing: replicates run serially.)

Subcommands: simulate (one replicate, dump fields), covariance (full Monte
Carlo at the final n), kernel-table (kernel matrices + L2 identities),
check-hypotheses (profile checks and the bilinear / window-scaling probes),
sweep (covariance across the n schedule with a deviation trend table).

Every run writes provenance.json with the fully resolved config, the
recorded override list, derived constants, and a single timestamp field;
all other outputs are byte-deterministic given (config, seed).
"""
from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from importlib.metadata import version  # ≈ 15 ms: load it in set-up, not after the draws
from pathlib import Path
from typing import Optional, Sequence

from .approx import build_approximation
from .config import (
    ExperimentConfig,
    PRESET_NAMES,
    apply_overrides,
    config_from_json_obj,
    preset,
)
from .errors import ConfigError, SheetForgeError
from .harness import (
    StepFunction,
    WindowScalingSettings,
    bilinear_moment_probe,
    default_zero_mean,
    empirical_covariance,
    gaussianity_test,
    generate_coupled_replicates,
    generate_replicates,
    grid_points,
    independence_probe,
    require_ks_samples,
    theoretical_covariance,
    window_scaling_probe,
)
from .kernels import (
    FbmVolterra,
    increment_l2,
    increment_profile,
    kernel_matrix,
    volterra_constant,
)
from .levy import min_real_exponent, normalizing_constant
from .sheet import Lattice, mix64
from .theta import integrate_field, realize_theta

__all__ = ["main", "run"]

_DEFAULT_OUT = "sheetforge-out"
_PROFILE_PAIRS = (
    (0.0, 0.25),
    (0.25, 0.5),
    (0.1, 0.35),
    (0.5, 1.0),
    (0.0, 1.0),
    (0.3, 0.31),
)
_PROFILE_WINDOWS = ((0.0, 0.25), (0.25, 0.5), (0.5, 1.0), (0.2, 0.3), (0.0, 1.0))
# anchored at s0 = t0 = 0.4 so only the window SIZE varies across the
# family (position effects would contaminate the fitted exponent); the
# base rect must cover every window or the masked quadrature rows vanish
_DEFAULT_WINDOW_SCALING = WindowScalingSettings(
    m_order=2,
    base_rect=(0.0, 1.0, 0.0, 1.0),
    windows=(
        (0.4, 0.5, 0.4, 0.5),
        (0.4, 0.54, 0.4, 0.54),
        (0.4, 0.6, 0.4, 0.6),
        (0.4, 0.68, 0.4, 0.68),
    ),
)


def _package_version() -> str:
    try:
        return version("sheetforge")
    except Exception:
        return "0+unknown"


def _dump_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _derived_constants(cfg: ExperimentConfig) -> dict:
    derived: dict = {"zero_mean_estimator": _resolve_zero_mean(cfg)}
    t = cfg.theta
    if t.kind in ("LevyCos", "LevySin"):
        derived["normalizing_constant"] = normalizing_constant(t.model, t.angle)
        derived["min_real_exponent"] = min_real_exponent(t.model, t.angle, t.m_guard)
    for name, k in (("kernel1", cfg.kernel1), ("kernel2", cfg.kernel2)):
        if isinstance(k, FbmVolterra):
            derived[f"volterra_constant_{name}"] = volterra_constant(k.alpha)
    return derived


def _resolve_zero_mean(cfg: ExperimentConfig) -> bool:
    if cfg.zero_mean is not None:
        return cfg.zero_mean
    return default_zero_mean(cfg.spec_for_n(cfg.n_schedule[-1]))


# -- subcommand bodies -------------------------------------------------------


def _write_rows(path: Path, header: str, rows) -> None:
    """The header, then one line of comma-separated reprs per row."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _cmd_simulate(cfg: ExperimentConfig, out: Path) -> list:
    m, grid = cfg.lattice_m, cfg.eval_grid
    spec = cfg.spec_for_n(cfg.n_schedule[-1])
    seed = mix64(cfg.master_seed, 0)
    theta = realize_theta(spec, Lattice(m), seed)
    field = build_approximation(theta, cfg.kernel1, cfg.kernel2, grid)
    tags = f"seed={seed} theta_kind={spec.kind}"
    _write_rows(out / "theta_field.csv",
                f"# sheetforge gridfield v1 m={m} node_kind=midpoint {tags}", theta.tolist())
    _write_rows(out / "zeta_field.csv",
                f"# sheetforge gridfield v1 integrated=True m={m} node_kind=corner {tags}",
                integrate_field(theta).tolist())
    provenance = {
        "k1": cfg.kernel1.to_json_obj(),
        "k2": cfg.kernel2.to_json_obj(),
        "lattice_m": m,
        "seed": seed,
        "theta_spec": spec.to_json_obj(),
    }
    prov, columns = json.dumps(provenance, sort_keys=True), ",".join(map(repr, grid.t_points))
    _write_rows(out / "approx_field.csv",
                f"# sheetforge approxfield v1 provenance={prov}\ns\\t,{columns}",
                ([s, *row] for s, row in zip(grid.s_points, field.tolist())))
    _dump_json(out / "approx_field.json",
               {"schema": "sheetforge/approxfield/1", "grid": grid.to_json_obj(),
                "values": field.tolist(), "provenance": provenance})
    return ["theta_field.csv", "zeta_field.csv", "approx_field.csv", "approx_field.json"]


def _draw(cfg: ExperimentConfig, n: float, seed: int, coupled: bool):
    """The replicates of cfg at n from master seed seed: the (R, P) array, or
    with coupled the cos and sin arrays of one LevyCos draw. The generators
    are looked up as module globals on every call: tracers replace them."""
    draw = generate_coupled_replicates if coupled else generate_replicates
    return draw(cfg.spec_for_n(n), cfg.kernel1, cfg.kernel2, cfg.eval_grid,
                Lattice(cfg.lattice_m), cfg.replicates, seed)


def _cmd_covariance(cfg: ExperimentConfig, out: Path) -> list:
    wanted = [p for p in cfg.probes if p in ("covariance", "gaussianity", "independence")]
    if not wanted:
        return []
    if "independence" in wanted and cfg.theta.kind != "LevyCos":
        raise ConfigError("independence probe requires a LevyCos theta spec")
    if "gaussianity" in wanted:
        require_ks_samples(cfg.replicates)
    n = cfg.n_schedule[-1]
    pts = grid_points(cfg.eval_grid)
    files: list = []
    if "independence" in wanted:
        reps, reps_sin = _draw(cfg, n, cfg.master_seed, True)
        indep = independence_probe(reps, reps_sin, pts)
        _dump_json(out / "independence.json", indep.to_json_obj())
        files.append("independence.json")
    else:
        reps = _draw(cfg, n, cfg.master_seed, False)
    if "covariance" in wanted:
        theo = theoretical_covariance(cfg.kernel1, cfg.kernel2, pts)
        report = empirical_covariance(reps, pts, theo, _resolve_zero_mean(cfg))
        _dump_json(out / "covariance_report.json", report.to_json_obj())
        with open(out / "covariance_report.txt", "w") as fh:
            fh.write(report.to_text())
        report.to_csv(out / "covariance_report.csv")
        files.extend(["covariance_report.json", "covariance_report.txt", "covariance_report.csv"])
    if "gaussianity" in wanted:
        target = (cfg.eval_grid.s_points[-1], cfg.eval_grid.t_points[-1])
        idx = pts.index(target)
        sigma2 = float(theoretical_covariance(cfg.kernel1, cfg.kernel2, [target])[0, 0])
        gauss = gaussianity_test(reps[:, idx], sigma2)
        obj = gauss.to_json_obj()
        obj["point"] = list(target)
        _dump_json(out / "gaussianity.json", obj)
        files.append("gaussianity.json")
    return files


def _cmd_kernel_table(cfg: ExperimentConfig, out: Path) -> list:
    mids = Lattice(cfg.lattice_m).midpoints()
    header = "t\\r," + ",".join(map(repr, mids.tolist()))
    for name, spec, points in (
        ("kernel1_matrix.csv", cfg.kernel1, cfg.eval_grid.s_points),
        ("kernel2_matrix.csv", cfg.kernel2, cfg.eval_grid.t_points),
    ):
        mat = kernel_matrix(spec, points, mids).tolist()
        _write_rows(out / name, header, ([t, *row] for t, row in zip(points, mat)))
    with open(out / "l2_identity.csv", "w") as fh:
        fh.write("kernel,s,s2,increment_l2,closed_form,rel_err\n")
        for name, spec, points in (
            ("kernel1", cfg.kernel1, cfg.eval_grid.s_points),
            ("kernel2", cfg.kernel2, cfg.eval_grid.t_points),
        ):
            pts = [0.0, *points]
            for s, s2 in zip(pts, pts[1:]):
                val = increment_l2(spec, s, s2)
                if spec.covariance is None:
                    fh.write(f"{name},{s!r},{s2!r},{val!r},,\n")
                else:
                    # the closed-form kernels (Brownian, fBm) have stationary
                    # increments: int (dK)^2 = |s2 - s|^power
                    ref = abs(s2 - s) ** spec.power
                    rel = abs(val - ref) / ref if ref else 0.0
                    fh.write(f"{name},{s!r},{s2!r},{val!r},{ref!r},{rel!r}\n")
    return ["kernel1_matrix.csv", "kernel2_matrix.csv", "l2_identity.csv"]


def _cmd_check_hypotheses(cfg: ExperimentConfig, out: Path) -> list:
    wanted = [p for p in cfg.probes if p in ("profiles", "bilinear", "window-scaling")]
    if not wanted:
        return []
    n = cfg.n_schedule[-1]
    lattice = Lattice(cfg.lattice_m)
    spec = cfg.spec_for_n(n)
    files: list = []
    if "profiles" in wanted:
        report = {name: increment_profile(k, _PROFILE_PAIRS, _PROFILE_WINDOWS)
                  for name, k in (("kernel1", cfg.kernel1), ("kernel2", cfg.kernel2))}
        _dump_json(out / "profile_report.json", report)
        files.append("profile_report.json")
    if "bilinear" in wanted:
        pairs = cfg.bilinear_pairs or (
            (
                StepFunction((0.0, 1.0), (1.0,)),
                StepFunction((0.0, 1.0), (1.0,)),
            ),
        )
        results = []
        for i, (f, g) in enumerate(pairs):
            rep = bilinear_moment_probe(
                spec, f, g, lattice, cfg.replicates,
                mix64(cfg.master_seed, 500 + i),
            )
            results.append(rep.to_json_obj())
        _dump_json(out / "bilinear_probe.json", results)
        files.append("bilinear_probe.json")
    if "window-scaling" in wanted:
        rep = window_scaling_probe(
            spec, cfg.kernel1, cfg.kernel2, cfg.window_scaling or _DEFAULT_WINDOW_SCALING,
            lattice, cfg.replicates, mix64(cfg.master_seed, 900),
        )
        _dump_json(out / "window_scaling.json", rep.to_json_obj())
        files.append("window_scaling.json")
    return files


def _cmd_sweep(cfg: ExperimentConfig, out: Path) -> list:
    if "covariance" not in cfg.probes:
        return []
    zero_mean = _resolve_zero_mean(cfg)
    pts = grid_points(cfg.eval_grid)
    theo = theoretical_covariance(cfg.kernel1, cfg.kernel2, pts)
    files: list = []
    trend = []
    for i, n in enumerate(cfg.n_schedule):
        reps = _draw(cfg, n, mix64(cfg.master_seed, 10_000 + i), False)
        report = empirical_covariance(reps, pts, theo, zero_mean)
        stem = f"covariance_n{i}"
        obj = report.to_json_obj()
        obj["n"] = n
        _dump_json(out / f"{stem}.json", obj)
        files.append(f"{stem}.json")
        trend.append(
            {
                "n": n,
                "max_abs_deviation": report.max_abs_deviation,
                "max_std_deviation": report.max_std_deviation,
                "passes": report.passes(),
            }
        )
    devs = [row["max_std_deviation"] for row in trend]
    summary = {
        "schema": "sheetforge/sweep/1",
        "trend": trend,
        "monotone_trend": bool(all(b <= a * 1.5 for a, b in zip(devs, devs[1:]))),
        "final_passes": trend[-1]["passes"],
    }
    _dump_json(out / "sweep_summary.json", summary)
    _write_rows(out / "sweep_trend.csv", "n,max_abs_deviation,max_std_deviation,passes",
                ((row["n"], row["max_abs_deviation"], row["max_std_deviation"],
                  int(row["passes"])) for row in trend))
    files.extend(["sweep_summary.json", "sweep_trend.csv"])
    return files


_COMMANDS = {
    "simulate": _cmd_simulate,
    "covariance": _cmd_covariance,
    "kernel-table": _cmd_kernel_table,
    "check-hypotheses": _cmd_check_hypotheses,
    "sweep": _cmd_sweep,
}


def run(
    command: str,
    raw_config: dict,
    overrides: Sequence[str] = (),
    out_dir: Optional[str] = None,
    seed: Optional[int] = None,
) -> Path:
    """Library entry point: apply overrides, validate, execute the
    subcommand, and write provenance.json. Returns the output directory."""
    recorded = list(overrides)
    if seed is not None:
        recorded.append(f"master_seed={int(seed)}")
    resolved = apply_overrides(raw_config, recorded)
    cfg = config_from_json_obj(resolved)
    if command not in _COMMANDS:
        raise ConfigError(f"unknown subcommand {command!r}")
    out = Path(out_dir or cfg.output_dir or _DEFAULT_OUT)
    created = [d for d in (out, *out.parents) if not d.exists()]  # nearest first
    out.mkdir(parents=True, exist_ok=True)
    try:
        written = _COMMANDS[command](cfg, out)
    except BaseException:
        # a refused run leaves no directory it made, unless it wrote a file there
        if not any(out.iterdir()):
            for d in created:
                d.rmdir()
        raise
    provenance = {
        "schema": "sheetforge/provenance/1",
        "command": command,
        "config": cfg.to_json_obj(),
        "overrides": recorded,
        "derived": _derived_constants(cfg),
        "outputs": sorted(written),
        "package_version": _package_version(),
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    _dump_json(out / "provenance.json", provenance)
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheetforge",
        description="Random-kernel sheet approximation experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "one replicate at the final n; dump the fields"),
        ("covariance", "Monte Carlo covariance / gaussianity / independence"),
        ("kernel-table", "dump kernel matrices and L2 identities"),
        ("check-hypotheses", "profile checks and moment probes"),
        ("sweep", "covariance runs across the n schedule"),
    ):
        p = sub.add_parser(name, help=help_text)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", help="path to a config JSON file")
        src.add_argument(
            "--preset", choices=PRESET_NAMES, help="named built-in config"
        )
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="PATH=JSON",
            help="override a config field (dotted path, JSON value); recorded in provenance",
        )
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, help="override master_seed")
        p.add_argument(
            "--workers",
            type=int,
            help="kept for compatibility; must be a positive integer, has no effect",
        )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.workers is not None and args.workers < 1:
            raise ConfigError(f"workers={args.workers!r} must be a positive integer")
        if args.config:
            with open(args.config) as fh:
                raw = json.load(fh)
        else:
            raw = preset(args.preset)
        out = run(
            args.command,
            raw,
            overrides=args.set,
            out_dir=args.out,
            seed=args.seed,
        )
    except json.JSONDecodeError as exc:
        print(json.dumps({"error": {"type": "ConfigError", "message": f"bad config JSON: {exc}"}}))
        return 2
    except ConfigError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2
    except SheetForgeError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 3
    except OSError as exc:
        print(json.dumps({"error": {"type": "IoError", "message": str(exc)}}))
        return 4
    print(json.dumps({"ok": True, "out": str(out)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
