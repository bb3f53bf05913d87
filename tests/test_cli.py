"""Config loading, override handling, and the command-line runner.

The CLI promises byte-deterministic outputs for a fixed (config, seed)
pair, with provenance.json as the single file carrying a timestamp.  The
tests below drive `main` in-process for exit-code and artifact checks.
The entry points are covered in fresh interpreters: `python -m
sheetforge.cli`, and the `[project.scripts]` entry point declared in
pyproject.toml, loaded and run the way an installed console script runs
it, so both work from the source tree.  The installed `sheetforge`
script itself runs only where the package is installed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sheetforge import (
    ConfigError,
    Lattice,
    StepFunction,
    WindowScalingSettings,
    apply_overrides,
    config_from_json_obj,
    kac_stroock,
    mix64,
    preset,
    realize_theta,
)
from sheetforge import cli, levy
from sheetforge.cli import main, run
from sheetforge.config import PRESET_NAMES

# one tiny, fast setting reused by most runner tests: 16x16 lattice, the
# roughest approximation level, 60 replicates, and a 2x2 evaluation grid
SMALL = [
    "--set", "lattice_m=16",
    "--set", "n_schedule=[4.0]",
    "--set", "replicates=60",
    "--set", 'eval_grid={"s_points":[0.5,1.0],"t_points":[0.5,1.0]}',
]


def _cli(capsys, argv):
    code = main(argv)
    payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, payload


def _provenance(out_dir):
    with open(out_dir / "provenance.json") as fh:
        return json.load(fh)


# -- config round-trips -------------------------------------------------------


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_configs_round_trip_through_json(name):
    cfg = config_from_json_obj(preset(name))
    obj = cfg.to_json_obj()
    again = config_from_json_obj(obj)
    assert again.to_json_obj() == obj
    assert config_from_json_obj(json.loads(json.dumps(obj))).to_json_obj() == obj


def test_round_trip_preserves_probe_settings():
    obj = preset("fbm-wave")
    obj["bilinear_pairs"] = [
        [
            {"breaks": [0.0, 0.5, 1.0], "values": [1.0, 2.0]},
            {"breaks": [0.0, 1.0], "values": [0.5]},
        ]
    ]
    obj["window_scaling"] = {
        "m_order": 2,
        "base_rect": [0.5, 1.0, 0.5, 1.0],
        "windows": [[0.4, 0.5, 0.4, 0.5], [0.4, 0.6, 0.4, 0.6]],
        "gamma": 0.5,
    }
    cfg = config_from_json_obj(obj)
    assert cfg.bilinear_pairs == (
        (
            StepFunction((0.0, 0.5, 1.0), (1.0, 2.0)),
            StepFunction((0.0, 1.0), (0.5,)),
        ),
    )
    assert cfg.window_scaling == WindowScalingSettings(
        m_order=2,
        base_rect=(0.5, 1.0, 0.5, 1.0),
        windows=((0.4, 0.5, 0.4, 0.5), (0.4, 0.6, 0.4, 0.6)),
        gamma=0.5,
    )
    round_tripped = config_from_json_obj(cfg.to_json_obj())
    assert round_tripped.to_json_obj() == cfg.to_json_obj()


def test_config_rejects_malformed_objects():
    good = preset("brownian-baseline")

    bad = dict(good, mystery=1)
    with pytest.raises(ConfigError):
        config_from_json_obj(bad)

    bad = json.loads(json.dumps(good))
    bad["theta"]["temperature"] = 0.1
    with pytest.raises(ConfigError):
        config_from_json_obj(bad)

    with pytest.raises(ConfigError):
        config_from_json_obj(dict(good, probes=["covariance", "vibes"]))

    with pytest.raises(ConfigError):
        config_from_json_obj(dict(good, n_schedule=[100.0, 25.0]))

    with pytest.raises(ConfigError):
        config_from_json_obj(dict(good, n_schedule=[]))

    with pytest.raises(ConfigError):
        config_from_json_obj(dict(good, replicates=1))

    with pytest.raises(ConfigError):
        config_from_json_obj(dict(good, master_seed=-1))

    with pytest.raises(ConfigError):
        config_from_json_obj(dict(good, schema_version=99))


def test_degenerate_angle_surfaces_as_config_error():
    obj = json.loads(json.dumps(preset("fbm-wave")))
    obj["theta"]["angle"] = 6.283185307179586  # cos(angle) == 1 for unit jumps
    with pytest.raises(ConfigError, match="component validation"):
        config_from_json_obj(obj)


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="unknown preset"):
        preset("does-not-exist")


# -- overrides ---------------------------------------------------------------


def test_apply_overrides_updates_nested_and_top_level_fields():
    base = preset("fbm-wave")
    out = apply_overrides(
        base,
        [
            "theta.angle=0.5",
            "lattice_m=16",
            "output_dir=somewhere",  # not valid JSON -> kept as a string
            'kernel1={"kind":"indicator"}',
        ],
    )
    assert out["theta"]["angle"] == 0.5
    assert out["lattice_m"] == 16
    assert out["output_dir"] == "somewhere"
    assert out["kernel1"] == {"kind": "indicator"}
    # the input object is never mutated
    assert base["theta"]["angle"] == 1.0
    assert base["kernel1"] == {"kind": "fbm_volterra", "alpha": 0.6}


def test_apply_overrides_restores_missing_known_top_level_field():
    base = preset("brownian-baseline")
    del base["zero_mean"]
    out = apply_overrides(base, ["zero_mean=true"])
    assert out["zero_mean"] is True


def test_apply_overrides_rejects_bad_paths():
    base = preset("brownian-baseline")
    with pytest.raises(ConfigError, match="does not exist"):
        apply_overrides(base, ["theta.nonsense=1"])
    with pytest.raises(ConfigError, match="does not exist"):
        apply_overrides(base, ["definitely_not_a_field=1"])
    with pytest.raises(ConfigError, match="does not address an object"):
        apply_overrides(base, ["lattice_m.deeper=1"])
    with pytest.raises(ConfigError, match="must look like"):
        apply_overrides(base, ["no_equals_sign"])


# -- runner: artifacts and provenance -----------------------------------------


def test_simulate_writes_fields_and_provenance(tmp_path, capsys):
    out = tmp_path / "sim"
    code, payload = _cli(
        capsys,
        ["simulate", "--preset", "brownian-baseline", *SMALL, "--out", str(out)],
    )
    assert code == 0
    assert payload == {"ok": True, "out": str(out)}

    expected = ["approx_field.csv", "approx_field.json", "theta_field.csv", "zeta_field.csv"]
    for name in expected:
        assert (out / name).exists()

    # the theta field of replicate 0 at the final n, every float exact
    seed = preset("brownian-baseline")["master_seed"]
    want = realize_theta(kac_stroock(4.0), Lattice(16), mix64(seed, 0))
    theta = np.loadtxt(out / "theta_field.csv", skiprows=1, delimiter=",")
    assert theta.shape == (16, 16) and theta.tobytes() == want.tobytes()

    prov = _provenance(out)
    assert prov["schema"] == "sheetforge/provenance/1"
    assert prov["command"] == "simulate"
    assert prov["outputs"] == expected
    assert prov["config"]["lattice_m"] == 16
    assert prov["overrides"] == [s for s in SMALL if s != "--set"]
    assert prov["derived"]["zero_mean_estimator"] is True
    assert "generated_at" in prov


def test_covariance_command_writes_report_files(tmp_path, capsys):
    out = tmp_path / "cov"
    code, payload = _cli(
        capsys,
        ["covariance", "--preset", "brownian-baseline", *SMALL, "--out", str(out)],
    )
    assert code == 0 and payload["ok"] is True
    report = json.loads((out / "covariance_report.json").read_text())
    assert report["schema"] == "sheetforge/covariance-report/1"
    assert report["replicates"] == 60
    assert report["points"] == [[0.5, 0.5], [0.5, 1.0], [1.0, 0.5], [1.0, 1.0]]
    assert "covariance report" in (out / "covariance_report.txt").read_text()
    csv_lines = (out / "covariance_report.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 1 + 4 * 4
    assert sorted(_provenance(out)["outputs"]) == [
        "covariance_report.csv",
        "covariance_report.json",
        "covariance_report.txt",
    ]


def test_covariance_with_no_matching_probes_writes_provenance_only(tmp_path, capsys):
    out = tmp_path / "noop"
    code, _ = _cli(
        capsys,
        [
            "covariance", "--preset", "brownian-baseline", *SMALL,
            "--set", 'probes=["profiles"]', "--out", str(out),
        ],
    )
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == ["provenance.json"]
    assert _provenance(out)["outputs"] == []


def test_gaussianity_probe_reports_the_far_corner(tmp_path, capsys):
    out = tmp_path / "gauss"
    code, _ = _cli(
        capsys,
        [
            "covariance", "--preset", "brownian-baseline",
            "--set", "lattice_m=16", "--set", "n_schedule=[4.0]",
            "--set", "replicates=600", "--set", 'probes=["gaussianity"]',
            "--out", str(out),
        ],
    )
    assert code == 0
    gauss = json.loads((out / "gaussianity.json").read_text())
    assert gauss["schema"] == "sheetforge/gaussianity/1"
    assert gauss["point"] == [1.0, 1.0]
    assert gauss["samples"] == 600
    assert 0.0 <= gauss["p_value"] <= 1.0


def test_gaussianity_probe_refuses_tiny_samples(tmp_path, capsys):
    code, payload = _cli(
        capsys,
        [
            "covariance", "--preset", "brownian-baseline", *SMALL,
            "--set", 'probes=["gaussianity"]', "--out", str(tmp_path / "g"),
        ],
    )
    assert code == 3
    assert payload["error"]["type"] == "InsufficientReplicates"


def test_independence_probe_requires_wave_theta(tmp_path, capsys):
    code, payload = _cli(
        capsys,
        [
            "covariance", "--preset", "brownian-baseline", *SMALL,
            "--set", 'probes=["independence"]', "--out", str(tmp_path / "x"),
        ],
    )
    assert code == 2
    assert payload["error"]["type"] == "ConfigError"
    assert "LevyCos" in payload["error"]["message"]


def test_independence_probe_runs_on_wave_preset(tmp_path, capsys):
    out = tmp_path / "indep"
    code, _ = _cli(
        capsys,
        [
            "covariance", "--preset", "fbm-wave", *SMALL,
            "--set", 'probes=["independence"]', "--out", str(out),
        ],
    )
    assert code == 0
    indep = json.loads((out / "independence.json").read_text())
    assert indep["schema"] == "sheetforge/independence/1"
    assert indep["replicates"] == 60
    assert indep["points_first"] == [[0.5, 0.5], [0.5, 1.0], [1.0, 0.5], [1.0, 1.0]]


def test_kernel_table_indicator_matrices_are_zero_one(tmp_path, capsys):
    out = tmp_path / "ktab"
    code, _ = _cli(
        capsys,
        [
            "kernel-table", "--preset", "brownian-baseline",
            "--set", "lattice_m=8", "--out", str(out),
        ],
    )
    assert code == 0
    lines = (out / "kernel1_matrix.csv").read_text().strip().splitlines()
    assert lines[0].startswith("t\\r,")
    assert len(lines) == 1 + 4  # four evaluation points
    for line in lines[1:]:
        cells = [float(v) for v in line.split(",")]
        assert all(v in (0.0, 1.0) for v in cells[1:])
    # at t = 1.0 every midpoint is inside the support
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == 1.0 and all(v == 1.0 for v in last[1:])

    rows = (out / "l2_identity.csv").read_text().strip().splitlines()
    assert rows[0] == "kernel,s,s2,increment_l2,closed_form,rel_err"
    for row in rows[1:]:
        rel = row.split(",")[-1]
        assert rel != "" and abs(float(rel)) < 1e-12
    assert (out / "kernel2_matrix.csv").exists()


def test_check_hypotheses_profiles_only(tmp_path, capsys):
    out = tmp_path / "prof"
    code, _ = _cli(
        capsys,
        [
            "check-hypotheses", "--preset", "fbm-wave", *SMALL,
            "--set", 'kernel1={"kind":"fbm_volterra","alpha":0.3}',
            "--set", 'probes=["profiles"]', "--out", str(out),
        ],
    )
    assert code == 0
    report = json.loads((out / "profile_report.json").read_text())
    for name in ("kernel1", "kernel2"):
        assert set(report[name]) == {"profile", "check"}
        assert report[name]["check"]["worst_slack"] >= -1e-9
    # alpha < 1/2: locally fitted window bound, window checks exercised
    rough = report["kernel1"]
    assert rough["profile"]["regime"] == "windowed"
    assert rough["profile"]["m_bound"] is not None
    assert rough["check"]["checked_windows"] > 0
    # alpha > 1/2: global superlinear growth bound, pair checks only
    smooth = report["kernel2"]
    assert smooth["profile"]["regime"] == "superlinear"
    assert smooth["check"]["checked_pairs"] > 0
    assert smooth["check"]["checked_windows"] == 0


def test_check_hypotheses_moment_probes(tmp_path, capsys):
    out = tmp_path / "probes"
    code, _ = _cli(
        capsys,
        [
            "check-hypotheses", "--preset", "brownian-baseline", *SMALL,
            "--set", 'probes=["bilinear","window-scaling"]', "--out", str(out),
        ],
    )
    assert code == 0
    bilinear = json.loads((out / "bilinear_probe.json").read_text())
    assert len(bilinear) == 1
    assert bilinear[0]["schema"] == "sheetforge/bilinear-probe/1"
    assert bilinear[0]["bound_mode"] is False  # parity kernel: report-only
    scaling = json.loads((out / "window_scaling.json").read_text())
    assert scaling["schema"] == "sheetforge/window-scaling/1"
    assert len(scaling["moments"]) == 4


def test_sweep_produces_trend_artifacts(tmp_path, capsys):
    out = tmp_path / "sweep"
    code, _ = _cli(
        capsys,
        [
            "sweep", "--preset", "brownian-baseline",
            "--set", "lattice_m=16", "--set", "n_schedule=[4.0,9.0]",
            "--set", "replicates=60",
            "--set", 'eval_grid={"s_points":[0.5,1.0],"t_points":[0.5,1.0]}',
            "--out", str(out),
        ],
    )
    assert code == 0
    first = json.loads((out / "covariance_n0.json").read_text())
    second = json.loads((out / "covariance_n1.json").read_text())
    assert first["n"] == 4.0 and second["n"] == 9.0
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["schema"] == "sheetforge/sweep/1"
    assert [row["n"] for row in summary["trend"]] == [4.0, 9.0]
    assert isinstance(summary["final_passes"], bool)
    trend_lines = (out / "sweep_trend.csv").read_text().strip().splitlines()
    assert trend_lines[0] == "n,max_abs_deviation,max_std_deviation,passes"
    assert len(trend_lines) == 3


# -- runner: exit codes and error JSON ----------------------------------------


def test_bad_config_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, payload = _cli(
        capsys, ["simulate", "--config", str(path), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert payload["error"]["type"] == "ConfigError"
    assert "bad config JSON" in payload["error"]["message"]


def test_malformed_thread_count_exits_2(tmp_path, capsys):
    argv = ["covariance", "--preset", "brownian-baseline", *SMALL,
            "--out", str(tmp_path / "o"), "--workers", "0"]
    code, payload = _cli(capsys, argv)
    assert code == 2
    assert payload["error"]["type"] == "ConfigError"
    assert "workers=0" in payload["error"]["message"]


@pytest.mark.parametrize("override, field", [
    ("lattice_m=abc", "lattice_m"),
    ('n_schedule=["x"]', "n_schedule"),
    ("replicates=2.9", "replicates"),
    ("zero_mean=no", "zero_mean"),
    ("theta.model.jump_rate=-1", "jump_rate"),
    ('theta.model.jump_rate="x"', "theta.model"),
    ("theta.model.jump_rate=true", "jump_rate"),
    ("eval_grid.s_points=[0.5,1.5]", "s_points"),
    ('bilinear_pairs=[[{"breaks":[0,2],"values":[1]},{"breaks":[0,1],"values":[1]}]]',
     "breaks"),
    ("probes=5", "probes"),
    ('probes="covariance"', "probes"),
    ("bilinear_pairs=5", "bilinear_pairs"),
    ("output_dir=5", "output_dir"),
    ('theta.model.jump_rate="2"', "jump_rate"),
    ('window_scaling={"m_order":2,"base_rect":[0,1,0,1],"windows":[[0.4,0.5,0.4,0.5]],'
     '"gamma":NaN}', "window_scaling.gamma"),
    ('bilinear_pairs=[[{"breaks":[0,NaN,1],"values":[1,2]},{"breaks":[0,1],"values":[1]}]]',
     "breaks"),
    ("theta.model.jump_rate=1e17", "jump_rate"),  # over 1e7 expected jumps per draw
    ("theta.model.jump_rate=1e308", "jump_rate"),  # rate * n overflows to inf
    ("n_schedule=[4.0,2e7]", "jump_rate"),  # only the largest n is over the bound
    ("theta.angle=1.0", "angle"),  # KacStroock has no angle
    ("theta.m_guard=3", "m_guard"),  # nor an angle-check horizon
])
def test_malformed_config_values_exit_2(override, field, tmp_path, capsys):
    """Values of the wrong type or range are a ConfigError naming the field
    (or the component that holds it), not a traceback, a domain error, a
    truncation or a truthy value."""
    argv = ["covariance", "--preset", "brownian-baseline", *SMALL,
            "--set", override, "--out", str(tmp_path / "o")]
    code, payload = _cli(capsys, argv)
    assert code == 2
    assert payload["error"]["type"] == "ConfigError"
    assert field in payload["error"]["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, path, value", [
    ("brownian-baseline", ("master_seed",), True),
    ("brownian-baseline", ("lattice_m",), 16.0),
    ("brownian-baseline", ("replicates",), "60"),
    ("brownian-baseline", ("eval_grid",), {"s_points": ["x"], "t_points": [1.0]}),
    ("fbm-wave", ("theta", "m_guard"), 2.0),
    ("fbm-wave", ("theta", "angle"), "wide"),
    ("fbm-wave", ("zero_mean",), 1),
    ("fbm-wave", ("window_scaling",),
     {"m_order": 2.0, "base_rect": [0, 1, 0, 1], "windows": [[0.5, 0.75, 0.5, 0.75]]}),
    ("fbm-wave", ("window_scaling",),
     {"m_order": 2, "base_rect": [0, 1, 0, "x"], "windows": [[0.5, 0.75, 0.5, 0.75]]}),
    ("fbm-wave", ("window_scaling",),
     {"m_order": 2, "base_rect": [0, 1, 0, 1], "windows": [[0.5, 0.75, 0.5, 0.75]],
      "gamma": "steep"}),
    ("fbm-wave", ("window_scaling",),
     {"m_order": 2, "base_rect": [0, 1, 0, 1], "windows": [[0.5, 0.75, 0.5, 0.75]],
      "gamma": True}),
    ("fbm-wave", ("bilinear_pairs",),
     [[{"breaks": [0.0, 1.0]}, {"breaks": [0.0, 1.0], "values": [1.0]}]]),
    ("fbm-wave", ("bilinear_pairs",),
     [[{"breaks": [0.0, True], "values": [1.0]}, {"breaks": [0.0, 1.0], "values": [1.0]}]]),
    ("fbm-wave", ("theta", "m_guard"), 10_002),
    ("fbm-wave", ("theta", "model", "sigma"), 1e150),
    ("fbm-wave", ("theta", "model", "sigma"), 1e300),
])
def test_config_fields_reject_wrong_types(name, path, value):
    obj = preset(name)
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ConfigError, match=path[-1]):
        config_from_json_obj(obj)


@pytest.mark.parametrize("override", [
    "theta.model.sigma=1e300",  # sigma**2 overflows
    "theta.m_guard=18446744073709551616",  # 2**64 steps of the angle check
    "theta.model.jump_rate=1e17",  # over 1e7 expected jumps per draw
])
def test_wave_constants_and_guard_out_of_range_exit_2(override, tmp_path, capsys):
    """A wave spec whose exponent overflows, whose angle check would run
    past 10 000 steps, or whose sheet would hold more than 1e7 expected
    jumps at the largest n, is refused at load: exit 2, nothing written."""
    argv = ["covariance", "--preset", "fbm-wave", *SMALL, "--set", override,
            "--out", str(tmp_path / "o")]
    code, payload = _cli(capsys, argv)
    assert code == 2
    assert payload["error"]["type"] == "ConfigError"
    assert override.split("=")[0].split(".")[-1] in payload["error"]["message"]
    assert not (tmp_path / "o").exists()


def test_largest_m_guard_loads():
    obj = preset("fbm-wave")
    obj["theta"]["m_guard"] = 10_000
    assert config_from_json_obj(obj).spec_for_n(25.0).m_guard == 10_000


def test_a_sweep_checks_its_angle_once(tmp_path, capsys, monkeypatch):
    """Config load, the zero-mean default, every draw and the derived
    constants each build a ThetaSpec, and each spec asks for the m_guard
    angle check: one sweep evaluates those m_guard exponents once."""
    levy.min_real_exponent.cache_clear()
    calls = []
    exponent = levy.exponent

    def counted(*args):
        calls.append(args)
        return exponent(*args)

    monkeypatch.setattr(levy, "exponent", counted)
    argv = ["sweep", "--preset", "fbm-wave", *SMALL, "--set", "n_schedule=[4.0,9.0,16.0]",
            "--set", "theta.m_guard=10000", "--out", str(tmp_path / "o")]
    code, _ = _cli(capsys, argv)
    assert code == 0
    assert 10_000 <= len(calls) <= 10_000 + 20


def test_missing_config_file_exits_4(tmp_path, capsys):
    code, payload = _cli(
        capsys,
        ["simulate", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)],
    )
    assert code == 4
    assert payload["error"]["type"] == "IoError"


@pytest.mark.parametrize("settings, message", [
    # the windows break the probe's local-window requirement s0' < 2 s0
    ('{"m_order":2,"base_rect":[0.5,1.0,0.5,1.0],'
     '"windows":[[0.1,0.5,0.1,0.5],[0.1,0.6,0.1,0.6]],"gamma":null}', "s-range"),
    ('{"m_order":3,"base_rect":[0.0,1.0,0.0,1.0],'
     '"windows":[[0.4,0.5,0.4,0.5],[0.4,0.6,0.4,0.6]]}', "m_order"),
])
def test_invalid_window_scaling_settings_exit_2(settings, message, tmp_path, capsys):
    """The window-scaling settings are checked at load, before the profiles
    and bilinear probes that run ahead of them: exit 2, nothing written."""
    code, payload = _cli(
        capsys,
        [
            "check-hypotheses", "--preset", "brownian-baseline", *SMALL,
            "--set", 'probes=["profiles","bilinear","window-scaling"]',
            "--set", f"window_scaling={settings}", "--out", str(tmp_path / "w"),
        ],
    )
    assert code == 2
    assert payload["error"]["type"] == "ConfigError"
    assert "window_scaling" in payload["error"]["message"]
    assert message in payload["error"]["message"]
    assert not (tmp_path / "w").exists()


def test_runtime_probe_failure_exits_3(tmp_path, capsys):
    # K = 10 on 0 < r < t has increments 100 (s2 - s) and fails its growth
    # profile, which only the profiles probe finds, mid-run
    kernel = '{"kind":"goursat","terms":[[[10.0],[1.0]]]}'
    code, payload = _cli(
        capsys,
        [
            "check-hypotheses", "--preset", "brownian-baseline", *SMALL,
            "--set", 'probes=["profiles"]', "--set", f"kernel1={kernel}",
            "--set", f"kernel2={kernel}", "--out", str(tmp_path / "p"),
        ],
    )
    assert code == 3
    assert payload["error"]["type"] == "ProfileViolation"


def _count_draws(monkeypatch) -> list:
    """Wraps the CLI module's two replicate generators, as bench/trace_cli.py
    does, and returns the list of (generator, n) each call appends to."""
    calls = []
    for name in ("generate_replicates", "generate_coupled_replicates"):
        def counted(spec, *args, _name=name, _inner=getattr(cli, name)):
            calls.append((_name, spec.n))
            return _inner(spec, *args)
        monkeypatch.setattr(cli, name, counted)
    return calls


def test_too_few_replicates_for_gaussianity_draw_and_write_nothing(
        tmp_path, capsys, monkeypatch):
    """The Gaussianity probe's sample floor is checked before the first
    draw: with all the fbm-wave probes and 499 replicates, exit 3 and no
    file, where the independence and covariance outputs were once written."""
    calls = _count_draws(monkeypatch)
    out = tmp_path / "few"
    code, payload = _cli(capsys, ["covariance", "--preset", "fbm-wave", "--set", "lattice_m=16",
                                  "--set", "replicates=499", "--out", str(out)])
    assert code == 3
    assert payload["error"] == {"type": "InsufficientReplicates",
                                "message": "gaussianity test needs >= 500 samples, got 499"}
    assert calls == []
    assert not out.exists()


def test_a_refused_run_leaves_no_directory_it_made(tmp_path, capsys):
    """A command that refuses before writing a file removes the output
    directory and the parents it made; a directory that was there before
    stays as it was."""
    refused = ["covariance", "--preset", "brownian-baseline", *SMALL,
               "--set", 'probes=["independence"]', "--out"]
    code, payload = _cli(capsys, [*refused, str(tmp_path / "new" / "deep")])
    assert code == 2
    assert "LevyCos" in payload["error"]["message"]
    assert list(tmp_path.iterdir()) == []
    for kept in ({}, {"notes.txt": "mine"}):
        out = tmp_path / f"kept{len(kept)}"
        out.mkdir()
        for name, text in kept.items():
            (out / name).write_text(text)
        code, _ = _cli(capsys, [*refused, str(out)])
        assert code == 2
        assert {p.name: p.read_text() for p in out.iterdir()} == kept


def test_covariance_and_sweep_draw_through_the_module_generators(
        tmp_path, capsys, monkeypatch):
    """Both covariance branches and every n of a sweep draw once each, by
    the generator names a tracer replaces in the CLI module."""
    calls = _count_draws(monkeypatch)
    runs = (
        (["covariance", "--preset", "brownian-baseline", *SMALL],
         [("generate_replicates", 4.0)]),
        (["covariance", "--preset", "fbm-wave", *SMALL,
          "--set", 'probes=["covariance","independence"]'],
         [("generate_coupled_replicates", 4.0)]),
        (["sweep", "--preset", "fbm-wave", *SMALL, "--set", "n_schedule=[4.0,9.0,16.0]"],
         [("generate_replicates", 4.0), ("generate_replicates", 9.0),
          ("generate_replicates", 16.0)]),
    )
    for i, (argv, want) in enumerate(runs):
        calls.clear()
        code, _ = _cli(capsys, [*argv, "--out", str(tmp_path / str(i))])
        assert code == 0
        assert calls == want


def test_unknown_subcommand_rejected_by_run(tmp_path):
    with pytest.raises(ConfigError, match="unknown subcommand"):
        run("frobnicate", preset("brownian-baseline"), out_dir=str(tmp_path / "u"))
    assert not (tmp_path / "u").exists()


def test_seed_flag_is_recorded_as_an_override(tmp_path, capsys):
    out = tmp_path / "seeded"
    code, _ = _cli(
        capsys,
        [
            "simulate", "--preset", "brownian-baseline", *SMALL,
            "--seed", "999", "--out", str(out),
        ],
    )
    assert code == 0
    prov = _provenance(out)
    assert prov["overrides"][-1] == "master_seed=999"
    assert prov["config"]["master_seed"] == 999


def test_seed_must_fit_in_64_bits(tmp_path, capsys):
    """mix64 reads the seed modulo 2**64, so 2**64 + 5 would replay seed 5
    while provenance recorded another seed: 2**64 is refused, 2**64 - 1 runs."""
    argv = ["simulate", "--preset", "brownian-baseline", *SMALL]
    code, payload = _cli(capsys, argv + ["--seed", str(2**64), "--out", str(tmp_path / "o")])
    assert code == 2
    assert payload["error"]["type"] == "ConfigError"
    assert "master_seed" in payload["error"]["message"]
    assert not (tmp_path / "o").exists()

    out = tmp_path / "top"
    code, _ = _cli(capsys, argv + ["--seed", str(2**64 - 1), "--out", str(out)])
    assert code == 0
    assert _provenance(out)["config"]["master_seed"] == 2**64 - 1


def test_empty_bilinear_pairs_are_written_as_null():
    obj = dict(preset("fbm-wave"), bilinear_pairs=[])
    cfg = config_from_json_obj(obj)
    assert cfg.bilinear_pairs is None
    assert cfg.to_json_obj()["bilinear_pairs"] is None


# -- determinism --------------------------------------------------------------


def _assert_repeat_runs_identical(capsys, argv, dirs):
    """Run argv once into each directory; every output must match byte for
    byte, provenance.json outside its generated_at field."""
    for d in dirs:
        code, _ = _cli(capsys, argv + ["--out", str(d)])
        assert code == 0

    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    for name in names:
        first = (dirs[0] / name).read_bytes()
        second = (dirs[1] / name).read_bytes()
        if name == "provenance.json":
            a, b = (json.loads(x) for x in (first, second))
            a.pop("generated_at")
            b.pop("generated_at")
            assert a == b
        else:
            assert first == second


def test_repeat_runs_are_byte_identical_except_timestamp(tmp_path, capsys):
    argv = ["covariance", "--preset", "brownian-baseline", *SMALL]
    dirs = [tmp_path / "a", tmp_path / "b"]
    _assert_repeat_runs_identical(capsys, argv, dirs)

    # a different master seed must change the Monte Carlo outputs
    reseeded = tmp_path / "c"
    code, _ = _cli(capsys, argv + ["--seed", "54321", "--out", str(reseeded)])
    assert code == 0
    assert (reseeded / "covariance_report.csv").read_bytes() != (
        dirs[0] / "covariance_report.csv"
    ).read_bytes()


def test_repeat_runs_on_a_dense_grid_are_byte_identical(tmp_path, capsys):
    """The covariance reductions are matrix products; on a 12 x 12 grid they
    are 144 x 144, and their reports must repeat byte for byte as well."""
    axis = [i / 12 for i in range(1, 13)]
    grid = json.dumps({"s_points": axis, "t_points": axis})
    argv = ["covariance", "--preset", "brownian-baseline", *SMALL, "--set", f"eval_grid={grid}"]
    dirs = [tmp_path / "a", tmp_path / "b"]
    _assert_repeat_runs_identical(capsys, argv, dirs)
    report = json.loads((dirs[0] / "covariance_report.json").read_text())
    assert len(report["points"]) == 144


# -- entry points ----------------------------------------------------------------

KERNEL_TABLE = [
    "kernel-table", "--preset", "brownian-baseline", "--set", "lattice_m=4",
]

# what the console-script wrapper generated by an install does with the
# declared entry point
_WRAPPER = (
    "import sys\n"
    "from importlib.metadata import EntryPoint\n"
    "main = EntryPoint(name='sheetforge', value={value!r},"
    " group='console_scripts').load()\n"
    "sys.exit(main())\n"
)


def _run_entry(cmd, out):
    proc = subprocess.run(
        cmd + KERNEL_TABLE + ["--out", str(out)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["ok"] is True
    assert (out / "kernel1_matrix.csv").exists()
    assert (out / "provenance.json").exists()


def test_module_and_console_entry_points(tmp_path):
    _run_entry([sys.executable, "-m", "sheetforge.cli"], tmp_path / "module")

    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"sheetforge": "sheetforge.cli:main"}
    wrapper = _WRAPPER.format(value=scripts["sheetforge"])
    _run_entry([sys.executable, "-c", wrapper], tmp_path / "entry-point")


@pytest.mark.skipif(
    shutil.which("sheetforge") is None,
    reason="sheetforge console script not installed",
)
def test_installed_console_script(tmp_path):
    _run_entry([shutil.which("sheetforge")], tmp_path / "script")
