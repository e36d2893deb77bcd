"""End-to-end runs of the batch front-end through main(argv)."""

import argparse
import json
import math

import numpy as np
import pytest
import scipy.linalg

from loxokit import cli, dampedwave, flows, spectra
from loxokit.cli import main
from loxokit.errors import LoxokitError
from loxokit.serialize import SCHEMA_VERSION


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_normal_form_map(tmp_path, capsys):
    inp = write_json(tmp_path / "m.json",
                     {"data": [[math.e, 0.0], [0.0, 1.0 / math.e]],
                      "kind": "map"})
    rc = main(["normal-form", "--input", inp, "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "escape rate definite" in capsys.readouterr().out
    obj = json.loads((tmp_path / "o" / "normal_form.json").read_text())
    assert obj["schema_version"] == SCHEMA_VERSION
    assert obj["escape_rate"]["positive_definite"] is True
    assert obj["escape_rate"]["radii"] == [pytest.approx(1.0)]
    assert obj["classification"]["groups"][0]["lambda"] == pytest.approx(1.0)


def test_normal_form_of_nearby_jordan_chains_map(tmp_path, capsys):
    # size-3 chains at 1.0 and 0.97: the chains are built inside each
    # eigenvalue cluster, so the other chain cannot enter the kernel
    chain = lambda lam: lam * np.eye(3) + np.eye(3, k=1)
    A = np.block([[chain(1.0), np.zeros((3, 3))],
                  [np.zeros((3, 3)), chain(0.97)]])
    B = np.block([[A.T, np.zeros((6, 6))], [np.zeros((6, 6)), -A]])
    S = scipy.linalg.expm(B)
    inp = write_json(tmp_path / "m.json", {"data": S.tolist(), "kind": "map"})
    assert main(["normal-form", "--input", inp]) == 0
    assert "escape rate definite" in capsys.readouterr().out


def test_normal_form_generator(tmp_path):
    inp = write_json(tmp_path / "g.json",
                     {"data": [[0.7, 0.0], [0.0, -0.7]],
                      "kind": "generator"})
    assert main(["normal-form", "--input", inp]) == 0


def test_normal_form_usage_errors(tmp_path):
    assert main(["normal-form"]) == 2
    bad_shape = write_json(tmp_path / "r.json", {"data": [[1.0, 0.0]]})
    assert main(["normal-form", "--input", bad_shape]) == 2
    bad_kind = write_json(tmp_path / "k.json",
                          {"data": [[1.0, 0.0], [0.0, 1.0]], "kind": "flow"})
    assert main(["normal-form", "--input", bad_kind]) == 2
    assert main(["normal-form", "--input", str(tmp_path / "absent.json")]) == 2


def test_normal_form_number_input_is_usage_error(tmp_path, capsys):
    inp = write_json(tmp_path / "n.json", 3)
    assert main(["normal-form", "--input", inp]) == 2
    assert "'data'" in capsys.readouterr().err


def test_normal_form_odd_dimension_is_usage_error(tmp_path, capsys):
    inp = write_json(tmp_path / "odd.json", {"data": np.eye(3).tolist()})
    assert main(["normal-form", "--input", inp]) == 2
    assert "even dimension" in capsys.readouterr().err


def test_normal_form_negative_real_is_numerical_failure(tmp_path, capsys):
    # orientation-reversed hyperbolic map has no real log; the solver
    # error surfaces as exit code 3, not a usage error
    inp = write_json(tmp_path / "neg.json",
                     {"data": [[-math.e ** 2, 0.0], [0.0, -math.e ** -2]]})
    rc = main(["normal-form", "--input", inp])
    assert rc == 3
    assert "negative real" in capsys.readouterr().err


def test_orbit_default_is_neck_geodesic(tmp_path):
    out = tmp_path / "orbit"
    rc = main(["orbit", "--out", str(out)])
    assert rc == 0
    obj = json.loads((out / "orbit.json").read_text())
    assert obj["period"] == pytest.approx(2 * math.pi, abs=1e-6)
    assert obj["symplectic_defect"] <= 1e-8
    tags = [g["tag"] for g in obj["classification"]["groups"]]
    assert tags == ["real_hyperbolic"]
    rows = (out / "monodromy_eigenvalues.csv").read_text().splitlines()
    assert rows[0] == "re,im"
    eigs = sorted(float(r.split(",")[0]) for r in rows[1:])
    assert eigs[-1] == pytest.approx(math.exp(2 * math.pi), rel=1e-3)


@pytest.mark.parametrize("cfg", [
    {"tol": 0}, {"tol": float("inf")}, {"tol": float("nan")},
    {"period_guess": 0}, {"period_guess": float("inf")},
])
def test_orbit_unusable_tol_or_period_is_usage_error(tmp_path, capsys, cfg):
    # 0, inf and nan give the step control no usable bound and an infinite
    # period guess an unbounded return search; a zero period guess would
    # admit the zero-time fixed point
    path = write_json(tmp_path / "cfg.json", cfg)
    assert main(["orbit", "--config", path]) == 2
    assert "must be finite and positive" in capsys.readouterr().err


def test_orbit_rejects_unknown_config_key(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"bogus": 1})
    assert main(["orbit", "--config", cfg]) == 2


def test_orbit_rejects_unknown_model_parameter(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {
        "model": {"model": "surface_of_revolution", "R": 99}})
    assert main(["orbit", "--config", cfg]) == 2
    assert "bad parameters for model" in capsys.readouterr().err


def test_spectrum_runs_are_byte_identical(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"N": 512, "k": [8, 16]})
    for name in ("s1", "s2"):
        rc = main(["spectrum", "--config", cfg, "--out",
                   str(tmp_path / name)])
        assert rc == 0
    a = (tmp_path / "s1" / "spectrum.csv").read_bytes()
    b = (tmp_path / "s2" / "spectrum.csv").read_bytes()
    assert a == b
    band = json.loads((tmp_path / "s1" / "spectrum.json").read_text())["band"]
    assert band["product_ratio"] <= 2.0


def test_spectrum_mode_flag_overrides_config(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"N": 512})
    rc = main(["spectrum", "--config", cfg, "--k", "10,20"])
    assert rc == 0
    assert "2 modes" in capsys.readouterr().out


def test_resolvent_quick_scan(tmp_path):
    out = tmp_path / "res"
    rc = main(["resolvent", "--h", "1/20,1/40", "--config",
               write_json(tmp_path / "cfg.json", {"n_z": 5}),
               "--out", str(out)])
    assert rc == 0
    obj = json.loads((out / "resolvent.json").read_text())
    assert set(obj["bands"]) == {"inv_norm", "cutoff"}
    header = (out / "resolvent.csv").read_text().splitlines()[0]
    assert header.startswith("h,re_z,im_z,sigma_min")


def test_resolvent_without_cutoff_writes_no_cutoff_band(tmp_path, capsys):
    out = tmp_path / "res"
    cfg = write_json(tmp_path / "cfg.json", {"n_z": 3, "cutoff": False})
    rc = main(["resolvent", "--h", "1/20,1/40", "--config", cfg,
               "--out", str(out)])
    assert rc == 0
    assert "cutoff" not in capsys.readouterr().out
    text = (out / "resolvent.json").read_text()
    assert "Infinity" not in text
    assert set(json.loads(text)["bands"]) == {"inv_norm"}
    lines = (out / "resolvent.csv").read_text().splitlines()
    assert lines[0].endswith(",cutoff_product")
    assert len(lines) == 7
    assert all(line.endswith(",") for line in lines[1:])


@pytest.mark.parametrize("command, cfg", [
    ("spectrum", {"k": 5}),
    ("resolvent", {"h": 0.02}),
    ("damped-wave", {"modes": 3}),
    ("resolvent", {"cutoff": "yes"}),
    ("resolvent", {"window": True}),
    ("spectrum", {"k": [10, "20"]}),
    ("resolvent", {"n_z": 2.5}),
    ("resolvent", {"n_z": True}),
    ("resolvent", {"n_z": 0}),
    ("spectrum", {"N": 2048.0}),
    ("damped-wave", {"n_grid": 100.5}),
    ("damped-wave", {"modes": [0.5, 1.7]}),
    ("damped-wave", {"decay_modes": [1.9]}),
    ("spectrum", {"k": [10.0]}),
    ("orbit", {"model": 5}),
    ("orbit", {"guess": None}),
    ("orbit", {"guess": {"r": "a"}}),
    ("orbit", {"guess": [0.0, 0.0, 1.0]}),
    ("spectrum", {"profile": ["cosh"]}),
    ("damped-wave", {"warp": 5}),
])
def test_config_value_of_wrong_kind_is_usage_error(tmp_path, command, cfg,
                                                   capsys):
    path = write_json(tmp_path / "cfg.json", cfg)
    assert main([command, "--config", path]) == 2
    key, = cfg
    assert capsys.readouterr().err.startswith(f"error: config key {key!r}")


def test_resolvent_empty_mode_window_is_numerical_failure(tmp_path, capsys):
    # z = +-0.5 sits halfway between the modes h m of h = 1/25, and a
    # window of 0.001 reaches neither neighbour
    cfg = write_json(tmp_path / "cfg.json", {"n_z": 2, "window": 0.001})
    rc = main(["resolvent", "--h", "1/25", "--config", cfg])
    assert rc == 3
    assert "mode window is empty" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [{"window": 0}, {"window": -0.6},
                                 {"rate": 0}])
def test_resolvent_nonpositive_window_or_rate_is_usage_error(tmp_path, capsys,
                                                             cfg):
    # before the check, a window of 0 or -0.6 exited 3 ("mode window is
    # empty") and rate 0 exited 3 ("tridiagonal factorization broke down")
    path = write_json(tmp_path / "cfg.json", dict(cfg, n_z=2))
    rc = main(["resolvent", "--h", "1/25", "--config", path])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert ("window" if "window" in cfg else "rate") in err


def test_damped_wave_quick_run(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json",
                     {"t_max": 6.0, "n_grid": 96, "decay_modes": [0, 3]})
    out = tmp_path / "wave"
    rc = main(["damped-wave", "--config", cfg, "--modes", "0,3",
               "--epsilon", "0.1", "--out", str(out)])
    assert rc == 0
    assert "decay rate" in capsys.readouterr().out
    obj = json.loads((out / "damped_wave.json").read_text())
    assert obj["modes"] == [0, 3]
    assert obj["strip_margin"] <= 1e-8
    assert obj["rate"] > 0
    energy = (out / "energy.csv").read_text().splitlines()
    assert energy[0] == "t,E0,Eeps"
    first = [float(v) for v in energy[1].split(",")]
    last = [float(v) for v in energy[-1].split(",")]
    assert last[1] < first[1]


def test_damped_wave_runs_are_byte_identical(tmp_path):
    cfg = write_json(tmp_path / "cfg.json",
                     {"t_max": 3.0, "n_grid": 64, "modes": [0, 2],
                      "decay_modes": [0, 2]})
    for name in ("w1", "w2"):
        assert main(["damped-wave", "--config", cfg, "--out",
                     str(tmp_path / name)]) == 0
    for out in ("eigenfrequencies.csv", "energy.csv", "damped_wave.json"):
        a = (tmp_path / "w1" / out).read_bytes()
        assert a == (tmp_path / "w2" / out).read_bytes()


@pytest.mark.parametrize("t_max", [0, 0.001, -1, float("inf")])
def test_damped_wave_horizon_too_short_is_usage_error(tmp_path, capsys,
                                                      t_max):
    # fewer than two steps leave fewer than two samples in the decay fit
    cfg = write_json(tmp_path / "cfg.json",
                     {"t_max": t_max, "n_grid": 64, "modes": [0]})
    assert main(["damped-wave", "--config", cfg]) == 2
    assert "t_max" in capsys.readouterr().err


def test_damped_wave_repeated_decay_mode_is_usage_error(tmp_path, capsys):
    # a repeated mode would count twice in E0 but once in Eeps
    cfg = write_json(tmp_path / "cfg.json",
                     {"t_max": 4.0, "n_grid": 32, "modes": [0, 1],
                      "decay_modes": [0, 0]})
    assert main(["damped-wave", "--config", cfg]) == 2
    assert "repeat" in capsys.readouterr().err


def test_damped_wave_rejects_bad_warp(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"warp": "saddle"})
    assert main(["damped-wave", "--config", cfg]) == 2


def test_selftest_criteria_subset(tmp_path, capsys):
    out = tmp_path / "self"
    # symplectic-residuals ends in a numpy boolean internally; writing the
    # JSON summary must still work
    rc = main(["selftest", "--criteria",
               "log-exp-roundtrip,symplectic-residuals", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "log-exp-roundtrip" in text and "PASS" in text
    obj = json.loads((out / "selftest.json").read_text())
    assert [r["passed"] for r in obj["results"]] == [True, True]


def test_selftest_unknown_criterion():
    assert main(["selftest", "--criteria", "nonexistent"]) == 2


def test_env_var_sets_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("LOXOKIT_OUT", str(tmp_path / "envout"))
    inp = write_json(tmp_path / "m.json",
                     {"data": [[math.e, 0.0], [0.0, 1.0 / math.e]]})
    assert main(["normal-form", "--input", inp]) == 0
    assert (tmp_path / "envout" / "normal_form.json").exists()


def test_env_var_skipped_by_subcommands_without_the_flag(tmp_path,
                                                         monkeypatch):
    # only orbit has --tol, so normal-form never parses LOXOKIT_TOL
    monkeypatch.setenv("LOXOKIT_TOL", "abc")
    inp = write_json(tmp_path / "m.json",
                     {"data": [[math.e, 0.0], [0.0, 1.0 / math.e]]})
    assert main(["normal-form", "--input", inp]) == 0


def test_bad_env_tol_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("LOXOKIT_TOL", "abc")
    assert main(["orbit"]) == 2
    assert capsys.readouterr().err.startswith("error: LOXOKIT_TOL")


def test_h_division_by_zero_is_usage_error(capsys):
    assert main(["resolvent", "--h", "1/0"]) == 2
    assert capsys.readouterr().err.startswith("error: '1/0'")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--threads", "2"],
    ["resolvent", "--seed", "1"],
    ["spectrum", "--tol", "1e-9"],
    ["normal-form", "--config", "missing.json"],
    ["selftest", "--config", "missing.json"],
])
def test_unread_flags_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["spectrum", "resolvent"])
def test_threads_config_key_is_unknown(tmp_path, command, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"threads": 2})
    assert main([command, "--config", cfg]) == 2
    assert "unknown config keys ['threads']" in capsys.readouterr().err


def _numerical_errors():
    found, todo = [], [LoxokitError]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(set(found), key=lambda c: c.__name__)


def test_numerical_errors_cover_every_module():
    names = {c.__name__ for c in _numerical_errors()}
    assert {"LoxokitError", "GridTooCoarse", "StepFailure",
            "SymplecticError", "FlowError", "SpectraError",
            "ResolventError", "DampedWaveError"} <= names
    assert spectra.GridTooCoarse is dampedwave.GridTooCoarse
    assert flows.StepFailure is dampedwave.StepFailure


@pytest.mark.parametrize("error", _numerical_errors(),
                         ids=lambda c: c.__name__)
def test_every_numerical_error_exits_3(error, monkeypatch, capsys):
    def failing(args):
        raise error("injected")

    monkeypatch.setitem(cli.COMMANDS, "selftest", failing)
    assert main(["selftest"]) == 3
    assert capsys.readouterr().err == "numerical failure: injected\n"


EXPECTED_OPTIONS = {
    "normal-form": {"--input", "--out"},
    "orbit": {"--config", "--out", "--tol"},
    "spectrum": {"--config", "--out", "--k", "--delta"},
    "resolvent": {"--config", "--out", "--h"},
    "damped-wave": {"--config", "--out", "--modes", "--epsilon", "--r0"},
    "selftest": {"--out", "--criteria"},
}


def test_subcommands_accept_only_the_options_they_read():
    parser = cli.build_parser()
    sub, = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    seen = {}
    for name, p in sub.choices.items():
        seen[name] = {opt for action in p._actions
                      for opt in action.option_strings
                      if opt not in ("-h", "--help")}
    assert seen == EXPECTED_OPTIONS
    assert set(cli.COMMANDS) == set(EXPECTED_OPTIONS)


def test_degenerate_flow_input_is_usage_error(monkeypatch, capsys):
    def control(args):
        flows.check_geometric_control(
            flows.surface_of_revolution(), flows.meridian_damping(),
            flows.neck_exclusion(), n_samples=0)

    monkeypatch.setitem(cli.COMMANDS, "selftest", control)
    assert main(["selftest"]) == 2
    assert capsys.readouterr().err.startswith("error: need at least one")
