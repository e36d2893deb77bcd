"""End-to-end runs of the batch front-end through main(argv)."""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import loxokit
from loxokit import acceptance, cli, dampedwave, flows, resolvent, spectra
from loxokit.cli import main
from loxokit.errors import GridTooCoarse, LoxokitError
from loxokit.serialize import SCHEMA_VERSION

# an 8 x 8 map exp(P B0 P^-1): B0 holds a size-2 chain at 0.9 and the
# quadruple 0.4 +- 1.1i, P is exp of a seeded random Hamilton matrix
MAP_INPUT = pathlib.Path(__file__).parent / "data" / "map_j2_quad.json"


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


def test_normal_form_of_strongly_hyperbolic_map(tmp_path, capsys):
    # a shear with eigenvalues e^+-4pi; any 2 x 2 matrix of determinant 1
    # is symplectic
    mu = math.exp(4 * math.pi)
    S = np.array([[mu, 1.0], [0.0, 1.0 / mu]])
    inp = write_json(tmp_path / "m.json", {"data": S.tolist(), "kind": "map"})
    assert main(["normal-form", "--input", inp]) == 0
    assert "escape rate definite" in capsys.readouterr().out


def test_normal_form_of_map_is_repeatable_across_processes(tmp_path):
    # the log of a map comes from LAPACK eigen- and Schur decompositions
    # alone, with no randomized norm estimate, so fresh processes agree
    src = os.path.dirname(os.path.dirname(loxokit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    outputs = []
    for i in range(4):
        out = tmp_path / f"o{i}"
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from loxokit.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "normal-form", "--input", str(MAP_INPUT), "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120)
        outputs.append((out / "normal_form.json").read_bytes())
    assert all(o == outputs[0] for o in outputs)


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


@pytest.mark.parametrize("kind", ["map", "generator"])
@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
def test_normal_form_nonfinite_data_is_usage_error(tmp_path, capsys, kind,
                                                   entry):
    # json writes and reads NaN and Infinity
    inp = write_json(tmp_path / "nan.json",
                     {"data": [[1.0, entry], [0.0, 1.0]], "kind": kind})
    assert main(["normal-form", "--input", inp]) == 2
    err = capsys.readouterr().err
    assert "'data'" in err and "finite" in err


@pytest.mark.parametrize("matrix, identity", [
    ({"data": [[1, 0], [0, 1]], "kind": "generator"}, "a Hamilton matrix"),
    ({"data": [[2, 0], [0, 2]]}, "symplectic"),
    # singular: a defect bound that grows with ||S||^2 used to pass it
    ({"data": np.diag([1e5, 0.0, 1e-5, 1.0]).tolist()}, "symplectic"),
], ids=["generator", "map", "singular-map"])
def test_normal_form_input_failing_its_identity_is_usage_error(
        tmp_path, capsys, matrix, identity):
    inp = write_json(tmp_path / "bad.json", matrix)
    assert main(["normal-form", "--input", inp]) == 2
    assert (f"input is not {identity} within tolerance"
            in capsys.readouterr().err)


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
    assert "must be finite and > 0" in capsys.readouterr().err


def test_orbit_tol_flag_beats_config(tmp_path, capsys):
    # every flag overrides its config key; the config's usable tol must
    # not hide an unusable --tol
    path = write_json(tmp_path / "cfg.json", {"tol": 1e-11})
    assert main(["orbit", "--tol", "0", "--config", path]) == 2
    assert "must be finite and > 0, not 0.0" in capsys.readouterr().err


def test_orbit_rejects_unknown_config_key(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"bogus": 1})
    assert main(["orbit", "--config", cfg]) == 2


def test_orbit_object_guess_needs_the_surface_model(tmp_path, capsys):
    # the default guess object used to reach surface_state, whose message
    # ("surface_state needs the surface model") named no config key
    path = write_json(tmp_path / "cfg.json", {"model": {"model": "harmonic"}})
    assert main(["orbit", "--config", path]) == 2
    assert capsys.readouterr().err == (
        "error: config key 'guess' must be a list of 2 numbers for model "
        "'harmonic'; an object guess needs the surface model\n")


def test_orbit_return_map_needs_two_degrees_of_freedom(tmp_path, capsys):
    # the orbit closes, but one degree of freedom leaves no transverse
    # section; this exited 2 with numpy's "need at least one array to
    # concatenate"
    path = write_json(tmp_path / "cfg.json", {
        "model": {"model": "harmonic"}, "guess": [1.0, 0.0],
        "period_guess": 6.3})
    assert main(["orbit", "--config", path]) == 2
    assert capsys.readouterr().err == (
        "error: the return map needs n >= 2 degrees of freedom; model "
        "'harmonic' has n = 1\n")


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


def test_spectrum_unresolvable_mode_is_numerical_failure(tmp_path, capsys):
    # 64 nodes cannot resolve k = 20000; the scan used to write the
    # lambda = 4122.9 mode (mu ~ 0.04 k^2) as its neck mode
    cfg = write_json(tmp_path / "cfg.json", {"k": [20000], "N": 64})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ")
    assert "k = 20000 on N = 64" in err
    assert not out.exists()


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


@pytest.mark.parametrize("command, cfg", [
    ("spectrum", {"k": 5}),
    ("resolvent", {"h": 0.02}),
    ("damped-wave", {"modes": 3}),
    ("resolvent", {"rate": "fast"}),
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


@pytest.mark.parametrize("argv, cfg", [(["--h", ","], {}),
                                       ([], {"h": []})])
def test_resolvent_empty_h_list_is_usage_error(tmp_path, capsys, argv, cfg):
    # an empty h list used to exit 2 with "min() arg is an empty sequence"
    path = write_json(tmp_path / "cfg.json", cfg)
    assert main(["resolvent", "--config", path, *argv]) == 2
    assert capsys.readouterr().err == "error: need at least one h\n"


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


def test_decay_modes_alone_pick_the_decayed_modes(tmp_path):
    # decay_modes used to be cut down to the modes of the eigenfrequency
    # scan, and an empty cut fell back to those modes: [5] decayed modes
    # 0 and 1, and [1, 5] dropped 5
    base = {"n_grid": 64, "t_max": 2.0, "modes": [0, 1]}
    for decay in ([5], [1, 5]):
        out = tmp_path / "-".join(map(str, decay))
        cfg = write_json(tmp_path / "cfg.json", dict(base, decay_modes=decay))
        assert main(["damped-wave", "--config", cfg, "--out", str(out)]) == 0
        obj = json.loads((out / "damped_wave.json").read_text())
        assert obj["modes"] == [0, 1] and obj["decay_modes"] == decay
    # the scan's modes do not move the decay run
    cfg = write_json(tmp_path / "cfg.json",
                     dict(base, modes=[5], decay_modes=[5]))
    assert main(["damped-wave", "--config", cfg,
                 "--out", str(tmp_path / "alone")]) == 0
    assert (tmp_path / "alone" / "energy.csv").read_bytes() == \
        (tmp_path / "5" / "energy.csv").read_bytes()


def test_empty_decay_modes_is_usage_error(tmp_path, capsys):
    # an empty list used to fall back to the scan's modes
    cfg = write_json(tmp_path / "cfg.json", {
        "n_grid": 64, "t_max": 2.0, "modes": [0, 1], "decay_modes": []})
    assert main(["damped-wave", "--config", cfg]) == 2
    assert capsys.readouterr().err == "error: need at least one mode\n"


def test_ill_conditioned_mode_in_a_scan_worker_exits_3(tmp_path, monkeypatch,
                                                      capsys):
    # the scan solves its modes on pool threads; an error raised in one
    # must reach main as the numerical failure it is
    solve = dampedwave.eigenfrequencies

    def fail_mode_2(pencil):
        if pencil.k == 2:
            raise dampedwave.LinearizationIllConditioned("planted at mode 2")
        return solve(pencil)

    monkeypatch.setattr(dampedwave, "eigenfrequencies", fail_mode_2)
    monkeypatch.setattr(dampedwave, "_workers", lambda n_tasks: 2)
    path = write_json(tmp_path / "cfg.json", {
        "n_grid": 32, "t_max": 1.0, "modes": [0, 1, 2, 3], "decay_modes": [0]})
    assert main(["damped-wave", "--config", path,
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == \
        "numerical failure: planted at mode 2\n"
    assert not (tmp_path / "out" / "eigenfrequencies.csv").exists()


@pytest.mark.parametrize("cfg, message", [
    ({"decay_modes": []}, "need at least one mode"),
    ({"decay_modes": [5, 5]}, "repeat a mode"),
    ({"t_max": 0.001}, "t_max = 0.001 is not a horizon"),
], ids=["empty", "repeated", "t_max"])
def test_unusable_decay_setting_exits_before_the_scan(tmp_path, monkeypatch,
                                                      capsys, cfg, message):
    # the eigenfrequency scan is most of a default run; these settings
    # used to be refused only after it
    def solve(pencil):
        pytest.fail("eigenfrequencies ran for an unusable decay setting")

    monkeypatch.setattr(dampedwave, "eigenfrequencies", solve)
    path = write_json(tmp_path / "cfg.json", cfg)
    assert main(["damped-wave", "--config", path]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("modes, message", [
    ([], "error: need at least one mode\n"),
    ([5, 5], "error: modes [5, 5] repeat a mode; each mode counts once\n"),
], ids=["empty", "repeated"])
def test_unusable_scan_modes_exit_before_any_solve(tmp_path, monkeypatch,
                                                   capsys, modes, message):
    # the scan took any list: [] wrote a header-only eigenfrequencies.csv
    # with margins of 0 over no roots, and [5, 5] wrote mode 5 twice
    def solve(pencil):
        pytest.fail("a mode was solved for an unusable mode list")

    monkeypatch.setattr(dampedwave, "eigenfrequencies", solve)
    monkeypatch.setattr(dampedwave, "mode_frame", solve)
    path = write_json(tmp_path / "cfg.json", {
        "n_grid": 32, "t_max": 1.0, "modes": modes, "decay_modes": [0]})
    out = tmp_path / "out"
    assert main(["damped-wave", "--config", path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("command, cfg, message", [
    ("damped-wave", {"n_grid": 16}, "n_grid must be at least 32, not 16"),
    ("spectrum", {"N": 32}, "N must be at least 64, not 32"),
    ("resolvent", {"half_length": 0.5},
     "half_length must exceed the absorption plateau rho1 = 0.6, not 0.5"),
], ids=["n_grid", "N", "half_length"])
def test_fixed_minimum_of_a_config_value_is_usage_error(tmp_path, capsys,
                                                       command, cfg,
                                                       message):
    # these exited 3 as numerical failures
    path = write_json(tmp_path / "cfg.json", cfg)
    assert main([command, "--config", path]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_damped_wave_rejects_bad_warp(tmp_path, capsys):
    # cosh is a registered warp, but its slope at r = +-3 is sinh 3
    for warp, why in (("saddle", "unknown warp"),
                      ("cosh", "does not close up")):
        cfg = write_json(tmp_path / "cfg.json", {"warp": warp})
        assert main(["damped-wave", "--config", cfg]) == 2
        assert why in capsys.readouterr().err


def test_damped_wave_nan_epsilon_flag_is_usage_error(tmp_path, capsys):
    # before the check this exited 0 and wrote NaN into damped_wave.json
    out = tmp_path / "wave"
    assert main(["damped-wave", "--epsilon", "nan", "--out", str(out)]) == 2
    assert "epsilon must be finite and > 0, not nan" in \
        capsys.readouterr().err
    assert not out.exists()


def test_damped_wave_zero_epsilon_exits_before_the_scan(monkeypatch,
                                                        capsys):
    # the eigenfrequency scan is most of a run, so an epsilon the decay
    # report cannot use must stop the run before it
    def scan(problem):
        pytest.fail("eigenfrequency_scan ran for an unusable epsilon")

    monkeypatch.setattr(dampedwave, "eigenfrequency_scan", scan)
    assert main(["damped-wave", "--epsilon", "0"]) == 2
    assert "epsilon must be finite and > 0, not 0.0" in \
        capsys.readouterr().err


def test_r0_flag_stands_for_damping_inner_alone(tmp_path):
    # --r0 used to raise damping_outer to r0 + 0.5 as well, so the flag
    # and the config key ran different problems
    base = {"n_grid": 64, "modes": [0, 1], "decay_modes": [0, 1],
            "t_max": 2.0}
    flag = write_json(tmp_path / "flag.json", base)
    key = write_json(tmp_path / "key.json", dict(base, damping_inner=0.8))
    assert main(["damped-wave", "--config", flag, "--r0", "0.8",
                 "--out", str(tmp_path / "flag")]) == 0
    assert main(["damped-wave", "--config", key,
                 "--out", str(tmp_path / "key")]) == 0
    for out in ("eigenfrequencies.csv", "energy.csv", "damped_wave.json"):
        assert (tmp_path / "flag" / out).read_bytes() == \
            (tmp_path / "key" / out).read_bytes()


@pytest.mark.parametrize("argv, cfg, inner, outer", [
    (["--r0", "1.2"], {}, 1.2, 1.0),
    ([], {"damping_inner": 1.2}, 1.2, 1.0),
    ([], {"damping_inner": 0.7, "damping_outer": 0.7}, 0.7, 0.7),
    (["--r0", "-0.5"], {}, -0.5, 1.0),
], ids=["flag", "config", "equal", "negative"])
def test_damping_inner_outside_0_to_outer_is_usage_error(tmp_path, capsys,
                                                         argv, cfg, inner,
                                                         outer):
    # the message names both keys and both values; it used to be "need
    # 0 <= lo < hi"
    path = write_json(tmp_path / "cfg.json", cfg)
    assert main(["damped-wave", "--config", path, *argv]) == 2
    assert capsys.readouterr().err == (
        f"error: damping_inner must lie in [0, damping_outer) = "
        f"[0, {outer}), not {inner}\n")


@pytest.mark.parametrize("argv, flag, entry, kind", [
    (["spectrum", "--k", "10,1.5"], "--k", "1.5", "an integer"),
    (["damped-wave", "--modes", "0:x"], "--modes", "x", "an integer"),
    (["resolvent", "--h", "1/50,1/x"], "--h", "1/x", "a number"),
], ids=["k", "modes", "h"])
def test_bad_list_flag_entry_names_flag_and_entry(capsys, argv, flag, entry,
                                                  kind):
    # these printed the bare int() or float() message, which names no flag
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        f"error: {flag} entry {entry!r} is not {kind}\n"


@pytest.mark.parametrize("command, key, value", [
    ("damped-wave", "epsilon", float("nan")),
    ("damped-wave", "epsilon", float("inf")),
    ("resolvent", "half_length", float("inf")),
    ("resolvent", "half_length", float("nan")),
    ("spectrum", "R", float("inf")),
    ("spectrum", "R", float("nan")),
], ids=lambda v: str(v))
def test_non_finite_config_value_is_usage_error(tmp_path, capsys, command,
                                                key, value):
    # each of these exited 0 (epsilon), died with an OverflowError
    # traceback (half_length inf) or exited 2 with a message that did not
    # name the value
    path = write_json(tmp_path / "cfg.json", {key: value})
    assert main([command, "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be finite")
    assert err.rstrip().endswith(f"not {value}")


@pytest.mark.parametrize("argv, cfg, key", [
    (["spectrum", "--delta", "nan"], {}, "delta"),
    (["spectrum"], {"delta": float("nan")}, "delta"),
    (["orbit"], {"guess": {"r": float("nan")}}, "guess['r']"),
    (["orbit"], {"guess": [float("nan"), 0.0, 0.0, 1.0]}, "guess[0]"),
], ids=["delta-flag", "delta-config", "guess-object", "guess-list"])
def test_nan_input_message_names_key_and_value(tmp_path, capsys, argv, cfg,
                                               key):
    # the message names the key, down to the entry of a nested guess, and
    # the value
    path = write_json(tmp_path / "cfg.json", cfg)
    assert main(argv + ["--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be finite")
    assert err.rstrip().endswith("not nan")


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


@pytest.mark.parametrize("criteria", ["", " , "])
def test_selftest_empty_criteria_is_usage_error(tmp_path, capsys, criteria):
    # an empty list ran nothing and passed with "0/0 criteria passed"
    out = tmp_path / "self"
    assert main(["selftest", "--criteria", criteria, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "error: --criteria names no criterion; available: [")
    assert not out.exists()


REPEATED_K = "error: k [10, 10] repeat a k; each k counts once\n"
REPEATED_H = "error: h [0.02, 0.02] repeat a h; each h counts once\n"
REPEATED_MODE = "error: modes [5, 5] repeat a mode; each mode counts once\n"
REPEATED_DECAY_MODE = ("error: decay_modes [5, 5] repeat a mode; each mode "
                       "counts once\n")


@pytest.mark.parametrize("argv, cfg, message", [
    (["spectrum", "--k", "10,10"], {}, REPEATED_K),
    (["spectrum"], {"k": [10, 10]}, REPEATED_K),
    (["spectrum", "--k", ","], {}, "error: need at least one k\n"),
    (["spectrum", "--k=10,20,40,80,-1"], None,
     "error: mode k must be a nonnegative integer, not -1\n"),
    (["resolvent", "--h", "1/50,1/50"], {}, REPEATED_H),
    (["resolvent"], {"h": [0.02, 0.02]}, REPEATED_H),
    (["damped-wave", "--modes", "5,5"], {}, REPEATED_MODE),
    (["damped-wave"], {"decay_modes": [5, 5]}, REPEATED_DECAY_MODE),
    (["damped-wave"], {"modes": [-1, 1], "decay_modes": [-3], "n_grid": 32,
                       "t_max": 0.1},
     "error: mode k must be a nonnegative integer, not -1\n"),
    (["damped-wave"], {"modes": [1], "decay_modes": [-3], "n_grid": 32,
                       "t_max": 0.1},
     "error: mode k must be a nonnegative integer, not -3\n"),
    (["selftest", "--criteria", "log-exp-roundtrip,log-exp-roundtrip"],
     None, "error: criteria [log-exp-roundtrip, log-exp-roundtrip] "
           "repeat a criterion; each criterion counts once\n"),
], ids=["k-flag", "k-config", "k-empty", "negative-k-flag", "h-flag",
        "h-config", "modes-flag", "decay-modes-config",
        "negative-modes-config", "negative-decay-modes-config",
        "criteria-flag"])
def test_repeated_list_entry_exits_before_any_solve(tmp_path, monkeypatch,
                                                    capsys, argv, cfg,
                                                    message):
    # every list input follows one rule: repeated k, h and --criteria
    # entries ran and wrote their row twice ("2/2 criteria passed"), and
    # "--k ," exited 2 with "k_list must not be empty"; a negative mode
    # ran the operator of its positive twin and wrote its rows, and a
    # negative k was refused only after the k before it were solved
    def solve(*args, **kwargs):
        pytest.fail("a solve ran for an unusable list")

    monkeypatch.setattr(spectra, "build_radial_operator", solve)
    monkeypatch.setattr(resolvent, "_NormSweep", solve)
    monkeypatch.setattr(dampedwave, "mode_frame", solve)
    monkeypatch.setattr(dampedwave, "eigenfrequencies", solve)
    monkeypatch.setattr(acceptance, "run_criterion", solve)
    if cfg is not None:
        argv = argv + ["--config", write_json(tmp_path / "cfg.json", cfg)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_env_var_skipped_by_subcommands_without_the_flag(tmp_path,
                                                         monkeypatch):
    # flags and config keys are the only ways to set a value: no
    # subcommand reads LOXOKIT_OUT or LOXOKIT_TOL
    monkeypatch.setenv("LOXOKIT_OUT", str(tmp_path / "envout"))
    monkeypatch.setenv("LOXOKIT_TOL", "abc")
    inp = write_json(tmp_path / "m.json",
                     {"data": [[math.e, 0.0], [0.0, 1.0 / math.e]]})
    assert main(["normal-form", "--input", inp]) == 0
    assert not (tmp_path / "envout").exists()


def test_h_division_by_zero_is_usage_error(capsys):
    assert main(["resolvent", "--h", "1/0"]) == 2
    assert capsys.readouterr().err.startswith("error: '1/0'")


def test_nan_h_is_usage_error_naming_h(capsys):
    # h is checked before the grid size is computed from it
    assert main(["resolvent", "--h", "nan"]) == 2
    assert capsys.readouterr().err.rstrip() == \
        "error: h must lie in (0, 1], not nan"


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


def test_cutoff_config_key_is_unknown(tmp_path, capsys):
    # the scan always measures the cutoff norm; there is no switch
    cfg = write_json(tmp_path / "cfg.json", {"cutoff": False})
    assert main(["resolvent", "--config", cfg]) == 2
    assert "unknown config keys ['cutoff']" in capsys.readouterr().err


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
    assert resolvent.GridTooCoarse is GridTooCoarse
    assert flows.StepFailure is dampedwave.StepFailure


def test_no_numerical_error_is_a_value_error():
    # main maps a ValueError to exit 2, so a class that were both would
    # depend on the order of its except clauses
    both = [c.__name__ for c in _numerical_errors() if issubclass(c, ValueError)]
    assert both == []


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


# a quick run of each subcommand and the files it writes under --out
QUICK_RUNS = {
    "normal-form": (["--input", str(MAP_INPUT)], {"normal_form.json"}),
    "orbit": ([], {"orbit.json", "monodromy_eigenvalues.csv"}),
    "spectrum": (["--k", "8", "--config", {"N": 256}],
                 {"spectrum.csv", "spectrum.json"}),
    "resolvent": (["--h", "1/20", "--config", {"n_z": 3}],
                  {"resolvent.csv", "resolvent.json"}),
    "damped-wave": (["--config", {"n_grid": 32, "t_max": 1.0, "modes": [0],
                                  "decay_modes": [0]}],
                    {"eigenfrequencies.csv", "energy.csv",
                     "damped_wave.json"}),
    "selftest": (["--criteria", "log-exp-roundtrip"], {"selftest.json"}),
}


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_each_subcommand_writes_exactly_its_own_files(tmp_path, monkeypatch,
                                                      command):
    options, expected = QUICK_RUNS[command]
    argv = [command] + [write_json(tmp_path / "cfg.json", opt)
                        if isinstance(opt, dict) else opt for opt in options]
    # without --out nothing is written, not even into the working directory
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert main(argv) == 0
    assert list(work.iterdir()) == []
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == expected
