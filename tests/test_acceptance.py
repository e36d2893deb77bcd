"""Acceptance gate: run every registered criterion, one line each.

Each criterion checks its own tolerances and reports a pass/fail line
with timing. Budgets are wall-clock ceilings per criterion.
"""

import inspect

import pytest

from loxokit import acceptance, cli, flows, spectra
from loxokit import dampedwave as dw
from loxokit import resolvent as rv

BUDGET_SECONDS = {
    "symplectic-residuals": 10.0,
    "log-exp-roundtrip": 5.0,
    "normal-form-recovery": 30.0,
    "monodromy-oracle": 10.0,
    "non-concentration": 180.0,
    "resolvent-bounds": 300.0,
    "harmonic-oscillator": 60.0,
    "damped-wave": 180.0,
    "geometric-control": 60.0,
}


@pytest.mark.parametrize("name", [name for name, _ in acceptance.CRITERIA])
def test_criterion(name):
    result = acceptance.run_criterion(name)
    print(result.line())
    assert result.passed, f"{name}: {result.detail}"
    assert result.elapsed < BUDGET_SECONDS[name], (
        f"{name} took {result.elapsed:.1f}s, "
        f"budget {BUDGET_SECONDS[name]:.0f}s")


def test_registry_complete():
    assert [name for name, _ in acceptance.CRITERIA] == list(BUDGET_SECONDS)


class _Stop(Exception):
    """Ends a run once a recorder has taken its arguments."""


def _stop(real, *args, **kwargs):
    raise _Stop


def _capture(run, patches):
    """Arguments, with the real signature's defaults filled in, of each
    patched call that run() makes until one stops it. patches maps
    (module, name) to what the call does once recorded: _stop, or a
    function of the real callable and the arguments."""
    calls = {}

    def recorder(module, name, then):
        real = getattr(module, name)

        def record(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            calls[name] = dict(bound.arguments)
            return then(real, *args, **kwargs)
        return record

    with pytest.MonkeyPatch.context() as mp:
        for (module, name), then in patches.items():
            mp.setattr(module, name, recorder(module, name, then))
        with pytest.raises(_Stop):
            run()
    return calls


def _spectrum(calls):
    args = calls["nonconcentration_scan"]
    return dict(args, k_list=list(args["k_list"]))


def _resolvent(calls):
    args = dict(calls["sigma_min_scan"])
    build = args.pop("op_builder")
    args["h_list"] = list(args["h_list"])
    # the z grid as the scan reads it (None is the scan's own default)
    args["z_values"] = [row.re_z for row in rv.sigma_min_scan(
        rv.default_operator_builder(), [1 / 20],
        z_values=args["z_values"]).rows]
    # n_grid, rate and 2 half_length of the operator built at each h
    args["operators"] = [(op.n_grid, op.rate, op.spacing * (op.n_grid + 1))
                         for op in map(build, args["h_list"])]
    return args


def _damped_wave(calls):
    args = dict(calls["decay_report"])
    prob = args.pop("problem")
    scan = calls["eigenfrequency_scan"]
    args["modes"] = list(args["modes"])
    args["scan_modes"] = list(scan["modes"])
    args["one_problem"] = scan["problem"] is prob
    args["problem"] = (prob.profile, prob.n_grid, prob.epsilon,
                       prob.dead_zone_radius, prob.a.tolist())
    return args


def _orbit(calls):
    args = dict(calls["find_closed_orbit"])
    system = args.pop("sys")
    return dict(args, model=(system.model_tag, system.params),
                guess=args["guess"].tolist(),
                map_tol=calls["linearized_poincare_map"]["tol"])


DEFAULT_RUNS = {
    "spectrum": (acceptance.criterion_nonconcentration,
                 {(spectra, "nonconcentration_scan"): _stop}, _spectrum),
    "resolvent": (acceptance.criterion_resolvent_bounds,
                  {(rv, "sigma_min_scan"): _stop}, _resolvent),
    # the decay report, which runs first, is recorded and skipped
    "damped-wave": (acceptance.criterion_damped_wave,
                    {(dw, "decay_report"):
                         lambda real, *args, **kwargs: None,
                     (dw, "eigenfrequency_scan"): _stop}, _damped_wave),
    "orbit": (acceptance.criterion_monodromy_oracle,
              {(flows, "find_closed_orbit"): lambda real, *a, **k: "orbit",
               (flows, "linearized_poincare_map"): _stop}, _orbit),
}


@pytest.mark.parametrize("command", list(DEFAULT_RUNS))
def test_default_subcommand_run_is_the_selftest_run(command):
    # the subcommand at its defaults and its selftest criterion must hand
    # the solvers the same arguments, so that the ship gate checks the run
    # users get
    criterion, patches, summary = DEFAULT_RUNS[command]
    from_cli = summary(_capture(lambda: cli.main([command]), patches))
    from_gate = summary(_capture(criterion, patches))
    assert from_cli == from_gate
