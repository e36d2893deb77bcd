"""loxokit's own DOP853 step and Simpson rule against scipy's, bit for bit.

scipy.integrate is the oracle here only: no module of the package
imports it.
"""

import numpy as np
import pytest
from scipy.integrate import simpson, solve_ivp
from scipy.integrate._ivp import dop853_coefficients

from loxokit import _dop853, flows
from loxokit.errors import StepFailure


def pendulum(t, y):
    """A driven pendulum: time enters the right-hand side too."""
    return np.array([y[1], -np.sin(y[0]) + 0.1 * np.cos(t)])


def assert_as_scipy(rhs, t_span, y0, tol, t_eval=None):
    sol = solve_ivp(rhs, t_span, y0, method="DOP853", rtol=tol, atol=tol,
                    t_eval=t_eval)
    assert sol.success
    times, states = _dop853.integrate(rhs, t_span, y0, tol, t_eval=t_eval)
    assert np.array_equal(times, sol.t)
    assert np.array_equal(np.vstack(states).T, sol.y)
    return times


def test_tableau_is_scipys():
    for name in ("A", "B", "C", "E3", "E5", "D"):
        assert np.array_equal(getattr(_dop853, name),
                              getattr(dop853_coefficients, name)), name


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-13])
@pytest.mark.parametrize("t_span", [(0.0, 7.3), (0.0, -7.3), (1.5, -2.0)])
def test_every_step_as_scipy(t_span, tol):
    times = assert_as_scipy(pendulum, t_span, np.array([1.0, 0.2]), tol)
    assert times[0] == t_span[0] and times[-1] == t_span[1]
    assert len(times) > 5


@pytest.mark.parametrize("t_span, t_eval", [
    ((0.0, 7.3), np.linspace(0.0, 7.3, 41)),
    ((0.0, -7.3), -np.linspace(0.0, 7.3, 41)),
    # points strictly inside, and one on the span's end
    ((1.0, 7.3), np.array([1.25, 2.0, 3.0, 7.3])),
    ((7.3, 1.0), np.array([7.0, 3.0, 2.0, 1.0])),
], ids=["forward", "backward", "inside", "reversed"])
def test_dense_output_as_scipy(t_span, t_eval):
    times = assert_as_scipy(pendulum, t_span, np.array([1.0, 0.2]), 1e-10,
                            t_eval=t_eval)
    assert np.array_equal(times, t_eval)


def recorded(monkeypatch):
    """Every (rhs, t_span, y0, tol, t_eval) that flows hands to the
    integrator, which still runs."""
    calls = []

    def integrate(rhs, t_span, y0, tol, t_eval=None):
        calls.append((rhs, t_span, np.copy(y0), tol, t_eval))
        return _dop853.integrate(rhs, t_span, y0, tol, t_eval=t_eval)

    monkeypatch.setattr(flows, "integrate", integrate)
    return calls


def test_stacked_flow_with_an_observable_as_scipy(monkeypatch):
    sys = flows.surface_of_revolution(profile="cosh")
    Z = np.column_stack([flows.surface_state(sys, r, 0.3, psi)
                         for r, psi in [(0.2, 0.4), (-0.5, 1.9), (0.9, 3.0)]])
    calls = recorded(monkeypatch)
    res = flows.flow(sys, Z, (0.0, 4.0), tol=1e-9,
                     t_eval=np.linspace(0.0, 3.0, 13),
                     observable=lambda z: z[0] ** 2)
    assert res.states.shape == (13, 4, 3) and res.integral.shape == (3,)
    (rhs, t_span, y0, tol, t_eval), = calls
    assert y0.shape == (5 * 3,) and t_eval[-1] == 4.0
    assert_as_scipy(rhs, t_span, y0, tol, t_eval=t_eval)


def test_tangent_flow_as_scipy(monkeypatch):
    sys = flows.surface_of_revolution(profile="cosh")
    z0 = flows.surface_state(sys, 0.1, 0.0, np.pi / 2)
    calls = recorded(monkeypatch)
    z, Phi = flows._flow_with_monodromy(sys, z0, 2 * np.pi, 1e-11)
    (rhs, t_span, y0, tol, t_eval), = calls
    assert y0.shape == (4 + 16,) and t_eval is None
    sol = solve_ivp(rhs, t_span, y0, method="DOP853", rtol=tol, atol=tol)
    assert np.array_equal(z, sol.y[:4, -1])
    assert np.array_equal(Phi, sol.y[4:, -1].reshape(4, 4))


def test_blow_up_fails_as_in_scipy():
    # y' = y^2, y(0) = 1 is 1 / (1 - t): it leaves every scale at t = 1
    def rhs(t, y):
        return y ** 2

    assert not solve_ivp(rhs, (0.0, 2.0), [1.0], method="DOP853",
                         rtol=1e-8, atol=1e-8).success
    with pytest.raises(StepFailure, match="Required step size"):
        _dop853.integrate(rhs, (0.0, 2.0), np.array([1.0]), 1e-8)


def test_a_tiny_tolerance_is_raised_to_the_floor():
    # scipy's floor of 100 machine epsilons; flow's energy budget reads
    # the raised tol as well, so the run is the one at the floor
    sys = flows.harmonic_oscillator()
    floor = flows.flow(sys, [1.0, 0.0], (0.0, 5.0), tol=_dop853.MIN_TOL)
    with pytest.warns(UserWarning, match="raised to") as caught:
        tiny = flows.flow(sys, [1.0, 0.0], (0.0, 5.0), tol=1e-20)
    assert len(caught) == 1
    assert _dop853.MIN_TOL == 100 * np.finfo(float).eps
    assert np.array_equal(tiny.times, floor.times)
    assert np.array_equal(tiny.states, floor.states)
    assert tiny.energy_drift == floor.energy_drift


@pytest.mark.parametrize("n", list(range(2, 41)) + [1001, 1002])
def test_simpson_as_scipy(n):
    x = np.linspace(0.0, 3.0, n)
    y = np.cos(3 * x) * np.exp(x)
    dx = 3.0 / max(n - 1, 1)
    assert np.array_equal(_dop853._simpson(y, dx), simpson(y, dx=dx))
