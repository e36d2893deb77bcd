"""Absorbed model operator: assembly identities, singular-value probes,
zoom rescaling, quantized lower bounds."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from loxokit import resolvent as rv


@pytest.fixture(scope="module")
def op20():
    return rv.quantize_model(1 / 20, rate=1.0, n_grid=128)


def adjoint_mode_block(op, m, z):
    """Q_m(z)^H, for the adjoint-symmetry check."""
    diag = (op.h * m - np.conj(z)) * np.ones(op.n_grid, dtype=complex) \
        + 1j * op.absorb
    return diag, op.rate * op.s_off


def dense_block(diag, off):
    n = diag.size
    Q = np.zeros((n, n), dtype=complex)
    Q[np.arange(n), np.arange(n)] = diag
    Q[np.arange(n - 1), np.arange(1, n)] = off
    Q[np.arange(1, n), np.arange(n - 1)] = np.conj(off)
    return Q


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_zero_rate_spectrum_is_fourier_ladder():
    # with the dilation part off and no absorption the operator is the
    # angular derivative alone: each mode block is exactly (h m - z) I.
    # quantize_model refuses rate 0, so the rate is switched off afterwards
    op = dataclasses.replace(
        rv.quantize_model(1 / 20, n_grid=64,
                          profile=rv.AbsorbingProfile(strength=0.0)),
        rate=0.0)
    for m in (-3, 0, 5):
        diag, off = rv.mode_block(op, m, 0.0)
        assert np.max(np.abs(off)) == 0.0
        assert np.allclose(diag, op.h * m, atol=1e-15)


def test_unabsorbed_block_is_hermitian(op20):
    profile = rv.AbsorbingProfile(strength=0.0)
    op = rv.quantize_model(1 / 20, rate=1.0, n_grid=128, profile=profile)
    diag, off = rv.mode_block(op, 2, 0.1)
    A = dense_block(diag, off)
    assert np.max(np.abs(A - A.conj().T)) <= 1e-10
    rng = np.random.Generator(np.random.Philox(9))
    u = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    val = np.vdot(u, A @ u)
    assert abs(val.imag) <= 1e-10 * abs(val.real)


def test_absorption_norm_matches_profile(op20):
    # the absorbing term is diagonal, so its norm is exactly h * C * max a
    want = op20.h * op20.profile.strength
    assert np.max(op20.absorb) == pytest.approx(want, rel=0.05)


def test_adjoint_assembly_matches_conjugate_transpose(op20):
    for m, z in ((0, 0.0), (4, 0.2), (-7, -0.45)):
        A = dense_block(*rv.mode_block(op20, m, z))
        B = dense_block(*adjoint_mode_block(op20, m, z))
        assert np.max(np.abs(B - A.conj().T)) <= 1e-12


@pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
def test_rate_must_be_finite_and_positive(rate):
    with pytest.raises(ValueError):
        rv.quantize_model(1 / 20, rate=rate, n_grid=64)


@pytest.mark.parametrize("window", [0.0, -0.6, float("nan"), float("inf")])
def test_window_must_be_finite_and_positive(op20, window):
    with pytest.raises(ValueError):
        rv.sigma_min_point(op20, 0.1, window=window)
    with pytest.raises(ValueError):
        rv.sigma_min_point(op20, 0.1 + 0.01j, window=window)
    with pytest.raises(ValueError):
        rv.cutoff_norm_point(op20, 0.1, window=window)
    with pytest.raises(ValueError):
        rv.sigma_min_scan(rv.default_operator_builder(), [1 / 20],
                          z_values=np.array([0.1]), window=window)


def test_profile_must_die_before_boundary():
    with pytest.raises(ValueError, match="half_length must exceed the "
                       "absorption plateau rho1 = 1.5, not 1.0"):
        rv.quantize_model(1 / 20, n_grid=64,
                          profile=rv.AbsorbingProfile(rho0=0.8, rho1=1.5))


# ---------------------------------------------------------------------------
# smallest singular values
# ---------------------------------------------------------------------------

def test_block_sigma_min_matches_dense_svd(op20):
    rng = np.random.Generator(np.random.Philox(17))
    for _ in range(10):
        m = int(rng.integers(-op20.n_modes // 2, op20.n_modes // 2))
        z = float(rng.uniform(-0.5, 0.5))
        diag, off = rv.mode_block(op20, m, z)
        got = rv.sigma_min_block(diag, off)
        want = np.linalg.svd(dense_block(diag, off),
                             compute_uv=False)[-1]
        assert got == pytest.approx(want, rel=1e-10)


def test_inverse_norm_identity(op20):
    # 1/sigma_min is attained by solving against the smallest left singular
    # vector; a generic right-hand side would only give a lower bound
    diag, off = rv.mode_block(op20, 1, 0.07)
    A = dense_block(diag, off)
    U, s, Vh = np.linalg.svd(A)
    x = np.linalg.solve(A, U[:, -1])
    assert np.linalg.norm(x) * s[-1] == pytest.approx(1.0, rel=1e-2)


def test_point_probe_minimizes_over_modes(op20):
    s, m_star = rv.sigma_min_point(op20, 0.13)
    svals = []
    for m in range(-op20.n_modes // 2, op20.n_modes // 2):
        if abs(0.13 - op20.h * m) <= 0.6:
            svals.append(rv.sigma_min_block(*rv.mode_block(op20, m, 0.13)))
    assert s == pytest.approx(min(svals), rel=1e-9)


def test_point_probe_certifies_every_mode_when_the_sweep_disagrees(op20):
    # a sweep value at the sweep's minimum that the exact solver does not
    # confirm sends the probe to certify every mode of the window
    z = 0.13
    ms, w_vals = rv._window_points(op20, z, rv.MODE_WINDOW)
    dense = [np.linalg.svd(dense_block(*rv.mode_block(op20, m, z)),
                           compute_uv=False)[-1] for m in ms]
    sweep = rv._NormSweep(op20, np.ones(op20.n_grid))
    sweep.values(w_vals)
    # the mode with the largest sigma_min now looks like the minimum
    sweep.cache[sweep._key(w_vals[int(np.argmax(dense))])] = 1e6
    certified = []
    exact = sweep.certified
    sweep.certified = lambda w: certified.append(w) or exact(w)
    s, m_star = rv.sigma_min_point(op20, z, sweep=sweep)
    assert len(certified) == 1 + len(ms)
    assert m_star == ms[int(np.argmin(dense))]
    assert s == pytest.approx(min(dense), rel=1e-10)


def test_point_probe_rejects_complex_z_with_sweep(op20):
    sweep = rv._NormSweep(op20, np.ones(op20.n_grid))
    with pytest.raises(ValueError):
        rv.sigma_min_point(op20, 0.1 + 0.01j, sweep=sweep)


def test_scan_rows_deterministic():
    build = rv.default_operator_builder()
    zs = np.linspace(-0.5, 0.5, 7)
    scans = [rv.sigma_min_scan(build, [1 / 20, 1 / 40], z_values=zs)
             for _ in range(2)]
    rows_a, rows_b = (s.rows for s in scans)
    assert len(rows_a) == len(rows_b) == 14
    for a, b in zip(rows_a, rows_b):
        assert (a.h, a.re_z, a.sigma_min, a.cutoff_norm) == \
            (b.h, b.re_z, b.sigma_min, b.cutoff_norm)
    assert scans[0].bands["inv_norm"]["ratio"] == \
        scans[1].bands["inv_norm"]["ratio"]


def test_scan_rejects_complex_grid():
    build = rv.default_operator_builder()
    with pytest.raises(ValueError):
        rv.sigma_min_scan(build, [1 / 20], z_values=np.array([0.1 + 0.02j]))


def test_scan_products_use_log_normalization():
    build = rv.default_operator_builder()
    scan = rv.sigma_min_scan(build, [1 / 20], z_values=np.array([0.1]))
    row = scan.rows[0]
    log_h = math.log(20.0)
    assert row.norm_product == pytest.approx(
        row.inv_norm * row.h / log_h, rel=1e-12)
    assert row.cutoff_product == pytest.approx(
        row.cutoff_norm * row.h / math.sqrt(log_h), rel=1e-12)


def test_global_absorption_is_numerical_range_bound():
    # a == 1 everywhere makes -Im<Qu, u> = h C |u|^2, so sigma_min = h C
    rep = rv.global_absorption_check(1 / 50)
    assert rep["rel_err"] <= 0.10


def test_global_absorption_check_returns_window_minimum():
    # the rel_err <= 0.10 gate cannot see a wrong minimiser: the returned
    # sigma must be the window's minimum and its mode one of the modes
    # that attain it (15 and 35 tie to ~2e-17 at h = 1/100)
    rep = rv.global_absorption_check(1 / 100)
    op = rv.quantize_model(1 / 100, n_grid=256,
                           profile=rv.AbsorbingProfile(floor=1.0))
    full = {m: rv.sigma_min_block(*rv.mode_block(op, m, 0.25))
            for m in rv._mode_window(op, 0.25, 0.6)}
    lowest = min(full.values())
    assert rep["sigma_min"] == pytest.approx(lowest, rel=1e-12)
    assert full[rep["mode"]] == pytest.approx(lowest, rel=1e-12)


def test_global_absorption_check_matches_closed_form():
    # with a == 1, Q_m(z) = (h m - z) + rate S - i h C is normal, so
    # sigma_min over the window is min_m sqrt((h C)^2 + dist(z - h m,
    # spec(rate S))^2); the zero-diagonal Hermitian tridiagonal rate S has
    # the spectrum of the real one with off-diagonal |rate s_off|
    h, z = 1 / 100, rv.GLOBAL_ABSORPTION_Z
    rep = rv.global_absorption_check(h)
    op = rv.quantize_model(h, profile=rv.AbsorbingProfile(floor=1.0))
    spec = scipy.linalg.eigvalsh_tridiagonal(np.zeros(op.n_grid),
                                             np.abs(op.rate * op.s_off))
    modes = np.array(list(rv._mode_window(op, z, 0.6)))
    dist = np.abs((z - h * modes)[:, None] - spec[None, :]).min(axis=1)
    sigma = np.sqrt((h * op.profile.strength) ** 2 + dist ** 2)
    j = int(np.argmin(sigma))
    assert rep["sigma_min"] == pytest.approx(sigma[j], rel=1e-12)
    assert rep["mode"] == modes[j]


def test_nan_h_is_rejected_before_the_grid_size():
    with pytest.raises(ValueError, match=r"h must lie in \(0, 1\], not nan"):
        rv.default_operator_builder()(float("nan"))


# ---------------------------------------------------------------------------
# half-line reduction and lattice keying
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n_grid", [64, 256, 1024])
def test_quantized_data_are_bitwise_mirror_images(n_grid):
    op = rv.quantize_model(1 / 50, n_grid=n_grid)
    assert np.array_equal(op.x, -op.x[::-1])
    assert np.array_equal(op.absorb, op.absorb[::-1])
    assert np.array_equal(op.s_off, -op.s_off[::-1])
    assert op.s_off[n_grid // 2 - 1] == 0
    phi = rv.default_cutoff(op)
    assert np.array_equal(phi, phi[::-1])


def test_odd_grid_is_rejected():
    with pytest.raises(ValueError):
        rv.quantize_model(1 / 20, n_grid=65)


def test_half_block_matches_full_block():
    rng = np.random.Generator(np.random.Philox(23))
    ops = [rv.quantize_model(h, n_grid=n)
           for h, n in ((1 / 20, 64), (1 / 40, 128), (1 / 50, 256))]
    worst = 0.0
    for _ in range(24):
        op = ops[int(rng.integers(len(ops)))]
        m = int(rng.integers(-op.n_modes // 2, op.n_modes // 2))
        z = float(rng.uniform(-0.5, 0.5))
        want = rv.sigma_min_block(*rv.mode_block(op, m, z))
        got = rv._NormSweep(op, np.ones(op.n_grid)).certified(z - op.h * m)
        worst = max(worst, abs(got - want) / want)
    assert worst <= 1e-12


@pytest.mark.parametrize("z", [0.13, -0.31, 0.13 + 0.02j, -0.27 + 0.004j])
def test_point_probe_matches_full_blocks(op20, z):
    s, m_star = rv.sigma_min_point(op20, z)
    full = {m: rv.sigma_min_block(*rv.mode_block(op20, m, z))
            for m in rv._mode_window(op20, z, 0.6)}
    assert s == pytest.approx(min(full.values()), rel=1e-12)
    assert full[m_star] == pytest.approx(s, rel=1e-12)


def test_cutoff_sweep_matches_dense_norm(op20):
    phi = rv.default_cutoff(op20)
    z = 0.07
    got = rv.cutoff_norm_point(op20, z)
    want = max(np.linalg.norm(np.linalg.solve(
        dense_block(*rv.mode_block(op20, m, z)), np.diag(phi)), 2)
        for m in rv._mode_window(op20, z, 0.6))
    assert got == pytest.approx(want, rel=1e-10)


def dense_norm(op, w, phi):
    """Dense ||Q^{-1} diag(phi)|| of the full block at w; 1/sigma_min for
    phi = 1."""
    Q = dense_block(*rv.mode_block(op, 0, w))
    if np.all(phi == 1):
        return 1.0 / np.linalg.svd(Q, compute_uv=False)[-1]
    return np.linalg.norm(np.linalg.solve(Q, np.diag(phi)), 2)


@pytest.fixture(scope="module")
def clustered_ops():
    """Two h = 1/100 operators whose lowest singular values cluster: the
    default model with Im z = 0.0455 folded into the absorption, and the
    a == 1 operator of global_absorption_check, where every Q(w) is normal
    and the Q(w) share their singular vectors."""
    op = rv.default_operator_builder()(1 / 100)
    shifted = dataclasses.replace(op, absorb=op.absorb + 0.0455)
    flat = rv.quantize_model(1 / 100, n_grid=op.n_grid,
                             profile=rv.AbsorbingProfile(floor=1.0))
    return {"shifted": shifted, "flat": flat}


@pytest.mark.parametrize("name", ["shifted", "flat"])
@pytest.mark.parametrize("cutoff", [False, True])
def test_clustered_sweep_values_match_dense_norms(clustered_ops, name,
                                                  cutoff):
    # uncertified sweep values, with lattice neighbours (each warm-started
    # from the one before) and far points of the doubled mode window
    op = clustered_ops[name]
    phi = rv.default_cutoff(op) if cutoff else np.ones(op.n_grid)
    w_list = [0.13 - op.h * m for m in (-95, -60, -20, -2, -1, 0, 1, 2, 3,
                                        20, 60, 95)]
    got = rv._NormSweep(op, phi).values(w_list)
    for w, g in zip(w_list, got):
        assert g == pytest.approx(dense_norm(op, w, phi), rel=1e-10)


@pytest.mark.parametrize("cutoff", [False, True])
def test_sweep_values_match_dense_norms(op20, cutoff):
    # uncertified Lanczos values against dense ||Q^{-1} diag(phi)||:
    # phi = 1 gives 1/sigma_min, the default cutoff gives the cutoff norm
    phi = rv.default_cutoff(op20) if cutoff else np.ones(op20.n_grid)
    m = 0
    w_list = [0.13, -0.31, 0.02, 0.45]
    got = rv._NormSweep(op20, phi).values(w_list)
    for w, g in zip(w_list, got):
        Q = dense_block(*rv.mode_block(op20, m, w))
        if cutoff:
            want = np.linalg.norm(np.linalg.solve(Q, np.diag(phi)), 2)
        else:
            want = 1.0 / np.linalg.svd(Q, compute_uv=False)[-1]
        assert g == pytest.approx(want, rel=1e-8)


def dense_half_norm(sweep, w):
    """Dense ||Q_R(w)^{-1} diag(phi_R)|| of a sweep's half block, from an
    SVD; 1/sigma_min for phi = 1."""
    Q = np.diag(sweep.diag0 - w) + np.diag(sweep.off, 1) \
        + np.diag(sweep.lower, -1)
    return np.linalg.svd(np.linalg.solve(Q, np.diag(sweep.phi)),
                         compute_uv=False)[0]


@pytest.fixture(scope="module")
def proof_ops():
    """The default model, the same with Im z = 0.0455 folded into the
    absorption, and the a == 1 operator, at h = 1/50 and 1/100."""
    ops = {}
    for h in (1 / 50, 1 / 100):
        op = rv.default_operator_builder()(h)
        ops["default", h] = op
        ops["shifted", h] = dataclasses.replace(op,
                                                absorb=op.absorb + 0.0455)
        ops["flat", h] = rv.quantize_model(
            h, n_grid=op.n_grid, profile=rv.AbsorbingProfile(floor=1.0))
    return ops


@pytest.mark.parametrize("name", ["default", "shifted", "flat"])
@pytest.mark.parametrize("h", [1 / 50, 1 / 100])
@pytest.mark.parametrize("cutoff", [False, True])
def test_proves_below_matches_dense_norms(proof_ops, name, h, cutoff):
    # the Cholesky proof holds just above the dense norm and never below
    # it, at points inside and outside the default window |w| <= 0.6
    op = proof_ops[name, h]
    phi = rv.default_cutoff(op) if cutoff else np.ones(op.n_grid)
    sweep = rv._NormSweep(op, phi)
    for w in (-1.13, -0.57, -0.05, 0.0, 0.21, 0.6, 0.87, 1.19):
        g = dense_half_norm(sweep, w)
        assert sweep.proves_below(w, g * (1 + 1e-6))
        assert not sweep.proves_below(w, g * (1 - 1e-6))


def flat_builder(h):
    return rv.quantize_model(h, n_grid=256,
                             profile=rv.AbsorbingProfile(floor=1.0))


@pytest.fixture
def point_windows(monkeypatch):
    """The window of every sigma_min_point call, in call order."""
    windows = []
    original = rv.sigma_min_point

    def recording(*args, **kwargs):
        windows.append(kwargs["window"])
        return original(*args, **kwargs)

    monkeypatch.setattr(rv, "sigma_min_point", recording)
    return windows


@pytest.mark.parametrize("window, clipped", [(0.6, False), (0.3, False),
                                             (0.1, True), (0.05, True)])
def test_doubled_window_check_fires(window, clipped, point_windows):
    # on the a == 1 operator sigma_min sits just above h C and falls
    # slowly as |w| grows, so a narrow window clips the minimising mode;
    # its new points are not proved, and the converged sweep over the
    # doubled window decides
    scan = lambda: rv.sigma_min_scan(flat_builder, [1 / 50],
                                     z_values=np.array([0.0]),
                                     window=window)
    if not clipped:
        scan()
        return
    with pytest.raises(rv.ModeWindowTooNarrow) as info:
        scan()
    assert point_windows == [window, 2 * window]
    # the message shows the drop, which is far below its 4-digit values
    drop = float(str(info.value).split(" by ")[1].split()[0])
    assert 0 < drop < 1e-3


def test_default_scan_proves_its_doubled_window(point_windows):
    # every point the doubled window adds is proved, so the check runs no
    # sweep: one sigma_min_point call per z
    rv.sigma_min_scan(rv.default_operator_builder(), [1 / 50])
    assert point_windows == [0.6] * 11


@pytest.mark.parametrize("h_list, z_values, what", [
    ([], None, "h"), ((), None, "h"), ([1 / 20], np.array([]), "z")])
def test_scan_needs_an_h_and_a_z(h_list, z_values, what):
    with pytest.raises(ValueError, match=f"need at least one {what}"):
        rv.sigma_min_scan(rv.default_operator_builder(), h_list,
                          z_values=z_values)


@pytest.mark.parametrize("h_list, z_values, message", [
    ([1 / 20, 1 / 20], None, r"h \[0.05, 0.05\] repeat a h"),
    ([1 / 20], np.array([0.1, 0.1]), r"z \[0.1, 0.1\] repeat a z")])
def test_scan_refuses_a_repeated_h_or_z(h_list, z_values, message):
    # a repeated h or z scanned twice and wrote its rows twice
    with pytest.raises(ValueError, match=message):
        rv.sigma_min_scan(rv.default_operator_builder(), h_list,
                          z_values=z_values)


@pytest.fixture(scope="module")
def op100():
    return rv.default_operator_builder()(1 / 100)


# the lowest singular values of a block cluster more tightly as Im z grows
@pytest.mark.parametrize("im_z", [0.0185, 0.0275, 0.0365, 0.0455])
@pytest.mark.parametrize("re_z", [-0.37, 0.13, 0.41])
def test_complex_point_probe_finds_minimising_mode(op100, re_z, im_z,
                                                   monkeypatch):
    z = complex(re_z, im_z)
    calls = []
    original = rv.sigma_min_block

    def counting(diag, off):
        calls.append(diag.size)
        return original(diag, off)

    monkeypatch.setattr(rv, "sigma_min_block", counting)
    s, m_star = rv.sigma_min_point(op100, z)
    monkeypatch.undo()
    # one certification of the sweep's argmin, no fallback
    assert len(calls) == 1
    full = {m: rv.sigma_min_block(*rv.mode_block(op100, m, z))
            for m in rv._mode_window(op100, z, 0.6)}
    m_best = min(full, key=full.get)
    assert m_star == m_best
    assert s == pytest.approx(full[m_best], rel=1e-12)


def test_asymmetric_data_are_refused(op20):
    absorb = op20.absorb.copy()
    absorb[3] *= 1.5
    lopsided = dataclasses.replace(op20, absorb=absorb)
    with pytest.raises(rv.ResolventError):
        rv.sigma_min_point(lopsided, 0.1)
    phi = rv.default_cutoff(op20)
    phi[3] = 0.5
    with pytest.raises(rv.ResolventError):
        rv._NormSweep(op20, phi)


@pytest.fixture(scope="module")
def counted_scan():
    """Default 11-z scan at h = 1/50 and 1/100, counting certifications."""
    calls = []
    original = rv.sigma_min_block

    def counting(diag, off):
        calls.append(diag.size)
        return original(diag, off)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rv, "sigma_min_block", counting)
        build = rv.default_operator_builder()
        scan = rv.sigma_min_scan(build, [1 / 50])
        n_first = len(calls)
        scan_b = rv.sigma_min_scan(build, [1 / 50, 1 / 100])
    return scan, n_first, scan_b


def test_scan_certifies_once_per_h(counted_scan):
    scan, n_first, _ = counted_scan
    assert n_first == 1
    assert len(scan.rows) == 11
    assert len({r.sigma_min for r in scan.rows}) == 1


def test_scan_products_match_recorded_values(counted_scan):
    # per-h maxima of the full-grid scan before the half-line reduction
    bands = counted_scan[2].bands
    want = {"inv_norm": (2.1641710728165275, 1.838430868483491),
            "cutoff": (1.420984008996544, 1.3096855880010752)}
    for band, values in want.items():
        got = [bands[band]["per_h"][h] for h in (1 / 50, 1 / 100)]
        assert got == pytest.approx(list(values), rel=1e-10)


# ---------------------------------------------------------------------------
# quantized lower bounds
# ---------------------------------------------------------------------------

def test_pure_harmonic_ground_level():
    rows = rv.harm_osc_lower_bound([0.1, 0.05], n_grid=512, weighted=False)
    for r in rows:
        assert r["lam_min"] == pytest.approx(r["h_tilde"], rel=0.02)


def test_weighted_symbol_ratio_band():
    rows = rv.harm_osc_lower_bound([0.1, 0.05, 0.025], n_grid=512)
    ratios = [r["ratio"] for r in rows]
    assert all(r > 0 for r in ratios)
    assert max(ratios) / min(ratios) <= 3.0
    fine = rv.harm_osc_lower_bound([0.05], n_grid=1024)[0]
    coarse = rows[1]
    assert fine["lam_min"] == pytest.approx(coarse["lam_min"], rel=1e-6)


def fourier_multiplier_reference(values):
    """F^{-1} diag(values) F from n FFTs of the n x n identity."""
    eye = np.eye(values.size)
    return np.fft.ifft(np.fft.fft(eye, axis=0) * values[:, None], axis=0)


@pytest.mark.parametrize("weighted", [True, False])
@pytest.mark.parametrize("h_tilde", [0.1, 0.05, 0.025])
def test_separated_symbol_matches_fft_of_identity(h_tilde, weighted):
    # the grids of harm_osc_lower_bound at its default n_grid
    n = 512
    dy = 2.0 * rv.HARM_OSC_HALF_WIDTH / n
    y = -rv.HARM_OSC_HALF_WIDTH + dy * np.arange(n)
    eta = h_tilde * 2.0 * np.pi * np.fft.fftfreq(n, d=dy)
    if weighted:
        m, g = y ** 2 / (1.0 + y ** 2), eta ** 2 / (1.0 + eta ** 2)
    else:
        m, g = y ** 2, eta ** 2
    want = fourier_multiplier_reference(g.astype(complex)) + np.diag(m)
    want = 0.5 * (want + want.conj().T)
    got = rv.quantize_separated_symbol(m, g)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_lower_bound_nonnegative():
    rows = rv.harm_osc_lower_bound([0.1, 0.05], n_grid=512)
    assert all(r["lam_min"] >= 0.0 for r in rows)


@pytest.mark.parametrize("h_tilde_list, message", [
    ([], "need at least one h_tilde"),
    ([0.05, 0.05], "h_tildes [0.05, 0.05] repeat a h_tilde; each h_tilde "
                   "counts once"),
    ([-0.1], "h_tilde must be finite and > 0, not -0.1"),
    ([math.nan], "h_tilde must be finite and > 0, not nan"),
    ([0.0], "h_tilde must be finite and > 0, not 0.0"),
    ([0.1, -0.1], "h_tilde must be finite and > 0, not -0.1"),
], ids=["empty", "repeat", "negative", "nan", "zero", "after-a-good-one"])
def test_lower_bound_refuses_unusable_h_tilde(monkeypatch, h_tilde_list,
                                              message):
    # [] returned [], a repeat solved its row twice, -0.1 hit a math
    # domain error, nan scipy's finiteness check and 0.0 GridTooCoarse
    def solve(*args, **kwargs):
        pytest.fail("a solve ran for an unusable h_tilde list")

    monkeypatch.setattr(rv, "quantize_separated_symbol", solve)
    with pytest.raises(ValueError) as err:
        rv.harm_osc_lower_bound(h_tilde_list)
    assert str(err.value) == message
