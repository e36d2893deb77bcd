"""One pass of one benchmark workload, in a fresh process.

    python3 bench/child.py --workload NAME --seed N --work DIR
        [--trace 0|1] [--setup-only]

The pass imports loxokit from ``src/`` next to this directory, generates
its inputs (set-up), runs the workload (timed: wall and process CPU,
which counts every BLAS thread), checks every operation against its
correctness gate (untimed) and writes ``DIR/result.json``. Program
outputs go to ``DIR/out`` so that two passes can be compared byte for
byte. With ``--trace 1`` the loxokit calls are wrapped by
``tracing.Tracer`` and the spans go to ``DIR/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time

import numpy as np
import scipy
import scipy.linalg as la

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from loxokit import cli  # noqa: E402
from loxokit import flows as fl  # noqa: E402
from loxokit import normal_form as nf  # noqa: E402
from loxokit import resolvent as rv  # noqa: E402
from loxokit import symplectic as sp  # noqa: E402

# Decay rate of the wave workload's config (0.6968447468412341) when the
# benchmark was added; a faster solver must reproduce it to fit accuracy.
WAVE_RATE = 0.69684475
WAVE_RATE_RTOL = 5e-4


def _dump(path, obj):
    with open(path, "w") as handle:
        json.dump(obj, handle, indent=1, sort_keys=True)
        handle.write("\n")


def _load(path):
    with open(path) as handle:
        return json.load(handle)


def _attempt(fn, *args, **kwargs):
    """Run one operation; an exception is its output, not a crash."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # counted as a failed operation by the gate
        return {"error": f"{type(exc).__name__}: {exc}"}


def _failed(out):
    return isinstance(out, dict) and "error" in out


# ---------------------------------------------------------------------------
# wave: `loxokit damped-wave` through cli.main
# ---------------------------------------------------------------------------

# Default grid, damping, warp and epsilon. Three of the default decay
# modes, also as the eigenfrequency modes, and the horizon t = 10 instead
# of 60 make one pass ~5 s instead of ~55 s on 2 CPUs, so a run holds
# several passes. Mode 40 sets the default's time step, so the march
# costs the same per step.
WAVE_CONFIG = {
    "modes": [0, 5, 40],
    "decay_modes": [0, 5, 40],
    "epsilon": 0.1,
    "t_max": 10.0,
    "n_grid": 192,
}


def setup_wave(rng, work):
    path = os.path.join(work, "wave_config.json")
    _dump(path, WAVE_CONFIG)
    return {"config": path}


def run_wave(inputs, out, tracer):
    return {"rc": _attempt(cli.main, ["damped-wave", "--config",
                                         inputs["config"], "--out", out])}


def check_wave(inputs, outputs, out):
    rc = outputs["rc"]
    if rc != 0:
        return [("damped-wave", False, f"exit {rc}")]
    res = _load(os.path.join(out, "damped_wave.json"))
    rate_err = abs(res["rate"] - WAVE_RATE) / WAVE_RATE
    ok = (res["strip_margin"] <= 1e-8 and res["mirror_defect"] <= 1e-8
          and res["r_squared"] >= 0.95 and rate_err <= WAVE_RATE_RTOL)
    return [("damped-wave", ok,
             f"strip {res['strip_margin']:.1e} mirror "
             f"{res['mirror_defect']:.1e} R^2 {res['r_squared']:.4f} rate "
             f"{res['rate']:.6f} (recorded {WAVE_RATE}, rel err "
             f"{rate_err:.1e})")]


# ---------------------------------------------------------------------------
# ladder: `loxokit resolvent` and `loxokit spectrum` at their defaults,
# then the global absorption check
# ---------------------------------------------------------------------------

def setup_ladder(rng, work):
    return {}


def run_ladder(inputs, out, tracer):
    return {
        "resolvent": _attempt(cli.main, ["resolvent", "--out", out]),
        "spectrum": _attempt(cli.main, ["spectrum", "--out", out]),
        "global": _attempt(rv.global_absorption_check, 1 / 100),
    }


def check_ladder(inputs, outputs, out):
    ops = []
    if outputs["resolvent"] != 0:
        ops.append(("resolvent", False, f"exit {outputs['resolvent']}"))
    else:
        bands = _load(os.path.join(out, "resolvent.json"))["bands"]
        r1, r2 = bands["inv_norm"]["ratio"], bands["cutoff"]["ratio"]
        ops.append(("resolvent", r1 <= 2.0 and r2 <= 2.0,
                    f"inv-norm band {r1:.4f}, cutoff band {r2:.4f}"))
    if outputs["spectrum"] != 0:
        ops.append(("spectrum", False, f"exit {outputs['spectrum']}"))
    else:
        band = _load(os.path.join(out, "spectrum.json"))["band"]
        ops.append(("spectrum", band["product_ratio"] <= 2.0,
                    f"product band {band['product_ratio']:.4f}"))
    glob = outputs["global"]
    if _failed(glob):
        ops.append(("global-absorption", False, glob["error"]))
    else:
        _dump(os.path.join(out, "global_absorption.json"), glob)
        ops.append(("global-absorption", glob["rel_err"] <= 0.10,
                    f"rel err {glob['rel_err']:.2e}"))
    return ops


# ---------------------------------------------------------------------------
# orbits: closed orbit and monodromy, geometric control, trajectory
# average, and the acceptance batches of small matrices
# ---------------------------------------------------------------------------

def _J(m):
    eye, zero = np.eye(m), np.zeros((m, m))
    return np.block([[zero, -eye], [eye, zero]])


def _random_hamilton(rng, m, scale):
    sym = rng.standard_normal((2 * m, 2 * m))
    return -_J(m) @ (scale * (sym + sym.T) / 2)


def _random_symplectic(rng, m, scale=0.4):
    return la.expm(_random_hamilton(rng, m, scale))


def _planted_normal_form(rng):
    """Block-diagonal Jordan/complex blocks with distinct eigenvalues,
    total phase-space dimension <= 8 (as in the acceptance criterion)."""
    m_left = int(rng.integers(2, 5))
    blocks, eigs = [], []
    lam_pool = list(0.3 + 0.45 * np.arange(5) + rng.uniform(0, 0.1, 5))
    while m_left > 0:
        if m_left >= 2 and rng.random() < 0.35:
            a, b = lam_pool.pop(), rng.uniform(0.4, 1.6)
            blocks.append(np.array([[a, -b], [b, a]]))
            eigs += [complex(a, b), complex(a, -b)]
            m_left -= 2
        else:
            k = int(rng.integers(1, min(3, m_left) + 1))
            lam = lam_pool.pop()
            blocks.append(lam * np.eye(k) + np.diag(np.ones(k - 1), 1))
            eigs += [complex(lam, 0.0)] * k
            m_left -= k
    return la.block_diag(*blocks), np.array(eigs)


def setup_orbits(rng):
    williamson_in = []
    for m in (1, 2, 3, 4):
        for _ in range(200):
            R = rng.standard_normal((2 * m, 2 * m))
            williamson_in.append((m, R.T @ R + 0.3 * np.eye(2 * m),
                                  _random_symplectic(rng, m)))
    log_in = []
    for m in (1, 2, 3, 4):
        for _ in range(50):
            B = _random_hamilton(rng, m, 1.0)
            B *= min(1.0, 2.0 / max(la.norm(B, 2), 1e-12))
            log_in.append(la.expm(B))
    nf_in = []
    for _ in range(60):
        A, eigs = _planted_normal_form(rng)
        B0 = la.block_diag(A.T, -A)
        S = _random_symplectic(rng, A.shape[0], scale=0.3)
        eps = 0.5 * min(e.real for e in eigs) * rng.uniform(0.3, 1.0)
        nf_in.append((S @ B0 @ la.inv(S), eigs, eps))
    return {"control_seed": int(rng.integers(0, 2**63)),
            "williamson": williamson_in, "log": log_in, "normal_form": nf_in}


def run_orbits(inputs, tracer):
    surface = fl.surface_of_revolution("cosh")
    damping = fl.meridian_damping(0.5, 1.0)
    if tracer is not None:
        surface.gradient = tracer.counted("flows.gradient", surface.gradient)
        damping = tracer.counted("flows.damping", damping)
    neck = fl.surface_state(surface, 0.0, 0.0, math.pi / 2)

    def monodromy():
        orbit = fl.find_closed_orbit(surface, neck, 2 * math.pi)
        return orbit, fl.linearized_poincare_map(surface, orbit)

    def williamson_pair(Q, S):
        return nf.williamson(Q), nf.williamson(S.T @ Q @ S)

    def normal_form(B, eps):
        return (nf.birkhoff_normal_form(B), nf.escape_rate_form(
            nf.birkhoff_normal_form(B, jordan_scale=eps)))

    def negative_real():
        try:
            sp.symplectic_log(np.diag([-math.e**2, -math.e**-2]))
        except sp.NegativeRealEigenvalue:
            return True
        return False

    # documented indefinite corner: one size-2 chain at lambda = 0.1 with
    # unit coupling
    A = np.array([[0.1, 1.0], [0.0, 0.1]])
    corner = la.block_diag(A.T, -A)
    return {
        "monodromy": _attempt(monodromy),
        "control": _attempt(fl.check_geometric_control, surface, damping,
                            fl.neck_exclusion(), T=50.0, n_samples=200,
                            seed=inputs["control_seed"]),
        "average": _attempt(fl.trajectory_average, surface, neck,
                            2 * math.pi, lambda z: math.sin(z[1]) ** 2),
        "williamson": [_attempt(williamson_pair, Q, S)
                       for _, Q, S in inputs["williamson"]],
        "log": [_attempt(sp.symplectic_log, S)
                for S in inputs["log"]],
        "negative_real": _attempt(negative_real),
        "normal_form": [_attempt(normal_form, B, eps)
                        for B, _, eps in inputs["normal_form"]],
        "corner": _attempt(lambda: nf.escape_rate_form(
            nf.birkhoff_normal_form(corner, jordan_scale=1.0))),
    }


def check_orbits(inputs, outputs, out):
    ops, values = [], {}

    def gate(name, out_value, test):
        if _failed(out_value):
            ops.append((name, False, out_value["error"]))
            return
        ok, detail, value = test(out_value)
        ops.append((name, bool(ok), detail))
        values.setdefault(name.split("[")[0], []).append(value)

    def monodromy(res):
        orbit, mono = res
        eigs = np.sort(la.eigvals(mono.reduced_map).real)
        want = np.array([math.exp(-2 * math.pi), math.exp(2 * math.pi)])
        rel = float((np.abs(eigs - want) / want).max())
        det = abs(float(la.det(mono.reduced_map)) - 1.0)
        return (rel <= 1e-3 and det <= 1e-6,
                f"eigenvalue rel err {rel:.2e}, det defect {det:.1e}",
                [orbit.period, orbit.residual, rel, det])

    def control(rep):
        return (rep.controlled_fraction == 1.0 and rep.min_average > 0,
                f"controlled {rep.controlled_fraction:.1%}, min average "
                f"{rep.min_average:.4f}",
                [rep.controlled_fraction, rep.min_average,
                 len(rep.witnesses)])

    def average(avg):
        err = abs(avg - 0.5)
        return err <= 1e-10, f"sin^2 average err {err:.1e}", avg

    gate("monodromy", outputs["monodromy"], monodromy)
    gate("control", outputs["control"], control)
    gate("average", outputs["average"], average)

    for i, ((m, Q, S), res) in enumerate(zip(inputs["williamson"],
                                             outputs["williamson"])):
        def williamson(res, m=m, Q=Q):
            dec, dec2 = res
            T = dec.transform.entries
            J = _J(m)
            symp = np.abs(T.T @ J @ T - J).max()
            D = np.diag(np.concatenate([2.0 / dec.radii**2] * 2))
            rec = np.abs(T.T @ Q @ T - D).max()
            drift = np.abs(dec2.radii - dec.radii).max() / (
                1 + dec.radii.max())
            return (symp <= 1e-9 and rec <= 1e-9 and drift <= 1e-8,
                    f"defect {symp:.1e} rec {rec:.1e} drift {drift:.1e}",
                    float(max(symp, rec, drift)))
        gate(f"williamson[{i}]", res, williamson)

    for i, (S, res) in enumerate(zip(inputs["log"], outputs["log"])):
        def log(H, S=S):
            err = np.abs(la.expm(H.entries) - S).max() / max(
                1.0, np.abs(S).max())
            return err <= 1e-8, f"roundtrip {err:.1e}", float(err)
        gate(f"log[{i}]", res, log)
    gate("log-negative-real", outputs["negative_real"],
         lambda rejected: (rejected, f"rejected {rejected}", rejected))

    for i, ((B, eigs, _), res) in enumerate(zip(inputs["normal_form"],
                                                outputs["normal_form"])):
        def normal_form(res, B=B, eigs=eigs):
            form, cert = res
            got = np.sort_complex(la.eigvals(form.block_matrix_A))
            eig_err = np.abs(got - np.sort_complex(eigs)).max()
            T = form.transform.entries
            block = la.norm(la.solve(T, B @ T) - form.normal_matrix) / max(
                1.0, la.norm(B))
            definite = cert.positive_definite and cert.certificate is not None
            return (eig_err <= 1e-6 and block <= 1e-6 and definite,
                    f"eig err {eig_err:.1e} block {block:.1e} definite "
                    f"{definite}", float(max(eig_err, block)))
        gate(f"normal-form[{i}]", res, normal_form)
    gate("normal-form-corner", outputs["corner"],
         lambda c: (not c.positive_definite and c.min_eigenvalue < 0,
                    f"corner min eig {c.min_eigenvalue:+.3f}",
                    c.min_eigenvalue))
    # scipy.linalg.logm differs in the last bits between processes, so the
    # roundtrip errors are gated above but left out of the compared file
    values.pop("log", None)
    _dump(os.path.join(out, "orbits.json"), values)
    return ops


# ---------------------------------------------------------------------------
# zpoints: independent sigma_min_point queries at seeded complex z
# ---------------------------------------------------------------------------

# Im z takes the midpoints of 5 equal strata of [0.005, 0.05], each twice,
# and Re z one seeded point in each of 10 equal strata of [-0.5, 0.5], in
# seeded order (a Latin hypercube). A point falls back to certifying every
# mode when Im z is above a threshold near 0.021-0.025 that moves with Re z;
# the 5 midpoints (0.0185 and 0.0275 the nearest) stay clear of it, so 6 of
# 10 points fall back on every seed and the cost does not swing with it.
# Points at h = 1/200 (~6 s each when they fall back) are left out.
ZPOINT_H = 1 / 100
ZPOINT_STRATA = 5
ZPOINT_COUNT = 10


def setup_zpoints(rng):
    n = ZPOINT_COUNT
    mids = 0.005 + 0.045 * (np.arange(ZPOINT_STRATA) + 0.5) / ZPOINT_STRATA
    im = np.tile(mids, n // ZPOINT_STRATA)
    re = -0.5 + (rng.permutation(n) + rng.uniform(size=n)) / n
    return {"queries": [complex(r, i) for r, i in zip(re, im)]}


def run_zpoints(inputs):
    build = rv.default_operator_builder()

    def query(z):
        op = build(ZPOINT_H)
        return op, rv.sigma_min_point(op, z)

    return [_attempt(query, z) for z in inputs["queries"]]


def check_zpoints(inputs, outputs, out):
    ops, values = [], []
    for i, (z, res) in enumerate(zip(inputs["queries"], outputs)):
        name = f"z[{i}]"
        if _failed(res):
            ops.append((name, False, res["error"]))
            continue
        op, (sigma, m) = res
        # numerical range: Im <Q u, u> = -Im z - h C <a u, u>, so
        # sigma_min >= Im z
        range_ok = sigma >= z.imag * (1 - 1e-12)
        off = op.rate * op.s_off
        Q = (np.diag((op.h * m - z) - 1j * op.absorb) + np.diag(off, 1)
             + np.diag(np.conj(off), -1))
        dense = float(la.svdvals(Q).min())
        rel = abs(dense - sigma) / dense
        ops.append((name, range_ok and rel <= 1e-8,
                    f"z {z:.4f} sigma {sigma:.6e} mode {m} dense rel err "
                    f"{rel:.1e}"))
        values.append([z.real, z.imag, sigma, m])
    _dump(os.path.join(out, "zpoints.json"), values)
    return ops


# ---------------------------------------------------------------------------
# orbits_zpoints: both parts above in one pass. Kept apart, each was the
# noisiest workload; together they leave time in the run budget for runs
# long enough to average out the machine's speed swings.
# ---------------------------------------------------------------------------

def setup_orbits_zpoints(rng, work):
    return {"orbits": setup_orbits(rng), "zpoints": setup_zpoints(rng)}


def run_orbits_zpoints(inputs, out, tracer):
    return {"orbits": run_orbits(inputs["orbits"], tracer),
            "zpoints": run_zpoints(inputs["zpoints"])}


def check_orbits_zpoints(inputs, outputs, out):
    return (check_orbits(inputs["orbits"], outputs["orbits"], out)
            + check_zpoints(inputs["zpoints"], outputs["zpoints"], out))


WORKLOADS = {
    "wave": (setup_wave, run_wave, check_wave),
    "ladder": (setup_ladder, run_ladder, check_ladder),
    "orbits_zpoints": (setup_orbits_zpoints, run_orbits_zpoints,
                       check_orbits_zpoints),
}


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count of each loaded OpenBLAS, asked through its C API."""
    found = {}
    with open("/proc/self/maps") as handle:
        libs = sorted({line.split()[-1] for line in handle
                       if "openblas" in line.lower() and "/" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def _source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "loxokit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def _git_commit():
    """HEAD of the enclosing checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts():
    def blas(cfg):
        dep = cfg["Build Dependencies"]["blas"]
        return {"name": dep.get("name"), "version": dep.get("version")}

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup, run, check = WORKLOADS[args.workload]
    inputs = setup(np.random.Generator(np.random.Philox(args.seed)),
                   args.work)
    ready = time.monotonic()
    result = {"ready": ready}
    if not args.setup_only:
        out = os.path.join(args.work, "out")
        os.makedirs(out, exist_ok=True)
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        cpu0, t0 = time.process_time(), time.perf_counter()
        outputs = run(inputs, out, tracer)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        ops = check(inputs, outputs, out)
        result.update({
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "ops": [{"name": n, "ok": ok, "detail": d} for n, ok, d in ops],
            "machine": machine_facts(),
        })
        if tracer is not None:
            tracer.write(os.path.join(args.work, "spans.jsonl"))
            result["layers"] = tracer.layer_metrics()
    _dump(os.path.join(args.work, "result.json"), result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
