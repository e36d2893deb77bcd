"""Batch front-end: every experiment as a subcommand.

JSON configs in, CSV/JSON outputs (written atomically) out. Exit codes:
0 success, 2 configuration or usage error, 3 numerical failure inside a
solver. Each subcommand accepts only the options it reads. Environment
variables LOXOKIT_OUT and LOXOKIT_TOL stand in for --out and --tol when
the flag is absent, so CI can steer runs without editing configs; only
orbit has --tol, and the other subcommands ignore LOXOKIT_TOL.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np
import scipy.linalg as la

from . import acceptance, serialize
from . import dampedwave as dw
from . import flows
from . import resolvent as rv
from . import spectra
from .errors import LoxokitError
from .normal_form import birkhoff_normal_form, escape_rate_form
from .symplectic import symplectic_log

ENV_PREFIX = "LOXOKIT_"


class UsageError(ValueError):
    pass


def _env_default(args, name, cast):
    """Fill an absent flag from LOXOKIT_<NAME>, if the subcommand has it."""
    if not hasattr(args, name) or getattr(args, name) is not None:
        return
    var = ENV_PREFIX + name.upper()
    raw = os.environ.get(var)
    if raw is not None:
        try:
            setattr(args, name, cast(raw))
        except ValueError:
            raise UsageError(f"{var}={raw!r} is not a valid "
                             f"{cast.__name__}") from None


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _missing_kind(value, default):
    """The kind that value lacks, judged by its default (a bool, an
    integer, another number, a list of integers or a list of numbers; a
    bool is never a number), or None if it fits. Values with other
    defaults are checked where they are read."""
    if isinstance(default, bool):
        return None if isinstance(value, bool) else "true or false"
    if isinstance(default, int):
        return None if _is_integer(value) else "an integer"
    if _is_number(default):
        return None if _is_number(value) else "a number"
    if isinstance(default, list):
        integers = all(map(_is_integer, default))
        entry_fits = _is_integer if integers else _is_number
        fits = isinstance(value, list) and all(map(entry_fits, value))
        if fits:
            return None
        return "a list of integers" if integers else "a list of numbers"
    return None


def _load_config(path, allowed, defaults):
    """Merge defaults with a JSON config; unknown keys and values of the
    wrong kind are an error."""
    merged = dict(defaults)
    if path is not None:
        try:
            with open(path) as handle:
                cfg = json.load(handle)
        except OSError as exc:
            raise UsageError(f"cannot read config: {exc}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"config is not valid JSON: {exc}") from None
        if not isinstance(cfg, dict):
            raise UsageError("config must be a JSON object")
        unknown = sorted(set(cfg) - set(allowed))
        if unknown:
            raise UsageError(
                f"unknown config keys {unknown}; allowed: {sorted(allowed)}")
        for key, value in cfg.items():
            kind = _missing_kind(value, defaults[key])
            if kind is not None:
                raise UsageError(
                    f"config key {key!r} must be {kind}, not {value!r}")
        merged.update(cfg)
    return merged


def _parse_float(token):
    token = token.strip()
    if "/" in token:
        num, den = token.split("/", 1)
        try:
            return float(num) / float(den)
        except ZeroDivisionError:
            raise UsageError(f"{token!r} divides by zero") from None
    return float(token)


def _parse_float_list(text):
    return [_parse_float(tok) for tok in str(text).split(",") if tok.strip()]


def _parse_mode_list(text):
    """Modes as '0,1,5' or a range '0:41' (half-open)."""
    text = str(text).strip()
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi)))
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _out_dir(args):
    out = args.out
    if out is None:
        return None
    os.makedirs(out, exist_ok=True)
    return out


def _emit_json(out, name, payload):
    payload = dict(payload)
    payload["schema_version"] = serialize.SCHEMA_VERSION
    serialize.write_json(os.path.join(out, name), payload)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_normal_form(args):
    if args.input is None:
        raise UsageError("normal-form needs --input pointing to a matrix "
                         "JSON file")
    try:
        with open(args.input) as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read input: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"input is not valid JSON: {exc}") from None
    if "data" not in obj:
        raise UsageError("input JSON needs a 'data' matrix field")
    M = np.asarray(obj["data"], dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise UsageError("input matrix must be square")
    kind = obj.get("kind", "map")
    if kind not in ("map", "generator"):
        raise UsageError("input 'kind' must be 'map' or 'generator'")
    if kind == "map":
        B = symplectic_log(M).entries
    else:
        B = M
    nf = birkhoff_normal_form(B)
    esc = escape_rate_form(nf)
    summary = {
        "kind": kind,
        "classification": serialize.classification_to_json(nf.eigenvalues),
        "block_matrix": serialize.matrix_to_json(nf.block_matrix_A),
        "transform": serialize.matrix_to_json(nf.transform.entries),
        "jordan_scale": nf.jordan_scale,
        "escape_rate": {
            "positive_definite": esc.positive_definite,
            "min_eigenvalue": esc.min_eigenvalue,
            "radii": (esc.certificate.radii.tolist()
                      if esc.certificate is not None else None),
        },
    }
    out = _out_dir(args)
    if out is not None:
        _emit_json(out, "normal_form.json", summary)
    groups = nf.eigenvalues.groups
    print(f"normal form: {len(groups)} spectral groups, escape rate "
          f"{'definite' if esc.positive_definite else 'indefinite'} "
          f"(min eig {esc.min_eigenvalue:+.3e})")
    return 0


ORBIT_KEYS = ("model", "guess", "period_guess", "tol")


def cmd_orbit(args):
    cfg = _load_config(args.config, ORBIT_KEYS, {
        "model": {"model": "surface_of_revolution", "profile": "cosh"},
        "guess": {"r": 0.0, "theta": 0.0, "psi": math.pi / 2, "speed": 1.0},
        "period_guess": 2 * math.pi,
        "tol": args.tol if args.tol is not None else 1e-11,
    })
    sys_ = flows.system_from_config(cfg["model"])
    guess = cfg["guess"]
    if isinstance(guess, dict):
        unknown = sorted(set(guess) - {"r", "theta", "psi", "speed"})
        if unknown:
            raise UsageError(f"unknown guess keys {unknown}")
        z0 = flows.surface_state(sys_, guess.get("r", 0.0),
                                 guess.get("theta", 0.0),
                                 guess.get("psi", math.pi / 2),
                                 guess.get("speed", 1.0))
    else:
        z0 = np.asarray(guess, dtype=float)
    tol = float(cfg["tol"])
    orbit = flows.find_closed_orbit(sys_, z0, float(cfg["period_guess"]),
                                    tol=tol)
    mono = flows.linearized_poincare_map(sys_, orbit, tol=tol)
    eigs = la.eigvals(mono.monodromy)
    out = _out_dir(args)
    if out is not None:
        _emit_json(out, "orbit.json", {
            "point": orbit.point.tolist(),
            "period": orbit.period,
            "energy": orbit.energy,
            "residual": orbit.residual,
            "monodromy": serialize.matrix_to_json(mono.monodromy),
            "reduced_map": serialize.matrix_to_json(mono.reduced_map),
            "classification": serialize.classification_to_json(
                mono.classification),
            "symplectic_defect": mono.symplectic_defect,
        })
        serialize.write_csv(os.path.join(out, "monodromy_eigenvalues.csv"),
                            ["re", "im"],
                            [[float(e.real), float(e.imag)] for e in eigs])
    kinds = ", ".join(g.tag for g in mono.classification.groups) or "none"
    print(f"orbit: period {orbit.period:.9f}, residual {orbit.residual:.1e},"
          f" reduced spectrum {kinds}")
    return 0


SPECTRUM_KEYS = ("k", "delta", "R", "N", "profile")


def cmd_spectrum(args):
    cfg = _load_config(args.config, SPECTRUM_KEYS, {
        "k": [10, 20, 40, 80], "delta": 0.5, "R": 3.0, "N": 2048,
        "profile": "cosh",
    })
    if args.k is not None:
        cfg["k"] = [int(v) for v in _parse_mode_list(args.k)]
    if args.delta is not None:
        cfg["delta"] = args.delta
    report = spectra.nonconcentration_scan(
        cfg["k"], delta=float(cfg["delta"]), R=float(cfg["R"]),
        N=cfg["N"], profile=cfg["profile"])
    out = _out_dir(args)
    if out is not None:
        serialize.write_csv(os.path.join(out, "spectrum.csv"),
                            report.csv_columns(), report.csv_rows())
        _emit_json(out, "spectrum.json", {
            "delta": report.delta, "R": report.R, "profile": report.profile,
            "band": report.band,
        })
    band = report.band
    print(f"spectrum: {len(report.rows)} modes, product band "
          f"[{band['product_min']:.4f}, {band['product_max']:.4f}] "
          f"ratio {band['product_ratio']:.3f}")
    return 0


RESOLVENT_KEYS = ("h", "window", "cutoff", "rate", "half_length", "n_z")


def cmd_resolvent(args):
    cfg = _load_config(args.config, RESOLVENT_KEYS, {
        "h": [1 / 50, 1 / 100, 1 / 200, 1 / 400],
        "window": 0.6, "cutoff": True, "rate": 1.0, "half_length": 1.0,
        "n_z": 11,
    })
    if args.h is not None:
        cfg["h"] = _parse_float_list(args.h)
    if cfg["n_z"] < 1:
        raise UsageError(f"config key 'n_z' must be at least 1, "
                         f"not {cfg['n_z']}")
    build = rv.default_operator_builder(rate=float(cfg["rate"]),
                                        half_length=float(cfg["half_length"]))
    z_values = np.linspace(-0.5, 0.5, cfg["n_z"])
    scan = rv.sigma_min_scan(build, [float(h) for h in cfg["h"]],
                             z_values=z_values, cutoff=bool(cfg["cutoff"]),
                             window=float(cfg["window"]))
    out = _out_dir(args)
    if out is not None:
        serialize.write_csv(os.path.join(out, "resolvent.csv"),
                            scan.csv_columns(), scan.csv_rows())
        _emit_json(out, "resolvent.json", {
            "window": scan.window,
            "bands": scan.bands,
        })
    b = scan.bands["inv_norm"]
    line = (f"resolvent: inv-norm product band [{b['min']:.3f}, "
            f"{b['max']:.3f}] ratio {b['ratio']:.3f}")
    if "cutoff" in scan.bands:
        line += f", cutoff ratio {scan.bands['cutoff']['ratio']:.3f}"
    print(line)
    return 0


WAVE_KEYS = ("modes", "epsilon", "t_max", "n_grid", "damping_inner",
             "damping_outer", "warp", "decay_modes")


def cmd_damped_wave(args):
    cfg = _load_config(args.config, WAVE_KEYS, {
        "modes": list(range(41)), "epsilon": 0.1, "t_max": 60.0,
        "n_grid": 192, "damping_inner": 0.5, "damping_outer": 1.0,
        "warp": "neck", "decay_modes": [0, 1, 2, 5, 10, 20, 40],
    })
    if args.modes is not None:
        cfg["modes"] = _parse_mode_list(args.modes)
    if args.epsilon is not None:
        cfg["epsilon"] = args.epsilon
    if args.r0 is not None:
        cfg["damping_inner"] = args.r0
        cfg["damping_outer"] = max(float(args.r0) + 0.5,
                                   cfg["damping_outer"])
    if cfg["warp"] not in ("neck", "flat"):
        raise UsageError("warp must be 'neck' or 'flat'")
    profile = dw.periodic_warp if cfg["warp"] == "neck" else \
        (lambda r: np.ones_like(np.asarray(r, dtype=float)))
    inner = float(cfg["damping_inner"])
    prob = dw.DampedWaveProblem(
        profile=profile,
        damping=dw.neck_damping(inner, float(cfg["damping_outer"])),
        n_grid=cfg["n_grid"], modes=tuple(cfg["modes"]),
        epsilon=float(cfg["epsilon"]), dead_zone_radius=inner)
    freq_rows = []
    strip = mirror = 0.0
    for k in prob.modes:
        es = dw.eigenfrequencies(dw.assemble_pencil(prob, k))
        strip = max(strip, es.strip_margin)
        mirror = max(mirror, es.symmetry_defect)
        freq_rows += [[k, float(t.real), float(t.imag)]
                      for t in es.frequencies]
    decay_modes = [k for k in cfg["decay_modes"] if k in prob.modes]
    rep = dw.decay_report(prob, modes=decay_modes or None,
                          t_max=float(cfg["t_max"]))
    out = _out_dir(args)
    if out is not None:
        serialize.write_csv(os.path.join(out, "eigenfrequencies.csv"),
                            ["k", "re_tau", "im_tau"], freq_rows)
        total_eeps = sum(tr.eeps for tr in rep.per_mode.values())
        serialize.write_csv(
            os.path.join(out, "energy.csv"), ["t", "E0", "Eeps"],
            list(zip(rep.times, rep.total_e0, total_eeps)))
        _emit_json(out, "damped_wave.json", {
            "epsilon": rep.epsilon,
            "modes": list(prob.modes),
            "decay_modes": list(rep.modes),
            "rate": rep.rate,
            "r_squared": rep.r_squared,
            "envelope_constant": rep.envelope_constant,
            "strip_margin": strip,
            "mirror_defect": mirror,
        })
    print(f"damped wave: strip margin {strip:.1e}, mirror defect "
          f"{mirror:.1e}, decay rate {rep.rate:.4f} "
          f"(R^2 {rep.r_squared:.3f})")
    return 0


def cmd_selftest(args):
    names = None
    if args.criteria is not None:
        names = [tok.strip() for tok in args.criteria.split(",")
                 if tok.strip()]
        known = {n for n, _ in acceptance.CRITERIA}
        unknown = sorted(set(names) - known)
        if unknown:
            raise UsageError(f"unknown criteria {unknown}; "
                             f"available: {sorted(known)}")
    results = acceptance.run_all(names)
    print(acceptance.format_table(results))
    out = _out_dir(args)
    if out is not None:
        _emit_json(out, "selftest.json", {
            "results": [{"name": r.name, "passed": r.passed,
                         "detail": r.detail, "elapsed": r.elapsed}
                        for r in results],
        })
    return 0 if all(r.passed for r in results) else 3


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="loxokit",
        description="Spectra and dynamics around closed hyperbolic orbits")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("normal-form",
                       help="normal form and escape-rate certificate of a "
                            "symplectic map or Hamilton matrix")
    p.add_argument("--input", help="matrix JSON ({'data': [[...]], "
                                   "'kind': 'map'|'generator'})")
    common(p, config=False)

    p = sub.add_parser("orbit", help="closed orbit, monodromy, stability")
    p.add_argument("--tol", type=float, help="solver tolerance override")
    common(p)

    p = sub.add_parser("spectrum",
                       help="neck eigenmode concentration scan")
    p.add_argument("--k", help="angular wavenumbers, e.g. 10,20,40,80")
    p.add_argument("--delta", type=float, help="neck window half-width")
    common(p)

    p = sub.add_parser("resolvent",
                       help="absorbed-model smallest-singular-value scan")
    p.add_argument("--h", help="semiclassical h list, e.g. 1/50,1/100")
    common(p)

    p = sub.add_parser("damped-wave",
                       help="eigenfrequency scan plus energy decay")
    p.add_argument("--modes", help="angular modes, '0:41' or '0,1,5'")
    p.add_argument("--epsilon", type=float, help="data regularity weight")
    p.add_argument("--r0", type=float, help="damping-free neck radius")
    common(p)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--criteria", help="comma list (default: all)")
    common(p, config=False)
    return parser


COMMANDS = {
    "normal-form": cmd_normal_form,
    "orbit": cmd_orbit,
    "spectrum": cmd_spectrum,
    "resolvent": cmd_resolvent,
    "damped-wave": cmd_damped_wave,
    "selftest": cmd_selftest,
}

NUMERICAL_ERRORS = (LoxokitError, la.LinAlgError)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _env_default(args, "out", str)
        _env_default(args, "tol", float)
        return COMMANDS[args.command](args)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
