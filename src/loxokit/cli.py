"""Batch front-end: every experiment as a subcommand.

JSON configs in, CSV/JSON outputs (written atomically) out; this module
alone names every output file and lays out its columns. Exit codes: 0
success, 2 configuration or usage error (a ValueError, raised here or in
the library), 3 numerical failure inside a solver. Each subcommand accepts
only the options it reads, and a flag beats the config key it stands for;
every default is the library's own.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np
import scipy.linalg as la

from . import acceptance, cutoffs, serialize
from . import dampedwave as dw
from . import flows
from . import resolvent as rv
from . import spectra
from .errors import LoxokitError, check_entries
from .normal_form import birkhoff_normal_form, escape_rate_form
from .symplectic import symplectic_log


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _missing_kind(value, default):
    """The kind that value lacks, judged by its default (an integer,
    another number, a string, a list of integers or a list of numbers; a
    bool is never a number), or None if it fits. Values with other
    defaults are checked where they are read."""
    if isinstance(default, int):
        return None if _is_integer(value) else "an integer"
    if _is_number(default):
        return None if _is_number(value) else "a number"
    if isinstance(default, str):
        return None if isinstance(value, str) else "a string"
    if isinstance(default, list):
        integers = all(map(_is_integer, default))
        entry_fits = _is_integer if integers else _is_number
        fits = isinstance(value, list) and all(map(entry_fits, value))
        if fits:
            return None
        return "a list of integers" if integers else "a list of numbers"
    return None


def _read_json_object(path, what, required=None):
    """The JSON object in the file at path, which must hold the key
    required if one is given; what names the file in errors."""
    try:
        with open(path) as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {what}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict) or (required is not None
                                     and required not in obj):
        field = "" if required is None else f" with a {required!r} field"
        raise ValueError(f"{what} must be a JSON object{field}")
    return obj


def _load_config(path, defaults, **flags):
    """Defaults, then a JSON config's keys, then each flag given (not None)
    under its key; unknown keys and wrong kinds in the config are errors."""
    merged = dict(defaults)
    if path is not None:
        cfg = _read_json_object(path, "config")
        unknown = sorted(set(cfg) - set(defaults))
        if unknown:
            raise ValueError(
                f"unknown config keys {unknown}; allowed: {sorted(defaults)}")
        for key, value in cfg.items():
            kind = _missing_kind(value, defaults[key])
            if kind is not None:
                raise ValueError(
                    f"config key {key!r} must be {kind}, not {value!r}")
        merged.update(cfg)
    merged.update((key, v) for key, v in flags.items() if v is not None)
    return merged


def _parse_float(token):
    num, slash, den = token.partition("/")
    return float(num) / float(den) if slash else float(token)


def _parse_list(flag, text, parse):
    """Entries of a list flag, comma-separated or an integer range '0:41'
    (half-open), or None; a bad entry is a usage error naming the flag."""
    if text is None:
        return None
    ranged = parse is int and ":" in text
    tokens = text.split(":", 1) if ranged else [
        tok for tok in text.split(",") if tok.strip()]
    values = []
    for token in (tok.strip() for tok in tokens):
        try:
            values.append(parse(token))
        except ZeroDivisionError:
            raise ValueError(f"{token!r} divides by zero") from None
        except ValueError:
            kind = "an integer" if parse is int else "a number"
            raise ValueError(f"{flag} entry {token!r} is not {kind}") from None
    return list(range(*values)) if ranged else values


def _write(args, files):
    """Write files under --out, if given: a .csv name maps to its (columns,
    rows), any other to a JSON object, stamped with the schema version."""
    if args.out is None:
        return
    os.makedirs(args.out, exist_ok=True)
    for name, content in files.items():
        path = os.path.join(args.out, name)
        if name.endswith(".csv"):
            serialize.write_csv(path, *content)
        else:
            serialize.write_json(path, {
                **content, "schema_version": serialize.SCHEMA_VERSION})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_normal_form(args):
    if args.input is None:
        raise ValueError("normal-form needs --input pointing to a matrix "
                         "JSON file")
    obj = _read_json_object(args.input, "input", required="data")
    try:
        M = np.asarray(obj["data"], dtype=float)
    except (TypeError, ValueError):
        raise ValueError("input 'data' must be a matrix of numbers") from None
    if not np.isfinite(M).all():  # json reads NaN and Infinity
        raise ValueError("input 'data' must hold finite numbers, not NaN "
                         "or Infinity")
    kind = obj.get("kind", "map")
    if kind not in ("map", "generator"):
        raise ValueError("input 'kind' must be 'map' or 'generator'")
    if kind == "map":
        B = symplectic_log(M).entries
    else:
        B = M
    nf = birkhoff_normal_form(B)
    esc = escape_rate_form(nf)
    _write(args, {"normal_form.json": {
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
    }})
    groups = nf.eigenvalues.groups
    print(f"normal form: {len(groups)} spectral groups, escape rate "
          f"{'definite' if esc.positive_definite else 'indefinite'} "
          f"(min eig {esc.min_eigenvalue:+.3e})")
    return 0


def _check_guess_finite(items):
    for key, value in items:
        if not math.isfinite(value):
            raise ValueError(f"guess[{key!r}] must be finite, not {value}")


def cmd_orbit(args):
    cfg = _load_config(args.config, {
        "model": {"model": "surface_of_revolution"},
        "guess": dict(flows.NECK_GUESS),
        "period_guess": flows.NECK_PERIOD, "tol": flows.ORBIT_TOL,
    }, tol=args.tol)
    if not isinstance(cfg["model"], dict):
        raise ValueError(f"config key 'model' must be an object, not "
                         f"{cfg['model']!r}")
    sys_ = flows.system_from_config(cfg["model"])
    guess = cfg["guess"]
    if isinstance(guess, dict) and sys_.model_tag != "surface_of_revolution":
        raise ValueError(f"config key 'guess' must be a list of {2 * sys_.n} "
                         f"numbers for model {sys_.model_tag!r}; an object "
                         f"guess needs the surface model")
    if isinstance(guess, dict):
        unknown = sorted(set(guess) - set(flows.NECK_GUESS))
        if unknown:
            raise ValueError(f"unknown guess keys {unknown}")
        if not all(map(_is_number, guess.values())):
            raise ValueError(f"config key 'guess' must map to numbers, not "
                             f"{guess!r}")
        _check_guess_finite(guess.items())
        z0 = flows.surface_state(sys_, **{**flows.NECK_GUESS, **guess})
    elif isinstance(guess, list) and all(map(_is_number, guess)) \
            and len(guess) == 2 * sys_.n:
        _check_guess_finite(enumerate(guess))
        z0 = np.asarray(guess, dtype=float)
    else:
        raise ValueError(f"config key 'guess' must be an object or a list "
                         f"of {2 * sys_.n} numbers, not {guess!r}")
    tol = float(cfg["tol"])
    orbit = flows.find_closed_orbit(sys_, z0, float(cfg["period_guess"]),
                                    tol=tol)
    mono = flows.linearized_poincare_map(sys_, orbit, tol=tol)
    eigs = la.eigvals(mono.monodromy)
    _write(args, {
        "orbit.json": {
            "point": orbit.point.tolist(),
            "period": orbit.period,
            "energy": orbit.energy,
            "residual": orbit.residual,
            "monodromy": serialize.matrix_to_json(mono.monodromy),
            "reduced_map": serialize.matrix_to_json(mono.reduced_map),
            "classification": serialize.classification_to_json(
                mono.classification),
            "symplectic_defect": mono.symplectic_defect,
        },
        "monodromy_eigenvalues.csv": (
            ["re", "im"], [[float(e.real), float(e.imag)] for e in eigs]),
    })
    kinds = ", ".join(g.tag for g in mono.classification.groups) or "none"
    print(f"orbit: period {orbit.period:.9f}, residual {orbit.residual:.1e},"
          f" reduced spectrum {kinds}")
    return 0


def cmd_spectrum(args):
    cfg = _load_config(args.config, {
        "k": list(spectra.K_LADDER), "delta": spectra.DELTA,
        "R": spectra.RADIUS, "N": spectra.GRID_N, "profile": spectra.PROFILE,
    }, k=_parse_list("--k", args.k, int), delta=args.delta)
    report = spectra.nonconcentration_scan(
        cfg["k"], delta=float(cfg["delta"]), R=float(cfg["R"]),
        N=cfg["N"], profile=cfg["profile"])
    _write(args, {
        "spectrum.csv": (
            ["k", "lambda", "mass_outside", "product_mass_log_lambda",
             "grid_N"],
            [[r.k, r.lam, r.mass_outside, r.product, r.grid_N]
             for r in report.rows]),
        "spectrum.json": {"delta": report.delta, "R": report.R,
                          "profile": report.profile, "band": report.band},
    })
    band = report.band
    print(f"spectrum: {len(report.rows)} modes, product band "
          f"[{band['product_min']:.4f}, {band['product_max']:.4f}] "
          f"ratio {band['product_ratio']:.3f}")
    return 0


def cmd_resolvent(args):
    cfg = _load_config(args.config, {
        "h": list(rv.H_LADDER), "window": rv.MODE_WINDOW, "rate": rv.RATE,
        "half_length": rv.HALF_LENGTH, "n_z": rv.N_Z,
    }, h=_parse_list("--h", args.h, _parse_float))
    if cfg["n_z"] < 1:
        raise ValueError(f"config key 'n_z' must be at least 1, "
                         f"not {cfg['n_z']}")
    build = rv.default_operator_builder(rate=float(cfg["rate"]),
                                        half_length=float(cfg["half_length"]))
    scan = rv.sigma_min_scan(build, [float(h) for h in cfg["h"]],
                             z_values=rv.z_grid(cfg["n_z"]),
                             window=float(cfg["window"]))
    _write(args, {
        "resolvent.csv": (
            ["h", "re_z", "im_z", "sigma_min", "inv_norm", "norm_product",
             "cutoff_product"],
            [[r.h, r.re_z, r.im_z, r.sigma_min, r.inv_norm, r.norm_product,
              r.cutoff_product] for r in scan.rows]),
        "resolvent.json": {"window": scan.window, "bands": scan.bands},
    })
    b = scan.bands["inv_norm"]
    print(f"resolvent: inv-norm product band [{b['min']:.3f}, "
          f"{b['max']:.3f}] ratio {b['ratio']:.3f}, cutoff ratio "
          f"{scan.bands['cutoff']['ratio']:.3f}")
    return 0


def cmd_damped_wave(args):
    cfg = _load_config(args.config, {
        "modes": list(dw.MODES), "decay_modes": list(dw.DECAY_MODES),
        "epsilon": dw.EPSILON, "t_max": dw.T_MAX, "n_grid": dw.N_GRID,
        "warp": dw.WARP, "damping_inner": cutoffs.DAMPING_INNER,
        "damping_outer": cutoffs.DAMPING_OUTER}, epsilon=args.epsilon,
        modes=_parse_list("--modes", args.modes, int), damping_inner=args.r0)
    inner, outer = float(cfg["damping_inner"]), float(cfg["damping_outer"])
    if not 0 <= inner < outer:
        raise ValueError(f"damping_inner must lie in [0, damping_outer) = "
                         f"[0, {outer}), not {inner}")
    prob = dw.DampedWaveProblem(
        profile=cfg["warp"], damping=cutoffs.neck_damping(inner, outer),
        n_grid=cfg["n_grid"], epsilon=float(cfg["epsilon"]),
        dead_zone_radius=inner)
    # refuse unusable modes, decay_modes or t_max before any solve: the
    # eigenfrequency scan takes most of the run
    dw.check_modes(cfg["modes"])
    dw.check_modes(cfg["decay_modes"], "decay_modes")
    rep = dw.decay_report(prob, modes=cfg["decay_modes"],
                          t_max=float(cfg["t_max"]))
    sets, strip, mirror = dw.eigenfrequency_scan(prob, modes=cfg["modes"])
    total_eeps = sum(tr.eeps for tr in rep.per_mode.values())
    _write(args, {
        "eigenfrequencies.csv": (
            ["k", "re_tau", "im_tau"],
            [[es.k, float(t.real), float(t.imag)]
             for es in sets for t in es.frequencies]),
        "energy.csv": (["t", "E0", "Eeps"],
                       zip(rep.times, rep.total_e0, total_eeps)),
        "damped_wave.json": {
            "epsilon": rep.epsilon,
            "modes": cfg["modes"],
            "decay_modes": list(rep.modes),
            "rate": rep.rate,
            "r_squared": rep.r_squared,
            "envelope_constant": rep.envelope_constant,
            "strip_margin": strip,
            "mirror_defect": mirror,
        },
    })
    print(f"damped wave: strip margin {strip:.1e}, mirror defect "
          f"{mirror:.1e}, decay rate {rep.rate:.4f} "
          f"(R^2 {rep.r_squared:.3f})")
    return 0


def cmd_selftest(args):
    names = _parse_list("--criteria", args.criteria, str)
    if names is not None:
        known = sorted(n for n, _ in acceptance.CRITERIA)
        names = check_entries(
            names, "criterion", "criteria",
            empty=f"--criteria names no criterion; available: {known}")
        unknown = sorted(set(names) - set(known))
        if unknown:
            raise ValueError(f"unknown criteria {unknown}; "
                             f"available: {known}")
    results = acceptance.run_all(names)
    print(acceptance.format_table(results))
    _write(args, {"selftest.json": {
        "results": [{"name": r.name, "passed": r.passed,
                     "detail": r.detail, "elapsed": r.elapsed}
                    for r in results],
    }})
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
        return COMMANDS[args.command](args)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
