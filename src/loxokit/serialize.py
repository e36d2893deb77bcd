"""JSON and CSV serialization for loxokit result types.

Matrices are stored as row-major nested lists together with their
dimension. Classification groups are tagged ``real_hyperbolic``,
``complex_hyperbolic``, ``elliptic``. CSV output uses shortest
round-trip float formatting, so identical inputs produce byte-identical
files.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .symplectic import SpectrumClassification

SCHEMA_VERSION = 1


def matrix_to_json(M):
    M = np.asarray(M)
    return {"dim": int(M.shape[0]), "data": M.tolist()}


def group_to_json(g):
    if g.tag == "real_hyperbolic":
        return {"tag": g.tag, "lambda": float(g.lam), "chain_size": g.chain_size,
                "negative_real": g.negative_real}
    if g.tag == "complex_hyperbolic":
        return {"tag": g.tag, "lambda_re": float(np.real(g.lam)),
                "lambda_im": float(np.imag(g.lam)), "chain_size": g.chain_size}
    return {"tag": g.tag, "theta": float(g.theta)}


def classification_to_json(c: SpectrumClassification):
    return {
        "type": "spectrum_classification",
        "schema_version": SCHEMA_VERSION,
        "dim": c.dim,
        "mode": c.mode,
        "groups": [group_to_json(g) for g in c.groups],
        "is_loxodromic": c.is_loxodromic,
        "has_negative_real": c.has_negative_real,
    }


def format_float(x):
    """Shortest round-trip decimal form; deterministic across runs."""
    return repr(float(x))


def write_atomic(path, text):
    """Write text to path via a temp file + rename in the same directory."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, columns, rows):
    """Deterministic CSV: header + repr-formatted floats (ints pass
    through)."""
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for value in row:
            if isinstance(value, (int, np.integer)):
                cells.append(str(int(value)))
            else:
                cells.append(format_float(value))
        lines.append(",".join(cells))
    write_atomic(path, "\n".join(lines) + "\n")


def write_json(path, obj):
    write_atomic(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
