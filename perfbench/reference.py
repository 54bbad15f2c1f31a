"""Correctness check for every benchmarked call.

The reference output is produced by ``seedref/relaxkv_seed``, an unmodified
copy of the ``relaxkv`` package as it stood when the benchmark was defined,
run with the same arguments and seed as the timed call. A stored copy of the
program, rather than stored output files, is what lets any ``--seed`` be
checked.

Comparison rules:

- ids, roles (sink/history/tail lists), positions, costs, counts, the config
  and every other field match exactly;
- relaxation scores (``stability``, ``redundancy``, ``relaxation``), the
  ``drift``/``repetition`` metrics and ``frame_features`` match within
  ``|got - ref| <= ABS_TOL + REL_TOL * |ref|``, so a legitimate reordering of
  floating-point sums still passes;
- the ``profile`` CSV matches byte for byte.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

REL_TOL = 1e-6
ABS_TOL = 1e-9

# Report fields compared within tolerance; all other fields compare exactly.
_TOLERANT_KEYS = frozenset(
    {"stability", "redundancy", "relaxation", "drift", "repetition", "frame_features"}
)

_SEEDREF = Path(__file__).resolve().parent / "seedref"


def seed_cli():
    """The ``cli`` module of the frozen seed-commit package."""
    if str(_SEEDREF) not in sys.path:
        sys.path.insert(0, str(_SEEDREF))
    from relaxkv_seed import cli

    return cli


def _close(got, ref) -> bool:
    try:
        g = np.asarray(got, dtype=np.float64)
        r = np.asarray(ref, dtype=np.float64)
    except (TypeError, ValueError):
        return False
    return g.shape == r.shape and bool(
        np.all(np.abs(g - r) <= ABS_TOL + REL_TOL * np.abs(r))
    )


def _compare(got, ref, path: str, tolerant: bool, out: list[str]) -> None:
    if len(out) >= 5:  # enough to diagnose; stop walking
        return
    if tolerant and ref is not None and not isinstance(ref, (str, bool)):
        if not _close(got, ref):
            out.append(f"{path}: outside tolerance")
        return
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            out.append(f"{path}: keys differ")
            return
        for key in ref:
            _compare(got[key], ref[key], f"{path}.{key}", key in _TOLERANT_KEYS, out)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            out.append(f"{path}: length differs")
            return
        for idx, (g, r) in enumerate(zip(got, ref)):
            _compare(g, r, f"{path}[{idx}]", False, out)
    elif type(got) is not type(ref) or got != ref:
        out.append(f"{path}: {got!r} != {ref!r}")


def compare_outputs(got_dir: Path, ref_dir: Path) -> list[str]:
    """Mismatches between the report files of two output directories.

    An empty list means the call's output is correct.
    """
    ref_files = sorted(p.name for p in ref_dir.iterdir())
    got_files = sorted(p.name for p in got_dir.iterdir()) if got_dir.is_dir() else []
    if got_files != ref_files:
        return [f"files {got_files} != {ref_files}"]
    problems: list[str] = []
    for name in ref_files:
        got_bytes = (got_dir / name).read_bytes()
        ref_bytes = (ref_dir / name).read_bytes()
        if got_bytes == ref_bytes:
            continue
        if not name.endswith(".json"):
            problems.append(f"{name}: bytes differ")
            continue
        try:
            got = json.loads(got_bytes)
        except ValueError:
            problems.append(f"{name}: not valid JSON")
            continue
        _compare(got, json.loads(ref_bytes), name, False, problems)
    return problems
