"""Correctness of benchmark outputs against stored references.

References live in ``bench/references/<workload>.json``; see
``make_references.py`` for how they were made.  An op whose input has a
stored reference is compared with it.  For any other input, the run
checks one physics invariant on its first such op, outside the timed
region: Newton's third law for the force workloads, and invariance
under a rigid rotation of the scene for the three-body energy.

Tolerances:

* results (force vectors, energies, sweep positions): REL_TOL relative,
  vectors by their norm.  At T = 0 the default 40/48-node rule agrees
  with the 120-node references to about 5e-10 at the closest pair gap.
  The three-body energy V3 is a difference of four energies, each summed
  until a Matsubara term falls below 1e-10 of its total; relative to V3
  that stop leaves up to 1e-7 (9.8e-8 seen over the 24 references), so
  its tolerance is wider.  Both still flag a 1e-6 relative change.
* error estimates: ERROR_REL_TOL relative; they are estimates, and
  their quadrature part differs between rules by construction.
* CSV comment lines and the column header: byte for byte.
  ``L_max`` and ``exponent_scale``: exact.  ``n_freq`` counts frequency
  evaluations, which later changes are meant to reduce, so it is only
  checked to be a positive integer.
"""

import json
import math
import os

REL_TOL = {"pair_force": 1e-7, "cli_sweep": 1e-7,
           "thermal_three_body": 5e-7}
ERROR_REL_TOL = 1e-2

FORCE_COLUMNS = ("sweep_param,F_x,F_y,F_z,error_estimate,L_max,n_freq,"
                 "exponent_scale")

_HERE = os.path.dirname(os.path.abspath(__file__))


def reference_path(workload):
    return os.path.join(_HERE, "references", f"{workload}.json")


def load_references(workload, seed):
    """(stored inputs, stored results) for a seed, or ([], [])."""
    with open(reference_path(workload), encoding="utf-8") as fh:
        doc = json.load(fh)
    entries = doc["seeds"].get(str(seed), [])
    return [e["input"] for e in entries], [e["result"] for e in entries]


def template_comments(workload="cli_sweep"):
    """(sweep text, comment lines) of the first stored CLI reference."""
    with open(reference_path(workload), encoding="utf-8") as fh:
        doc = json.load(fh)
    first = doc["seeds"][str(doc["default_seed"])][0]
    comments, _, _ = parse_csv(first["result"]["csv"])
    return first["input"]["sweep"], comments


def _norm(v):
    return math.sqrt(sum(x * x for x in v))


def rel_diff(value, ref):
    """Relative deviation of a scalar or vector from its reference."""
    if isinstance(ref, (int, float)):
        value, ref = [value], [ref]
    diff = _norm([a - b for a, b in zip(value, ref)])
    scale = _norm(ref)
    if scale == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / scale


def _finite(values):
    return all(math.isfinite(v) for v in values)


class Verdict:
    """Outcome of one check: ok, worst relative deviation, reason."""

    def __init__(self, ok, rel_err=0.0, reason=""):
        self.ok = bool(ok)
        self.rel_err = float(rel_err)
        self.reason = reason

    def __repr__(self):
        return f"Verdict(ok={self.ok}, rel_err={self.rel_err:.3g}, {self.reason!r})"


def _compare(pairs):
    """[(name, value, ref, tol, counts_as_result)] -> Verdict."""
    worst = 0.0
    for name, value, ref, tol, is_result in pairs:
        rel = rel_diff(value, ref)
        if is_result:
            worst = max(worst, rel)
        if not rel <= tol:
            return Verdict(False, max(worst, rel),
                           f"{name} deviates {rel:.3g} > {tol:g}")
    return Verdict(True, worst)


def check_result(workload, result, ref=None):
    """Compare an in-process result with its stored reference; without
    one, only check that it is finite."""
    if workload == "pair_force":
        values = result["force"] + result["error"]
        if not _finite(values):
            return Verdict(False, math.inf, "non-finite force")
        if ref is None:
            return Verdict(True)
        return _compare([("force", result["force"], ref["force"],
                          REL_TOL[workload], True),
                         ("error", result["error"], ref["error"],
                          ERROR_REL_TOL, False)])
    if not _finite([result["energy"], result["error"]]):
        return Verdict(False, math.inf, "non-finite energy")
    if ref is None:
        return Verdict(True)
    return _compare([("energy", result["energy"], ref["energy"],
                      REL_TOL[workload], True),
                     ("error", result["error"], ref["error"],
                      ERROR_REL_TOL, False)])


# --------------------------------------------------------------------- CSV

def parse_csv(text):
    """(comment lines, header line, data rows as lists of strings)."""
    lines = text.splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rest = [ln for ln in lines if not ln.startswith("#")]
    header = rest[0] if rest else ""
    return comments, header, [ln.split(",") for ln in rest[1:]]


def csv_forces(text):
    """[(sweep_param, (F_x, F_y, F_z))] from a force CSV."""
    _, _, rows = parse_csv(text)
    return [(float(r[0]), tuple(float(v) for v in r[1:4])) for r in rows]


def check_csv(text, exit_code, ref_text=None, comments=None, n_rows=None):
    """Check one cli_sweep process: its exit code and its CSV.

    With ref_text, comment lines and header must match the reference
    byte for byte and numeric cells within tolerance.  Without it, the
    comment lines must equal ``comments`` and there must be ``n_rows``
    finite rows.
    """
    if exit_code != 0:
        return Verdict(False, math.inf, f"exit code {exit_code}")
    if text is None:
        return Verdict(False, math.inf, "no CSV written")
    got_comments, header, rows = parse_csv(text)
    if header != FORCE_COLUMNS:
        return Verdict(False, math.inf, f"header {header!r}")
    if ref_text is not None:
        comments, _, ref_rows = parse_csv(ref_text)
        n_rows = len(ref_rows)
    if got_comments != comments:
        return Verdict(False, math.inf, "comment lines differ")
    if len(rows) != n_rows or any(len(r) != 8 for r in rows):
        return Verdict(False, math.inf, "row count or width differs")
    try:
        cells = [[float(v) for v in r] for r in rows]
    except ValueError as exc:
        return Verdict(False, math.inf, f"unparsable cell: {exc}")
    for c in cells:
        if not _finite(c) or c[5] != int(c[5]) or c[6] != int(c[6]) or c[6] < 1:
            return Verdict(False, math.inf, "non-finite or non-integer cell")
    if ref_text is None:
        return Verdict(True)
    pairs, tol = [], REL_TOL["cli_sweep"]
    for i, (c, r) in enumerate(zip(cells, ref_rows)):
        ref = [float(v) for v in r]
        if c[5] != ref[5] or c[7] != ref[7]:
            return Verdict(False, math.inf, f"row {i}: L_max or exponent_scale")
        pairs += [(f"row {i} sweep_param", c[0], ref[0], tol, True),
                  (f"row {i} force", c[1:4], ref[1:4], tol, True),
                  (f"row {i} error_estimate", c[4], ref[4], ERROR_REL_TOL,
                   False)]
    return _compare(pairs)


def newton_residual(force_on_a, force_on_b):
    """|F_a + F_b| / |F_b|: zero when Newton's third law holds."""
    return rel_diff([-f for f in force_on_a], force_on_b)
