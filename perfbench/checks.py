"""Correctness checks of benchmark outputs against the stored references.

Tolerances are the ROADMAP gates: TL within 1e-8 dB and every interface
coefficient within 1e-10 relative of the reference, symmetry defects at
most 1e-8.  A reference record with an ``error`` is an expected failure:
the same key must fail with the same exception type, and returning a
number instead counts as a failed operation.
"""

from __future__ import annotations

import math

TL_TOL_DB = 1e-8
COEF_TOL_REL = 1e-10
DEFECT_TOL = 1e-8

# Relative coefficient deviations are floored at 1e-3 of the largest value
# of the same family in the reference row, so that values which vanish by
# symmetry (solver noise near 1e-16) are compared on their family's scale.
# Columns follow coefficients.CSV_HEADER; phi and U3 are keys, the last
# column (the symmetry defect) is a diagnostic, not a result.
_COEF_FAMILIES = (
    (2, 3, 4, 5, 6, 7, 8, 9, 15),  # A11 A12 A22 B1 B2 Bp1 Bp2 F zeta_star
    (11, 13, 14),                  # Tw W1 W2 (speed-like)
    (10,),                         # Mw
    (12,),                         # Twp
)
_FAMILY_FLOOR = 1e-3


def tl_deviation(values, ref):
    """|TL - TL_ref| in dB (the TL is column 2 of a TL row)."""
    return abs(values[2] - ref[2])


def coef_deviation(values, ref):
    """Largest family-floored relative deviation over all coefficients."""
    worst = 0.0
    for cols in _COEF_FAMILIES:
        floor = _FAMILY_FLOOR * max(abs(ref[c]) for c in cols)
        for c in cols:
            diff = abs(values[c] - ref[c])
            den = max(abs(ref[c]), floor)
            if diff == 0.0:
                continue
            worst = max(worst, diff / den if den > 0.0 else math.inf)
    return worst


_DEVIATION = {"tl": (tl_deviation, TL_TOL_DB), "coef": (coef_deviation, COEF_TOL_REL)}


def check_records(kind, records, reference, canonical):
    """Judge one pass's records; returns (misses, max_deviation, expected).

    Every record is checked for the expected failure set, finiteness and
    (coefficients) the symmetry defect.  When `canonical` is true the inputs
    are the reference grid and every value is compared with the reference.
    `misses` holds a short reason per failed record; `expected` counts the
    records that failed as the reference says they must.
    """
    deviation, tol = _DEVIATION[kind]
    ref_by_key = {tuple(r["key"]): r for r in reference}
    max_dev, misses, expected = 0.0, [], 0
    for rec in records:
        key = tuple(rec["key"])
        ref = ref_by_key.get(key)
        want_error = ref["error"] if ref is not None else None
        if want_error or rec["error"]:
            if rec["error"] != want_error:
                misses.append(f"{key}: expected error {want_error}, got "
                              f"{rec['error'] or 'a value'}")
            else:
                expected += 1
            continue
        values = rec["values"]
        if not all(math.isfinite(v) for v in values):
            misses.append(f"{key}: non-finite output")
            continue
        if kind == "coef" and values[-1] > DEFECT_TOL:
            misses.append(f"{key}: symmetry defect {values[-1]:.3e}")
            continue
        if canonical:
            if ref is None:
                misses.append(f"{key}: no reference record")
                continue
            dev = deviation(values, ref["values"])
            max_dev = max(max_dev, dev)
            if not dev <= tol:
                misses.append(f"{key}: deviation {dev:.3e} exceeds {tol:.0e}")
    return misses, max_dev, expected


def tl_csv_records(text):
    """Records of a `perfoplate waveguide` tl.csv, keyed by omega."""
    records = []
    for line in text.strip().splitlines()[1:]:
        row = [float(v) for v in line.split(",")]
        records.append({"key": [row[0]], "values": row, "error": None})
    return records
