"""Self-test of the benchmark's correctness check and of BENCHMARK.json.

    python3 perfbench/selftest.py

Feeds the stored reference outputs back through the same checks that
run.py applies, once against the reference itself (no failure may be
counted) and once against references perturbed beyond the tolerances (each
perturbed operation must be counted as failed).  Runs no solver; exits 1
and names the case when a check does not fire as it should.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from types import SimpleNamespace

import checks
import run


def _verdict(kind, records, reference, canonical=True, defects=()):
    """Failed count that run.py would report for one pass of `records`."""
    from workloads import PassResult
    verdict = run.Verdict()
    verdict.add_pass(SimpleNamespace(kind=kind),
                     PassResult(0.0, 0.0, records=records, defects=list(defects)),
                     reference, canonical)
    return verdict.failed


def cases(reference):
    tl, coef = reference["tl_flow"], reference["coef_sweep"]
    ok_coef = next(i for i, r in enumerate(coef) if r["values"] and r["key"][1] > 0)
    fail_coef = next(i for i, r in enumerate(coef) if r["error"])

    def perturbed(ref, index, column, delta=0.0, scale=1.0):
        out = copy.deepcopy(ref)
        vals = out[index]["values"]
        vals[column] = vals[column] * scale + delta
        return out

    yield "tl matches its reference", _verdict("tl", tl, tl), 0
    yield "tl 1e-6 dB off", _verdict("tl", tl, perturbed(tl, 3, 2, delta=1e-6)), 1
    yield "tl 1e-10 dB off (inside tolerance)", \
        _verdict("tl", tl, perturbed(tl, 3, 2, delta=1e-10)), 0
    for name in ("tl_rest_dense", "coef_sweep"):
        kind = "tl" if name.startswith("tl") else "coef"
        yield f"{name} matches its reference", \
            _verdict(kind, reference[name], reference[name]), 0
    yield "coefficient A11 1e-8 relative off", \
        _verdict("coef", coef, perturbed(coef, ok_coef, 2, scale=1 + 1e-8)), 1
    yield "coefficient Twp 1e-8 relative off", \
        _verdict("coef", coef, perturbed(coef, ok_coef, 12, scale=1 + 1e-8)), 1
    yield "coefficient A11 1e-12 relative off (inside tolerance)", \
        _verdict("coef", coef, perturbed(coef, ok_coef, 2, scale=1 + 1e-12)), 0
    yield "coefficient F 1e-8 relative off", \
        _verdict("coef", coef, perturbed(coef, ok_coef, 9, scale=1 + 1e-8)), 1

    returns_number = copy.deepcopy(coef)
    returns_number[fail_coef]["values"] = list(coef[ok_coef]["values"])
    returns_number[fail_coef]["error"] = None
    yield "expected MachBoundError returns a number", \
        _verdict("coef", returns_number, coef), 1
    wrong_error = copy.deepcopy(coef)
    wrong_error[fail_coef]["error"] = "SolverError"
    yield "expected MachBoundError fails otherwise", _verdict("coef", wrong_error, coef), 1
    unexpected = copy.deepcopy(coef)
    unexpected[ok_coef]["values"], unexpected[ok_coef]["error"] = None, "MachBoundError"
    yield "unexpected failure", _verdict("coef", unexpected, coef), 1

    jittered = copy.deepcopy(coef)
    for r in jittered:
        r["key"][1] += 0.01 if 0 < r["key"][1] < 5.5 else 0.0
    yield "jittered sweep, no reference values", \
        _verdict("coef", jittered, coef, canonical=False), 0
    nan = copy.deepcopy(jittered)
    nan[ok_coef]["values"][5] = math.nan
    yield "jittered sweep with a NaN", _verdict("coef", nan, coef, canonical=False), 1
    asym = copy.deepcopy(jittered)
    asym[ok_coef]["values"][-1] = 1e-6
    yield "jittered sweep with a symmetry defect", \
        _verdict("coef", asym, coef, canonical=False), 1
    yield "TL table with a symmetry defect", \
        _verdict("tl", tl, tl, defects=[1e-13, 1e-6]), 1

    csv = "omega_rad_s,freq_hz,TL_db,flux_in,flux_out\n" + "".join(
        ",".join(format(v, ".17g") for v in r["values"]) + "\n" for r in tl)
    yield "tl.csv round trip", \
        _verdict("tl", checks.tl_csv_records(csv), tl), 0


def calibration_cancels():
    """Reference seconds stay put when the host slows items and calibration
    blocks alike, and grow with an item that alone gets slower."""
    from calibrate import Clock

    def reference(item_s, block_s):
        clock = Clock(calibrate=False)
        clock.items = [["op", t, i] for i, t in enumerate(item_s)]
        clock.blocks = list(block_s)
        return [clock.reference_s(i) for i in range(len(item_s))]

    base = reference([0.02, 0.03], [0.005, 0.006, 0.005])
    slow = reference([0.03, 0.045], [0.0075, 0.009, 0.0075])
    heavier = reference([0.04, 0.03], [0.005, 0.006, 0.005])
    return (all(math.isclose(a, b) for a, b in zip(base, slow))
            and math.isclose(heavier[0], 2.0 * base[0]))


def benchmark_json_matches():
    """BENCHMARK.json lists exactly the metrics and workloads run.py has."""
    import tracing
    import workloads
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    names = [w["name"] for w in spec["workloads"]]
    return (e2e == list(run.END_TO_END) and layers == list(tracing.PER_LAYER)
            and names == list(workloads.NAMES))


def main():
    sys.path.insert(0, str(run.SRC))
    reference = json.loads((run.HERE / "reference.json").read_text(encoding="utf-8"))
    bad = 0
    for name, failed, expected in cases(reference):
        ok = failed == expected
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {failed} failed (expected {expected})")
    ok = calibration_cancels()
    bad += not ok
    print(f"{'ok  ' if ok else 'FAIL'} reference seconds cancel a uniform slow-down")
    ok = benchmark_json_matches()
    bad += not ok
    print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json lists the reported metrics")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
