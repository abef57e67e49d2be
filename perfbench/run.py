"""perfoplate benchmark: one workload, one seed, one process.

Usage (from the repository root):

    python3 perfbench/run.py --workload tl_flow --seed 0 --seconds 10 --trace 0

The untraced run (--trace 0) repeats passes of the workload for --seconds,
then reports the end-to-end metrics.  Their times are reference seconds: a
fixed calibration kernel runs between the timed items and each item's wall
time is scaled by the kernel's speed next to it (calibrate.py), so the
host's drift cancels; wall times are printed and recorded beside them.  The
traced run (--trace 1) first repeats untraced passes for --seconds as its overhead baseline, then runs
one traced pass and one traced `perfoplate waveguide` call and reports the
per-layer metrics.  Every output is checked: at seed 0 against
reference.json, at other seeds for finiteness, the expected failure set and
symmetry defects.  Human-readable lines come first; the last line of
standard output is the JSON result.  A full record (environment, every
metric with its sample count, and the spans of a traced run) is written to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

# The plain single-threaded baseline: BLAS pinned before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"


def _pin_mmap_threshold(nbytes=128 * 1024):
    """Hold glibc's mmap threshold at its initial 128 KiB.  Left dynamic, it
    rises after the first large free, and whether the 3D factorizations'
    arrays then come from the heap or from mmap depends on what ran before:
    peak RSS of the same refinement ladder (a 30 deg cell at u3 = 2.5 on
    resolutions 0.1 to 0.05) read 288 or 345 MB from run to run.  Returns
    the pinned threshold, or None where the C library has no mallopt."""
    try:
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        return nbytes if libc.mallopt(-3, nbytes) == 1 else None  # M_MMAP_THRESHOLD
    except (OSError, AttributeError, TypeError):
        return None


MMAP_THRESHOLD = _pin_mmap_threshold()

import calibrate  # noqa: E402  (imports numpy: after the pins above)
import checks  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
MIN_SETUPS = 3        # set-ups per run at least...
MIN_SETUP_WALL_S = 2.0  # ...and until they have taken this long together
MAX_SETUPS = 30

# (metric, unit, better, bound) of the untraced run; BENCHMARK.json mirrors it.
# setup_s and op_ref_ms.p50 are medians in reference seconds (calibrate.py):
# other tenants of the shared VM change its speed by 20-40% within seconds,
# which wall times alone cannot average out (measured spreads in README.md).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_ref_ms.p50", "ms", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Human names of one operation per workload (the gated names are generic).
OP_NAMES = {"tl_flow": "freq", "tl_rest_dense": "freq",
            "coef_sweep": "cell_point"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def tail_percentile(n):
    """Highest whole percentile with at least 10 samples beyond it (None if
    that is not above the median)."""
    p = math.floor(100.0 * (1.0 - 10.0 / n)) if n else 0
    return p if p > 50 else None


def percentile(values, p):
    data = sorted(values)
    pos = (len(data) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def source_record():
    """Commit (when the tree is a git checkout), source digest and the
    non-blank, non-comment line count under src/."""
    digest, sloc = hashlib.sha256(), 0
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + text)
        sloc += sum(1 for line in text.decode().splitlines()
                    if line.strip() and not line.strip().startswith("#"))
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                commit = ref_path.read_text().strip()
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_sloc": sloc}


def environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
            "jobs": 1, "malloc_mmap_threshold": MMAP_THRESHOLD,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), **source_record()}


def measure(workload, seconds, clock):
    """Closed loop: passes back to back until `seconds` have elapsed."""
    passes = []
    t0 = perf_counter()
    while not passes or perf_counter() - t0 < seconds:
        passes.append(workload.run_pass(clock))
    return passes


def extra_setups(workload, passes, clock):
    """Item indices of every set-up: the passes' own, then more until there
    are MIN_SETUPS of them and they took MIN_SETUP_WALL_S together."""
    items = [p.setup_item for p in passes]
    while len(items) < MAX_SETUPS and (
            len(items) < MIN_SETUPS
            or sum(clock.items[i][1] for i in items) < MIN_SETUP_WALL_S):
        items.append(len(clock.items))
        clock.time("setup", workload.setup)
    return items


class Verdict:
    """Operation counts and deviations gathered by the checks."""

    def __init__(self):
        self.attempted = self.failed = self.rejected = 0
        self.max_dev = 0.0
        self.max_defect = 0.0
        self.misses = []

    def add_pass(self, workload, result, reference, canonical):
        misses, dev, expected = checks.check_records(
            workload.kind, result.records, reference, canonical)
        misses += [f"table symmetry defect {d:.3e}" for d in result.defects
                   if not d <= checks.DEFECT_TOL]
        self.attempted += len(result.records)
        self.failed += len(misses)
        self.rejected += expected
        self.max_dev = max(self.max_dev, dev)
        defects = result.defects + [r["values"][-1] for r in result.records
                                    if workload.kind == "coef" and r["values"]]
        self.max_defect = max([self.max_defect] + defects)
        self.misses += misses

    def add_cli(self, misses):
        self.attempted += 1
        self.failed += bool(misses)
        self.misses += misses


def cli_check(ini_text, reference, out_dir):
    """`perfoplate waveguide --jobs 1` on the given inputs; its tl.csv must
    match the reference TL records.  Returns the list of misses."""
    from perfoplate import cli
    out_dir.mkdir(parents=True, exist_ok=True)
    for stale in ("tl.csv", "failures.csv", "error.json"):
        (out_dir / stale).unlink(missing_ok=True)
    ini = out_dir / "tl_flow.ini"
    ini.write_text(ini_text, encoding="utf-8")
    with redirect_stdout(io.StringIO()):
        code = cli.main(["waveguide", "--config", str(ini), "--out", str(out_dir),
                         "--jobs", "1"])
    if code != 0:
        return [f"cli: exit code {code}"]
    misses = []
    if (out_dir / "failures.csv").exists():
        misses.append("cli: failures.csv written")
    records = checks.tl_csv_records((out_dir / "tl.csv").read_text(encoding="utf-8"))
    if len(records) != len(reference):
        misses.append(f"cli: {len(records)} TL rows, reference has {len(reference)}")
    row_misses, _, _ = checks.check_records("tl", records, reference, True)
    return misses + [f"cli: {m}" for m in row_misses]


def end_to_end(workload, passes, setup_items, clock, rss_mb):
    """Gated metrics, their sample counts, and the printed-only timings
    (name -> (value, unit, samples)).  Gated times are in reference seconds,
    the printed operation times in wall seconds."""
    setups = [clock.reference_s(i) for i in setup_items]
    ref_ops = [clock.reference_s(i) for p in passes for i in p.op_items]
    ops = [t for p in passes for t in p.op_s]
    values = {"setup_s": statistics.median(setups),
              "op_ref_ms.p50": 1000.0 * statistics.median(ref_ops),
              "peak_rss_mb": rss_mb}
    counts = {"setup_s": len(setups), "op_ref_ms.p50": len(ref_ops), "peak_rss_mb": 1}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _, _ in END_TO_END}
    op = OP_NAMES[workload.name]
    extra = {"setup_wall_s": (statistics.median(clock.items[i][1] for i in setup_items),
                              "s", len(setup_items)),
             "run_s": (statistics.median(p.run_s for p in passes), "s", len(passes))}
    for p in (25, 50, tail_percentile(len(ops))):
        if p is not None:
            extra[f"{op}_ms.p{p}"] = (1000.0 * percentile(ops, p), "ms", len(ops))
    extra[f"{op}s_per_s"] = (len(ops) / sum(ops), "1/s", len(ops))
    units = sorted(clock.blocks)
    extra["calibration_unit_ms.p50"] = (1000.0 * statistics.median(units), "ms", len(units))
    extra["calibration_unit_max_over_min"] = (units[-1] / units[0], "ratio", len(units))
    return metrics, counts, extra


def report_lines(workload, seed, seconds, metrics, counts, extra, verdict, canonical,
                 env):
    dev_name, dev_unit = ("tl_dev_db", "dB") if workload.kind == "tl" \
        else ("coef_dev_rel", "ratio")
    lines = [f"perfbench {workload.name} seed={seed} seconds={seconds:g} "
             "(closed loop, 1 caller, --jobs 1)",
             "env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "blas_threads")
             + f" blas_threads={env['blas_threads']['OPENBLAS_NUM_THREADS']}"]
    for key, m in metrics.items():
        lines.append(f"  {key:<24} {m['value']:<14.6g} {m['unit']:<6} n={counts[key]}")
    for key, (value, unit, n) in extra.items():
        lines.append(f"  {key:<24} {value:<14.6g} {unit:<6} n={n}")
    frac = (verdict.failed + verdict.rejected) / verdict.attempted
    lines.append(f"  {'failed_frac':<24} {frac:<14.6g} {'ratio':<6} "
                 f"n={verdict.attempted} (expected solver rejections "
                 f"{verdict.rejected}, check misses {verdict.failed})")
    if canonical:
        lines.append(f"  {dev_name:<24} {verdict.max_dev:<14.6g} {dev_unit:<6} "
                     "vs reference")
    else:
        lines.append(f"  {dev_name:<24} n/a (seed {seed} is not the reference grid; "
                     "finiteness, failure set and symmetry defects checked)")
    lines.append(f"  {'max_symmetry_defect':<24} {verdict.max_defect:<14.6g} ratio")
    lines += [f"  MISS {m}" for m in verdict.misses[:20]]
    return lines


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "perfoplate" / "__init__.py").is_file():
        print(f"perfbench: perfoplate sources not found under {SRC}", file=sys.stderr)
        return 2
    ref_path = HERE / "reference.json"
    if not ref_path.is_file():
        print(f"perfbench: missing {ref_path}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    reference = json.loads(ref_path.read_text(encoding="utf-8"))
    env = environment()
    workload = workloads.make(args.workload, args.seed)
    canonical = args.seed == 0
    verdict = Verdict()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    cli_args = (workloads.TL_FLOW_INI, reference["tl_flow"], RESULTS / f"cli-{tag}")

    clock = calibrate.Clock(calibrate=args.trace == 0)
    passes = measure(workload, args.seconds, clock)
    for p in passes:
        verdict.add_pass(workload, p, reference[args.workload], canonical)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "passes": [{"run_s": p.run_s, "setup_s": p.setup_s, "op_s": p.op_s}
                         for p in passes],
              "items": clock.items, "calibration_blocks": clock.blocks}
    if args.trace == 0:
        setup_items = extra_setups(workload, passes, clock)
        clock.close()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.workload == "tl_flow":
            verdict.add_cli(cli_check(*cli_args))
        metrics, counts, extra = end_to_end(workload, passes, setup_items, clock, rss_mb)
        for line in report_lines(workload, args.seed, args.seconds, metrics,
                                 counts, extra, verdict, canonical, env):
            print(line)
        record.update(metrics=metrics, counts=counts,
                      extra={k: {"value": v, "unit": u, "n": n}
                             for k, (v, u, n) in extra.items()})
    else:
        baseline = statistics.median(p.run_s for p in passes)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.root("pass") as root:
                traced = workload.run_pass()
            verdict.add_cli(cli_check(*cli_args))
        finally:
            tracer.uninstall()
        verdict.add_pass(workload, traced, reference[args.workload], canonical)
        pass_root = tracer.spans.index(root)
        metrics = tracing.layer_metrics(tracer.spans, pass_root,
                                        traced.run_s / baseline - 1.0)
        ranking = sorted(tracing.self_time_by_key(
            tracer.spans, {i for i, s in enumerate(tracer.spans)
                           if s["root"] == pass_root}).items(),
            key=lambda kv: -kv[1])
        print(f"perfbench {args.workload} seed={args.seed} traced pass "
              f"{traced.run_s:.6g} s vs untraced median {baseline:.6g} s "
              f"(n={len(passes)})")
        print("  largest self times in the pass: " + ", ".join(
            f"{k} {v:.4g} s" for k, v in ranking[:6]))
        for key, m in metrics.items():
            print(f"  {key:<32} {m['value']:<14.6g} {m['unit']}")
        print(f"  checks: attempted {verdict.attempted}, failed {verdict.failed}")
        for m in verdict.misses[:20]:
            print(f"  MISS {m}")
        record.update(metrics=metrics, self_time_ranking=ranking, spans=tracer.spans)

    result = {"correct": verdict.failed == 0, "attempted": verdict.attempted,
              "failed": verdict.failed, "metrics": metrics}
    record.update(result=result, misses=verdict.misses)
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n",
                                         encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
