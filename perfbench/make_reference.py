"""Regenerate perfbench/reference.json from one canonical (seed 0) pass of
every workload.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are the accepted ones: the checks in
run.py compare every later run against this file.  BLAS is pinned to one
thread, as in run.py, so the references match the benchmark's own runs.
"""

from __future__ import annotations

import json
import sys

import run  # pins BLAS threads before numpy is imported


def main():
    sys.path.insert(0, str(run.SRC))
    import workloads

    reference = {}
    for name in workloads.NAMES:
        result = workloads.make(name, 0).run_pass()
        reference[name] = [{k: r[k] for k in ("key", "values", "error")}
                           for r in result.records]
        errors = sum(1 for r in result.records if r["error"])
        print(f"{name}: {len(result.records)} records, {errors} failures, "
              f"{result.run_s:.3f} s", file=sys.stderr)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(path)


if __name__ == "__main__":
    main()
