"""In-memory span tracing at perfoplate's layer boundaries.

`Tracer.install` wraps each layer's public function at every name a caller
looks it up by (the defining module, the modules that imported it by name,
and the package namespace), plus `scipy.sparse.linalg.splu`, which every
factorization in perfoplate goes through.  Each span keeps its name, start,
end, parent and root (the pass or CLI call it belongs to), so self times and
per-layer totals are computed after the run.  Nothing is patched until
`install` is called, and `uninstall` restores every original binding.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

# Spans named by their parent's layer: a factorization is attributed to the
# span that requested it (cell operator, macro frequency solve, flow solve).
FACTOR = "splu"


def _mesh_attrs(mesh):
    return {"nodes": mesh.num_nodes, "cells": mesh.num_cells}


def _flow_attrs(flow):
    limit = flow.properties.mach_speed_limit
    return {"mach_margin": 1.0 - flow.max_speed() / limit}


def _system_attrs(result):
    matrix = result[0]
    return {"dofs": matrix.shape[0], "nnz": matrix.nnz}


def _run_attrs(run):
    return {"distinct": len(run.table.by_speed), "elements": len(run.table.element_u3)}


def _lu_attrs(lu):
    return {"fill": lu.L.nnz + lu.U.nnz}


def _report_attrs(report):
    return {"defect": report.max_defect}


# (module, attribute, span name, attributes taken from the result)
TARGETS = (
    ("perfoplate.cell_mesh", "generate_unit_cell_mesh", "cell_mesh.generate", _mesh_attrs),
    ("perfoplate.duct_mesh", "generate_waveguide_mesh", "duct_mesh.generate", _mesh_attrs),
    ("perfoplate.mesh", "detect_periodic_pairs", "mesh.periodic_pairs", None),
    ("perfoplate.mesh", "save_mesh", "mesh.save", None),
    ("perfoplate.fem", "p1_geometry", "fem.p1_geometry", None),
    ("perfoplate.fem", "periodic_reduction", "fem.periodic_reduction", None),
    ("perfoplate.flow", "solve_cell_potential_flow", "flow.cell_solve", _flow_attrs),
    ("perfoplate.flow", "solve_macro_potential_flow", "flow.macro_solve", _flow_attrs),
    ("perfoplate.cell_problems", "solve_cell_problems", "cell_problems.solve", None),
    ("perfoplate.cell_problems", "assemble_Aw", "cell_problems.assemble_Aw", None),
    ("perfoplate.cell_problems", "CellOperator.solve", "cell_problems.corrector_solve", None),
    ("perfoplate.coefficients", "compute_coefficients", "coefficients.compute", None),
    ("perfoplate.coefficients", "verify_symmetries", "coefficients.verify", _report_attrs),
    ("perfoplate.coefficients", "cell_pipeline", "coefficients.cell_pipeline", None),
    ("perfoplate.pipeline", "setup_waveguide_run", "pipeline.setup", _run_attrs),
    ("perfoplate.pipeline", "build_interface_coefficients",
     "pipeline.interface_coefficients", None),
    ("perfoplate.pipeline", "tl_curve", "pipeline.tl_curve", None),
    ("perfoplate.waveguide", "assemble_coupled_system", "waveguide.assemble", _system_attrs),
    ("perfoplate.waveguide", "solve_frequency", "waveguide.solve_frequency", None),
    ("perfoplate.waveguide", "transmission_loss", "waveguide.transmission_loss", None),
    ("perfoplate.cli", "main", "cli.main", None),
    ("scipy.sparse.linalg", "splu", FACTOR, _lu_attrs),
)

# Layers of the cell scale (3D corrector work) for the pass-share metric.
CELL_LAYERS = ("cell_mesh", "flow.cell_solve", "cell_problems", "coefficients",
               "pipeline.interface_coefficients")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        root = self.spans[parent]["root"] if parent is not None else len(self.spans)
        span = {"name": name, "parent": parent, "root": root,
                "start": perf_counter(), "end": None, "error": None, "attrs": {}}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span["end"] = perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name):
        """A top-level span grouping one pass of the workload."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name, fn, attrs=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if attrs is not None:
                span["attrs"] = attrs(result)
            return result
        return traced

    def install(self):
        for modname, attr, name, attrs in TARGETS:
            module = importlib.import_module(modname)
            if "." in attr:  # a method, patched on its class
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, meth, self.wrap(name, getattr(owner, meth), attrs))
                continue
            fn = getattr(module, attr)
            wrapper = self.wrap(name, fn, attrs)
            for mod in [module] + _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, key, value):
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "perfoplate" or n.startswith("perfoplate."))]


# -- metrics ---------------------------------------------------------------

def _duration(span):
    return span["end"] - span["start"]


def self_times(spans):
    """Duration of each span minus the time covered by its direct children."""
    out = [_duration(s) for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= _duration(s)
    return out


def span_key(spans, span):
    """Metric key of a span; factorizations take their parent's layer."""
    if span["name"] != FACTOR:
        return span["name"]
    parent = spans[span["parent"]]["name"] if span["parent"] is not None else "none"
    return parent.split(".")[0] + ".factor"


def self_time_by_key(spans, selected=None):
    selves = self_times(spans)
    totals = {}
    for i, s in enumerate(spans):
        if selected is None or i in selected:
            key = span_key(spans, s)
            totals[key] = totals.get(key, 0.0) + selves[i]
    return totals


def _in_layers(name, layers):
    return any(name == p or name.startswith(p + ".") for p in layers)


def inclusive_share(spans, root, layers):
    """Share of a root span's time spent in the given layers (outermost
    matching spans only, so nested time is counted once)."""
    total = 0.0
    for s in spans:
        if s["root"] != root or not _in_layers(s["name"], layers):
            continue
        parent, nested = s["parent"], False
        while parent is not None:
            if _in_layers(spans[parent]["name"], layers):
                nested = True
                break
            parent = spans[parent]["parent"]
        if not nested:
            total += _duration(s)
    return total / _duration(spans[root])


# (metric, unit, better); computed by layer_metrics below
PER_LAYER = (
    ("cell_mesh.generate_s", "s", "lower"),
    ("cell_mesh.nodes", "count", "lower"),
    ("cell_mesh.tets", "count", "lower"),
    ("duct_mesh.generate_s", "s", "lower"),
    ("duct_mesh.nodes", "count", "lower"),
    ("mesh.periodic_pairs_s", "s", "lower"),
    ("mesh.save_s", "s", "lower"),
    ("flow.cell_solve_s", "s", "lower"),
    ("flow.cell_solves", "count", "lower"),
    ("flow.factor_s", "s", "lower"),
    ("flow.macro_solve_s", "s", "lower"),
    ("flow.mach_margin_min", "ratio", "higher"),
    ("fem.p1_geometry_calls", "count", "lower"),
    ("fem.p1_geometry_s", "s", "lower"),
    ("fem.periodic_reduction_calls", "count", "lower"),
    ("fem.periodic_reduction_s", "s", "lower"),
    ("cell_problems.operator_s", "s", "lower"),
    ("cell_problems.factor_s", "s", "lower"),
    ("cell_problems.factorizations", "count", "lower"),
    ("cell_problems.lu_fill_nnz", "count", "lower"),
    ("cell_problems.corrector_solves", "count", "lower"),
    ("cell_problems.corrector_solve_s", "s", "lower"),
    ("cell_problems.mach_rejections", "count", "lower"),
    ("coefficients.compute_s", "s", "lower"),
    ("coefficients.verify_s", "s", "lower"),
    ("coefficients.max_defect", "ratio", "lower"),
    ("pipeline.distinct_cell_solves", "count", "lower"),
    ("pipeline.interface_elements", "count", "higher"),
    ("pipeline.dedup_ratio", "ratio", "higher"),
    ("waveguide.assemble_s", "s", "lower"),
    ("waveguide.assemble_calls", "count", "lower"),
    ("waveguide.factor_s", "s", "lower"),
    ("waveguide.solve_self_s", "s", "lower"),
    ("waveguide.lu_fill_nnz", "count", "lower"),
    ("waveguide.dofs", "count", "lower"),
    ("waveguide.matrix_nnz", "count", "lower"),
    ("waveguide.tl_eval_s", "s", "lower"),
    ("cli.command_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("pass.cell_share", "ratio", "lower"),
    ("pass.waveguide_share", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def layer_metrics(spans, pass_root, overhead_frac):
    """Every PER_LAYER metric from the spans of one traced section.

    Times and counts are totals over the whole section (one workload pass
    and one `perfoplate waveguide` call), sizes (nodes, fill, dofs) and the
    defect are the largest seen, the margin the smallest; the two shares
    cover the pass alone.
    """
    selves = self_time_by_key(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(_duration(s) for s in named(name))

    def largest(name, key, default=0):
        return max((s["attrs"][key] for s in named(name) if key in s["attrs"]),
                   default=default)

    factors = {}
    for s in spans:
        if s["name"] == FACTOR:
            factors.setdefault(span_key(spans, s), []).append(s)
    cell_lu = factors.get("cell_problems.factor", [])
    macro_lu = factors.get("waveguide.factor", [])
    flows = named("flow.cell_solve") + named("flow.macro_solve")
    distinct = sum(s["attrs"]["distinct"] for s in named("pipeline.setup"))
    elements = sum(s["attrs"]["elements"] for s in named("pipeline.setup"))
    values = {
        "cell_mesh.generate_s": total("cell_mesh.generate"),
        "cell_mesh.nodes": largest("cell_mesh.generate", "nodes"),
        "cell_mesh.tets": largest("cell_mesh.generate", "cells"),
        "duct_mesh.generate_s": total("duct_mesh.generate"),
        "duct_mesh.nodes": largest("duct_mesh.generate", "nodes"),
        "mesh.periodic_pairs_s": total("mesh.periodic_pairs"),
        "mesh.save_s": total("mesh.save"),
        "flow.cell_solve_s": total("flow.cell_solve"),
        "flow.cell_solves": len(named("flow.cell_solve")),
        "flow.factor_s": sum(_duration(s) for s in factors.get("flow.factor", [])),
        "flow.macro_solve_s": total("flow.macro_solve"),
        "flow.mach_margin_min": min((s["attrs"]["mach_margin"] for s in flows
                                     if s["attrs"]), default=1.0),
        "fem.p1_geometry_calls": len(named("fem.p1_geometry")),
        "fem.p1_geometry_s": total("fem.p1_geometry"),
        "fem.periodic_reduction_calls": len(named("fem.periodic_reduction")),
        "fem.periodic_reduction_s": total("fem.periodic_reduction"),
        "cell_problems.operator_s": selves.get("cell_problems.assemble_Aw", 0.0),
        "cell_problems.factor_s": sum(_duration(s) for s in cell_lu),
        "cell_problems.factorizations": len(cell_lu),
        "cell_problems.lu_fill_nnz": max((s["attrs"]["fill"] for s in cell_lu), default=0),
        "cell_problems.corrector_solves": len(named("cell_problems.corrector_solve")),
        "cell_problems.corrector_solve_s": total("cell_problems.corrector_solve"),
        "cell_problems.mach_rejections": sum(
            1 for s in named("cell_problems.assemble_Aw") if s["error"] == "MachBoundError"),
        "coefficients.compute_s": total("coefficients.compute"),
        "coefficients.verify_s": total("coefficients.verify"),
        "coefficients.max_defect": largest("coefficients.verify", "defect", default=0.0),
        "pipeline.distinct_cell_solves": distinct,
        "pipeline.interface_elements": elements,
        "pipeline.dedup_ratio": elements / distinct if distinct else 0.0,
        "waveguide.assemble_s": total("waveguide.assemble"),
        "waveguide.assemble_calls": len(named("waveguide.assemble")),
        "waveguide.factor_s": sum(_duration(s) for s in macro_lu),
        "waveguide.solve_self_s": selves.get("waveguide.solve_frequency", 0.0),
        "waveguide.lu_fill_nnz": max((s["attrs"]["fill"] for s in macro_lu), default=0),
        "waveguide.dofs": largest("waveguide.assemble", "dofs"),
        "waveguide.matrix_nnz": largest("waveguide.assemble", "nnz"),
        "waveguide.tl_eval_s": total("waveguide.transmission_loss"),
        "cli.command_s": total("cli.main"),
        "cli.self_s": selves.get("cli.main", 0.0),
        "pass.cell_share": inclusive_share(spans, pass_root, CELL_LAYERS),
        "pass.waveguide_share": inclusive_share(spans, pass_root, ("waveguide",)),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
