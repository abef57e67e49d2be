"""Every top-level function and class in ``src/`` has a user in the program,
every dataclass field in ``src/`` has a reader there, every option of a
top-level function is set by some call, perfbench's self-test passes, and
README.md names every module, config key, output file and error class.

A reference is an ``ast.Name`` id or ``ast.Attribute`` attr in
``src/perfoplate/*.py`` (``__init__.py`` only re-exports) or
``perfbench/*.py``, outside the name's own definition.  A name nothing
references is dead or a helper only the tests use.  A field is read where
it is loaded as an attribute outside its own class's ``__post_init__``; a
field read only by its own validation is a setting nothing uses.
"""

import ast
import functools
import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = [p for p in sorted((ROOT / "src" / "perfoplate").glob("*.py"))
           if p.name != "__init__.py"]
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
ALLOWED = {"load_mesh"}  # the reader of the files save_mesh writes
# the result record of one frequency solve, read by the tests
ALLOWED_FIELDS = {"MacroSolution.omega", "MacroSolution.Gp", "MacroSolution.Gm"}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced_definitions():
    definitions, uses = [], []  # (path, name); (path, owner, names used)
    for path in PACKAGE + BENCH:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
            if owner is not None and path in PACKAGE:
                definitions.append((path, owner))
            names = {n.id if isinstance(n, ast.Name) else n.attr
                     for n in ast.walk(stmt) if isinstance(n, (ast.Name, ast.Attribute))}
            uses.append((path, owner, names))
    return sorted(name for path, name in definitions
                  if not any(name in names and (p, owner) != (path, name)
                             for p, owner, names in uses))


def test_every_top_level_name_has_a_user_in_the_program():
    assert PACKAGE and BENCH
    unused = [name for name in unreferenced_definitions() if name not in ALLOWED]
    assert not unused, f"top-level names in src/ only tests (or nothing) use: {unused}"


def _is_dataclass(cls):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def unread_dataclass_fields():
    fields, reads = [], []  # (class, field); (attr, class whose __post_init__ holds it)
    for path in PACKAGE + BENCH:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        validation = {}  # id of a node -> its class, for nodes in a __post_init__
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            if path in PACKAGE and _is_dataclass(cls):
                fields += [(cls.name, a.target.id) for a in cls.body
                           if isinstance(a, ast.AnnAssign) and isinstance(a.target, ast.Name)]
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__":
                    validation.update((id(n), cls.name) for n in ast.walk(fn))
        reads += [(n.attr, validation.get(id(n))) for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)]
    return sorted(f"{cls}.{name}" for cls, name in fields
                  if not any(attr == name and owner != cls for attr, owner in reads))


def test_every_dataclass_field_is_read_by_the_program():
    unread = [f for f in unread_dataclass_fields() if f not in ALLOWED_FIELDS]
    assert not unread, f"dataclass fields in src/ nothing outside their validation reads: {unread}"


def test_tracer_patch_targets_resolve():
    """Every (module, attribute) perfbench's tracer patches by name exists,
    so a rename fails here and not only when a traced run installs it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, _, _ in tracing.TARGETS:
        target = functools.reduce(getattr, attr.split("."), importlib.import_module(module))
        assert callable(target), f"{module}.{attr}"


def test_benchmark_selftest_passes():
    """perfbench's self-test (its checks against its stored references and
    BENCHMARK.json, no solver) passes against this tree's imports."""
    result = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr


def direct_linalg_imports():
    """(module, line) of every import in ``src/`` that binds a name from
    inside ``scipy.sparse.linalg`` instead of the module itself."""
    found = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names
                           if alias.name != "scipy.sparse.linalg"]
            else:
                continue
            if any(m == "scipy.sparse.linalg" or m.startswith("scipy.sparse.linalg.")
                   for m in modules):
                found.append((path.name, node.lineno))
    return found


def test_factorizations_go_through_the_linalg_module():
    """Every factorization looks ``splu`` up on ``scipy.sparse.linalg`` at
    call time, so perfbench's tracer attributes it to its layer and the
    tests' ``splu_calls`` fixture counts it; a name imported from the module
    would bypass both."""
    assert not direct_linalg_imports(), direct_linalg_imports()


def defaulted_properties():
    """Every function parameter and dataclass field in ``src/`` named
    ``properties`` that has a default, as ``module:qualified name``."""
    found = []

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                defaulted = positional[len(positional) - len(a.defaults):]
                defaulted += [k for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                if any(arg.arg == "properties" for arg in defaulted):
                    found.append(f"{path.stem}:{prefix}{child.name}")
                visit(path, child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    found.extend(f"{path.stem}:{child.name}.properties" for a in child.body
                                 if isinstance(a, ast.AnnAssign) and a.value is not None
                                 and getattr(a.target, "id", None) == "properties")
                visit(path, child, f"{prefix}{child.name}.")

    for path in PACKAGE:
        visit(path, ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_no_default_fluid():
    """The fluid is passed, never filled in: a default ``properties`` would
    let a check or a solve run with c = 343, tau = 3 in place of the
    configured fluid."""
    assert not defaulted_properties(), f"defaulted fluid: {defaulted_properties()}"


def unset_options():
    """Every defaulted parameter of a top-level function in ``src/`` that no
    call in ``src/``, ``perfbench/`` or ``tests/`` passes, by name or by
    position, as ``module:function(parameter)``.  A call is matched to a
    function by the called name alone; arguments after a ``*args`` and
    through ``**kwargs`` pass nothing."""
    options = []  # (module, function, parameter, position or None)
    for path in PACKAGE:
        for fn in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            options += [(path.stem, fn.name, arg.arg, k)
                        for k, arg in enumerate(positional) if k >= first]
            options += [(path.stem, fn.name, arg.arg, None)
                        for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    passed = set()  # (function, parameter name or position)
    for path in PACKAGE + BENCH + TESTS:
        for call in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            starred = [isinstance(arg, ast.Starred) for arg in call.args] + [True]
            passed.update((name, k) for k in range(starred.index(True)))
            passed.update((name, kw.arg) for kw in call.keywords if kw.arg is not None)
    return [f"{module}:{fn}({param})" for module, fn, param, k in options
            if (fn, param) not in passed and (fn, k) not in passed]


def test_every_option_is_set_somewhere():
    """An option nothing sets is code no run or test takes: each defaulted
    parameter of a top-level function is passed by at least one call."""
    assert not unset_options(), f"options nothing sets: {unset_options()}"


def scatter_bypasses():
    """(module, line, name) of every ``np.add.at`` in ``src/`` and of every
    ``coo_matrix`` or ``coo_array`` (name, attribute or import) outside
    ``fem._scatter``."""
    found = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {id(node) for fn in tree.body
                  if path.name == "fem.py" and getattr(fn, "name", None) == "_scatter"
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "at"
                    and getattr(node.value, "attr", None) == "add"):
                found.append((path.name, node.lineno, "add.at"))
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in ("coo_matrix", "coo_array") and id(node) not in inside:
                found.append((path.name, getattr(node, "lineno", None), name))
    return found


def test_sums_go_through_bincount_or_scatter():
    """Nodal sums are ``np.bincount`` (``np.add.at`` sums in the same order,
    about three times slower), and the only COO matrix is the one
    ``fem._scatter`` converts: K, M and the boundary masses; the periodic
    classes come from one label array, and the advection forms are sums of
    sparse factor products."""
    assert not scatter_bypasses(), scatter_bypasses()


def readme_gaps():
    """What README.md does not state: a module of ``src/perfoplate`` without
    exactly one Layout row, a config key not named as ``[section] key``, an
    output file of the CLI or an exception class of ``src/`` not named."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    gaps = [f"perfoplate.{p.stem}: {n} Layout rows" for p in PACKAGE
            if (n := text.count(f"| `perfoplate.{p.stem}` |")) != 1]
    schema = importlib.import_module("perfoplate.config")._SCHEMA
    gaps += [f"[{section}] {key}" for section, keys in schema.items() for key in keys
             if f"`[{section}] {key}`" not in text]
    cli = ast.parse((ROOT / "src" / "perfoplate" / "cli.py").read_text(encoding="utf-8"))
    files = {n.value for n in ast.walk(cli) if isinstance(n, ast.Constant)
             and isinstance(n.value, str) and re.fullmatch(r"\w+\.(msh|csv|txt|ini|json)", n.value)}
    errors = {cls.name for p in PACKAGE for cls in ast.parse(p.read_text(encoding="utf-8")).body
              if isinstance(cls, ast.ClassDef)
              and any(getattr(b, "id", "").endswith(("Error", "Exception")) for b in cls.bases)}
    gaps += [name for name in sorted(files) if not re.search(rf"\b{re.escape(name)}\b", text)]
    gaps += [name for name in sorted(errors) if f"`{name}`" not in text]
    return gaps


def test_readme_states_every_module_key_file_and_error():
    """README's Layout has one row per module, and the README names each
    config key, each file the CLI writes and each exception class."""
    assert not readme_gaps(), f"missing from README.md: {readme_gaps()}"
