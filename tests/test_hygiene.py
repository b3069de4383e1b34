"""Source hygiene: every name a module of the package imports is used in it,
importing the package pulls in numpy and the stdlib only, a process,
instrument or POVM is judged under its own Tolerances, never under a tol
passed per call, only Tolerances and _slack read eq_tol, no check
floors the slack with max() or scales it by a literal, no tolerance-sized
float literal lives outside Tolerances, only operators._EPS reads machine
epsilon, only operators._validated tests for an observable or state type,
only operators._as_array converts a raw value to an array of a given dtype,
only the readers operators._number and _choice test a scalar for a bool
or an option for membership in a literal list of strings, and a seeded
sweep trial stays within its budget of library calls and builds no
composite-space operator.

Stdlib ast scans, so they need no linter. __init__.py is skipped by the
import scan, since its imports are the package's re-exports, and so is the
__future__ import of annotations.
"""

import ast
import glob
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "qmeasure")
MODULES = sorted(p for p in glob.glob(os.path.join(SRC, "*.py"))
                 if os.path.basename(p) != "__init__.py")


def unused_imports(path: str) -> list:
    """Names bound by the module's imports that no Name node reads."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names} - {"annotations"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_finds_an_unused_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\nimport os\nimport numpy as np\n"
                    "from a.b import c, d\n\nx = np.zeros(c)\n")
    assert unused_imports(str(path)) == ["d", "os"]


def test_runtime_imports_are_numpy_only():
    # modules loaded before the import (site-packages may preload some) do not count
    code = ("import json, sys\n"
            "before = set(sys.modules)\n"
            "import qmeasure, qmeasure.cli\n"
            "new = {name.split('.')[0] for name in set(sys.modules) - before}\n"
            "print(json.dumps(sorted(new - set(sys.stdlib_module_names) - {'numpy', 'qmeasure'})))")
    path = os.pathsep.join(filter(None, [os.path.dirname(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    assert json.loads(out) == []


JUDGED = ("MeasuringProcess", "CPInstrument")


def tol_overrides(path: str) -> list:
    """Public functions whose first parameter is annotated MeasuringProcess
    or CPInstrument (alone or in a union), and public methods of those
    classes and of POVM, that take a tol parameter."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    candidates = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.args.args:
            first = node.args.args[0].annotation
            names = {sub.id for sub in ast.walk(first or ast.Pass()) if isinstance(sub, ast.Name)}
            if names & set(JUDGED):
                candidates.append((node.name, node))
        elif isinstance(node, ast.ClassDef) and node.name in JUDGED + ("POVM",):
            candidates.extend((f"{node.name}.{f.name}", f) for f in node.body
                              if isinstance(f, ast.FunctionDef))
    return sorted(name for name, f in candidates
                  if not name.split(".")[-1].startswith("_")
                  and "tol" in [a.arg for a in f.args.args + f.args.kwonlyargs])


@pytest.mark.parametrize("module", ["instruments", "edr", "jpd"])
def test_judged_objects_take_no_tol(module):
    assert tol_overrides(os.path.join(SRC, module + ".py")) == []


def test_scan_finds_a_tol_override(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def f(mp: MeasuringProcess, a, tol=None): pass\n"
                    "def g(inst: CPInstrument, *, tol=None): pass\n"
                    "def u(src: MeasuringProcess | CPInstrument, tol=None): pass\n"
                    "def h(a, tol=None): pass\n"
                    "def _k(mp: MeasuringProcess, tol=None): pass\n"
                    "class POVM:\n"
                    "    def __init__(self, effects, tol=None): pass\n"
                    "    def probabilities(self, rho, tol=None): pass\n")
    assert tol_overrides(str(path)) == ["POVM.probabilities", "f", "g", "u"]


# the top-level definitions allowed to read eq_tol, per module: every other
# check counts a quantity as zero through operators._slack
EQ_TOL_READERS = {"operators.py": ("Tolerances", "_slack")}


def eq_tol_reads(path: str, allowed=()) -> list:
    """Top-level definitions outside allowed that read an eq_tol attribute,
    "<module>" for module-level code."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = set()
    for node in tree.body:
        name = getattr(node, "name", "<module>")
        if name not in allowed and any(
                isinstance(sub, ast.Attribute) and sub.attr == "eq_tol"
                and isinstance(sub.ctx, ast.Load) for sub in ast.walk(node)):
            found.add(name)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_only_slack_reads_eq_tol(path):
    assert eq_tol_reads(path, EQ_TOL_READERS.get(os.path.basename(path), ())) == []


def test_scan_finds_an_eq_tol_read(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("class Tolerances:\n"
                    "    def __post_init__(self):\n        assert self.eq_tol > 0\n"
                    "def _slack(tol): return tol.eq_tol\n"
                    "def f(tol): return max(tol.eq_tol, 1e-8)\n"
                    "class C:\n    def g(self): return {'eq_tol': self.tol.eq_tol}\n"
                    "def h(tol): return {'eq_tol': 1}\n"
                    "x = DEFAULT_TOL.eq_tol\n")
    assert eq_tol_reads(str(path), ("Tolerances", "_slack")) == ["<module>", "C", "f"]


def _calls(node, name: str) -> list:
    return [sub for sub in ast.walk(node) if isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name) and sub.func.id == name]


def _scales_slack(node) -> bool:
    """Whether node multiplies a _slack(...) call by a numeric literal."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and any(
        isinstance(x, ast.Constant) and type(x.value) in (int, float) and _calls(y, "_slack") == [y]
        for x, y in ((node.left, node.right), (node.right, node.left)))


def slack_floors(path: str) -> list:
    """Top-level definitions with a max(...) call that takes a _slack(...)
    call among its arguments, or with a numeric literal times a _slack(...)
    call, "<module>" for module-level code: no check widens the slack."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = set()
    for node in tree.body:
        if any(_calls(arg, "_slack") for call in _calls(node, "max") for arg in call.args) \
                or any(map(_scales_slack, ast.walk(node))):
            found.add(getattr(node, "name", "<module>"))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_floor_on_slack(path):
    assert slack_floors(path) == []


def test_scan_finds_a_slack_floor(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def f(tol): return max(_slack(tol), 1e-8)\n"
                    "def g(tol): return max(2 * _slack(tol, terms=4), 1e-9)\n"
                    "def h(tol): return max(tol.psd_tol, 0.0) + _slack(tol)\n"
                    "def check_repeatability(tol): return max(_slack(tol), 1e-8)\n"
                    "class C:\n    def k(self): return max(_slack(self.tol), 1e-8)\n"
                    "x = max(_slack(DEFAULT_TOL), 1.0)\n")
    assert slack_floors(str(path)) == ["<module>", "C", "check_repeatability", "f", "g"]


def test_scan_finds_a_literal_multiple_of_slack(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def f(tol, w): return 1e3 * _slack(tol, w)\n"
                    "def g(tol): return _slack(tol, terms=4) * 2\n"
                    "def h(tol, w): return len(w) * _slack(tol, 1.0, len(w))\n"
                    "def k(tol): return 2 * _slack(tol) + 0.5 * 3\n"
                    "class C:\n    def m(self): return 10 * _slack(self.tol)\n"
                    "y = 16 * _EPS * 2\n")
    assert slack_floors(str(path)) == ["C", "f", "g", "k"]


# the top-level definitions allowed to hold a float literal below 1e-3 in
# modulus, per module: the defaults of Tolerances; every other tolerance is
# derived from a Tolerances through _slack
SMALL_FLOAT_HOMES = {"operators.py": ("Tolerances",)}


def small_float_literals(path: str, allowed=()) -> list:
    """(definition, value) of every float or complex literal x with
    0 < |x| < 1e-3 in a top-level definition outside allowed, "<module>"
    for module-level code."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for node in tree.body:
        name = getattr(node, "name", "<module>")
        if name not in allowed:
            found.extend((name, sub.value) for sub in ast.walk(node)
                         if isinstance(sub, ast.Constant) and type(sub.value) in (float, complex)
                         and 0 < abs(sub.value) < 1e-3)
    return sorted(found, key=repr)


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_no_literal_tolerances(path):
    assert small_float_literals(path, SMALL_FLOAT_HOMES.get(os.path.basename(path), ())) == []


def test_scan_finds_a_literal_tolerance(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("class Tolerances:\n    eq_tol: float = 1e-9\n    psd_tol: float = -1e-10\n"
                    "class Subspace:\n    def check(self, g): return g > 1e-8\n"
                    "def f(x): return x < -2.5e-4 or x == 1e-12j\n"
                    "def g(x): return x * 1e-3 + 0.5 + 0.0 + 3 + (1 > 0)\n"
                    "EPS = 1e-15\n")
    assert small_float_literals(str(path), ("Tolerances",)) == [
        ("<module>", 1e-15), ("Subspace", 1e-08), ("f", 0.00025), ("f", 1e-12j)]


# the top-level statements allowed to call finfo, per module: the definition
# of _EPS, the one machine epsilon every other reader imports
FINFO_HOMES = {"operators.py": ("_EPS",)}


def finfo_reads(path: str, allowed=()) -> list:
    """Top-level statements outside allowed that read a finfo name or
    attribute: a definition by its name, an assignment to one name by that
    name, "<module>" for other module-level code."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = set()
    for node in tree.body:
        name = getattr(node, "name", "<module>")
        if isinstance(node, ast.Assign) and [type(t) for t in node.targets] == [ast.Name]:
            name = node.targets[0].id
        if name not in allowed and any(
                getattr(sub, "attr", getattr(sub, "id", None)) == "finfo"
                for sub in ast.walk(node) if isinstance(sub, (ast.Attribute, ast.Name))):
            found.add(name)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_only_eps_reads_finfo(path):
    assert finfo_reads(path, FINFO_HOMES.get(os.path.basename(path), ())) == []


def test_scan_finds_a_finfo_read(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import numpy as np\nfrom numpy import finfo\n"
                    "_EPS = float(np.finfo(float).eps)\n"
                    "def f(w, d): return w > d * np.finfo(float).eps\n"
                    "class C:\n    def g(self): return finfo(float).tiny\n"
                    "def h(w, d): return w > d * _EPS\n"
                    "EPS = TINY = np.finfo(float).eps\n")
    assert finfo_reads(str(path), ("_EPS",)) == ["<module>", "C", "f"]


# the top-level definitions allowed to test an argument for an observable or
# state type, per module: _validated, the one way such an argument enters
# (through its kind parameter)
TYPE_TESTS = {"operators.py": ("_validated",)}
OPERATOR_TYPES = {"HermitianObservable", "DensityOperator"}


def operator_type_tests(path: str, allowed=()) -> list:
    """Top-level definitions outside allowed with an isinstance call whose
    class argument names HermitianObservable or DensityOperator, "<module>"
    for module-level code."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = set()
    for node in tree.body:
        name = getattr(node, "name", "<module>")
        if name not in allowed and any(
                getattr(sub, "id", getattr(sub, "attr", None)) in OPERATOR_TYPES
                for call in _calls(node, "isinstance") for arg in call.args[1:]
                for sub in ast.walk(arg)):
            found.add(name)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_only_validated_tests_operator_types(path):
    assert operator_type_tests(path, TYPE_TESTS.get(os.path.basename(path), ())) == []


def test_scan_finds_an_operator_type_test(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def _validated(x, kind, tol):\n"
                    "    return x if isinstance(x, kind) else kind(x, tol)\n"
                    "def _as_matrix(x):\n"
                    "    return x.matrix if isinstance(x, (HermitianObservable, DensityOperator)) else x\n"
                    "def f(rho):\n"
                    "    return rho if isinstance(rho, DensityOperator) else rho.matrix\n"
                    "class C:\n"
                    "    def g(self, a): return isinstance(a, qm.HermitianObservable)\n"
                    "def h(mp): return isinstance(mp, MeasuringProcess) and DensityOperator(mp)\n"
                    "ok = isinstance(1, int) or isinstance(2, (int, HermitianObservable))\n")
    assert operator_type_tests(str(path), ("_validated", "_as_matrix")) == ["<module>", "C", "f"]


# the top-level definitions allowed to convert a value to an array of a given
# dtype, per module: _as_array, the one way a raw array enters, and the
# codecs that read JSON values (raising SchemaError) or sort numbers
CONVERTERS = {"operators.py": ("_as_array", "_cluster_labels"),
              "serialize.py": ("matrix_to_json", "matrix_from_json")}


def _converts_a_name(node) -> bool:
    """Whether node is an np.array or np.asarray call given a dtype, or an
    .astype call, applied to a name."""
    if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
        return False
    if node.func.attr == "astype":
        return isinstance(node.func.value, ast.Name)
    return node.func.attr in ("array", "asarray") and bool(node.args) \
        and isinstance(node.args[0], ast.Name) \
        and (len(node.args) > 1 or any(k.arg == "dtype" for k in node.keywords))


def dtype_conversions(path: str, allowed=()) -> list:
    """Top-level definitions outside allowed that convert a name (an argument,
    or a local holding one) to an array of a given dtype, "<module>" for
    module-level code."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    return sorted({getattr(node, "name", "<module>") for node in tree.body
                   if getattr(node, "name", "<module>") not in allowed
                   and any(map(_converts_a_name, ast.walk(node)))})


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_only_as_array_converts_raw_values(path):
    assert dtype_conversions(path, CONVERTERS.get(os.path.basename(path), ())) == []


def test_scan_finds_a_dtype_conversion(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import numpy as np\n"
                    "def _as_array(x): return np.array(x, dtype=complex)\n"
                    "def f(mean): return np.array(mean, dtype=float)\n"
                    "def g(cov): return np.asarray(cov, float)\n"
                    "class C:\n"
                    "    def h(self, s):\n        s = np.asarray(s)\n        return s.astype(float)\n"
                    "class D:\n"
                    "    def __array__(self, dtype=None): return np.asarray(self.m, dtype=dtype)\n"
                    "def k(x): return np.array(x), np.asarray([1, 2], dtype=float), np.zeros(2, dtype=int)\n"
                    "y = np.asarray(X, dtype=complex)\n")
    assert dtype_conversions(str(path), ("_as_array",)) == ["<module>", "C", "f", "g"]


# where scalar and option arguments are read, per module: only operators.py
# imports numbers or math (for _number); only _number tests for a bool, and
# _csv_cell, which writes one; only _choice tests membership in a literal
# tuple or list of strings, and _as_array, in its dtype kinds
SCALAR_READERS = {"operators.py": {"import": True, "bool": ("_number",),
                                   "choice": ("_choice", "_as_array")},
                  "serialize.py": {"bool": ("_csv_cell",)}}


def _tests_for_bool(node) -> bool:
    return any(isinstance(sub, ast.Name) and sub.id == "bool"
               for call in _calls(node, "isinstance") for arg in call.args[1:]
               for sub in ast.walk(arg))


def _tests_string_membership(node) -> bool:
    return any(isinstance(sub, ast.Compare) and any(
        isinstance(op, (ast.In, ast.NotIn)) and isinstance(right, (ast.Tuple, ast.List, ast.Set))
        and right.elts and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                               for e in right.elts)
        for op, right in zip(sub.ops, sub.comparators)) for sub in ast.walk(node))


def scalar_reads(path: str, allowed=None) -> list:
    """("import", module) for each import of numbers or math unless
    allowed["import"], and ("bool", definition) or ("choice", definition)
    for each top-level definition outside allowed["bool"] or
    allowed["choice"] with an isinstance test against bool, or with an in
    or not in test against a literal tuple, list or set of strings;
    "<module>" for module-level code."""
    allowed = allowed or {}
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = set()
    if not allowed.get("import"):
        for node in ast.walk(tree):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else \
                [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            found.update(("import", n) for n in names if n.split(".")[0] in ("numbers", "math"))
    for node in tree.body:
        name = getattr(node, "name", "<module>")
        for kind, test in (("bool", _tests_for_bool), ("choice", _tests_string_membership)):
            if name not in allowed.get(kind, ()) and test(node):
                found.add((kind, name))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_only_readers_read_scalars(path):
    assert scalar_reads(path, SCALAR_READERS.get(os.path.basename(path))) == []


def test_scan_finds_a_scalar_read(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import math\nimport numbers\nfrom math import isfinite\nimport numpy as np\n"
                    "def _number(x):\n"
                    "    if isinstance(x, bool) or not isinstance(x, numbers.Real): raise TypeError\n"
                    "def _choice(x, options):\n    return x if x in options else None\n"
                    "def f(eps): return isinstance(eps, (int, bool))\n"
                    "def g(mode): return mode not in ('strong', 'weak')\n"
                    "def h(keep): return keep in ['first', 2] or keep == 'first' or keep in 'ab'\n"
                    "def k(x): return isinstance(x, (int, np.integer)) and x in (1, 2)\n"
                    "class C:\n    def m(self, kind): return kind in {'edr', 'precision'}\n"
                    "ok = isinstance(1, bool)\n"
                    "for key in ('a', 'b'): pass\n")
    assert scalar_reads(str(path), {"bool": ("_number",)}) == [
        ("bool", "<module>"), ("bool", "f"), ("choice", "C"), ("choice", "g"),
        ("import", "math"), ("import", "numbers")]


def library_calls(fn, *args, **kwargs) -> int:
    """Number of call and c_call events that sys.setprofile sees during
    fn(*args, **kwargs) whose calling frame runs in a qmeasure module: the library's
    own calls, whatever numpy does inside the ones it makes."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        caller = frame.f_back if event == "call" else frame
        if event in ("call", "c_call") and caller is not None \
                and caller.f_globals.get("__name__", "").startswith("qmeasure"):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return count


# library calls per dims 2..4 sweep trial: a trial of about 1.3 ms is call
# overhead more than linear algebra, so an added call shows in its time. The
# count is 719.95 calls per trial on CPython 3.11.7 with numpy 2.4.6, 8.7
# calls under the bound of 1.05 * 694. CPython 3.12 inlines comprehensions,
# which only removes events, so the bound holds there too.
SWEEP_TRIAL_CALLS = 694


def test_sweep_trial_call_budget():
    from qmeasure.sweep import run_sweep
    run_sweep(dims=(2, 4), trials=5, seed=7, collect=True)  # warm-up: lazy imports, first-call paths
    calls = library_calls(run_sweep, dims=(2, 4), trials=40, seed=7, collect=True)
    assert calls / 40 <= 1.05 * SWEEP_TRIAL_CALLS


@pytest.mark.parametrize("body", ["return abs(abs(x))", "return one(x) + 0"])
def test_call_counter_sees_one_added_call(body):
    ns = {"__name__": "qmeasure.control"}
    exec(f"def one(x):\n    return abs(x)\ndef two(x):\n    {body}\n", ns)
    assert library_calls(ns["two"], -1) - library_calls(ns["one"], -1) == 1


def composite_calls(fn, *args, **kwargs) -> list:
    """Names of the composite-space constructors that run during fn(*args, **kwargs),
    in call order: operators.tensor and MeasuringProcess's composite_state,
    embedded_system, evolved_meter and evolved_system, seen by sys.setprofile."""
    from qmeasure import MeasuringProcess, operators
    codes = {f.__code__ for f in (operators.tensor, MeasuringProcess.composite_state,
                                  MeasuringProcess.embedded_system, MeasuringProcess.evolved_meter,
                                  MeasuringProcess.evolved_system)}
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return seen


@pytest.mark.parametrize("interaction, dims", [("haar", (2, 4)), ("identity", (2, 3))],
                         ids=["haar", "identity"])
def test_sweep_trial_builds_no_composite_operator(interaction, dims):
    # every figure of a trial is read from the process's labelled Kraus stack, so
    # no trial builds M(dt) or any other n x n composite operator
    from qmeasure.sweep import run_sweep
    assert composite_calls(run_sweep, dims=dims, trials=40, seed=7, interaction=interaction,
                           collect=True) == []


def test_composite_call_watch_sees_m_dt():
    import qmeasure as qm
    mp = qm.random_measuring_process(2, 3, qm.rng_from(7, 0))
    assert composite_calls(mp.evolved_meter) == ["evolved_meter", "tensor"]
    assert composite_calls(mp.evolved_system, [[1.0, 0.0], [0.0, -1.0]]) == [
        "evolved_system", "embedded_system", "tensor"]
