"""Every function runs in the program's own commands, and every defaulted
parameter and dataclass field of the public API has a caller.

Code that only tests run is not part of the program.  While the hashed
commands of ``scripts/artifact_hashes.py`` and their reruns run in a fresh
process (``record_runs.py``, through the ``hashed_runs`` fixture shared
with ``tests/test_cli.py``, so they run once), ``sys.setprofile`` records
each function of ``src/thinepi`` that is entered.  Every function, method, nested function and lambda defined there
must be among them, unless ``NOT_RUN`` names it with its reason: readers of
a run's files, ops of the benchmark in ``perfbench/workloads.py``, error
paths and test oracles.  A definition is matched by its module, its name
and its first line, so two functions of one name are told apart.

A numerical setting that every caller leaves at one value is a constant,
not a parameter: each unused default is a configuration that no command,
script or benchmark runs.  This test parses ``src/thinepi`` and every call
in ``src/``, ``scripts/`` and ``perfbench/``, and fails when a public
function or method has a defaulted parameter, or a public dataclass a
defaulted ``init`` field, that no such call passes, by keyword or by
position; an option that only tests set fails too.  Calls are matched by
the called name alone, so a call to any function or class of the same name
counts.  A field also counts as set by any ``replace(x, field=...)`` call
(``dataclasses.replace``) and any ``x.field = ...`` assignment, matched by
the field's name alone.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "thinepi"
PROGRAM_DIRS = ("src", "scripts", "perfbench")

# Functions that the hashed commands never enter, each with its reason.
_READER = "reader for users of a run's files"
_BENCHMARK = "benchmark op in perfbench/workloads.py (ROADMAP item 2)"
_ERROR = "error path: names the failure it raises"
_ORACLE = "test oracle"
NOT_RUN = {
    "artifacts.load_manifest": _READER,
    "artifacts.read_csv": _READER,
    "artifacts._parse_cell": _READER,
    "solver.load_solution": _READER,
    "solver.ProblemSpec.from_file": _READER,
    "epiperimetric.verify_epi": _BENCHMARK,
    "frequency.vanishing_on_Zdelta_check": _BENCHMARK,
    "frequency.ZdeltaReport.max_sup_rescaled": _BENCHMARK,
    "frequency.linfty_l2_check": _BENCHMARK,
    "spectral.EigenBasis.reconstruct": _BENCHMARK,
    "traces.SphericalTrace.__add__": _BENCHMARK,
    "traces.TraceBatch.of_trace": _BENCHMARK,
    "traces.trace_from_basis": _BENCHMARK,
    "epiperimetric._admissibility.<locals>.<lambda>": _ERROR,
    "epiperimetric._expand.<locals>.<lambda>": _ERROR,
    "epiperimetric.certify_negative.<locals>.<lambda>": _ERROR,
    "profiles.AdmissibilityReport.failures": _ERROR,
    "spectral.EigenBasis.rayleigh_defect": _ORACLE,
    "spectral._circle_reduced_operator": _ORACLE,
    "profiles.HalfspaceSolution2D.trace_on": _ORACLE,
    "profiles.HalfspaceSolution2D.trace_gradient_on": _ORACLE,
    "profiles._circle_angles": _ORACLE,
    "polynomials.Polynomial.__repr__":
        "display of polynomials in sessions and test failure messages",
    "polynomials.Polynomial.__repr__.<locals>.<lambda>":
        "display of polynomials in sessions and test failure messages",
}

# Parameters kept although no program call sets them, each with its reason.
_SCALE_CENTER = "center of the scale check, an input of the paper's inequality"
_SLOPE_DATA = "validated library input of custom slope data"
ALLOWED = {
    "frequency.vanishing_on_Zdelta_check.x0": _SCALE_CENTER,
    "frequency.linfty_l2_check.x0": _SCALE_CENTER,
    "cli.main.argv": "tests substitute the command line",
    "profiles.make_profile.coefficients": _SLOPE_DATA,
    "profiles.make_profile.normalize": _SLOPE_DATA,
    "frequency.WeissMonotonicityReport.passed.slack":
        "kept until the relative slack of ROADMAP item 14 replaces it",
}


# Dataclass fields kept although no call sets them, each with its reason.
ALLOWED_FIELDS: dict = {}


def _defaulted(args: ast.arguments, skip_first: bool):
    """(name, position or None) of each parameter that has a default."""
    positional = args.posonlyargs + args.args
    first = 1 if skip_first else 0
    defaulted = positional[len(positional) - len(args.defaults):]
    out = [(a.arg, positional.index(a) - first) for a in defaulted]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _public_api():
    """{"module.function": [(parameter, position), ...]} for public
    functions and public methods of public classes."""
    api = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if isinstance(node, ast.FunctionDef):
                api[f"{path.stem}.{node.name}"] = _defaulted(node.args, False)
            else:
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        static = any(isinstance(d, ast.Name)
                                     and d.id == "staticmethod"
                                     for d in item.decorator_list)
                        api[f"{path.stem}.{node.name}.{item.name}"] = \
                            _defaulted(item.args, not static)
    return api


def _caller_trees() -> list:
    """Parsed modules of every folder whose calls count."""
    return [ast.parse(path.read_text(), filename=str(path))
            for folder in PROGRAM_DIRS
            for path in sorted((ROOT / folder).rglob("*.py"))]


def _calls(trees) -> dict:
    """{called name: [(positional count, keyword names), ...]}; a call
    with *args or **kwargs counts as passing everything."""
    calls: dict = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            if name is None:
                continue
            star = (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords))
            npos = 10 ** 6 if star else len(node.args)
            calls.setdefault(name, []).append(
                (npos, {k.arg for k in node.keywords}))
    return calls


def _field_writes(trees) -> list:
    """Sites that set fields of a built object, as calls passing them by
    keyword: the keywords of each ``replace`` call, and the attribute of
    each ``x.field = ...`` target (a subscript store ``x.field[i] = ...``
    mutates the field's value and does not count)."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _name_of(node) == "replace":
                names.update(k.arg for k in node.keywords if k.arg)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
    return [(0, names)]


def _name_of(node) -> str | None:
    """Name of a decorator or of a called function, with or without its
    module prefix."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "attr", getattr(node, "id", None))


def _init_fields(node: ast.ClassDef):
    """(name, position, defaulted) of each ``init`` field of a dataclass
    body; ``field(init=False)`` is no parameter of ``__init__``."""
    out = []
    for item in node.body:
        if (not isinstance(item, ast.AnnAssign)
                or not isinstance(item.target, ast.Name)):
            continue
        value, defaulted = item.value, item.value is not None
        if isinstance(value, ast.Call) and _name_of(value) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            defaulted = "default" in keywords or "default_factory" in keywords
        out.append((item.target.id, len(out), defaulted))
    return out


def _package_trees() -> dict:
    """{module name: parsed module} of the package."""
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _public_fields(modules: dict):
    """{"module.Class": [(field, position), ...]} for the defaulted
    ``init`` fields of public dataclasses of ``modules``."""
    api = {}
    for stem, tree in modules.items():
        for node in tree.body:
            if (isinstance(node, ast.ClassDef)
                    and not node.name.startswith("_")
                    and any(_name_of(d) == "dataclass"
                            for d in node.decorator_list)):
                api[f"{stem}.{node.name}"] = [
                    (name, position)
                    for name, position, defaulted in _init_fields(node)
                    if defaulted]
    return api


def _unset(api: dict, allowed: dict, calls: dict, shared=()) -> list[str]:
    """Entries "qualname.name" of ``api`` that no call of the qualname's
    last part passes, by keyword or by position, nor a ``shared`` site,
    and ``allowed`` does not name."""
    unset = []
    for qualname, params in api.items():
        sites = calls.get(qualname.rsplit(".", 1)[1], []) + list(shared)
        for name, position in params:
            passed = any(name in keywords
                         or (position is not None and npos > position)
                         for npos, keywords in sites)
            if not passed and f"{qualname}.{name}" not in allowed:
                unset.append(f"{qualname}.{name}")
    return unset


def defined_functions() -> dict:
    """{(module, name, first line): "module.qualname"} of every function,
    method, nested function and lambda of the package; the first line is
    that of the first decorator, as in the code object."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                    name = getattr(child, "name", "<lambda>")
                    first = min([child.lineno] + [
                        d.lineno for d in getattr(child, "decorator_list", [])])
                    found[(path.stem, name, first)] = \
                        f"{path.stem}.{prefix}{name}"
                    walk(child, f"{prefix}{name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}{child.name}.")
                else:
                    walk(child, prefix)
        walk(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def never_entered(entered) -> list[str]:
    """Functions of the package whose (module, name, first line) is not in
    ``entered``, "module.qualname" each, sorted."""
    return sorted({qualname for key, qualname in defined_functions().items()
                   if key not in entered})


def unused_parameters() -> list[str]:
    return _unset(_public_api(), ALLOWED, _calls(_caller_trees()))


def unused_fields() -> list[str]:
    trees = _caller_trees()
    return _unset(_public_fields(_package_trees()), ALLOWED_FIELDS,
                  _calls(trees), _field_writes(trees))


def test_every_public_function_has_a_caller_outside_tests(hashed_runs):
    # Every function of the package, public or not, runs in the hashed
    # commands unless NOT_RUN gives its reason; and no function that runs
    # stays on the list.
    missing = never_entered(hashed_runs.entered)
    unlisted = [qualname for qualname in missing if qualname not in NOT_RUN]
    assert not unlisted, ("functions that the program's commands never "
                          "enter:\n" + "\n".join(unlisted))
    ran = [qualname for qualname in NOT_RUN if qualname not in missing]
    assert not ran, "NOT_RUN entries that the commands enter:\n" + "\n".join(ran)


def test_uncalled_list_names_existing_functions():
    defined = set(defined_functions().values())
    for qualname in NOT_RUN:
        assert qualname in defined, qualname


def test_every_defaulted_parameter_has_a_caller():
    unused = unused_parameters()
    assert not unused, ("defaulted parameters that no call sets:\n"
                        + "\n".join(unused))


def test_every_defaulted_field_has_a_caller():
    unused = unused_fields()
    assert not unused, ("defaulted dataclass fields that no call sets:\n"
                        + "\n".join(unused))


def test_allow_list_names_existing_parameters():
    api = _public_api()
    for entry in ALLOWED:
        qualname, name = entry.rsplit(".", 1)
        assert name in {p for p, _ in api.get(qualname, [])}, entry


def test_field_allow_list_names_existing_fields():
    api = _public_fields(_package_trees())
    for entry in ALLOWED_FIELDS:
        qualname, name = entry.rsplit(".", 1)
        assert name in {f for f, _ in api.get(qualname, [])}, entry


def cli_default_copies() -> list[str]:
    """Defaults of ``cli.py`` written outside its parameter table: each
    ``params.get`` call and each ``add_argument`` with a literal default."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr == "get" and _name_of(node.func.value) == "params":
            found.append((node.lineno, "params.get"))
        elif node.func.attr == "add_argument" and any(
                k.arg == "default" and isinstance(k.value, ast.Constant)
                for k in node.keywords):
            found.append((node.lineno, "add_argument default"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_cli_defaults_are_written_once():
    # A subcommand's defaults live in ``cli.PARAMS``, which the parser and
    # the runs both read; a second copy can drift from the first.
    found = cli_default_copies()
    assert not found, ("CLI defaults outside the parameter table:\n"
                       + "\n".join(found))


_SYNTHETIC = """
from dataclasses import dataclass, replace


@dataclass
class Report:
    built: int = 0
    replaced: int = 0
    assigned: int = 0
    mutated: list = None


def use(values):
    report = Report(1)
    report = replace(report, replaced=2)
    report.assigned = 3
    report.mutated[0] = values.replace("mutated", "")
"""


def test_fields_set_after_construction_count_as_set():
    tree = ast.parse(_SYNTHETIC)
    api = _public_fields({"synthetic": tree})
    calls = _calls([tree])
    assert _unset(api, {}, calls) == [
        "synthetic.Report.replaced", "synthetic.Report.assigned",
        "synthetic.Report.mutated"]
    assert _unset(api, {}, calls, _field_writes([tree])) == [
        "synthetic.Report.mutated"]
