"""The package's export lists name only what exists, its functions read
every parameter they take, only its front end touches file formats, two
constructors build every manifold, no dense eigensolver reads the small
spectrum, one function labels components, and only the labeling asks a
component map for a saddle's sides outside `sublevel`."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import metastab

MODULES = sorted(info.name for info in pkgutil.iter_modules(metastab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"metastab.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing, f"metastab.{name}.__all__ names {missing}"


def test_package_imports_resolve():
    # the package resolves its exports lazily from one table
    table = metastab._EXPORTS
    assert table
    names = [name for names in table.values() for name in names]
    assert metastab.__all__ == names
    for module_name, module_names in table.items():
        module = importlib.import_module(f"metastab.{module_name}")
        for name in module_names:
            assert getattr(metastab, name) is getattr(module, name)
    with pytest.raises(AttributeError):
        metastab.no_such_name


# abstract methods that only raise: their parameters are the interface
ABSTRACT = {("expr", "Node.evaluate")}


def _unread_parameters(module_name):
    """(function, parameter) pairs of `module_name` whose parameter no load
    in the function's body reads.  A starred catch-all such as
    `__exit__(self, *exc_info)` takes what a protocol passes, and is not
    counted."""
    path = pathlib.Path(metastab.__path__[0]) / f"{module_name}.py"
    unread = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = ".".join(scope + [child.name])
                args = child.args
                params = [a.arg for a in
                          args.posonlyargs + args.args + args.kwonlyargs]
                read = {n.id for stmt in child.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Load)}
                if (module_name, name) not in ABSTRACT:
                    unread.extend((name, a) for a in params if a not in read)
                visit(child, scope + [child.name])
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name])
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return unread


@pytest.mark.parametrize("name", MODULES)
def test_every_parameter_is_read(name):
    unread = _unread_parameters(name)
    assert not unread, f"metastab.{name}: parameters never read: {unread}"


@pytest.mark.parametrize("name", [m for m in MODULES if m != "cli"])
def test_file_formats_only_in_cli(name):
    # the spec file is read and the artifacts are written by `cli` alone;
    # every other module takes and returns objects
    tree = ast.parse((pathlib.Path(metastab.__path__[0])
                      / f"{name}.py").read_text())
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module]
    formats = [m for m in imported if m.split(".")[0] in ("json", "csv")]
    assert not formats, f"metastab.{name} imports {formats}"


def callers_of(cls):
    """`module.name` of the top-level statement around each call of `cls`
    in the package."""
    callers = []
    for name in MODULES:
        tree = ast.parse((pathlib.Path(metastab.__path__[0])
                          / f"{name}.py").read_text())
        for stmt in tree.body:
            callers += [f"{name}.{getattr(stmt, 'name', '<module>')}"
                        for node in ast.walk(stmt)
                        if isinstance(node, ast.Call)
                        and cls in (getattr(node.func, "id", None),
                                    getattr(node.func, "attr", None))]
    return sorted(callers)


def test_manifolds_built_by_two_constructors():
    # a sphere is a parametrization: only `manifold_point` and
    # `manifold_parametrized` build a CriticalManifold
    assert callers_of("CriticalManifold") == [
        "manifolds.manifold_parametrized", "manifolds.manifold_point"]


def test_witten_operators_built_by_two_builders():
    # every factor is one WittenOperator: `WittenPieces.operator` builds
    # each grid's, and `assemble_radial` weights its profile's
    assert callers_of("WittenOperator") == [
        "spectral.WittenPieces", "spectral.assemble_radial"]


@pytest.mark.parametrize("name", ["spectral", "quasimodes"])
def test_small_spectrum_only_through_the_factor(name):
    # the values of A^T A far below eps ||A^T A|| survive only in its
    # factor A (`spectral.ritz`); a dense symmetric eigensolver on a Gram
    # matrix loses them.  The Hessians of `manifolds` and `sde` are no
    # Gram matrices and are left alone
    tree = ast.parse((pathlib.Path(metastab.__path__[0])
                      / f"{name}.py").read_text())
    calls = [f"{name}.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and {getattr(node.func, "id", None),
                  getattr(node.func, "attr", None)} & {"eigvalsh", "eigh"}]
    assert not calls, f"dense eigensolver calls: {calls}"


def test_one_labeller():
    # `sublevel._label` labels slab by slab and keeps the labels a caller
    # asks for; an `ndimage.label` call anywhere else would hold a label
    # grid of the whole input
    callers = []
    for name in MODULES:
        tree = ast.parse((pathlib.Path(metastab.__path__[0])
                          / f"{name}.py").read_text())
        imported = [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and (node.module or "").startswith("scipy.ndimage")
                    for alias in node.names]
        assert "label" not in imported, f"metastab.{name} imports label"
        for stmt in tree.body:
            callers += [f"{name}.{getattr(stmt, 'name', '<module>')}"
                        for node in ast.walk(stmt)
                        if isinstance(node, ast.Call)
                        and getattr(node.func, "attr", None) == "label"
                        and getattr(node.func.value, "id", None) == "ndimage"]
    assert callers == ["sublevel._label"]


def test_saddle_sides_owned_by_the_labeling():
    # `sublevel` decides a saddle's sides, and the labeling records them
    # (`LabelingResult.sides`) for every later reader; a `.sides(` call
    # anywhere else would decide them again, in a map of its own
    modules = {caller.split(".")[0] for caller in callers_of("sides")}
    assert modules <= {"sublevel", "labeling"}, callers_of("sides")
