"""The package's export list and its dependencies."""

import ast
import pathlib
import sys

import xwbench


def test_star_import_exports_every_listed_name():
    namespace = {}
    exec("from xwbench import *", namespace)
    assert [name for name in xwbench.__all__ if not hasattr(xwbench, name)] == []
    assert set(xwbench.__all__) <= namespace.keys()


def test_the_package_imports_the_standard_library_alone():
    """Every absolute import in the package, at any depth of any module,
    names a standard-library module: the package stays stdlib-only."""
    outside = []
    for path in sorted(pathlib.Path(xwbench.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_every_error_class_is_raised():
    """Every class of xwbench.errors is raised, by name, somewhere in the
    package: no error class outlives the refusal it was made for."""
    package = pathlib.Path(xwbench.__file__).parent
    defined = [node.name for node in ast.parse((package / "errors.py").read_text("utf-8")).body
               if isinstance(node, ast.ClassDef)]
    raised = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert defined and [name for name in defined if name not in raised] == []
