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
