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


def test_the_readmes_python_api_example_runs(tmp_path, monkeypatch):
    """The README's Python API block runs as written, in an empty directory,
    its engine comparison included."""
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text(encoding="utf-8").partition("\n## Python API\n")[2]
    block = section.partition("```python\n")[2].partition("```")[0]
    assert "cubes_match(qbs_cube, pedersen_cube)" in block
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert sorted(path.name for path in tmp_path.iterdir()) == ["wh", "wh-pedersen"]


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
    package, but a base class, which is caught by name instead: no error
    class outlives the refusal it was made for."""
    package = pathlib.Path(xwbench.__file__).parent
    classes = [node for node in ast.parse((package / "errors.py").read_text("utf-8")).body
               if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    raised, caught = set(), set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {name.id for name in ast.walk(node.type) if isinstance(name, ast.Name)}
    assert classes and [node.name for node in classes if node.name not in raised
                        and not (node.name in bases and node.name in caught)] == []
