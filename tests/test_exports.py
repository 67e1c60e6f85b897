"""The package's public names resolve to the modules that declare them,
each is used by the package itself, and the README's Python sketch of them
runs."""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import phasemono


def test_exports_resolve():
    for info in pkgutil.iter_modules(phasemono.__path__):
        mod = importlib.import_module(f"phasemono.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"phasemono.{info.name}.__all__ lists missing {name!r}"
    for name, obj in vars(phasemono).items():
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        home = importlib.import_module(obj.__module__)
        assert name in home.__all__, f"phasemono.{name} is not in {obj.__module__}.__all__"


def _used_names(tree):
    """Names a module reads or imports: definitions, assignment targets and
    the strings of ``__all__`` are not uses."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_every_public_name_is_used_by_the_package():
    # a public name that only the tests call is an API kept for testing;
    # the re-exports of phasemono/__init__ do not count as uses
    used = set()
    for path in Path(phasemono.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            used |= _used_names(ast.parse(path.read_text()))
    unused = sorted(
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(phasemono.__path__)
        for name in getattr(importlib.import_module(f"phasemono.{info.name}"), "__all__", ())
        if name not in used)
    assert unused == []


def test_readme_python_sketch_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = readme.read_text().split("```python\n")[1:]
    assert len(blocks) == 1
    code = blocks[0].split("\n```")[0]
    exec(compile(code, str(readme), "exec"), {})
