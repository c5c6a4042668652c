"""The README's library example runs as printed, its list of the public
surface names only what the package exports, and the package exports
exactly the public names of its modules."""
import importlib
import re
from pathlib import Path

import mzr

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    for line in block.splitlines():
        code, _, expected = line.partition("  # ")
        if expected == "True":
            assert eval(code, namespace) is True, code
        else:
            exec(line, namespace)


def test_library_surface_names_are_exported():
    section = README.read_text().split("## Library surface", 1)[1].split("\n## ", 1)[0]
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    names = re.findall(r"`([A-Za-z_]\w*)`", prose)
    assert len(names) > 30
    assert [name for name in names if name not in mzr.__all__] == []


def test_package_exports_the_public_names_of_its_modules():
    modules = ("errors", "riemann_kernel", "multizeta", "asymptotics", "zero_finder", "census")
    homes = {}
    for module in (importlib.import_module(f"mzr.{name}") for name in modules):
        for name in module.__all__:
            homes[name] = getattr(module, name)
    assert sorted(mzr.__all__) == sorted(["__version__", *homes])
    assert isinstance(mzr.__version__, str)
    for name, value in homes.items():
        assert getattr(mzr, name) is value, name
