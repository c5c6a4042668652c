"""The README's library example runs as printed, its list of the public
surface names only what the package exports, the package exports exactly
the public names of its modules, and `import mzr` loads only the modules
a value needs: no numpy for a value above s = 1."""
import importlib
import json
import os
import re
import subprocess
import sys
import textwrap
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


def _run_fresh(script: str) -> str:
    """Run script in a fresh interpreter, since this one has imported
    every module already; return its stdout."""
    src = str(Path(mzr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_a_value_imports_only_its_modules():
    _run_fresh("""
        import sys
        import mzr

        assert set(mzr.__all__) <= set(dir(mzr))
        mzr.multizeta(2, 2.0)
        loaded = sorted(name for name in sys.modules if name.split(".")[0] == "mzr")
        assert loaded == ["mzr", "mzr.errors", "mzr.multizeta", "mzr.riemann_kernel"], loaded
        mzr.multizeta(32, 1.5)
        mzr.truncated_euler_zagier(3, 2.0, 50)
        mzr.bernoulli(10)
        mzr.riemann_zeta_alternating(2.0)
        for r, s, error in [(2, 0.5, mzr.PoleProximityError), (32, 10.0, mzr.NonConvergenceError)]:
            try:
                mzr.multizeta(r, s)
            except error:
                pass
            else:
                raise AssertionError(f"multizeta({r}, {s}) returned")
        assert "numpy" not in sys.modules
        mzr.multizeta(3, 0.6)
        assert "numpy" in sys.modules
        try:
            mzr.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("mzr.no_such_name resolved")
        assert mzr.zero_finder.scan_interval is mzr.scan_interval
        namespace = {}
        exec("from mzr import *", namespace)
        assert [name for name in mzr.__all__ if name not in namespace] == []
    """)


def test_values_above_one_need_no_numpy():
    # Every numpy import raises in this interpreter, so these bits cannot
    # depend on numpy's build or on the CPU features its kernels dispatch on.
    points = [(r, s) for r in range(1, 33) for s in (1.001, 2.0, 3.7)]
    out = _run_fresh(f"""
        import json
        import sys

        sys.modules["numpy"] = None
        import mzr

        values = [mzr.multizeta(r, s) for r, s in {points!r}]
        values += [mzr.riemann_zeta(2.0), mzr.closed_form(3, 2.0)]
        print(json.dumps([v.hex() for v in values]))
    """)
    values = [mzr.multizeta(r, s) for r, s in points]
    values += [mzr.riemann_zeta(2.0), mzr.closed_form(3, 2.0)]
    assert json.loads(out) == [v.hex() for v in values]
