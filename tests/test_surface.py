"""Public surface guard: every name a `qnoise` module lists in `__all__`
is used somewhere that counts, and README's examples run.

A name counts as used when another module under src/qnoise that does not
list the same name in its own `__all__`, the acceptance criteria
(tests/test_acceptance.py) or README.md mentions it as a word.  A public
name that only its own module and the unit tests know is dead surface: give
it a caller or delete it with its tests.  Two modules that list a name each
do not keep it public by naming each other.  The modules are read as text
and parsed with `ast`, so nothing is imported.

Every ```python block of README.md runs in a fresh interpreter with the
package on PYTHONPATH.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "qnoise"
MODULES = sorted(PACKAGE.glob("*.py"))
README = ROOT / "README.md"
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                           re.S | re.M)


def public_names(path):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_public_name_has_a_user(path):
    users = [(p.read_text(), public_names(p)) for p in MODULES if p != path]
    users += [(p.read_text(), []) for p in
              (ROOT / "tests" / "test_acceptance.py", README)]
    unused = [name for name in public_names(path)
              if not any(name not in listed
                         and re.search(rf"\b{re.escape(name)}\b", text)
                         for text, listed in users)]
    assert not unused, f"{path.stem}: public names without a user: {unused}"


def test_guard_reads_every_all():
    # a module with an __all__ that the parser missed would pass vacuously
    listed = {p.stem for p in MODULES if public_names(p)}
    assert {"network", "amplifier", "spectra", "estimator", "accelerometer",
            "netlist", "sweep", "cli"} <= listed


def test_readme_has_python_examples():
    # the pattern that finds the blocks below would pass vacuously
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("code", README_BLOCKS, ids=[
    f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_example_runs(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
