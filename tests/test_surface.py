"""Public surface guard: every name a `qnoise` module lists in `__all__`
is used somewhere that counts.

A name counts as used when another module under src/qnoise, the
acceptance criteria (tests/test_acceptance.py) or README.md mentions it as
a word.  A public name that only its own module and the unit tests know is
dead surface: give it a caller or delete it with its tests.  The modules
are read as text and parsed with `ast`, so nothing is imported.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "qnoise"
MODULES = sorted(PACKAGE.glob("*.py"))


def public_names(path):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_public_name_has_a_user(path):
    users = [p for p in MODULES if p != path]
    users += [ROOT / "tests" / "test_acceptance.py", ROOT / "README.md"]
    texts = [p.read_text() for p in users]
    unused = [name for name in public_names(path)
              if not any(re.search(rf"\b{re.escape(name)}\b", text)
                         for text in texts)]
    assert not unused, f"{path.stem}: public names without a user: {unused}"


def test_guard_reads_every_all():
    # a module with an __all__ that the parser missed would pass vacuously
    listed = {p.stem for p in MODULES if public_names(p)}
    assert {"network", "amplifier", "spectra", "estimator", "accelerometer",
            "netlist", "sweep", "cli"} <= listed
