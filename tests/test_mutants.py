"""The seeded faults of ``tests/mutants.py`` still apply to the code.

Running the mutants takes about a minute; this only checks, per entry,
that its old text occurs exactly once in its file and that its test file
defines the named test, so a refactor that moves an anchor fails here.
"""

import ast
import os

import pytest

from mutants import MUTANTS, ROOT


def _defines(path: str, names: list[str]) -> bool:
    """Whether the module at ``path`` defines the nested class/function path ``names``."""
    with open(path, encoding="utf-8") as f:
        body = ast.parse(f.read()).body
    for name in names:
        node = next(
            (n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
             and n.name == name),
            None,
        )
        if node is None:
            return False
        body = node.body
    return True


@pytest.mark.parametrize("path, old, new, test_id", MUTANTS, ids=range(len(MUTANTS)))
def test_mutant_applies(path, old, new, test_id):
    with open(os.path.join(ROOT, path), encoding="utf-8") as f:
        assert f.read().count(old) == 1, f"{path}: {old.strip()!r}"
    test_file, *names = test_id.split("[")[0].split("::")
    assert _defines(os.path.join(ROOT, test_file), names), test_id
