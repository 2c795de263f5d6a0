"""The mutation table of ``tools/mutants.py`` stays aimed at the code.

Running the mutants takes a test run per row (``python tools/mutants.py``);
here each row is only checked to edit exactly one place of the current
source and to name tests that exist, so a refactor that moves the code
fails here until its row is updated.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


def mutation_table():
    """The MUTANTS table, read from ``tools/mutants.py``."""
    spec = importlib.util.spec_from_file_location("tools_mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = mutation_table()


@pytest.mark.parametrize(
    "path, old, new, tests",
    MUTANTS,
    ids=[f"{i}-{Path(row[0]).stem}" for i, row in enumerate(MUTANTS)],
)
def test_each_mutant_edits_one_place_and_names_its_tests(path, old, new, tests):
    assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1
    assert new != old
    assert tests and all((ROOT / test).is_file() for test in tests)
