"""The mutation probe's list of equivalent mutants names mutants it still makes."""

import importlib.util
from pathlib import Path

MUTANTS = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def test_every_equivalent_mutant_is_still_generated():
    # From the AST alone: no suite runs here.
    spec = importlib.util.spec_from_file_location("mutants", MUTANTS)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    generated = {ident for module in mutants.MODULES for ident, _, _ in mutants.mutants(module)}
    assert sorted(mutants.EQUIVALENT.keys() - generated) == []
