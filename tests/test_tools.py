"""The tools' allow lists name what is still there: the mutation probe's
equivalent mutants are mutants it still makes, and the line-coverage
tool's unreached lines are files and lines that src/galaxyck still holds."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_equivalent_mutant_is_still_generated():
    # From the AST alone: no suite runs here.
    mutants = load("mutants")
    generated = {ident for module in mutants.MODULES for ident, _, _ in mutants.mutants(module)}
    assert sorted(mutants.EQUIVALENT.keys() - generated) == []


def test_every_allowed_unreached_line_is_still_in_the_package():
    # On every Python: the tool itself runs the suite only where
    # sys.monitoring exists (3.12 on), so a stale entry would show there only.
    linecov = load("linecov")
    stale = []
    for key in linecov.ALLOWED:
        name, _, text = key.partition(": ")
        path = linecov.PACKAGE / name
        lines = path.read_text(encoding="utf-8").splitlines() if path.is_file() else []
        if not lines or text and text not in map(str.strip, lines):
            stale.append(key)
    assert stale == []
