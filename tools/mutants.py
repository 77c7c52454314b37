"""Single-operator mutation probe for the galaxyck kernels.

Each mutant changes one operator in one function of ``src/galaxyck``:

- a comparison: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``,
  ``in`` and ``not in``, ``is`` and ``is not`` swap;
- ``and`` and ``or`` swap;
- a ``not`` is dropped;
- ``+`` and ``-`` swap, in expressions and in ``+=``/``-=``;
- an int constant becomes itself plus 1.

A mutant is killed when the Tier-1 suite fails on it, and survives when the
suite passes.  The suite runs in a copy of ``src/``, ``tests/``,
``pyproject.toml`` and ``README.md`` in a temporary directory, with ``-x``
and the mutated module's own test file first, so most mutants die within
seconds.  It must pass once on the unmutated copy before any mutant runs,
or the probe exits 2.  A survivor listed in ``EQUIVALENT`` with the reason
it cannot change any behaviour is accepted; any other survivor makes the
probe exit 1.  A listed mutant that the suite kills also exits 1, and so,
on a probe of every function, does a listed id that names no mutant, so
the list never outlives its reason.

    python tools/mutants.py                                       # every function
    python tools/mutants.py --only epistemic.knows reports.jsonable

Suites run at once, one per core.
"""

from __future__ import annotations

import argparse
import ast
import concurrent.futures
import os
import queue
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("hypernat", "sorites", "epistemic", "emailgame", "reports", "cli")
TIMEOUT_S = 900  # a mutant that hangs the suite this long counts as killed

# Mutant id -> why no input can tell the mutant from the original.
EQUIVALENT = {
    "hypernat.gap: off < 0 -> off <= 0": "at coeff == 0 and off == 0 the swap negates 0 into 0",
    "hypernat.gap: off < 0 -> off < 1": "at coeff == 0 and off == 0 the swap negates 0 into 0",
    "emailgame.best_response_check: dev <= pres -> dev < pres":
        "a huge cell's prescribed and deviation payoffs never tie",
    "emailgame.best_response_check: dev > pres -> dev >= pres":
        "a huge cell's prescribed and deviation payoffs never tie",
    "cli.cmd_sorites_demo: finite(1) -> finite(2)":
        "1 and 2 are a finite gap apart, so every index is related to both or to neither",
}

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.And: ast.Or, ast.Or: ast.And,
    ast.Add: ast.Sub, ast.Sub: ast.Add,
}


def _variants(node: ast.AST):
    """The mutated replacements of one node."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            ops = list(node.ops)
            ops[i] = SWAPS[type(op)]()
            yield ast.Compare(node.left, ops, node.comparators)
    elif isinstance(node, ast.BoolOp):
        yield ast.BoolOp(SWAPS[type(node.op)](), node.values)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield node.operand
    elif isinstance(node, ast.BinOp) and type(node.op) in (ast.Add, ast.Sub):
        yield ast.BinOp(node.left, SWAPS[type(node.op)](), node.right)
    elif isinstance(node, ast.AugAssign) and type(node.op) in (ast.Add, ast.Sub):
        yield ast.AugAssign(node.target, SWAPS[type(node.op)](), node.value)
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        yield ast.Constant(node.value + 1)


def _functions(tree: ast.Module):
    """Top-level functions and class methods, with their qualified names."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _splice(source: bytes, node: ast.AST, text: str) -> bytes:
    """``source`` with ``node``'s span, in UTF-8 byte offsets, replaced by ``text``."""
    lines = source.splitlines(keepends=True)
    start = sum(map(len, lines[: node.lineno - 1])) + node.col_offset
    end = sum(map(len, lines[: node.end_lineno - 1])) + node.end_col_offset
    return source[:start] + text.encode() + source[end:]


def mutants(module: str, only=None):
    """Every mutant of the module's functions as (id, module, mutated source).

    An id reads ``module.function: before -> after``; a constant is shown
    with the expression around it.  Ids that repeat in one function get
    ``#2``, ``#3``, ... in source order."""
    source = (ROOT / "src" / "galaxyck" / f"{module}.py").read_bytes()
    tree = ast.parse(source)
    seen: dict = {}
    for qualname, func in _functions(tree):
        if only and f"{module}.{qualname}" not in only:
            continue
        parents = {child: node for node in ast.walk(func) for child in ast.iter_child_nodes(node)}
        # f-string parts carry no reliable source offsets.
        skip = {n for f in ast.walk(func) if isinstance(f, ast.JoinedStr) for n in ast.walk(f)}
        nodes = sorted(
            (n for n in ast.walk(func) if n not in skip and hasattr(n, "lineno")),
            key=lambda n: (n.lineno, n.col_offset),
        )
        for node in nodes:
            for mutated in _variants(node):
                shown = node
                if isinstance(node, ast.Constant) and isinstance(parents.get(node), ast.expr):
                    shown = parents[node]
                before = ast.unparse(shown)
                if shown is node:
                    after = ast.unparse(mutated)
                else:
                    node.value += 1
                    after = ast.unparse(shown)
                    node.value -= 1
                ident = f"{module}.{qualname}: {before} -> {after}"
                seen[ident] = seen.get(ident, 0) + 1
                if seen[ident] > 1:
                    ident += f" #{seen[ident]}"
                text = ast.unparse(mutated)
                mutant = _splice(source, node, text if isinstance(mutated, ast.stmt) else f"({text})")
                yield ident, module, mutant


def _suite_passes(copy: Path, module: str) -> bool:
    """Does the Tier-1 suite pass on the copy, the module's own tests first?"""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           f"tests/test_{module}.py", "tests"]
    # No bytecode cache: two mutants of one size written within the same
    # second would otherwise share a stale .pyc.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def run(mutant, copies: "queue.Queue") -> str:
    """'killed' or 'survived', from the suite run on one copy of the tree."""
    ident, module, source = mutant
    # A splice that breaks the syntax is a bug here: it stops the probe, never a kill.
    ast.parse(source, f"{module}.py")
    copy = copies.get()
    target = copy / "src" / "galaxyck" / f"{module}.py"
    original = target.read_bytes()
    try:
        target.write_bytes(source)
        return "survived" if _suite_passes(copy, module) else "killed"
    finally:
        target.write_bytes(original)
        copies.put(copy)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="MODULE.FUNCTION",
                        help="mutate only these functions (Class.method for a method)")
    args = parser.parse_args(argv)
    if args.only:  # a misspelt name would otherwise narrow the probe unseen
        known = set()
        for module in MODULES:
            tree = ast.parse((ROOT / "src" / "galaxyck" / f"{module}.py").read_bytes())
            known.update(f"{module}.{qualname}" for qualname, _ in _functions(tree))
        unknown = [name for name in args.only if name not in known]
        if unknown:
            parser.error(f"no such function: {' '.join(unknown)}")
    todo = [m for module in MODULES for m in mutants(module, args.only)]
    if not todo:
        parser.error("the functions given to --only have no mutant")
    jobs = min(os.cpu_count() or 1, len(todo))
    copies: queue.Queue = queue.Queue()
    with tempfile.TemporaryDirectory() as tmp:
        for j in range(jobs):
            copy = Path(tmp) / str(j)
            shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
            # Not test_tools.py: it checks the unmutated source against
            # tools/, which the copy lacks.
            shutil.copytree(ROOT / "tests", copy / "tests",
                            ignore=shutil.ignore_patterns("__pycache__", "test_tools.py"))
            for name in ("pyproject.toml", "README.md"):  # test_readme reads the README
                shutil.copy(ROOT / name, copy)
            copies.put(copy)
        # A suite that fails unmutated would count every mutant as killed.
        if not _suite_passes(copy, MODULES[0]):
            print("the suite fails on the unmutated copy; no mutant run", file=sys.stderr)
            return 2
        verdicts, survivors, stale = [], [], []
        with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
            for (ident, _, _), verdict in zip(todo, pool.map(lambda m: run(m, copies), todo)):
                listed = ident in EQUIVALENT
                print(f"{verdict:8} {'(equivalent) ' if listed else ''}{ident}", flush=True)
                verdicts.append(verdict)
                if verdict == "survived" and not listed:
                    survivors.append(ident)
                elif verdict == "killed" and listed:
                    stale.append(f"{ident} is killed now")
    if not args.only:
        missing = EQUIVALENT.keys() - {ident for ident, _, _ in todo}
        stale += [f"{ident} names no mutant" for ident in sorted(missing)]
    killed = verdicts.count("killed")
    print(f"{len(todo)} mutants: {killed} killed, {len(todo) - killed} survived, "
          f"{len(survivors)} not listed as equivalent")
    for entry in stale:
        print(f"{entry}; take it out of EQUIVALENT")
    return 1 if survivors or stale else 0


if __name__ == "__main__":
    sys.exit(main())
