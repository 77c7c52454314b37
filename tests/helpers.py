"""The in-process CLI harness, the child-process environment, random model
generators, the e-mail game's truncation written out literally, a reference
search over raw partition lists, event enumeration and an int that is only
``__index__``, shared by the test suite."""

import contextlib
import io
import json
import os
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


class CliRun(NamedTuple):
    code: int
    stdout: str
    stderr: str


def run_cli(argv, cwd=None):
    """Run ``galaxyck.cli.main(argv)`` in this process, both streams captured.

    argparse's usage errors raise ``SystemExit``; its code is the exit code,
    as it would be for ``python -m galaxyck``.  The working directory is
    restored afterwards.
    """
    # Imported here, not at module level: ``python tests/test_golden.py``
    # imports this module before it puts SRC on sys.path.
    from galaxyck import cli

    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    try:
        if cwd is not None:
            os.chdir(cwd)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(previous)
    return CliRun(code, out.getvalue(), err.getvalue())


def subprocess_env(**extra):
    """The environment for a child Python that imports galaxyck from ``src/``.

    ``src/`` goes in front of any ``PYTHONPATH`` already set, so the child
    runs the checkout's code whether or not galaxyck is installed; the
    ``pythonpath`` setting of pytest reaches only the pytest process.
    """
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def random_partition(rng, states):
    """Shuffle, then cut into blocks of random sizes."""
    pool = list(states)
    rng.shuffle(pool)
    cells = []
    i = 0
    while i < len(pool):
        size = rng.randint(1, len(pool) - i)
        cells.append(pool[i : i + size])
        i += size
    return cells


def random_partitions(rng, max_states=6, agent_counts=(2, 3)):
    """Raw partition lists ``{agent: [[state, ...], ...]}`` over 2..max_states states."""
    n = rng.randint(2, max_states)
    states = [f"s{i}" for i in range(n)]
    agents = [f"g{j}" for j in range(rng.choice(agent_counts))]
    return {a: random_partition(rng, states) for a in agents}


def random_model(rng, max_states=6, agent_counts=(2, 3)):
    # Imported here for the same reason as in run_cli.
    from galaxyck.epistemic import AumannModel

    partitions = random_partitions(rng, max_states, agent_counts)
    return AumannModel(list(partitions), partitions)


def random_connected_model(rng, max_states=8, agent_counts=(2, 3)):
    while True:
        model = random_model(rng, max_states, agent_counts)
        if len(model.components()) == 1:
            return model


def truncation_partitions(T):
    """The cells of the e-mail game's T-truncation written out literally over
    plain ``(tag, t, t')`` tuples: agent 1 pairs (b,t,t-1) with (b,t,t),
    agent 2 pairs (b,t,t) with (b,t+1,t), and agent 2's last cell is the
    clipped singleton (b,T,T)."""
    a = ("a", 0, 0)
    p1 = [[a]] + [[("b", t, t - 1), ("b", t, t)] for t in range(1, T + 1)]
    p2 = [[a, ("b", 1, 0)]] + [[("b", t, t), ("b", t + 1, t)] for t in range(1, T)]
    return {1: p1, 2: p2 + [[("b", T, T)]]}


def raw_cell(partitions, agent, state):
    """The cell holding ``state``, found by scanning the agent's raw list."""
    return next(frozenset(cell) for cell in partitions[agent] if state in cell)


def raw_distances(partitions, origin):
    """Breadth-first link distances over the raw partition lists.

    It scans the lists for every cell it reads and never builds an
    ``AumannModel``, so it shares no table with the model's kernels.
    """
    dist = {origin: 0}
    frontier = [origin]
    while frontier:
        next_frontier = []
        for s in frontier:
            for agent in partitions:
                for t in raw_cell(partitions, agent, s):
                    if t not in dist:
                        dist[t] = dist[s] + 1
                        next_frontier.append(t)
        frontier = next_frontier
    return dist


def raw_components(partitions):
    """The reachability components of the raw partition lists, as a set."""
    states = {s for cells in partitions.values() for cell in cells for s in cell}
    return {frozenset(raw_distances(partitions, s)) for s in states}


def all_events(states):
    states = list(states)
    for mask in range(1 << len(states)):
        yield frozenset(s for i, s in enumerate(states) if mask >> i & 1)


class Level:
    """An int that is not an ``int``, only ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value
