"""Random model generators, event enumeration and the child-process
environment shared by the test suite."""

import os
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


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


def random_model(rng, max_states=6, agent_counts=(2, 3)):
    # Imported here so that a script importing only subprocess_env, such as
    # ``python tests/test_golden.py``, runs without galaxyck on sys.path.
    from galaxyck.epistemic import AumannModel

    n = rng.randint(2, max_states)
    states = [f"s{i}" for i in range(n)]
    agents = [f"g{j}" for j in range(rng.choice(agent_counts))]
    return AumannModel(agents, {a: random_partition(rng, states) for a in agents})


def random_connected_model(rng, max_states=8, agent_counts=(2, 3)):
    while True:
        model = random_model(rng, max_states, agent_counts)
        if len(model.components()) == 1:
            return model


def all_events(states):
    states = list(states)
    for mask in range(1 << len(states)):
        yield frozenset(s for i, s in enumerate(states) if mask >> i & 1)
