"""Seeded input generators for the four benchmark workloads.

Everything here is plain data (ints, strings, lists): nothing imports
galaxyck, so the oracles can judge the program's answers from the same
descriptions without calling into it.

A workload run is a sequence of rounds.  Every round has the same fixed
composition (size classes, check kinds, expected verdict mix); the seed and
the round number only draw the details (sample points, events, probes,
payoff parameters).  A fixed composition keeps throughput and percentiles
comparable across seeds; fresh details per round keep a verdict cache in the
program from turning the benchmark into a lookup test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("axiom-audit", "chain-ck", "model-files", "equilibrium")
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Item:
    """One check to run: its kind, its size class and its plain-data inputs."""

    kind: str
    size: int
    spec: dict


def rng_for(workload: str, seed: int, *tags) -> random.Random:
    return random.Random(":".join(str(part) for part in (workload, seed) + tags))


# --- axiom-audit -----------------------------------------------------------

AXIOM_SIZES = (10, 14, 20, 28, 40)
AXIOM_N_MAX = (4, 5, 6)
UNSOUND_LADDERS = ("n+1", "n+2", "2n+1")
# Threshold t(n) of each ladder as a plain int.
LADDERS = {
    "2^n": lambda n: 2**n,
    "n+1": lambda n: n + 1,
    "n+2": lambda n: n + 2,
    "2n+1": lambda n: 2 * n + 1,
}
CLUSTER_STEP = 2


def axiom_points(rng: random.Random, size: int) -> list:
    """``size`` points ``(c, k)`` meaning ``c*w+k``, in clusters around
    finite values, ``w+k`` and ``2*w+k``.  The seed draws where each cluster
    sits; within a cluster the points are ``CLUSTER_STEP`` apart, so the
    audit's work for a size and ladder is the same at every seed."""
    clusters = max(2, size // 8)
    points = []
    for c in range(clusters):
        tier = c % 3
        base = rng.randrange(10**6) if tier == 0 else rng.randrange(-(10**6), 10**6)
        members = size // clusters + (1 if c < size % clusters else 0)
        points += [(tier, base + CLUSTER_STEP * j) for j in range(members)]
    rng.shuffle(points)
    return points


def axiom_round(rng: random.Random, tiny: bool) -> list:
    """One check per size and ``n_max``; the ladder alternates between sound
    and unsound like a checkerboard, so about half the checks are sound.

    Fifteen distinct checks per round (an odd count whose 90th percentile
    falls mid-check too) put the median and the p90 of a run in the middle
    of one check's repeats rather than between two checks of different
    cost.
    """
    sizes, n_maxes = ((5, 8), (4, 5)) if tiny else (AXIOM_SIZES, AXIOM_N_MAX)
    items = []
    for i, size in enumerate(sizes):
        for j, n_max in enumerate(n_maxes):
            ladder = "2^n" if (i + j) % 2 == 0 else UNSOUND_LADDERS[(i + j) % len(UNSOUND_LADDERS)]
            spec = {"points": axiom_points(rng, size), "n_max": n_max, "ladder": ladder}
            items.append(Item("audit", size, spec))
    rng.shuffle(items)
    return items


# --- chain-ck --------------------------------------------------------------

CHAIN_T = (25, 50, 100)
TINY_CHAIN_T = (3, 6)
# Impossibility checks per round at each T.  Each size has a fixed cost, and
# the T=50 block is centred on the 90th percentile of the round.
IMPOSSIBILITY_COUNTS = {25: 5, 50: 4, 100: 1}


def _windows(rng: random.Random, top: int, count: int) -> list:
    """``count`` random inclusive position windows inside ``[0, top]``."""
    out = []
    for _ in range(count):
        lo = rng.randint(0, top)
        out.append([lo, min(top, lo + rng.randint(0, max(1, top // 3)))])
    return out


def chain_round(rng: random.Random, tiny: bool) -> list:
    """Checks on the e-mail-game truncations.  States are named by their
    chain position, the total number of messages sent (``0..2T``).

    The CLI impossibility check runs at every T.  The sweeps run on the
    largest truncation, which set-up builds once.  A round is 30 checks, and
    the cheapest of these are the knows and link sweeps and the CK sweeps on
    the whole carrier (no BFS).  Then come the meet checks and ten CK sweeps
    of 8 BFS probes each, which span the median.  The impossibility checks
    are the dearest.
    """
    sizes = TINY_CHAIN_T if tiny else CHAIN_T
    T = sizes[-1]
    top = 2 * T
    items = []
    for size in sizes:
        for _ in range(1 if tiny else IMPOSSIBILITY_COUNTS[size]):
            items.append(Item("impossibility", size, {"T": size}))
    for _ in range(2):
        probes = [rng.randint(0, top) for _ in range(8)]
        items.append(Item("ck", T, {"T": T, "windows": [[0, top]], "probes": probes}))
    for _ in range(2 if tiny else 10):
        probes = [rng.randint(0, top) for _ in range(8)]
        items.append(Item("ck", T, {"T": T, "windows": _windows(rng, top, 2), "probes": probes}))
    for _ in range(3):
        spec = {"T": T, "windows": _windows(rng, top, rng.randint(1, 3))}
        items.append(Item("knows", T, spec))
    for _ in range(3):
        spec = {"T": T, "windows": _windows(rng, top, rng.randint(1, 2)), "n": rng.randint(1, 8)}
        items.append(Item("link", T, spec))
    for _ in range(2):
        items.append(Item("meet", T, {"T": T}))
    rng.shuffle(items)
    return items


# --- model-files -----------------------------------------------------------

MODEL_SIZES = (50, 100, 200, 400)
TINY_MODEL_SIZES = (8, 12)
MODEL_AGENTS = (2, 3)
AGENT_NAMES = ("ann", "bob", "cy")
MODEL_REPLICAS = 2
MODEL_EVENTS = 4


def _chunks(rng: random.Random, items: list, lo: int, hi: int) -> list:
    out, i = [], 0
    while i < len(items):
        step = rng.randint(lo, hi)
        out.append(items[i : i + step])
        i += step
    return out


def model_doc(rng: random.Random, n: int, agents: int) -> tuple:
    """A JSON model document and its components as the generator built them.

    Each component is a run of states.  The first agent cuts it into cells of
    2-3 states, the second cuts one state later, so its cells straddle every
    boundary of the first and the run is connected.  A third agent, if any,
    cuts a shuffled copy into cells of 1-3 states.
    """
    ids = list(range(n))
    rng.shuffle(ids)
    names = [f"s{i:03d}" for i in ids]
    components, i = [], 0
    while i < n:
        step = min(rng.randint(4, 24), n - i)
        components.append(names[i : i + step])
        i += step
    partitions = [[] for _ in range(agents)]
    for comp in components:
        first = _chunks(rng, comp, 2, 3)
        partitions[0] += first
        cuts, pos = [], 0
        for cell in first[:-1]:
            pos += len(cell)
            cuts.append(pos + 1)
        bounds = [0] + [c for c in cuts if c < len(comp)] + [len(comp)]
        partitions[1] += [comp[a:b] for a, b in zip(bounds, bounds[1:])]
        if agents > 2:
            shuffled = list(comp)
            rng.shuffle(shuffled)
            partitions[2] += _chunks(rng, shuffled, 1, 3)
    events = {}
    for e in range(MODEL_EVENTS):
        members = []
        for comp in components:
            if rng.random() < 0.5:
                members += comp
            elif rng.random() < 0.3:
                members += rng.sample(comp, min(len(comp), rng.randint(1, 2)))
        events[f"E{e}"] = sorted(members)
    for cells in partitions:
        rng.shuffle(cells)
    doc = {
        "states": sorted(names),
        "agents": [{"name": AGENT_NAMES[a], "partition": partitions[a]} for a in range(agents)],
        "events": events,
    }
    return doc, components


def model_docs(rng: random.Random, tiny: bool, prefix: str = "") -> list:
    """The document pool: ``(file name, document, components, size, agents)``."""
    docs = []
    for n in TINY_MODEL_SIZES if tiny else MODEL_SIZES:
        for agents in MODEL_AGENTS:
            for r in range(1 if tiny else MODEL_REPLICAS):
                doc, comps = model_doc(rng, n, agents)
                docs.append((f"{prefix}doc-{n}-{agents}-{r}.json", doc, comps, n, agents))
    return docs


def model_round(rng: random.Random, docs: list) -> list:
    """Per state count and agent count: both modes, a positive and a negative
    target verdict each, on a randomly chosen replica."""
    groups: dict = {}
    for entry in docs:
        groups.setdefault((entry[3], entry[4]), []).append(entry)
    items = []
    for (n, agents), entries in sorted(groups.items()):
        for mode in ("classical", "subjective"):
            for target in (True, False):
                name, doc, comps, _, _ = rng.choice(entries)
                comp_of = {s: comp for comp in comps for s in comp}
                for _ in range(200):
                    event = rng.choice(sorted(doc["events"]))
                    state = rng.choice(doc["states"])
                    members = set(doc["events"][event])
                    if all(s in members for s in comp_of[state]) == target:
                        break
                spec = {"file": name, "event": event, "state": state, "mode": mode, "doc": doc}
                items.append(Item("model", n, spec))
    rng.shuffle(items)
    return items


# --- equilibrium -----------------------------------------------------------

EQ_K = (0, 1000, 10000, 30000)
TINY_EQ_K = (0, 20)


def eq_params(rng: random.Random) -> dict:
    """Payoffs and channel parameters with small denominators."""
    p_den = rng.randint(2, 5)
    return {
        "M": str(Fraction(rng.randint(1, 6), rng.randint(1, 3))),
        "L": str(Fraction(rng.randint(1, 6), rng.randint(1, 3))),
        "p": str(Fraction(rng.randint(1, p_den - 1), p_den)),
        # the probabilities' bit length, hence the audit's cost, grows with
        # eps's denominator: a narrow range keeps the cost steady
        "eps": str(Fraction(1, rng.randint(10, 12))),
    }


def huge_text(rng: random.Random) -> str:
    coeff = rng.choice((1, 1, 2))
    offset = rng.randint(-50, 50)
    head = "w" if coeff == 1 else f"{coeff}*w"
    return f"{head}{offset:+d}"


def eq_round(rng: random.Random, tiny: bool) -> list:
    items = []
    for K in TINY_EQ_K if tiny else EQ_K:
        for _ in range(2):
            window = f"0..{rng.randint(3, 10)}" if K == 0 else f"{K}..{K + 1}"
            spec = dict(
                eq_params(rng),
                finite=window,
                huge=",".join(huge_text(rng) for _ in range(rng.randint(2, 3))),
            )
            items.append(Item("equilibrium", K or 10, spec))
    for _ in range(2):
        samples = [0, rng.randint(1, 20), 10 ** rng.randint(3, 9)]
        samples = [str(s) for s in samples] + [huge_text(rng) for _ in range(rng.randint(2, 3))]
        rng.shuffle(samples)
        items.append(Item("monotone", len(samples), {"samples": ",".join(samples)}))
    items.append(Item("ast-ck", 1, {"t": str(rng.randint(1, 10**6))}))
    items.append(Item("ast-ck", 1, {"t": huge_text(rng)}))
    rng.shuffle(items)
    return items


def make_round(workload: str, seed: int, r: int, tiny: bool, docs: list = ()) -> list:
    """Round ``r`` of ``workload`` at ``seed``; model-files needs its document pool."""
    rng = rng_for(workload, seed, "tiny" if tiny else "full", r)
    if workload == "axiom-audit":
        return axiom_round(rng, tiny)
    if workload == "chain-ck":
        return chain_round(rng, tiny)
    if workload == "model-files":
        return model_round(rng, docs)
    if workload == "equilibrium":
        return eq_round(rng, tiny)
    raise ValueError(f"unknown workload {workload!r}")
