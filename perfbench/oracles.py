"""Independent verdict oracles for the benchmark's checks.

Plain code over the generators' plain-data inputs and the program's output
bytes; nothing here imports galaxyck.  Each oracle returns a list of
disagreements, empty when the output is right.  The oracles run outside the
timed region.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from workloads import LADDERS, Item

_COUNT = re.compile(r"^(?:(\d+)|(?:(\d+)\*)?w([+-]\d+))$")
_STATE = re.compile(r"^\((a|b),([^,]+),([^,]+)\)$")


# --- counts, states and fractions as the reports render them ---------------


def parse_count(text: str) -> tuple:
    """``"7"`` -> (0, 7); ``"w-5"`` -> (1, -5); ``"2*w+3"`` -> (2, 3)."""
    m = _COUNT.match(text)
    if m is None:
        raise ValueError(f"not a count: {text!r}")
    if m.group(1) is not None:
        return 0, int(m.group(1))
    return int(m.group(2) or 1), int(m.group(3))


def count_text(count: tuple) -> str:
    c, k = count
    if c == 0:
        return str(k)
    return f"{'w' if c == 1 else f'{c}*w'}{k:+d}"


def shift(count: tuple, by: int) -> tuple:
    return count[0], count[1] + by


def frac_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def state_position(text: str) -> int:
    """Chain position (messages sent) of a finite e-mail-game state."""
    m = _STATE.match(text)
    if m is None:
        raise ValueError(f"not a state: {text!r}")
    return int(m.group(2)) + int(m.group(3))


def b_state(t: tuple, t_prime: tuple) -> str:
    return f"(b,{count_text(t)},{count_text(t_prime)})"


def _verdict(flag: bool) -> str:
    return "common knowledge" if flag else "not common knowledge"


def _expect(errors: list, what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {str(got)[:120]!r}, want {str(want)[:120]!r}")


# --- axiom-audit -----------------------------------------------------------


def audit_violations(points: list, n_max: int, ladder: str) -> dict:
    """Violations of each clause, as ``(n, x, y, z)`` index-free value tuples,
    computed from integer gaps.  Points of different tiers are never related."""
    t = LADDERS[ladder]

    def level(n, a, b):
        if a[0] != b[0]:
            return False
        d = abs(a[1] - b[1])
        return d == 0 if n == 0 else d < t(n)

    tiers: dict = {}
    for p in points:
        tiers.setdefault(p[0], []).append(p)
    refl, sym, comp = [], [], []
    for n in range(n_max + 1):
        refl += [(n, x) for x in points if not level(n, x, x)]
        sym += [(n, x, y) for x in points for y in points if level(n, x, y) != level(n, y, x)]
        for x in points:
            same = tiers[x[0]]
            for y in same:
                if not level(n, x, y):
                    continue
                comp += [(n, x, y, z) for z in same if level(n, y, z) and not level(n + 1, x, z)]
    return {"reflexivity": refl, "symmetry": sym, "composition": comp}


def judge_audit(spec: dict, code, out: bytes) -> list:
    errors: list = []
    data = json.loads(out)
    points, n_max = spec["points"], spec["n_max"]
    _expect(errors, "check", data["check"], "generating-axioms")
    _expect(errors, "params", data["params"], {"n_max": n_max, "sample_size": len(points)})
    want = audit_violations(points, n_max, spec["ladder"])
    cases = data["cases"]
    _expect(errors, "clauses", [c["input"]["clause"] for c in cases], list(want))
    for case, (clause, bad) in zip(cases, want.items()):
        actual = case["actual"]
        got = [] if actual == "no violations" else actual
        _expect(errors, f"{clause} witnesses", len(got), len(bad))
        _expect(errors, f"{clause} pass", case["pass"], not bad)
    if len(cases) == 3 and isinstance(cases[2]["actual"], list):
        rendered = sorted(
            (n, count_text(x), count_text(y), count_text(z)) for n, x, y, z in want["composition"]
        )
        listed = sorted((w["n"], w["x"], w["y"], w["z"]) for w in cases[2]["actual"])
        _expect(errors, "composition witnesses", listed == rendered, True)
    _expect(errors, "pass", data["pass"], not any(want.values()))
    return errors


# --- chain-ck --------------------------------------------------------------
# On the T-truncation the carrier is one chain of positions 0..2T.  Agent 1
# pairs positions 2t-1 and 2t, agent 2 pairs 2t and 2t+1 (and 0 with 1),
# clipped at 2T, so every link step moves one position and the whole
# truncation is one component.


def _covered(windows: list) -> set:
    return {q for lo, hi in windows for q in range(lo, hi + 1)}


def _agent_blocks(q: int, T: int) -> tuple:
    if q == 0:
        first = {0}
    else:
        t = (q + 1) // 2
        first = {2 * t - 1, 2 * t}
    if q <= 1:
        second = {0, 1}
    else:
        tp = q // 2
        second = {2 * tp, 2 * tp + 1} if 2 * tp + 1 <= 2 * T else {2 * tp}
    return first, second


def _state_set(errors: list, what: str, actual, want: set) -> None:
    if not isinstance(actual, list):
        errors.append(f"{what}: not a list")
        return
    got = [state_position(s) for s in actual]
    _expect(errors, f"{what} size", len(got), len(want))
    _expect(errors, what, set(got) == want, True)


def judge_impossibility(spec: dict, code, out: bytes) -> list:
    errors: list = []
    data = json.loads(out)
    _expect(errors, "exit code", code, 0)
    _expect(errors, "params", data["params"], {"T": spec["T"]})
    _expect(
        errors,
        "actuals",
        [c["actual"] for c in data["cases"]],
        ["no such state", "all closures cover the carrier"],
    )
    _expect(errors, "pass", data["pass"], True)
    return errors


def judge_ck(spec: dict, code, out: bytes) -> list:
    errors: list = []
    data = json.loads(out)
    holds = _covered(spec["windows"]) >= set(range(2 * spec["T"] + 1))
    cases = data["cases"]
    _expect(errors, "probes", [state_position(c["input"]["state"]) for c in cases], spec["probes"])
    _expect(errors, "verdicts", [c["actual"] for c in cases], [_verdict(holds)] * len(cases))
    _expect(errors, "pass", data["pass"], holds)
    return errors


def judge_knows(spec: dict, code, out: bytes) -> list:
    errors: list = []
    data = json.loads(out)
    T, event = spec["T"], _covered(spec["windows"])
    want = {q for q in range(2 * T + 1) if all(b <= event for b in _agent_blocks(q, T))}
    _state_set(errors, "knowledge set", data["cases"][0]["actual"], want)
    _expect(errors, "pass", data["pass"], True)
    return errors


def judge_link(spec: dict, code, out: bytes) -> list:
    errors: list = []
    data = json.loads(out)
    T, n, event = spec["T"], spec["n"], _covered(spec["windows"])
    want = {q for q in range(2 * T + 1) if any(abs(q - e) <= n for e in event)}
    _state_set(errors, "link set", data["cases"][0]["actual"], want)
    _expect(errors, "pass", data["pass"], True)
    return errors


def judge_meet(spec: dict, code, out: bytes) -> list:
    errors: list = []
    data = json.loads(out)
    _expect(errors, "params", data["params"], {"states": 2 * spec["T"] + 1, "agents": 2})
    _expect(errors, "actual", data["cases"][0]["actual"], "equal")
    _expect(errors, "pass", data["pass"], True)
    return errors


# --- model-files -----------------------------------------------------------


def flood_components(doc: dict) -> dict:
    """State -> its component, flood-filled over the raw document's cells."""
    neighbors: dict = {s: set() for s in doc["states"]}
    for agent in doc["agents"]:
        for cell in agent["partition"]:
            for s in cell:
                neighbors[s].update(cell)
    comp_of: dict = {}
    for start in doc["states"]:
        if start in comp_of:
            continue
        comp, todo = {start}, [start]
        while todo:
            for t in neighbors[todo.pop()]:
                if t not in comp:
                    comp.add(t)
                    todo.append(t)
        frozen = frozenset(comp)
        for s in comp:
            comp_of[s] = frozen
    return comp_of


# --- equilibrium -----------------------------------------------------------


def _finite_samples(text: str) -> list:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _equilibrium_cases(spec: dict) -> list:
    """Every audited cell of the cutoff pair, in closed form.

    Renormalized on a cell, agent 2's count-0 cell weighs (a,0,0) : (b,1,0)
    as (1-p) : p*eps; at finite counts >= 1 the opponent plays A on the
    whole cell, so A pays 0 and B pays -L; at huge counts the opponent plays
    B, so B pays M pointwise and A pays 0.
    """
    M, L, p, eps = (Fraction(spec[k]) for k in ("M", "L", "p", "eps"))
    finite = _finite_samples(spec["finite"])
    huge = [parse_count(h) for h in spec["huge"].split(",")]
    zero = Fraction(0)
    cases = []
    for agent in (1, 2):
        for k in finite:
            if k == 0:
                cell = ["(a,0,0)"] if agent == 1 else ["(a,0,0)", "(b,1,0)"]
                value = M if agent == 1 else (1 - p) * M / ((1 - p) + p * eps)
            else:
                count = (0, k)
                members = (
                    [b_state(count, shift(count, -1)), b_state(count, count)]
                    if agent == 1
                    else [b_state(count, count), b_state(shift(count, 1), count)]
                )
                cell, value = sorted(members), zero
            actual = {
                "basis": "expected",
                "prescribed": "A",
                "expected_payoff": frac_text(value),
                "deviation": "B",
                "deviation_payoff": frac_text(-L),
            }
            cases.append(({"agent": agent, "own_count": str(k), "cell": cell}, actual))
        for h in huge:
            members = (
                [b_state(h, shift(h, -1)), b_state(h, h)]
                if agent == 1
                else [b_state(h, h), b_state(shift(h, 1), h)]
            )
            actual = {
                "basis": "pointwise",
                "prescribed": "B",
                "prescribed_payoffs": [frac_text(M)] * 2,
                "deviation": "A",
                "deviation_payoffs": [frac_text(zero)] * 2,
                "verdict": "no profitable deviation",
            }
            cases.append(({"agent": agent, "own_count": count_text(h), "cell": sorted(members)}, actual))
    return cases


def judge_equilibrium(spec: dict, code, out: bytes) -> list:
    errors: list = []
    data = json.loads(out)
    _expect(errors, "exit code", code, 0)
    params = data["params"]
    for key in ("M", "L", "p", "eps"):
        _expect(errors, key, params[key], frac_text(Fraction(spec[key])))
    _expect(errors, "finite_samples", params["finite_samples"], [str(k) for k in _finite_samples(spec["finite"])])
    want = _equilibrium_cases(spec)
    _expect(errors, "cells audited", len(data["cases"]), len(want))
    for case, (inp, actual) in zip(data["cases"], want):
        _expect(errors, "cell", case["input"], inp)
        _expect(errors, f"cell {inp['agent']}/{inp['own_count']}", case["actual"], actual)
    _expect(errors, "pass", data["pass"], True)
    return errors


def judge_monotone(spec: dict, code, out: bytes) -> list:
    errors: list = []
    data = json.loads(out)
    _expect(errors, "exit code", code, 0)
    want = []
    for text in spec["samples"].split(","):
        tau = parse_count(text)
        if tau == (0, 0):
            note = "skipped: no state (b,0,0)"
            want.append(({"t": "0"}, note))
            continue
        ck = tau[0] > 0
        neighbor = shift(tau, -1 if ck else 1)
        want.append(({"t": count_text(tau), "ck": ck, "neighbor": count_text(neighbor)}, _verdict(ck)))
    _expect(errors, "cases", [(c["input"], c["actual"]) for c in data["cases"]], want)
    _expect(errors, "pass", data["pass"], True)
    return errors


def judge_ast(spec: dict, code, out: bytes) -> list:
    errors: list = []
    data = json.loads(out)
    t = parse_count(spec["t"])
    holds = t[0] > 0
    _expect(errors, "exit code", code, 0 if holds else 1)
    _expect(errors, "state", data["cases"][0]["input"], {"state": b_state(t, t)})
    _expect(errors, "verdict", data["cases"][0]["actual"], _verdict(holds))
    _expect(errors, "pass", data["pass"], holds)
    return errors


class Oracles:
    """Judges check outputs; caches the flood fill of each model document."""

    def __init__(self):
        self._components: dict = {}

    def judge_model(self, spec: dict, code, out: bytes) -> list:
        errors: list = []
        data = json.loads(out)
        if spec["file"] not in self._components:
            self._components[spec["file"]] = flood_components(spec["doc"])
        comp_of = self._components[spec["file"]]
        holds = comp_of[spec["state"]] <= set(spec["doc"]["events"][spec["event"]])
        _expect(errors, "exit code", code, 0 if holds else 1)
        _expect(errors, "verdict", data["cases"][0]["actual"], _verdict(holds))
        _expect(errors, "pass", data["pass"], holds)
        params = {k: spec[k] for k in ("file", "event", "state", "mode")}
        _expect(errors, "params", data["params"], params)
        blocks = {frozenset(b) for b in data["meet"]}
        _expect(errors, "meet blocks", blocks == set(comp_of.values()), True)
        return errors

    def judge(self, item: Item, code, out: bytes) -> list:
        """Disagreements between a check's output and the oracle."""
        if item.kind == "model":
            return self.judge_model(item.spec, code, out)
        return _JUDGES[item.kind](item.spec, code, out)


_JUDGES = {
    "audit": judge_audit,
    "impossibility": judge_impossibility,
    "ck": judge_ck,
    "knows": judge_knows,
    "link": judge_link,
    "meet": judge_meet,
    "equilibrium": judge_equilibrium,
    "monotone": judge_monotone,
    "ast-ck": judge_ast,
}
