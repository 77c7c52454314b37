"""The electronic-mail game over a chain carrier with possibly huge counts.

The carrier holds ``(a,0,0)`` plus every ``(b,t,t')`` with ``t' = t`` or
``t-1``.  Agent 1 sees only its own count ``t``, so it pairs ``(b,t,t-1)``
with ``(b,t,t)``; agent 2 pairs ``(b,t,t)`` with ``(b,t+1,t)`` and cannot
tell ``(a,0,0)`` from ``(b,1,0)``.  Ordering states by the total number of
messages sent (``t + t'``) lays the carrier out as a single chain, which
gives closed forms for cells and the link metric that stay valid at huge
counts, where breadth-first search cannot go.

The checks: on finite truncations the all-``b`` event is never classical
common knowledge (every state reaches every other, and the carrier contains
``(a,0,0)``); under galaxy semantics it is common knowledge exactly at huge
counts, and the verdict persists one step down from any positive case and
one step up from any negative one.  Finally, the cutoff strategy pair (play
A while the own count is finite, B once it is huge) is audited cell by cell
as a Nash equilibrium of the two coordination payoff tables, with exact
rational arithmetic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Tuple, Union

from .epistemic import AumannModel, Event, ck_classical, ck_subjective
from .hypernat import HyperNat, _coerce, _int_at_least, _text, finite, gap
from .reports import CheckReport

__all__ = [
    "ACTIONS",
    "CutoffStrategy",
    "EmailGameModel",
    "EmailGameState",
    "PayoffParams",
    "STATE_A",
    "best_response_check",
    "cell",
    "cell_by_own_count",
    "chain_position",
    "check_ast_possibility",
    "check_classical_impossibility",
    "check_monotone_ck",
    "email_metric",
    "event_b",
    "payoff_pair",
    "state_b",
    "state_probability",
    "truncated_model",
]

Action = str
ACTIONS: Tuple[Action, Action] = ("A", "B")

_ZERO = finite(0)
_ONE = finite(1)


def _as_count(value: Union[int, HyperNat]) -> HyperNat:
    count = _coerce(value)
    if count is None:
        raise TypeError("message counts are HyperNat or int")
    return count


@dataclass(frozen=True)
class EmailGameState:
    """A state ``(tag, t, t')`` with ``t' = t - delta``; ``t`` may be huge.

    States compare by ``(tag, t, delta)`` and hash by ``(t, delta)``, alike in
    every process: ``t`` decides the tag.  The hash and the label ``(tag,t,t')``
    are computed once, at construction: states are hashed on every cell and
    set lookup, and labelled in every report that lists them.
    """

    tag: str
    t: HyperNat
    delta: int
    _hash: int = field(init=False, repr=False, compare=False)
    _label: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.tag not in ("a", "b"):
            raise ValueError("tag must be 'a' or 'b'")
        if not isinstance(self.t, HyperNat):
            raise TypeError("t must be a HyperNat (use state_b / STATE_A)")
        if self.delta not in (0, 1):
            raise ValueError("delta must be 0 or 1")
        if self.tag == "a" and (self.t != _ZERO or self.delta != 0):
            raise ValueError("the only a-state is (a,0,0)")
        if self.tag == "b" and self.t < _ONE:
            raise ValueError("b-states need t >= 1")
        object.__setattr__(self, "_hash", hash((self.t, self.delta)))
        # Both counts written from t's fields: t' = t - delta has t's head.
        coeff, offset = self.t.omega_coeff, self.t.offset
        label = f"({self.tag},{_text(coeff, offset)},{_text(coeff, offset - self.delta)})"
        object.__setattr__(self, "_label", label)

    def __hash__(self) -> int:
        return self._hash

    @property
    def t_prime(self) -> HyperNat:
        return self.t - _ONE if self.delta else self.t

    def __str__(self) -> str:
        return self._label


STATE_A = EmailGameState("a", _ZERO, 0)


def state_b(t: Union[int, HyperNat], delta: int = 0) -> EmailGameState:
    """The state ``(b, t, t - delta)``."""
    return EmailGameState("b", _as_count(t), delta)


def chain_position(s: EmailGameState) -> HyperNat:
    """Position along the carrier chain: the total number of messages sent."""
    if s.tag == "a":
        return _ZERO
    return s.t + s.t_prime


def email_metric(x: EmailGameState, y: EmailGameState) -> HyperNat:
    """Link distance between two states, in closed form.

    Every state shares one cell with its chain predecessor and one with its
    successor, so one link step moves at most one chain position and the
    distance is the position gap; it agrees with breadth-first search on
    truncations (in particular (a,0,0) to (b,t,t) is 2t).
    """
    return gap(chain_position(x), chain_position(y))


def cell(agent: int, s: EmailGameState) -> frozenset:
    """The information cell of ``s`` for agent 1 or 2, in closed form."""
    if agent not in (1, 2):
        raise ValueError("agents are 1 and 2")
    if agent == 1:
        if s.tag == "a":
            return frozenset({STATE_A})
        return frozenset({state_b(s.t, 1), state_b(s.t, 0)})
    tp = s.t_prime
    if tp == _ZERO:
        return frozenset({STATE_A, state_b(_ONE, 1)})
    return frozenset({state_b(tp, 0), state_b(tp + _ONE, 1)})


class EmailGameModel:
    """Symbolic partition model over the full (infinite) chain carrier: the
    ``agents``, closed-form ``cell`` and ``metric``, and ``states = None``
    that ``epistemic`` reads of an infinite carrier, and nothing more."""

    agents = (1, 2)
    states = None  # infinite; closed forms stand in for enumeration

    cell = staticmethod(cell)
    metric = staticmethod(email_metric)


def event_b() -> Event:
    """The event "the coordination game is in state b"; its complement is
    the single state (a,0,0)."""
    return Event(lambda s: s.tag == "b", (STATE_A,))


def truncated_model(T: int) -> AumannModel:
    """Explicit model on ``(a,0,0)`` and all ``(b,t,t')`` with ``t <= T``.

    Agent 2's cell at ``(b,T,T)`` is clipped to a singleton: its other
    member would have ``t = T+1``.  Clipping keeps the chain connected, so
    distances between retained states are unchanged.  ``T`` is an int
    (``operator.index``), not a bool.
    """
    T = _int_at_least(T, 1, "truncation bound must be >= 1")
    # The states in chain order, each built once and shared by both partitions
    # (so cell and set lookups hit on identity), which go in as ids, unchecked.
    states = [STATE_A, *(state_b(t, delta) for t in range(1, T + 1) for delta in (1, 0))]
    id_of = dict(zip(sorted(states, key=str), range(len(states))))
    at = list(map(id_of.get, states))  # the ids by chain position
    part1 = ((at[0],), *zip(at[1::2], at[2::2]))
    part2 = (*zip(at[0::2], at[1::2]), (at[-1],))
    return AumannModel.__new__(AumannModel)._build(id_of, {1: part1, 2: part2})


def check_classical_impossibility(T: int) -> CheckReport:
    """On the ``T``-truncation, B is nowhere classical common knowledge and
    every state reaches the whole clipped carrier."""
    T = _int_at_least(T, 1, "truncation bound must be >= 1")
    model = truncated_model(T)
    b_event = frozenset(s for s in model.states if s.tag == "b")
    carrier = frozenset(model.states)
    report = CheckReport("impossibility", {"T": T})

    ck_holds_at = [s for s in model.states if ck_classical(model, b_event, s)]
    report.add(
        {"claim": "B is not classical common knowledge at any state"},
        "no such state",
        "no such state" if not ck_holds_at else [str(s) for s in ck_holds_at],
        not ck_holds_at,
    )
    not_covering = [s for s in model.states if model.closure(s) != carrier]
    report.add(
        {"claim": "every state reaches the whole truncated carrier"},
        "all closures cover the carrier",
        "all closures cover the carrier" if not not_covering else [str(s) for s in not_covering],
        not not_covering,
    )
    return report


def check_ast_possibility(omega: EmailGameState) -> bool:
    """Is B common knowledge at ``omega`` under galaxy semantics?

    True exactly when (a,0,0) lies at huge link distance from ``omega``,
    i.e. when the message count is huge.
    """
    return ck_subjective(EmailGameModel(), event_b(), omega)


def check_monotone_ck(samples: Iterable[Union[int, HyperNat]]) -> CheckReport:
    """Persistence of the verdict one step along the chain.

    Where B is common knowledge at ``(b,t,t)`` it must stay so at
    ``(b,t-1,t-1)``; where it is not, it must stay not at ``(b,t+1,t+1)``.
    Samples below 1 have no valid state and are skipped with a note.
    """
    counts = [_as_count(s) for s in samples]
    report = CheckReport("monotone", {"samples": [str(c) for c in counts]})
    for tau in counts:
        if tau < _ONE:
            note = f"skipped: no state (b,{tau},{tau})"
            report.add({"t": str(tau)}, note, note, True)
            continue
        here = check_ast_possibility(state_b(tau))
        neighbor = tau - _ONE if here else tau + _ONE
        there = check_ast_possibility(state_b(neighbor))
        report.add(
            {"t": str(tau), "ck": here, "neighbor": str(neighbor)},
            (
                "still common knowledge one step down"
                if here
                else "still not common knowledge one step up"
            ),
            "common knowledge" if there else "not common knowledge",
            there == here,
        )
    return report


def _as_fraction(value: Union[Fraction, int, str]) -> Fraction:
    if isinstance(value, bool) or not isinstance(value, (Fraction, int, str)):
        raise TypeError("payoff parameters are Fractions, ints or strings")
    return Fraction(value)


@dataclass(frozen=True)
class PayoffParams:
    """Coordination payoffs and channel parameters, all exact rationals.

    ``M`` is the reward for coordinating on the right action, ``L`` the
    penalty for the mismatched risky action, ``p`` the prior probability of
    game b and ``eps`` the per-message loss probability.
    """

    M: Fraction
    L: Fraction
    p: Fraction
    eps: Fraction

    def __post_init__(self) -> None:
        for name in ("M", "L", "p", "eps"):
            object.__setattr__(self, name, _as_fraction(getattr(self, name)))
        if self.M <= 0 or self.L <= 0:
            raise ValueError("M and L must be positive")
        if not 0 < self.p < 1:
            raise ValueError("p must lie strictly between 0 and 1")
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie strictly between 0 and 1")


def _payoff(tag: str, own: Action, other: Action, params: PayoffParams) -> Fraction:
    """One agent's payoff in game ``tag``, given its own and the other's action.

    The games are symmetric in the agents: B against A costs L in either
    game, coordinating on the game's own action (A in a, B in b) pays M,
    and everything else pays 0.
    """
    if own == "B" and other == "A":
        return -params.L
    if own == other == tag.upper():
        return params.M
    return Fraction(0)


def payoff_pair(tag: str, action1: Action, action2: Action, params: PayoffParams) -> tuple:
    """Payoffs (agent 1, agent 2) of an action pair in game a or game b."""
    if action1 not in ACTIONS or action2 not in ACTIONS:
        raise ValueError("actions are 'A' and 'B'")
    if tag not in ("a", "b"):
        raise ValueError("tag must be 'a' or 'b'")
    return _payoff(tag, action1, action2, params), _payoff(tag, action2, action1, params)


def state_probability(s: EmailGameState, params: PayoffParams) -> Fraction:
    """Probability that the message protocol halts exactly in state ``s``.

    State a occurs with probability 1-p and no messages.  In state b the
    k-th message on the wire is the first lost one with probability
    (1-eps)**(k-1) * eps, and halting right after it leaves t + t' = k
    messages sent.  Huge counts carry no probability and are rejected.
    """
    if s.tag == "a":
        return 1 - params.p
    if s.t.is_huge:
        raise ValueError("probabilities are defined for finite message counts only")
    k = int(chain_position(s))
    return params.p * (1 - params.eps) ** (k - 1) * params.eps


@dataclass(frozen=True)
class CutoffStrategy:
    """Maps an agent's own message count to an action."""

    rule: Callable[[HyperNat], Action]

    @classmethod
    def play_a_while_finite(cls) -> "CutoffStrategy":
        """A at every finite count, B at every huge one."""
        return cls(rule=lambda count: "A" if count.is_finite else "B")

    def action(self, count: Union[int, HyperNat]) -> Action:
        act = self.rule(_as_count(count))
        if act not in ACTIONS:
            raise ValueError(f"strategy returned {act!r}, expected 'A' or 'B'")
        return act


def cell_by_own_count(agent: int, count: Union[int, HyperNat]) -> frozenset:
    """The information cell an agent sits in after sending ``count`` messages."""
    count = _as_count(count)
    return cell(agent, STATE_A if count == _ZERO else state_b(count, 0))


def best_response_check(
    strategies: Tuple[CutoffStrategy, CutoffStrategy],
    params: PayoffParams,
    own_counts: Iterable[Union[int, HyperNat]],
) -> CheckReport:
    """Cell-by-cell best-response audit of a strategy pair at each own count.

    Each cell state gives one row of (prescribed, deviation) payoffs, and the
    count's tier picks the basis.  Finite cells compare the rows' conditional
    expectations, renormalized on the cell (exact rationals throughout: the
    comparisons are strict inequalities).  Each state's ``state_probability``
    is first divided by that of the cell's first state in chain order, so
    the factor ``p*(1-eps)**(k-1)*eps`` that the cell's states share
    cancels: the sums run over the ratios 1 : (1-eps), or (1-p) : p*eps in
    agent 2's count-0 cell, not over numbers that grow with the count.
    Fractions normalize, so the expectations are the same either way.
    Huge cells carry no probabilities, so the rows are compared pointwise;
    if the preference ever differed across one huge cell the verdict would
    depend on unassigned probabilities, which the report flags as
    insufficient information.

    Each distinct state's probability is computed once per audit and
    shared by every cell that holds it: both agents' cells at one count,
    and neighbouring counts' cells.  Nothing is kept once the audit returns.
    """
    strat = tuple(strategies)
    if len(strat) != 2:
        raise ValueError("need exactly one strategy per agent")
    counts = [_as_count(c) for c in own_counts]
    report = CheckReport(
        "equilibrium",
        dict(
            asdict(params),
            finite_samples=[str(c) for c in counts if c.is_finite],
            huge_samples=[str(c) for c in counts if c.is_huge],
        ),
    )

    probs = {}
    for agent, own, other in ((1, strat[0], strat[1]), (2, strat[1], strat[0])):
        for count in counts:
            cellstates = sorted(cell_by_own_count(agent, count), key=str)
            prescribed = own.action(count)
            deviation = "B" if prescribed == "A" else "A"
            rows = []
            for s in cellstates:
                other_action = other.action(s.t_prime if agent == 1 else s.t)
                rows.append(
                    (
                        _payoff(s.tag, prescribed, other_action, params),
                        _payoff(s.tag, deviation, other_action, params),
                    )
                )
            if count.is_finite:
                for s in cellstates:
                    if s not in probs:
                        probs[s] = state_probability(s, params)
                base = probs[min(cellstates, key=chain_position)]
                weights = [probs[s] / base for s in cellstates]
                total = sum(weights)
                value = sum(w * pres for w, (pres, _) in zip(weights, rows)) / total
                dev_value = sum(w * dev for w, (_, dev) in zip(weights, rows)) / total
                actual = {
                    "basis": "expected",
                    "prescribed": prescribed,
                    "expected_payoff": value,
                    "deviation": deviation,
                    "deviation_payoff": dev_value,
                }
                ok = dev_value <= value
            else:
                if all(dev <= pres for pres, dev in rows):
                    verdict, ok = "no profitable deviation", True
                elif all(dev > pres for pres, dev in rows):
                    verdict, ok = "profitable deviation", False
                else:
                    verdict, ok = (
                        "insufficient information: preference depends on cell probabilities",
                        False,
                    )
                actual = {
                    "basis": "pointwise",
                    "prescribed": prescribed,
                    "prescribed_payoffs": [pres for pres, _ in rows],
                    "deviation": deviation,
                    "deviation_payoffs": [dev for _, dev in rows],
                    "verdict": verdict,
                }
            report.add(
                {"agent": agent, "own_count": str(count), "cell": [str(s) for s in cellstates]},
                "prescribed action is a best response",
                actual,
                ok,
            )
    return report
