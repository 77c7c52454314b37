"""Graded equivalences over a threshold ladder, and sorites chain checks.

A ladder assigns each finite level ``n`` a bound ``t(n)``; two points lie in
level ``n`` when their distance is below ``t(n)``, except that level 0 only
holds at distance zero.  When the ladder doubles (``2*t(n) <= t(n+1)``), two
level-``n`` steps compose into one level-``n+1`` step, so the union over all
finite levels is an equivalence.  Its classes are galaxies: the points at
finite distance from a center.  Galaxies stay predicates; over an infinite
carrier they cannot be materialized as sets.

A walk of unit steps never leaves a galaxy within finitely many steps, yet a
walk of huge length ends outside it, and no representable index marks the
crossing.  ``verify_generating_axioms`` audits the ladder clauses on a
concrete sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from .hypernat import HyperNat, _coerce, _int_at_least, finite, gap
from .reports import CheckReport

__all__ = ["GeneratingSequence", "SoritesRelation", "chain_relation"]

Distance = Callable[[Any, Any], Optional[HyperNat]]


@dataclass(frozen=True)
class GeneratingSequence:
    """Threshold ladder; sound when strictly increasing, finite-valued and
    doubling (``2*t(n) <= t(n+1)``).

    ``threshold`` must be a pure function of the level: each bound is
    computed once and memoized.
    """

    threshold: Callable[[int], HyperNat]
    _bounds: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def powers_of_two(cls) -> "GeneratingSequence":
        """The default ladder t(n) = 2**n."""
        return cls(lambda n: finite(2**n))

    def bound(self, n: int) -> HyperNat:
        t = self._bounds.get(n)
        if t is None:
            if n < 0:
                raise ValueError("ladder levels are nonnegative")
            t = _coerce(self.threshold(n))
            if t is None:
                raise TypeError(f"the threshold of level {n} is not a HyperNat or int")
            self._bounds[n] = t
        return t

    def doubling_violations(self, n_max: int) -> list:
        """Levels ``n < n_max`` at which the ladder is unsound; ``n_max`` is
        a nonnegative int (``operator.index``), not a bool."""
        bad = []
        for n in range(_int_at_least(n_max, 0, "ladder levels are nonnegative")):
            lo, hi = self.bound(n), self.bound(n + 1)
            if not (lo.is_finite and hi.is_finite) or not lo < hi or lo * 2 > hi:
                bad.append(n)
        return bad


@dataclass(frozen=True)
class SoritesRelation:
    """Equivalence decided by distance finiteness, with graded level sets.

    ``dist`` must be a symmetric HyperNat distance; it may return None to
    mean "no distance at all" (e.g. unreachable states), which relates
    nothing.
    """

    dist: Distance
    gen: GeneratingSequence = field(default_factory=GeneratingSequence.powers_of_two)

    def in_level(self, n: int, x: Any, y: Any) -> bool:
        """Level-``n`` membership; level 0 holds only at distance zero."""
        d = self.dist(x, y)
        if d is None:
            return False
        if n == 0:
            return d == 0
        # A memo hit skips the call; bound() computes and checks every threshold.
        t = self.gen._bounds.get(n)
        return d < (t if t is not None else self.gen.bound(n))

    def related(self, x: Any, y: Any) -> bool:
        """Galaxy membership: ``y`` lies in the galaxy around ``x`` when
        their distance is finite, i.e. some finite level applies."""
        d = self.dist(x, y)
        return d is not None and d.is_finite

    def verify_generating_axioms(self, sample: Iterable[Any], n_max: int) -> CheckReport:
        """Audit reflexivity, symmetry and step composition on a sample.

        Composition demands that two level-``n`` steps land within level
        ``n+1``; every violated tuple is listed in the report.  ``n_max`` is
        a nonnegative int (``operator.index``), not a bool.

        Each point's level-``n`` row is built once, before level ``n``'s
        pair loop, and composition reads the rows' bits; with reflexivity
        and symmetry, an audit of S points makes
        ``(n_max+2)·S² + (n_max+1)·(S+2·S²)`` level tests.
        """
        n_max = _int_at_least(n_max, 0, "ladder levels are nonnegative")
        points = list(sample)
        reflexivity: list = []
        symmetry: list = []
        composition: list = []
        in_level = self.in_level

        def rows(n: int) -> list:
            """Each point's level-n row: bit k of x's row is set when ``in_level(n, x, z_k)``."""
            return [sum(1 << k for k, z in enumerate(points) if in_level(n, x, z)) for x in points]

        below = rows(0)
        for n in range(n_max + 1):
            above = rows(n + 1)
            for x in points:
                if not in_level(n, x, x):
                    reflexivity.append({"n": n, "x": str(x)})
            for i, x in enumerate(points):
                for j, y in enumerate(points):
                    xy = in_level(n, x, y)
                    if xy != in_level(n, y, x):
                        symmetry.append({"n": n, "x": str(x), "y": str(y)})
                    if not xy:
                        continue
                    # The z within level n of y but not within level n+1 of
                    # x, in sample order.
                    escaped = below[j] & ~above[i]
                    while escaped:
                        low = escaped & -escaped
                        z = points[low.bit_length() - 1]
                        composition.append({"n": n, "x": str(x), "y": str(y), "z": str(z)})
                        escaped ^= low
            below = above
        report = CheckReport("generating-axioms", {"n_max": n_max, "sample_size": len(points)})
        for clause, bad in (
            ("reflexivity", reflexivity),
            ("symmetry", symmetry),
            ("composition", composition),
        ):
            report.add(
                {"clause": clause},
                "no violations",
                "no violations" if not bad else bad,
                not bad,
            )
        return report


def chain_relation(gen: Optional[GeneratingSequence] = None) -> SoritesRelation:
    """The relation on chain indices whose distance is the index gap."""
    return SoritesRelation(dist=gap, gen=gen or GeneratingSequence.powers_of_two())
