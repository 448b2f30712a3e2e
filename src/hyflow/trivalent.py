"""Three-valued (Kleene) logic for predicates evaluated over sets.

A comparison over a set of values may hold for all of them (TRUE), none of
them (FALSE), or only some (UNKNOWN). Conjunction and disjunction follow
Kleene's strong semantics; guards negate structurally, through
`expr.Comparison.negate`.
"""

from __future__ import annotations

import enum


class Trivalent(enum.Enum):
    TRUE = 1
    FALSE = 0
    UNKNOWN = 2

    def __and__(self, other: "Trivalent") -> "Trivalent":
        if self is Trivalent.FALSE or other is Trivalent.FALSE:
            return Trivalent.FALSE
        if self is Trivalent.TRUE and other is Trivalent.TRUE:
            return Trivalent.TRUE
        return Trivalent.UNKNOWN

    def __or__(self, other: "Trivalent") -> "Trivalent":
        if self is Trivalent.TRUE or other is Trivalent.TRUE:
            return Trivalent.TRUE
        if self is Trivalent.FALSE and other is Trivalent.FALSE:
            return Trivalent.FALSE
        return Trivalent.UNKNOWN

    def __bool__(self):
        raise TypeError(
            "Trivalent is not a boolean; test against Trivalent.TRUE/FALSE/UNKNOWN"
        )
