"""Three-way verdicts for witness checks.

A check either Holds (echoing the witness it verified), is Refuted (with a
concrete counterexample tuple that can be re-checked independently), or is
Unknown (carrying the locations where evaluation timed out).  Refutations are
definite; Unknown is conservative.
"""

from __future__ import annotations

from dataclasses import dataclass

HOLDS = "holds"
REFUTED = "refuted"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    status: str
    witness: object | None = None
    counterexample: tuple | None = None
    unknowns: tuple = ()
    notes: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    @property
    def refuted(self) -> bool:
        return self.status == REFUTED

    @property
    def unknown(self) -> bool:
        return self.status == UNKNOWN


def holds(witness: object | None = None, notes: tuple[str, ...] = ()) -> Verdict:
    return Verdict(HOLDS, witness=witness, notes=notes)


def refuted(counterexample: tuple, notes: tuple[str, ...] = ()) -> Verdict:
    return Verdict(REFUTED, counterexample=counterexample, notes=notes)


def unknown(unknowns: tuple, notes: tuple[str, ...] = ()) -> Verdict:
    return Verdict(UNKNOWN, unknowns=unknowns, notes=notes)
