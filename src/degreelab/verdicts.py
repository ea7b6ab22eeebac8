"""Three-way verdicts for witness checks.

A check either Holds (echoing the witness it verified), is Refuted (with a
concrete counterexample tuple that can be re-checked independently), or is
Unknown (carrying the locations where evaluation timed out).  Refutations are
definite; Unknown is conservative.

A verdict keeps its locations raw (points, terms and reason strings, as the
check found them) and renders them with ``point_text`` only when
``counterexample`` or ``unknowns`` is read, so a search that discards a
refuted candidate's verdict never pays for printing it.  An item that is
already text renders as itself.
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
    where: tuple | None = None  # the refuting location, raw
    timeouts: tuple = ()  # the unknown locations, raw: a text or a tuple each
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

    @property
    def counterexample(self) -> tuple[str, ...] | None:
        return None if self.where is None else _render(self.where)

    @property
    def unknowns(self) -> tuple:
        return tuple(u if isinstance(u, str) else _render(u) for u in self.timeouts)


def _render(where: tuple) -> tuple[str, ...]:
    from .spaces import point_text  # spaces imports this module

    return tuple(map(point_text, where))


def holds(witness: object | None = None, notes: tuple[str, ...] = ()) -> Verdict:
    return Verdict(HOLDS, witness=witness, notes=notes)


def refuted(counterexample: tuple, notes: tuple[str, ...] = ()) -> Verdict:
    return Verdict(REFUTED, where=counterexample, notes=notes)


def unknown(unknowns: tuple, notes: tuple[str, ...] = ()) -> Verdict:
    return Verdict(UNKNOWN, timeouts=unknowns, notes=notes)
