"""Combinatory terms over K, S, and oracle atoms.

Canonical syntax, bit-exact: ``K``, ``S``, ``#name`` for oracle atoms and
``(t u)`` for application.  Juxtaposition without parentheses is rejected;
whitespace between tokens is insignificant.  The reader is
``instance.parse_term``, on the tokens of the instance grammar; parsing then
printing a term is the identity.

Variables (``Var``) exist only transiently inside bracket abstraction; stored
terms are always closed.

Every term caches its hash, and an ``App`` hashes its children's cached
ints.  The low bit of that hash is set exactly when the term contains an
oracle atom, so ``has_oracle`` (membership in the computable fragment) is
one read.  The bit is in the hash, not in a fifth ``App`` slot: that slot
measured +3 % to +6 % peak RSS on the laws benchmark, whose bound is 5 %.

Enumeration is size-lexicographic: ascending number of applications, ties
broken by canonical text (``term_key``).  Each size level is built once per
atom set and per process, from the smaller levels, and sorted by text; each
text is composed from the children's texts while the level is built and
dropped after.  The atom set is keyed in ``term_key`` order, so the order
the atoms are given in does not matter.  ``enumerate_over`` returns a fresh
list read from these levels; ``iter_over`` yields the same terms in the
same order and builds a level only when the walk reaches it, so a search
that stops early never pays for the levels it does not reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


class Term:
    """Base class for combinatory terms."""

    __slots__ = ()

    size: int  # number of applications

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {to_text(self)}>"


@dataclass(frozen=True, eq=True, repr=False)
class _Atom(Term):
    """An atom: its name, no applications, and its hash cached with the
    low bit set exactly for oracle atoms."""

    name: str
    size: int = field(default=0, init=False, compare=False)
    _hash: int = field(default=0, init=False, compare=False)

    def __post_init__(self):
        h = hash((type(self).__name__, self.name))
        object.__setattr__(self, "_hash", h | 1 if type(self) is Oracle else h & -2)

    def __hash__(self) -> int:
        return self._hash


class Basic(_Atom):
    """One of the two primitive combinators, named "K" or "S"."""


class Oracle(_Atom):
    """An oracle atom; behaviour is given by a finite table in the structure."""


class Var(_Atom):
    """A free variable.  Only legal inside bracket abstraction."""


class App(Term):
    """Application node.  Associates to the left in the canonical syntax."""

    __slots__ = ("fn", "arg", "size", "_hash")

    def __init__(self, fn: Term, arg: Term):
        self.fn = fn
        self.arg = arg
        self.size = fn.size + arg.size + 1
        f, g = fn._hash, arg._hash
        h = hash((f, g))
        self._hash = h | 1 if f & 1 or g & 1 else h & -2  # low bit: has_oracle

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, App) or self._hash != other._hash:
            return False
        # Shared children are common (the evaluator memo, enumerated
        # levels), so compare by identity before recursing.
        fn, arg = other.fn, other.arg
        return (self.fn is fn or self.fn == fn) and (self.arg is arg or self.arg == arg)

    def __repr__(self) -> str:
        return f"<App {to_text(self)}>"


K = Basic("K")
S = Basic("S")


def ap(t: Term, *args: Term) -> Term:
    """Left-associated application: ap(a, b, c) is ((a b) c)."""
    for a in args:
        t = App(t, a)
    return t


ID = ap(S, K, K)  # the identity combinator S K K


def pair_term(a: Term, b: Term) -> Term:
    """The normal form the derived pairing combinator produces on a and b."""
    return ap(S, ap(S, ID, App(K, a)), App(K, b))


def split_pair(t: Term) -> tuple[Term, Term] | None:
    """Decompose a term of the shape produced by pair_term, else None."""
    # S (S (SKK) (K a)) (K b)
    if not isinstance(t, App) or not isinstance(t.arg, App) or t.arg.fn is not K:
        return None
    left = t.fn
    if not isinstance(left, App) or left.fn is not S:
        return None
    inner = left.arg
    if not isinstance(inner, App) or not isinstance(inner.arg, App) or inner.arg.fn is not K:
        return None
    if not isinstance(inner.fn, App) or inner.fn.fn is not S or inner.fn.arg != ID:
        return None
    return inner.arg.arg, t.arg.arg


def to_text(t: Term) -> str:
    """Canonical textual form."""
    parts: list[str] = []
    _render(t, parts)
    return "".join(parts)


def _render(t: Term, out: list[str]) -> None:
    stack: list[object] = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, App):
            stack.extend((")", item.arg, " ", item.fn, "("))
        elif isinstance(item, Basic):
            out.append(item.name)
        elif isinstance(item, Oracle):
            out.append("#" + item.name)
        elif isinstance(item, Var):
            out.append(item.name)
        else:  # pragma: no cover
            raise TypeError(f"not a term: {item!r}")


def term_key(t: Term) -> tuple[int, str]:
    """Total order on terms: size first, then canonical text."""
    return (t.size, to_text(t))


def subterms(t: Term) -> Iterator[Term]:
    stack = [t]
    while stack:
        cur = stack.pop()
        yield cur
        if isinstance(cur, App):
            stack.append(cur.fn)
            stack.append(cur.arg)


def free_vars(t: Term) -> frozenset[str]:
    return frozenset(s.name for s in subterms(t) if isinstance(s, Var))


def is_closed(t: Term) -> bool:
    return not any(isinstance(s, Var) for s in subterms(t))


def has_oracle(t: Term) -> bool:
    return bool(t._hash & 1)


def subst(t: Term, name: str, value: Term) -> Term:
    """Replace every occurrence of the variable `name` in t by value."""
    if isinstance(t, Var):
        return value if t.name == name else t
    if isinstance(t, App):
        fn = subst(t.fn, name, value)
        arg = subst(t.arg, name, value)
        if fn is t.fn and arg is t.arg:
            return t
        return App(fn, arg)
    return t


def enumerate_sk(size_bound: int) -> list[Term]:
    """All closed S/K terms with at most size_bound applications.

    Deterministic size-lexicographic order: ascending number of applications,
    ties broken by canonical text.
    """
    return enumerate_over((K, S), size_bound)


# Size levels of the enumeration, keyed by the atoms in term_key order: the
# list at index n holds every term with n applications, sorted by term_key.
# Levels are built on first use and kept for the life of the process.
_LEVELS: dict[tuple[Term, ...], list[list[Term]]] = {}


def _levels(atoms: tuple[Term, ...], size_bound: int) -> list[list[Term]]:
    key = tuple(sorted(atoms, key=term_key))
    levels = _LEVELS.setdefault(key, [list(key)])
    text: dict[int, str] = {}  # id(term) -> to_text(term), for this build only

    def composed(t: Term) -> str:  # the text of t, from its children's
        return f"({text[id(t.fn)]} {text[id(t.arg)]})" if t.size else to_text(t)

    done = 0  # the levels whose texts are in `text`
    for n in range(len(levels), size_bound + 1):
        for level in levels[done:]:
            text.update((id(t), composed(t)) for t in level)
        done = n
        level = [App(f, a) for i in range(n) for f in levels[i] for a in levels[n - 1 - i]]
        level.sort(key=composed)  # one size per level: by text is by term_key
        levels.append(level)
    return levels


def enumerate_over(atoms: tuple[Term, ...], size_bound: int) -> list[Term]:
    """Size-lexicographic enumeration of applicative terms over given atoms,
    as a fresh list read from the level cache."""
    out: list[Term] = []
    for level in _levels(atoms, size_bound)[: size_bound + 1]:
        out.extend(level)
    return out


def iter_over(atoms: tuple[Term, ...], size_bound: int) -> Iterator[Term]:
    """The terms of ``enumerate_over(atoms, size_bound)``, in the same order,
    reaching (and building) a size level only when the walk gets there."""
    # Levels are read through enumerate_over, not from _LEVELS, so a wrapper
    # installed on it (the benchmark's layer tracer) sees every enumeration.
    done = 0
    for n in range(size_bound + 1):
        prefix = enumerate_over(atoms, n)
        yield from prefix[done:]
        done = len(prefix)
