"""Combinatory terms over K, S, and oracle atoms.

Canonical syntax, bit-exact: ``K``, ``S``, ``#name`` for oracle atoms and
``(t u)`` for application.  Juxtaposition without parentheses is rejected;
whitespace between tokens is insignificant.  Parsing then printing a term is
the identity.

Variables (``Var``) exist only transiently inside bracket abstraction; stored
terms are always closed.

Enumeration is size-lexicographic: ascending number of applications, ties
broken by canonical text (``term_key``).  Each size level is built once per
atom set and per process, from the smaller levels, and sorted by
``term_key``; the atom set is keyed in ``term_key`` order, so the order the
atoms are given in does not matter.  ``enumerate_over`` returns a fresh list
read from these levels; ``iter_over`` yields the same terms in the same
order and builds a level only when the walk reaches it, so a search that
stops early never pays for the levels it does not reach.
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
class Basic(Term):
    """One of the two primitive combinators, named "K" or "S"."""

    name: str
    size: int = field(default=0, init=False, compare=False)

    def __hash__(self) -> int:
        return hash(self.name)


@dataclass(frozen=True, eq=True, repr=False)
class Oracle(Term):
    """An oracle atom; behaviour is given by a finite table in the structure."""

    name: str
    size: int = field(default=0, init=False, compare=False)

    def __hash__(self) -> int:
        return hash(("#", self.name))


@dataclass(frozen=True, eq=True, repr=False)
class Var(Term):
    """A free variable.  Only legal inside bracket abstraction."""

    name: str
    size: int = field(default=0, init=False, compare=False)

    def __hash__(self) -> int:
        return hash(("$", self.name))


class App(Term):
    """Application node.  Associates to the left in the canonical syntax."""

    __slots__ = ("fn", "arg", "size", "_hash")

    def __init__(self, fn: Term, arg: Term):
        self.fn = fn
        self.arg = arg
        self.size = fn.size + arg.size + 1
        self._hash = hash((fn, arg))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, App):
            return False
        return self._hash == other._hash and self.fn == other.fn and self.arg == other.arg

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
    return any(isinstance(s, Oracle) for s in subterms(t))


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


class TermSyntaxError(ValueError):
    """Raised when a string is not a term in the canonical syntax."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789'")


def _tokenize_term(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()":
            tokens.append((c, c, i))
            i += 1
        elif c == "#":
            j = i + 1
            if j >= n or text[j] not in _IDENT_START:
                raise TermSyntaxError("'#' must be followed by an identifier", i)
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            tokens.append(("oracle", text[i + 1 : j], i))
            i = j
        elif c in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise TermSyntaxError(f"unexpected character {c!r}", i)
    return tokens


def parse_term(text: str, *, allow_vars: bool = False) -> Term:
    """Parse the canonical syntax.  Rejects juxtaposition without parentheses."""
    tokens = _tokenize_term(text)
    term, rest = _parse_one(tokens, 0, allow_vars)
    if rest != len(tokens):
        raise TermSyntaxError("trailing input after term", tokens[rest][2])
    return term


def _parse_one(tokens: list[tuple[str, str, int]], i: int, allow_vars: bool) -> tuple[Term, int]:
    if i >= len(tokens):
        raise TermSyntaxError("unexpected end of input", -1)
    kind, value, pos = tokens[i]
    if kind == "name":
        if value == "K":
            return K, i + 1
        if value == "S":
            return S, i + 1
        if allow_vars:
            return Var(value), i + 1
        raise TermSyntaxError(f"unknown atom {value!r}", pos)
    if kind == "oracle":
        return Oracle(value), i + 1
    if kind == "(":
        fn, j = _parse_one(tokens, i + 1, allow_vars)
        arg, j = _parse_one(tokens, j, allow_vars)
        if j >= len(tokens) or tokens[j][0] != ")":
            where = tokens[j][2] if j < len(tokens) else -1
            raise TermSyntaxError("application takes exactly two terms", where)
        return App(fn, arg), j + 1
    raise TermSyntaxError(f"unexpected token {value!r}", pos)


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
    for n in range(len(levels), size_bound + 1):
        level = [
            App(f, a)
            for i in range(n)
            for f in levels[i]
            for a in levels[n - 1 - i]
        ]
        level.sort(key=term_key)
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
