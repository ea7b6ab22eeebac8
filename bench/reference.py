"""Independent reference reducer for the benchmark's expected answers.

Naive leftmost-outermost weak S/K reduction over terms written as nested
tuples: an atom is a string ("K", "S", or any other name, which stays inert)
and an application is a pair ``(fn, arg)``.  It shares no code with the
program under test, so the answers it gives can check that program.
"""

from __future__ import annotations

import re


def app(t, *args):
    for a in args:
        t = (t, a)
    return t


def step(t):
    """Contract the leftmost-outermost weak redex of t; None when t is normal."""
    head, args = t, []
    while isinstance(head, tuple):
        head, arg = head
        args.append(arg)
    args.reverse()
    if head == "K" and len(args) >= 2:
        return app(args[0], *args[2:])
    if head == "S" and len(args) >= 3:
        x, y, z = args[:3]
        return app(x, z, (y, z), *args[3:])
    for i, a in enumerate(args):
        reduced = step(a)
        if reduced is not None:
            args[i] = reduced
            return app(head, *args)
    return None


def size(t) -> int:
    """Number of applications."""
    return size(t[0]) + size(t[1]) + 1 if isinstance(t, tuple) else 0


def normalize(t, fuel: int, max_size: int = 400):
    """(normal form, steps) of t, or (None, steps) when fuel or size runs out.

    The size cap keeps the recursion in step and size shallow."""
    for steps in range(fuel + 1):
        if size(t) > max_size:
            return None, steps
        nxt = step(t)
        if nxt is None:
            return t, steps
        t = nxt
    return None, fuel


def show(t) -> str:
    """The program's canonical syntax: atoms as written, ``(f a)`` for application."""
    if isinstance(t, tuple):
        return f"({show(t[0])} {show(t[1])})"
    return t


_TOKEN = re.compile(r"\s*([()]|#?[A-Za-z_][A-Za-z0-9_']*)")


def parse(text: str):
    """Inverse of show."""
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != re.sub(r"\s+", "", text):
        raise ValueError(f"not a term: {text!r}")
    stack = [[]]
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            parts = stack.pop()
            if len(parts) != 2:
                raise ValueError(f"application takes two terms: {text!r}")
            stack[-1].append((parts[0], parts[1]))
        else:
            stack[-1].append(tok)
    if len(stack) != 1 or len(stack[0]) != 1:
        raise ValueError(f"not a term: {text!r}")
    return stack[0][0]


def key(t):
    """The program's documented term order: size first, then canonical text."""
    return (size(t), show(t))


def enumerate_sk(max_size: int) -> list:
    """Every S/K term with at most max_size applications, in key order."""
    levels = [["K", "S"]]
    for n in range(1, max_size + 1):
        levels.append([(f, a) for i in range(n) for f in levels[i] for a in levels[n - 1 - i]])
    return sorted((t for level in levels for t in level), key=key)


def pair(a, b):
    """S (S (S K K) (K a)) (K b): the normal form of pairing a with b."""
    return app("S", app("S", app("S", "K", "K"), ("K", a)), ("K", b))
