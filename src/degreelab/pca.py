"""Fuel-bounded evaluator for a partial applicative structure.

The structure is generated by the combinators K and S together with oracle
atoms whose behaviour is a finite table from normal-form arguments to
normal-form results.  Reduction is leftmost-outermost and weak: K applied to
one argument and S applied to one or two arguments are already normal, which
matches the definedness conventions of partial combinatory algebras.

Partiality is explicit: every evaluation returns an `EvalOutcome` that is
``Defined`` (with the unique weak normal form), ``Undefined`` (a head oracle
atom was applied to an argument outside its table -- a definite outcome), or
``Timeout`` (the step budget ran out -- a conservative outcome).  Nothing in
this module raises to signal partiality.

Closed S/K terms form the computable fragment: S/K reduction never introduces
oracle atoms, so the fragment is closed under application.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .terms import (
    App,
    ID,
    K,
    Oracle,
    S,
    Term,
    Var,
    ap,
    enumerate_sk,
    free_vars,
    has_oracle,
    is_closed,
    iter_over,
    to_text,
)

DEFINED = "defined"
UNDEFINED = "undefined"
TIMEOUT = "timeout"

# Terms whose node count passes this bound during reduction time out; it is a
# safety valve against size explosions, not part of the fuel contract.
MAX_WORK_SIZE = 200_000


@dataclass(frozen=True)
class EvalOutcome:
    """Result of a fuel-bounded evaluation."""

    status: str
    term: Term | None = None
    detail: str = ""

    @property
    def is_defined(self) -> bool:
        return self.status == DEFINED

    def __repr__(self) -> str:
        if self.status == DEFINED:
            return f"Defined({to_text(self.term)})"
        return self.status.capitalize() + (f"({self.detail})" if self.detail else "")


def Defined(term: Term) -> EvalOutcome:
    return EvalOutcome(DEFINED, term)


def Undefined(detail: str = "") -> EvalOutcome:
    return EvalOutcome(UNDEFINED, None, detail)


def Timeout(detail: str = "") -> EvalOutcome:
    return EvalOutcome(TIMEOUT, None, detail)


_TIMEOUT = EvalOutcome(TIMEOUT)


class PcaError(ValueError):
    """Structural error in a Pca or an evaluation request."""


@dataclass(eq=False)
class Pca:
    """Oracle tables plus a default step budget.

    K and S reduction is fixed; only the tables vary.  Instances are immutable
    after construction (the memo dicts are internal caches whose entries are
    pure functions of the tables).
    """

    oracles: Mapping[str, Mapping[Term, Term]] = field(default_factory=dict)
    default_fuel: int = 10_000
    _memo: dict = field(default_factory=dict, repr=False)
    _searches: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.default_fuel <= 0:
            raise PcaError("default_fuel must be positive")
        for name, table in self.oracles.items():
            for key, value in table.items():
                for t, role in ((key, "key"), (value, "value")):
                    if not is_closed(t):
                        raise PcaError(f"oracle #{name} {role} {to_text(t)} is not closed")
                    if not is_normal(self, t):
                        raise PcaError(f"oracle #{name} {role} {to_text(t)} is not in normal form")

    def table(self, name: str) -> Mapping[Term, Term] | None:
        return self.oracles.get(name)


EMPTY_PCA = Pca()


def is_normal(pca: Pca, t: Term) -> bool:
    """True when t contains no redex under the reduction rules."""
    stack = [t]
    while stack:
        cur = stack.pop()
        head = cur
        args = []
        while isinstance(head, App):
            args.append(head.arg)
            head = head.fn
        if head is K and len(args) >= 2:
            return False
        if head is S and len(args) >= 3:
            return False
        if isinstance(head, Oracle) and args:
            # An applied oracle is either a redex (table hit) or stuck (miss);
            # stuck applications never occur inside Defined results.
            return False
        stack.extend(args)
    return True


class _Budget:
    __slots__ = ("left", "spent")

    def __init__(self, fuel: int):
        self.left = fuel
        self.spent = 0


def _push_spine(t: Term, stack: list) -> Term:
    """Push the arguments of t onto the stack (first argument on top) and
    return the head."""
    while isinstance(t, App):
        stack.append(t.arg)
        t = t.fn
    return t


def _rebuild(head: Term, done: list) -> EvalOutcome:
    out = head
    for a in done:
        out = App(out, a)
        if out.size > MAX_WORK_SIZE:
            return _TIMEOUT
    return Defined(out)


def _eval(pca: Pca, t: Term, budget: _Budget) -> EvalOutcome:
    """Leftmost-outermost weak reduction, iterative, with memoization.

    The machine works on a head plus an explicit argument stack (top of the
    stack is the next argument), so a contraction costs amortized constant
    work even when terms grow, and reduction depth never touches the
    interpreter stack.  Sub-evaluations (arguments of inert heads, oracle
    arguments) are frames; each is memoized with its exact step count, so
    replaying a cached result is indistinguishable from recomputing it and
    outcomes stay a pure function of (structure, term, fuel).
    """
    frames: list = []
    result: EvalOutcome | None = None
    head: Term | None = None
    stack: list = []
    left, spent = budget.left, budget.spent
    key, started, fresh = t, spent, True
    pending: Term | None = t  # subterm whose evaluation starts the task
    memo = pca._memo
    k_atom, s_atom = K, S

    while True:
        if result is None and pending is not None:
            cached = memo.get(pending)
            if cached is not None:
                status, res, steps = cached
                if status == TIMEOUT and left > steps:
                    cached = None  # a bigger budget may settle it: recompute
                elif status == TIMEOUT or steps > left:
                    spent += left
                    left = 0
                    result = _TIMEOUT
                    fresh = False  # keep the cached entry
                else:
                    left -= steps
                    spent += steps
                    result = EvalOutcome(status, res)
                    fresh = False
            if result is None:
                stack = []
                head = _push_spine(pending, stack)
            pending = None
        if result is None:
            # head-reduce (head, stack) until an outcome or a descent
            while True:
                if head is k_atom and len(stack) >= 2:
                    if left <= 0:
                        result = _TIMEOUT
                        break
                    left -= 1
                    spent += 1
                    head = stack[-1]
                    del stack[-2:]
                    while head.__class__ is App:
                        stack.append(head.arg)
                        head = head.fn
                    continue
                if head is s_atom and len(stack) >= 3:
                    if left <= 0:
                        result = _TIMEOUT
                        break
                    left -= 1
                    spent += 1
                    a, b, c = stack[-1], stack[-2], stack[-3]
                    del stack[-3:]
                    if a.size + b.size + 2 * c.size + 3 > MAX_WORK_SIZE:
                        result = _TIMEOUT
                        break
                    stack.append(App(b, c))
                    stack.append(c)
                    head = a
                    while head.__class__ is App:
                        stack.append(head.arg)
                        head = head.fn
                    continue
                if isinstance(head, Oracle) and stack:
                    arg = stack.pop()
                    frames.append(("oracle", head, stack, key, started, fresh))
                    key, started, fresh = arg, spent, True
                    pending = arg
                    break
                if isinstance(head, Var):
                    raise PcaError(f"cannot evaluate open term: free variable {head.name}")
                if stack:
                    # inert head: normalize the arguments left to right;
                    # non-application arguments are already normal
                    done: list = []
                    while stack:
                        arg = stack.pop()
                        if arg.__class__ is not App:
                            if isinstance(arg, Var):
                                raise PcaError(
                                    f"cannot evaluate open term: free variable {arg.name}"
                                )
                            done.append(arg)
                            continue
                        frames.append(("args", head, stack, done, key, started, fresh))
                        key, started, fresh = arg, spent, True
                        pending = arg
                        break
                    if pending is None:
                        result = _rebuild(head, done)
                    break
                result = Defined(head)
                break
            if pending is not None:
                continue
        # The task keyed by `key` finished with `result`.
        if fresh:
            used = spent - started
            if result.status == TIMEOUT:
                memo[key] = (TIMEOUT, None, used)
            else:
                memo[key] = (result.status, result.term, used)
        if not frames:
            budget.left, budget.spent = left, spent
            return result
        frame = frames.pop()
        if frame[0] == "oracle":
            _, o_head, stack, key, started, fresh = frame
            if not result.is_defined:
                continue  # propagate to the enclosing task
            table = pca.table(o_head.name)
            hit = None if table is None else table.get(result.term)
            if hit is None:
                result = Undefined(f"#{o_head.name} applied to {to_text(result.term)}")
                continue
            if left <= 0:
                result = _TIMEOUT
                continue
            left -= 1
            spent += 1
            head = _push_spine(hit, stack)
            result = None
            continue
        _, head, stack, done, key, started, fresh = frame
        if not result.is_defined:
            continue  # propagate
        done.append(result.term)
        while stack:
            arg = stack.pop()
            if arg.__class__ is not App:
                if isinstance(arg, Var):
                    raise PcaError(f"cannot evaluate open term: free variable {arg.name}")
                done.append(arg)
                continue
            frames.append(("args", head, stack, done, key, started, fresh))
            key, started, fresh = arg, spent, True
            pending = arg
            result = None
            break
        if pending is not None:
            continue
        result = _rebuild(head, done)


def normalize(pca: Pca, t: Term, fuel: int | None = None) -> EvalOutcome:
    """Weak normal form of a closed term within fuel."""
    if fuel is None:
        fuel = pca.default_fuel
    if fuel <= 0:
        raise PcaError("fuel must be positive")
    return _eval(pca, t, _Budget(fuel))


def apply(pca: Pca, a: Term, b: Term, fuel: int | None = None) -> EvalOutcome:
    """Evaluate the application (a b)."""
    return normalize(pca, App(a, b), fuel)


def apply_many(pca: Pca, a: Term, *args: Term, fuel: int | None = None) -> EvalOutcome:
    return normalize(pca, ap(a, *args), fuel)


def element_equal(pca: Pca, a: Term, b: Term, fuel: int | None = None) -> bool | None:
    """Three-valued identity: normal forms compared syntactically.

    Returns True/False for definite answers and None when either side times
    out.  Undefined outcomes compare equal to Undefined only.
    """
    if a == b:
        return True
    oa = normalize(pca, a, fuel)
    ob = normalize(pca, b, fuel)
    if oa.status == TIMEOUT or ob.status == TIMEOUT:
        return None
    if oa.status == UNDEFINED or ob.status == UNDEFINED:
        return oa.status == ob.status
    return oa.term == ob.term


def is_computable(t: Term) -> bool:
    """Membership in the computable sub-structure: no oracle atoms."""
    return not has_oracle(t)


def enumerate_computable(size_bound: int) -> list[Term]:
    """All closed S/K terms with at most size_bound applications, in the
    fixed size-lexicographic order."""
    return enumerate_sk(size_bound)


def iter_computable(size_bound: int) -> Iterator[Term]:
    """The terms of enumerate_computable(size_bound), in the same order,
    generated level by level as the walk reaches them."""
    return iter_over((K, S), size_bound)


class AbstractionError(ValueError):
    """Raised when bracket abstraction is asked to close over the wrong variables."""


def _abstract(name: str, body: Term) -> Term:
    """The standard abstraction rules; other free variables may remain."""
    if isinstance(body, Var) and body.name == name:
        return ID
    if name not in free_vars(body):
        return App(K, body)
    assert isinstance(body, App)
    return ap(S, _abstract(name, body.fn), _abstract(name, body.arg))


def bracket_abstract(name: str, body: Term) -> Term:
    """Closed term t with t.b reducing to body[name := b] for closed b.

    The body may contain the variable `name` and closed subterms only.
    """
    extra = free_vars(body) - {name}
    if extra:
        raise AbstractionError(f"body has free variables besides {name}: {sorted(extra)}")
    return _abstract(name, body)


def abstract_all(names: tuple[str, ...], body: Term) -> Term:
    """Iterated abstraction, innermost variable last: abstract_all(('a','b'), t)
    behaves as a curried function of a then b."""
    t = body
    for n in reversed(names):
        t = _abstract(n, t)
    if not is_closed(t):
        raise AbstractionError(f"result not closed: free {sorted(free_vars(t))}")
    return t


def derive_pairing() -> tuple[Term, Term, Term]:
    """Pairing and projection combinators built by bracket abstraction."""
    a, b, z, p = Var("a"), Var("b"), Var("z"), Var("p")
    pair = abstract_all(("a", "b", "z"), ap(z, a, b))
    fst = abstract_all(("p",), ap(p, K))
    snd = abstract_all(("p",), ap(p, App(K, ID)))
    return pair, fst, snd


PAIR, FST, SND = derive_pairing()
