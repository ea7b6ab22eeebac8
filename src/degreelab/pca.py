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

One machine evaluates (`_eval`).  It runs tasks, one per term whose normal
form it needs: the term asked for, and each argument of an inert head or of
an oracle that the memo does not settle.  A task that waits for such an
argument is suspended as one tuple on an explicit stack, so reduction depth
never touches the interpreter stack.  Each task ends as its memo entry, with
its exact step count; a task whose term comes back unchanged (it made no
contraction, or its K or oracle contractum was the whole remaining term, and
its arguments came back as the same objects) returns the existing term.

Closed S/K terms form the computable fragment: S/K reduction never introduces
oracle atoms, so the fragment is closed under application.  A term's own head
contractions are the first steps of every application of it (`head_normal`),
and the shape of its head normal form then fixes its action key
(`action_key`): terms with one key act alike on every argument, and `act`
answers the keys of ``K u``, ``S u`` and the atoms in closed form.  The keys
of the kept enumeration levels (``terms.CACHED_SIZE`` = 5 applications, 3,238
terms) are computed once per process, as walks (`iter_computable`) first
reach each term, and kept in one table that every structure shares: S/K
reduction reads no oracle table.  Only the enumeration's own term objects
enter it; nothing is built at import.

Realizers are built by bracket abstraction (`abstract_all`).  The shapes
the orders and their comparison maps share are one kit here, each the
abstraction of exactly its body: `compose` (``λx. f (g x)``), `fanout`
(``λx. <f x, g x>``) and `compose_first` (``λu. f <m (fst u), snd u>``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain
from math import comb
from typing import Iterator, Mapping, NamedTuple

from .terms import (
    CACHED_SIZE,
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

# The evaluator memo has two generations.  Before an evaluation, a current
# generation holding more than this many entries becomes the old one and the
# older is dropped; a hit in the old one is copied back into the current one.
# An entry is the finished `EvalOutcome` with its exact step count, so
# eviction changes no outcome, only the time to recompute it, and `normalize`
# answers a hit without starting the machine.  The bound is sized by what the
# entries save: the ten laws suites, each on a fresh structure, run 164,549
# evaluator tasks at a bound of 10,000 entries, 176,224 (+7.1 %) at this
# bound, 186,760 at 2,000 and 242,140 at 300, while the entries between 3,000
# and 10,000 held about 7 MB of the laws run's 30 MB peak.  No `check` and no
# found search reaches this bound.  Entries are counted, not term nodes: no S/K
# term of size 7 or less applied to K, S or the pair of K and K has a normal
# form of more than 168 applications.
MEMO_LIMIT = 3_000


class EvalOutcome(NamedTuple):
    """Result of a fuel-bounded evaluation, with the exact number of steps it
    took.  The steps are left out of equality, so a memo entry can be the
    outcome itself; a tuple, so the entry every caller shares is immutable
    and cheap to build."""

    status: str
    term: Term | None = None
    detail: str = ""
    steps: int = 0

    @property
    def is_defined(self) -> bool:
        return self.status == DEFINED

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EvalOutcome) and self[:3] == other[:3]

    def __ne__(self, other: object) -> bool:  # tuple's own would compare the steps
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:3])

    def __repr__(self) -> str:
        if self.status == DEFINED:
            return f"Defined({to_text(self.term)})"
        return self.status.capitalize() + (f"({self.detail})" if self.detail else "")


_TIMEOUT = EvalOutcome(TIMEOUT)


class PcaError(ValueError):
    """Structural error in a Pca or an evaluation request."""


@dataclass(eq=False)
class Pca:
    """Oracle tables plus a default step budget.

    K and S reduction is fixed; only the tables vary.  Instances are immutable
    after construction; the other fields are internal caches whose entries
    are pure functions of the tables:

    - ``_memo`` and ``_old_memo``, the evaluator memo: the `EvalOutcome` of
      each task the machine ran, keyed by its term, detail and exact step
      count included, in two generations (current and old) of at most about
      ``MEMO_LIMIT`` entries each, a bound sized to what the laws suites
      re-ask; a normal term's entry holds the term itself;
    - ``_actions``, one action index per ``(argument, bound, fuel)`` of
      ``doctrines.find_inner_witness``: the least term reaching each normal
      form, the first timeout, and how far the walk over the terms got;
    - ``_searches``, the search memo of ``search.search_witness``: the
      `SearchOutcome` of each claim searched to the end, keyed by
      ``(doc, lhs, rhs, witness size, fuel)``;
    - ``_claims``, the last claim ``doctrines.check_le`` compiled for each
      doctrine id, a pure function of its families, so that checks which
      alternate claims of two orders compile each once; for a
      forward-backward order it also holds the cells of the last forward
      map read, built whole, and the fuel that map was verified at.
    """

    oracles: Mapping[str, Mapping[Term, Term]] = field(default_factory=dict)
    default_fuel: int = 10_000
    _memo: dict = field(default_factory=dict, repr=False)
    _old_memo: dict = field(default_factory=dict, repr=False)
    _actions: dict = field(default_factory=dict, repr=False)
    _searches: dict = field(default_factory=dict, repr=False)
    _claims: dict = field(default_factory=dict, repr=False)

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


def _eval(pca: Pca, t: Term, fuel: int) -> EvalOutcome:
    """Leftmost-outermost weak reduction of t within fuel, for a t the memo
    does not settle: one machine over an explicit stack of suspended tasks.

    A task evaluates one term.  The running task lives in locals: its memo
    key, the fuel left when it started, its head and argument stack (the
    next argument on top), the normal forms of the arguments done so far,
    and ``node``, the existing term it still equals, if any.  An argument
    of an inert head, or of an oracle, is first looked up in the memo; only
    when the memo does not settle it is the running task suspended, as one
    tuple on the frame list, and the argument run as a task of its own.  So
    a contraction costs amortized constant work even when terms grow, and
    reduction depth never touches the interpreter stack.

    Every task ends as one `EvalOutcome` with its exact step count, which is
    its memo entry.  A task that made no contraction, or whose K or oracle
    contractum was the whole remaining term, and whose arguments came back
    as the same objects, ends with that existing term instead of a rebuilt
    copy; ``MAX_WORK_SIZE`` bounds the result either way.  Replaying a memo
    entry is indistinguishable from recomputing it, so outcomes stay a pure
    function of (structure, term, fuel).
    """
    # tuple.__new__ builds an outcome without EvalOutcome's Python-level __new__
    memo, old, tables, new = pca._memo, pca._old_memo, pca.oracles, tuple.__new__
    frames: list = []  # suspended tasks: (key, started, node, head, stack, done)
    key = node = head = t
    started = left = fuel  # steps of the running task: started - left
    stack: list = []
    done: list = []
    status = term = value = arg = None  # value: an argument's normal form, for the running task
    detail = ""  # empty unless status is UNDEFINED
    while True:
        # contract the head redexes of the running task
        while True:
            while head.__class__ is App:
                stack.append(head.arg)
                head = head.fn
            if head is K:
                if len(stack) < 2:
                    break
                if left <= 0:
                    status = TIMEOUT
                    break
                left -= 1
                head = stack.pop()
                stack.pop()
                node = None if stack else head
            elif head is S:
                if len(stack) < 3:
                    break
                if left <= 0:
                    status = TIMEOUT
                    break
                left -= 1
                a = stack.pop()
                b = stack.pop()
                c = stack[-1]
                if a.size + b.size + 2 * c.size + 3 > MAX_WORK_SIZE:
                    status = TIMEOUT
                    break
                stack[-1] = App(b, c)
                stack.append(c)
                head = a
                node = None
            else:
                break
        if status is None:
            # an inert head or an oracle: normalize the arguments, left to right
            if head.__class__ is Var:
                raise PcaError(f"cannot evaluate open term: free variable {head.name}")
            while True:
                if value is not None:
                    if head.__class__ is Oracle:
                        table = tables.get(head.name)
                        hit = None if table is None else table.get(value)
                        if hit is None:
                            status, detail = UNDEFINED, f"#{head.name} applied to {to_text(value)}"
                        elif left <= 0:
                            status = TIMEOUT
                        else:
                            left -= 1
                            head = hit
                            node = None if stack else hit
                        value = None
                        break
                    done.append(value)
                    if value is not arg:
                        node = None
                    value = None
                if not stack:
                    term = node
                    if term is None:
                        term = head
                        for a in done:
                            term = App(term, a)
                    if term.size > MAX_WORK_SIZE:
                        status, term = TIMEOUT, None
                    else:
                        status = DEFINED
                    break
                arg = stack.pop()
                if arg.__class__ is not App:
                    if arg.__class__ is Var:
                        raise PcaError(f"cannot evaluate open term: free variable {arg.name}")
                    value = arg
                    continue
                hit = memo.get(arg)
                if hit is None:
                    hit = old.get(arg)
                    if hit is not None:
                        memo[arg] = hit  # promote: it is still in use
                if hit is not None:
                    # an entry that took more steps than are left is a timeout;
                    # a timeout entry is rerun when more are left than it ran
                    steps = hit[3]
                    if hit[0] == TIMEOUT:
                        if steps >= left:
                            left, status = 0, TIMEOUT
                            break
                    elif steps > left:
                        left, status = 0, TIMEOUT
                        break
                    else:
                        left -= steps
                        if hit[0] == DEFINED:
                            value = hit[1]
                            continue
                        status, detail = UNDEFINED, hit[2]
                        break
                frames.append((key, started, node, head, stack, done))
                key = node = head = arg
                started = left
                stack = []
                done = []
                break
            if status is None:
                continue  # a task started, or an oracle contracted
        # the running task ends: store it, then hand its outcome to the task it suspended
        while True:
            out = memo[key] = new(EvalOutcome, (status, term, detail, started - left))
            if not frames:
                return out
            arg = key
            key, started, node, head, stack, done = frames.pop()
            if status is DEFINED:
                value, status, term = term, None, None
                break


def normalize(pca: Pca, t: Term, fuel: int | None = None) -> EvalOutcome:
    """Weak normal form of a closed term within fuel.

    A memo entry settles t when it is a definite outcome within fuel (more
    steps than fuel are a timeout) or a timeout at no less fuel; a hit in
    the old generation is copied back."""
    if fuel is None:
        fuel = pca.default_fuel
    if fuel <= 0:
        raise PcaError("fuel must be positive")
    if len(pca._memo) > MEMO_LIMIT:
        pca._old_memo, pca._memo = pca._memo, {}
    hit = pca._memo.get(t)
    if hit is None:
        hit = pca._old_memo.get(t)
        if hit is None:
            return _eval(pca, t, fuel)
        pca._memo[t] = hit  # promote: it is still in use
    if hit.status == TIMEOUT:
        return _eval(pca, t, fuel) if fuel > hit.steps else _TIMEOUT
    return hit if hit.steps <= fuel else _TIMEOUT


# head_normal gives up past this many contractions
HEAD_STEPS = 16

# The action keys of the kept enumeration levels, one process-wide table
# shared by every structure.  It maps each of the first len(_HEADS) terms of
# the S/K enumeration, the kept level's own object, to its ``(key, p)``; walks
# fill it in enumeration order (`iter_computable`), so it never holds more than
# the 3,238 terms of at most ``CACHED_SIZE`` applications, and a term met any
# other way (parsed, built, or past the kept levels) never enters it.
_HEADS: dict[Term, tuple[object, int]] = {}

# How many S/K terms have at most n applications, n <= CACHED_SIZE:
# Catalan(m) shapes of m applications with 2^(m+1) atom choices each.
_KEPT_COUNTS = tuple(accumulate(comb(2 * m, m) // (m + 1) * 2 ** (m + 1) for m in range(CACHED_SIZE + 1)))


def head_normal(t: Term) -> tuple[Term, int]:
    """``(t*, k)``: t after its own head contractions (``K a b c… → a c…``,
    ``S a b c d… → a c (b c) d…``) and their number.  They are exactly the
    first k steps of ``(t x)`` for every x, so ``(t x)`` at fuel f has the
    outcome of ``(t* x)`` at fuel f - k, k steps later, when k < f.

    An S contraction the machine's ``MAX_WORK_SIZE`` valve would stop, more
    than ``HEAD_STEPS`` contractions, or a t* of more than twice t's size
    gives up with ``(t, 0)``; so does a term with no head redex."""
    head, stack, k, size = t, [], 0, t.size
    while True:
        while head.__class__ is App:
            stack.append(head.arg)
            head = head.fn
        if head is K and len(stack) >= 2:
            head = stack.pop()
            size -= stack.pop().size + 2
        elif head is S and len(stack) >= 3:
            a = stack.pop()
            b = stack.pop()
            c = stack[-1]
            size += c.size
            if a.size + b.size + 2 * c.size + 3 > MAX_WORK_SIZE or size > 2 * t.size:
                return t, 0
            stack[-1] = App(b, c)
            stack.append(c)
            head = a
        else:
            break
        k += 1
        if k > HEAD_STEPS:
            return t, 0
    while k and stack:
        head = App(head, stack.pop())
    return (head, k) if k else (t, 0)


def action_key(t: Term, fuel: int) -> tuple[object, int]:
    """``(key, p)``: the computable t acts on every argument as ``key`` does
    under `act`, p steps later; ``(t, 0)`` when p would use the whole fuel.
    A kept term's key (`_filling`) is ``(K, nf(u))`` when t* is ``K u``, p =
    k + steps(u) + 1, and ``(S, S nf(u))`` when it is ``S u``, p = k +
    steps(u); any other key is t*, p = k."""
    entry = (_HEADS.get(t) if t.size <= CACHED_SIZE else None) or head_normal(t)
    return entry if entry[1] < fuel else (t, 0)


def keeps(key) -> bool:
    """Whether verdict tables keep key: a closed form, or a t* of at most CACHED_SIZE applications."""
    return key.__class__ is tuple or key.size <= CACHED_SIZE


def act(pca: Pca, key, a: Term, fuel: int) -> EvalOutcome:
    """The outcome of ``key`` on a within fuel, in steps from when the key
    acts.  ``(K, v)`` gives v; ``(S, f)`` or an atom f gives ``(f a)`` on a
    K, S or oracle atom or a term the memo holds as its own normal form;
    each in 0 steps.  Any other case is evaluated as ``(f a)`` or ``(key
    a)``.  Every cell a check evaluates, of any witness, goes through here
    (`doctrines._check`), as do the inner-witness and image walks.
    Callers pass a term's whole fuel and charge its p after, as the memo
    reads an entry: s steps stand when s + p fits in the fuel, else it is a
    timeout.  So a key's cell runs once per fuel, whatever the p of the
    terms sharing the key (run at fuel - p, a timed-out cell would run
    again from scratch for each smaller p)."""
    if key.__class__ is tuple:
        head, key = key
        if head is K:
            return tuple.__new__(EvalOutcome, (DEFINED, key, "", 0))
    elif key is not K and key is not S:
        return normalize(pca, App(key, a), fuel)
    if a.__class__ is App:
        hit = pca._memo.get(a) or pca._old_memo.get(a)
        known = hit is not None and hit[0] == DEFINED and not hit[3] and a.size + key.size < MAX_WORK_SIZE
    else:
        known = a.__class__ is not Var
    return tuple.__new__(EvalOutcome, (DEFINED, App(key, a), "", 0)) if known else normalize(pca, App(key, a), fuel)


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
    generated level by level as the walk reaches them.  Each kept term the
    walk reaches before any other walk of the process has gets its action
    key entered into ``_HEADS``; once the table holds every kept term of
    the bound, the walk is the enumeration's own."""
    walk = iter_over((K, S), size_bound)
    if len(_HEADS) >= _KEPT_COUNTS[min(size_bound, CACHED_SIZE)]:
        return walk
    return chain(_filling(walk), walk)


def _filling(walk: Iterator[Term]) -> Iterator[Term]:
    """The kept terms of walk, each entered into ``_HEADS`` as it is drawn,
    then the first larger term, after which the caller reads walk itself.
    Every walk starts at the first term and fills in order, so the table
    holds a prefix of the enumeration: term i is new to it exactly when it
    holds i terms."""
    heads, scratch = _HEADS, Pca()
    for i, t in enumerate(walk):
        if i == len(heads):
            if t.size > CACHED_SIZE:
                yield t
                return
            star, k = heads[t] = head_normal(t)
            if star.__class__ is App and star.fn.__class__ is not App:  # K u or S u: nf(u), on a structure of its own
                out = scratch._memo.get(star.arg) or _eval(scratch, star.arg, HEAD_STEPS)
                if out.status == DEFINED and star.fn is K:
                    heads[t] = (K, out.term), k + out.steps + 1
                elif out.status == DEFINED:
                    heads[t] = (S, star if out.term is star.arg else App(S, out.term)), k + out.steps
        yield t


class AbstractionError(ValueError):
    """Raised when bracket abstraction is asked to close over the wrong variables."""


def _abstract(name: str, body: Term, free: set[str]) -> Term:
    """The standard abstraction rules; other free variables may remain, and every variable goes into ``free``."""
    t = _abstract_free(name, body, free)
    return App(K, body) if t is None else t


def _abstract_free(name: str, body: Term, free: set[str]) -> Term | None:
    """The abstraction of body when `name` is free in it, else None, in one
    pass: the children's results decide the rule at each application, and a
    subterm without `name` is not rebuilt."""
    if isinstance(body, Var):
        free.add(body.name)
        return ID if body.name == name else None
    if not isinstance(body, App):
        return None
    fn, arg = _abstract_free(name, body.fn, free), _abstract_free(name, body.arg, free)
    if fn is None and arg is None:
        return None
    return ap(S, App(K, body.fn) if fn is None else fn, App(K, body.arg) if arg is None else arg)


def bracket_abstract(name: str, body: Term) -> Term:
    """Closed term t with t.b reducing to body[name := b] for closed b.

    The body may contain the variable `name` and closed subterms only.
    """
    free: set[str] = set()
    t = _abstract(name, body, free)
    extra = free - {name}
    if extra:
        raise AbstractionError(f"body has free variables besides {name}: {sorted(extra)}")
    return t


def abstract_all(names: tuple[str, ...], body: Term) -> Term:
    """Iterated abstraction, innermost variable last: abstract_all(('a','b'), t)
    behaves as a curried function of a then b."""
    free: set[str] = set()  # the first pass meets every variable of body
    t = body
    for n in reversed(names):
        t = _abstract(n, t, free)
    extra = free - set(names) if names else free_vars(body)
    if extra:
        raise AbstractionError(f"result not closed: free {sorted(extra)}")
    return t


def derive_pairing() -> tuple[Term, Term, Term]:
    """Pairing and projection combinators built by bracket abstraction."""
    a, b, z, p = Var("a"), Var("b"), Var("z"), Var("p")
    pair = abstract_all(("a", "b", "z"), ap(z, a, b))
    fst = abstract_all(("p",), ap(p, K))
    snd = abstract_all(("p",), ap(p, App(K, ID)))
    return pair, fst, snd


PAIR, FST, SND = derive_pairing()


def compose(f: Term, g: Term) -> Term:
    """λx. f (g x): the realizer of f after g."""
    return abstract_all(("x",), App(f, App(g, Var("x"))))


def fanout(f: Term, g: Term) -> Term:
    """λx. <f x, g x>: the realizer pairing f and g on one argument."""
    x = Var("x")
    return abstract_all(("x",), ap(PAIR, App(f, x), App(g, x)))


def compose_first(f: Term, m: Term) -> Term:
    """λu. f <m (fst u), snd u>: f after m on the first component of a pair."""
    u = Var("u")
    return abstract_all(("u",), App(f, ap(PAIR, App(m, App(FST, u)), App(SND, u))))
