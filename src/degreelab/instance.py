"""The instance file format: one textual grammar for every declaration.

A file is a sequence of declarations; every name must be declared before it
is referenced.  Oracle tables are collected first (they fix the structure all
terms are validated against).  Terms use the canonical syntax everywhere.
Line comments start with ``//``.

    oracle #o1 { K -> S, S -> K }
    fuel 10000
    universe U = [K, S, #o1]
    carrier X = [K, S]
    carrier P = product X X
    assembly A { point x names [K] point y names [S, (K K)] }
    morphism f : X -> X realizer ((S K) K) graph { K -> K, S -> S }
    extmorphism m : A -> A realizer ((S K) K) pointmap { (K, x) -> x, ... }
    tracked t over X { K -> K, S -> S }
    family phi over X policy nonempty { K -> [K], S -> [S] }
    family psi over A { (K, x) -> [K], ... }
    predicate F over X index Y { (K, K) -> [S], ... }
    extpredicate e over X { K -> [[K], []], S -> [] }
    dialpredicate d over X { (K; [K, S]) -> [K], ... }
    witness w1 = uniform ((S K) K)
    witness w2 = perpoint { K -> K, (K, S) -> (K K) }
    witness w3 = fwback k = f, h = K
    witness w4 = extfwback k = m, h = K
    witness w5 = bounded 5
    witness w6 = dial { (K; [K]) -> [S] } h = K
    witness w7 = extstrong k = K, choice { (K; [K]) -> [S] }, h = K
    witness w8 = mediate h = f, base = w1
    compobject c1 = forall full T leg f payload t
    claim c : phi <=_M psi by w1
    result c holds

Machine-format reports are a subset of the same grammar (``result`` lines),
so reports re-parse and search output can be fed back to ``check``.

Terms, instance files and ``parse_term`` (one term on its own) share one
token grammar and one reader over words: the tokens from one ``findall``.
Lines and spans come from the scanner ``_tokenize`` when an error or a raw
item needs them.  Tokens (whitespace separates them; a line feed starts a line):

    identifier   a letter (``str.isalpha``) or ``_``, then any characters
                 that are ``str.isalnum``, ``_`` or ``'``: ``phi``, ``x'``
    oracle name  ``#`` then at least one such character: ``#o1``
    integer      characters that are ``str.isdigit``: ``10000``
    punctuation  ``->  <=_  (  )  [  ]  {  }  ,  ;  :  =``
    comment      ``//`` to the end of the line

Any other character is an error.  No declaration word is reserved:
``oracle`` heads a declaration only before an oracle name and ``fuel`` only
before an integer, so both can also name a carrier, family or witness.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

from .completions import CompletionObject, CompletionWitness
from .doctrines import (
    ALLOW_EMPTY,
    DOCTRINES,
    NONEMPTY,
    Bounded,
    DialecticaPredicate,
    DialecticaWitness,
    ExtStrong,
    ExtendedPredicate,
    ForwardBackward,
    MassFamily,
    PerPoint,
    Predicate,
    TrackedFamily,
    Uniform,
)
from .pca import Pca
from .spaces import (
    Assembly,
    ExtMorphism,
    FinMap,
    FinSet,
    SpaceError,
    assembly,
    carrier,
    carrier_product,
    ext_product,
    point_text,
)
from .terms import App, Oracle, Term, K, S, term_key, to_text


class InstanceError(ValueError):
    """Parse or validation failure, with a line number."""

    def __init__(self, message: str, line: int | None = None):
        where = f"line {line}: " if line else ""
        super().__init__(where + message)
        self.line = line


@dataclass
class Claim:
    name: str
    lhs: str
    doc: str
    rhs: str
    witness: str


@dataclass
class ResultLine:
    claim: str
    status: str
    counterexample: tuple = ()  # the items' source texts
    unknowns: int = 0


@dataclass
class Instance:
    pca: Pca
    fuel: int = 10_000
    universes: dict = field(default_factory=dict)
    carriers: dict = field(default_factory=dict)
    assemblies: dict = field(default_factory=dict)
    morphisms: dict = field(default_factory=dict)
    extmorphisms: dict = field(default_factory=dict)
    tracked: dict = field(default_factory=dict)
    families: dict = field(default_factory=dict)
    predicates: dict = field(default_factory=dict)
    extpredicates: dict = field(default_factory=dict)
    dialpredicates: dict = field(default_factory=dict)
    compobjects: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    claims: list = field(default_factory=list)
    results: list = field(default_factory=list)
    decls: list = field(default_factory=list)  # (kind, name) in file order
    declared: set = field(default_factory=set)  # the names in decls

    def element(self, name: str, error=InstanceError):
        """The family, predicate or completion object declared as ``name``."""
        return _resolve(name, "no family/predicate/object named", (self.tracked, self.families, self.predicates,
                        self.extpredicates, self.dialpredicates, self.compobjects), error)


# ---------------------------------------------------------------------------
# Tokenizer

# One pattern, matched at each position in turn; the first alternative that
# matches wins, so "<=_" is punctuation before "_" could start an identifier,
# and ``other`` takes any single character the rest do not.  In Python's
# Unicode patterns \s is exactly ``str.isspace`` and \w exactly
# ``str.isalnum`` or "_".
_TOKEN = re.compile(r"""
    (?P<space>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<punct>->|<=_|[()\[\]{},;:=])
  | (?P<oracle>\#[\w']*)
  | (?P<int>[0-9]+)
  | (?P<ident>[A-Za-z_][\w']*)
  | (?P<other>.)
""", re.VERBOSE | re.DOTALL)
_WORD_REST = re.compile(r"[\w']*")


@dataclass(slots=True)
class Tok:
    kind: str  # ident | oracle | int | punct
    text: str
    line: int
    start: int  # source span
    end: int


def _tokenize(text: str) -> list[Tok]:
    toks: list[Tok] = []
    n, line = len(text), 1
    # End of the last token.  A token extended past its match ("é1", "1²")
    # covers the matches that follow inside it; they are skipped.
    resume = 0
    for m in _TOKEN.finditer(text):
        i, j = m.span()
        if i < resume:
            continue
        kind = m.lastgroup
        if kind == "space":
            line += text.count("\n", i, j)
            continue
        if kind == "comment":
            continue
        if kind == "other":
            # A non-ASCII letter or digit, or a stray character.  The str
            # predicates decide, since they differ from \d and \w on
            # characters such as "²" (a digit) and "½" (neither).
            c = text[i]
            if c.isdigit():
                kind = "int"
            elif c.isalpha():
                kind, j = "ident", _WORD_REST.match(text, j).end()
            else:
                raise InstanceError(f"unexpected character {c!r}", line)
        if kind == "int":
            while j < n and text[j].isdigit():  # digits beyond ASCII, as in "1²"
                j += 1
        elif kind == "oracle":
            if j == i + 1:
                raise InstanceError("'#' must start an oracle name", line)
            toks.append(Tok(kind, text[i + 1 : j], line, i, j))
            continue
        toks.append(Tok(kind, text[i:j], line, i, j))
        resume = j
    return toks


# Each match skips the whitespace and comments in front of a word; the word
# group always matches next (``.`` or the end), so the skip is never backtracked
# into.  On ASCII text a word that is no token is a lone "#" or a character no
# token starts with; such text, and non-ASCII text, goes to ``_tokenize``.
_WORD = re.compile(r"(?:\s|//[^\n]*)*(->|<=_|[()\[\]{},;:=]|#[\w']*|[0-9]+|[A-Za-z_][\w']*|.|\Z)", re.DOTALL)
_NOT_A_WORD = frozenset(c for c in map(chr, range(128)) if not (c.isalnum() or c in "_()[]{},;:="))
# A word's kind, from its first character (punctuation is compared whole).
_KIND = {"ident": lambda c: c.isalpha() or c == "_", "int": str.isdigit, "oracle": "#".__eq__}


class _Parser:
    """A reader over ``words``, the token texts (an oracle name keeps its "#")
    and then "": word ``k`` is token ``k``, whose line and span it reads."""

    def __init__(self, source: str):
        self.source = source
        self.i = 0
        words = _WORD.findall(source) if source.isascii() else None
        if words is not None and _NOT_A_WORD.isdisjoint(words):
            del words[words.index("") + 1 :]
        else:  # raises the scanner's error, if any
            self.toks = _tokenize(source)
            words = ["#" + t.text if t.kind == "oracle" else t.text for t in self.toks] + [""]
        self.words = words
        self.atoms: dict[str, Term] = {"K": K, "S": S}  # word -> atom
        # (id(fn), id(arg)) -> the application built; its parts keep the ids live
        self.built: dict[tuple[int, int], App] = {}

    @functools.cached_property
    def toks(self) -> list[Tok]:
        return _tokenize(self.source)

    def error(self, message: str, at: int | None = None) -> InstanceError:
        """``message`` on the line of word ``at`` (default: the next; past the end, the last)."""
        at, toks = self.i if at is None else at, self.toks
        return InstanceError(message, toks[min(at, len(toks) - 1)].line if toks else 0)

    def unexpected(self, want: str, at: int) -> InstanceError:
        return self.error(f"expected {want}, found {self.toks[at].text!r}", at)

    def peek(self) -> str:
        return self.words[self.i]

    def next(self) -> str:
        word = self.words[self.i]
        if not word:
            raise self.error("unexpected end of file")
        self.i += 1
        return word

    def expect(self, word: str) -> None:
        if self.next() != word:
            raise self.unexpected(repr(word), self.i - 1)

    def expect_kind(self, kind: str) -> str:
        word = self.next()
        if not _KIND[kind](word[0]):
            raise self.unexpected(repr(kind), self.i - 1)
        return word

    def eat(self, word: str) -> bool:
        if self.words[self.i] == word:
            self.i += 1
            return True
        return False

    # -- terms and combinators -------------------------------------------

    def term(self) -> Term:
        """One term, read in one loop over an explicit stack of open
        applications.  A term equal to one this parse built is that object."""
        words, built, atoms = self.words, self.built, self.atoms
        open_apps: list = []  # per open "(": its function, or None before it is read
        i = self.i
        while True:
            word = words[i]
            i += 1
            if word == "(":
                open_apps.append(None)
                continue
            t = atoms.get(word)
            if t is None:
                if word[:1] != "#":
                    self.i = i - 1
                    self.next()  # raises at the end of the file
                    raise self.unexpected("a term", i - 1)
                t = atoms[word] = Oracle(word[1:])
            while open_apps:
                fn = open_apps[-1]
                if fn is None:
                    open_apps[-1] = t
                    break
                open_apps.pop()
                if words[i] != ")":
                    self.i = i
                    self.expect(")")  # raises
                i += 1
                key = (id(fn), id(t))
                app = built.get(key)
                if app is None:
                    app = built[key] = App(fn, t)
                t = app
            else:
                self.i = i
                return t

    def items(self, open: str, close: str, item) -> list:
        """``open item, item, ... close``, possibly empty."""
        self.expect(open)
        out = []
        if self.peek() != close:
            out.append(item())
            while self.eat(","):
                out.append(item())
        self.expect(close)
        return out

    def table(self, key, value) -> dict:
        """``{ key -> value, ... }``; a repeated key keeps its last value."""
        def entry():
            k = key()
            self.expect("->")
            return k, value()
        return dict(self.items("{", "}", entry))

    def pair(self, first, sep: str, second) -> tuple:
        """``(first sep second)``."""
        self.expect("(")
        a = first()
        self.expect(sep)
        b = second()
        self.expect(")")
        return a, b

    def term_list(self) -> tuple[Term, ...]:
        return tuple(self.items("[", "]", self.term))

    def term_set(self) -> frozenset:
        return frozenset(self.items("[", "]", self.term))

    def ident(self) -> str:
        return self.expect_kind("ident")

    def integer(self) -> int:
        word = self.expect_kind("int")
        try:
            return int(word)
        except ValueError as e:  # a digit int() rejects, such as '²'
            raise self.error(str(e), self.i - 1) from None

    def assign(self, word: str) -> None:
        """``word =``, as in ``k = f``."""
        self.expect(word)
        self.expect("=")


def parse_term(text: str) -> Term:
    """One term in the canonical syntax, read with the instance tokens."""
    p = _Parser(text)
    term = p.term()
    if p.peek():
        raise p.error("trailing input after term")
    return term


def _resolve(name: str, unknown: str, sections, error=InstanceError):
    """The value ``name`` was declared with, from the first of ``sections``
    that has it; else ``error("unknown 'name'")`` is raised."""
    for section in sections:
        if name in section:
            return section[name]
    raise error(f"{unknown} {name!r}")


def _name(p: _Parser, unknown: str, *sections):
    """The earlier declaration the next identifier names; an unknown name is
    reported on its own line."""
    error = functools.partial(p.error, at=p.i)
    return _resolve(p.ident(), unknown, sections, error)


def _object(p: _Parser, inst: Instance):
    return _name(p, "unknown carrier/assembly", inst.carriers, inst.universes, inst.assemblies)


def _morphism(p: _Parser, inst: Instance):
    return _name(p, "unknown morphism", inst.morphisms, inst.extmorphisms)


# ---------------------------------------------------------------------------
# Keys (context-dependent: carrier points are terms, assembly keys are
# naming pairs "(term, pointid)")


def _parse_key(p: _Parser, base) -> object:
    if isinstance(base, FinSet):
        return p.term()
    return p.pair(p.term, ",", lambda: _parse_point(p, base))


def _point_id(p: _Parser):
    word = p.next()
    if not _KIND["ident"](word[0]) or word in ("K", "S"):
        raise p.error("point ids are identifiers other than K and S", p.i - 1)
    return word


def _parse_point(p: _Parser, obj):
    """A point of a carrier (a term) or of an assembly (an id, or a pair
    ``(x, y)`` of such points)."""
    if isinstance(obj, FinSet):
        return p.term()
    if p.peek() == "(":
        return p.pair(lambda: _parse_point(p, obj), ",", lambda: _parse_point(p, obj))
    return _point_id(p)


def _choice_table(p: _Parser) -> dict:
    """``{ (x; [a]) -> [b], ... }``: a relation predicate's or a choice's table."""
    return p.table(lambda: p.pair(p.term, ";", p.term_set), p.term_set)


# ---------------------------------------------------------------------------
# Parsing declarations


def parse_instance(text: str) -> Instance:
    p = _Parser(text)
    words = p.words
    # first pass: oracle tables and fuel, which fix the structure.  Only a
    # declaration head counts: ``oracle`` before an oracle name, ``fuel``
    # before an integer.  Either word elsewhere is a name, and a malformed
    # head is reported by its declaration parser below.
    oracles: dict[str, dict] = {}
    fuel, fuel_at = 10_000, None
    for k, head in enumerate(words):
        if head != "oracle" and head != "fuel":
            continue
        arg = words[k + 1]
        if head == "oracle" and arg[:1] == "#":
            p.i = k + 2
            table = p.table(p.term, p.term)
            if arg[1:] in oracles:
                raise p.error(f"duplicate oracle {arg}", k + 1)
            oracles[arg[1:]] = table
        elif head == "fuel" and arg[:1].isdigit():
            p.i = k + 1
            fuel, fuel_at = p.integer(), k
    if fuel <= 0:
        raise p.error("fuel must be positive", fuel_at)
    try:
        pca = Pca(oracles=oracles, default_fuel=fuel)
    except ValueError as e:
        raise InstanceError(str(e)) from e

    inst = Instance(pca=pca, fuel=fuel)
    p.i = 0
    while p.peek():
        at = p.i
        kind = p.next()
        if not _KIND["ident"](kind[0]):
            raise p.unexpected("a declaration", at)
        try:
            _DECL_PARSERS[kind](p, inst)
        except KeyError:
            raise p.error(f"unknown declaration {kind!r}", at) from None
        except (SpaceError, ValueError) as e:
            if isinstance(e, InstanceError):
                raise
            raise p.error(str(e), at) from e
    return inst


def _fresh(p: _Parser, inst: Instance, name: str, at: int) -> None:
    if name in inst.declared:
        raise p.error(f"name {name!r} already declared", at)


def _new_name(p: _Parser, inst: Instance) -> tuple[str, int]:
    """A declaration's own name, which no earlier declaration has, and its position."""
    at = p.i
    name = p.ident()
    _fresh(p, inst, name, at)
    return name, at


def _record(inst: Instance, kind: str, name: str) -> None:
    inst.decls.append((kind, name))
    inst.declared.add(name)


def _decl_oracle(p: _Parser, inst: Instance) -> None:
    p.expect_kind("oracle")
    p.expect("{")
    while not p.eat("}"):
        p.next()


def _decl_fuel(p: _Parser, inst: Instance) -> None:
    p.integer()


def _decl_universe(p: _Parser, inst: Instance) -> None:
    name, _ = _new_name(p, inst)
    p.expect("=")
    inst.universes[name] = carrier(inst.pca, p.term_list())
    _record(inst, "universe", name)


def _decl_carrier(p: _Parser, inst: Instance) -> None:
    name, at = _new_name(p, inst)
    p.expect("=")
    if p.eat("product"):
        _fresh(p, inst, name + "_fst", at)
        _fresh(p, inst, name + "_snd", at)
        left = _name(p, "unknown carrier", inst.carriers)
        right = _name(p, "unknown carrier", inst.carriers)
        prod = carrier_product(inst.pca, left, right)
        inst.carriers[name] = prod.object
        inst.morphisms[name + "_fst"] = prod.fst
        inst.morphisms[name + "_snd"] = prod.snd
        _record(inst, "carrier", name)
        _record(inst, "morphism", name + "_fst")
        _record(inst, "morphism", name + "_snd")
        return
    inst.carriers[name] = carrier(inst.pca, p.term_list())
    _record(inst, "carrier", name)


def _decl_assembly(p: _Parser, inst: Instance) -> None:
    name, at = _new_name(p, inst)
    if p.eat("="):
        p.expect("product")
        _fresh(p, inst, name + "_fst", at)
        _fresh(p, inst, name + "_snd", at)
        left = _name(p, "unknown assembly", inst.assemblies)
        right = _name(p, "unknown assembly", inst.assemblies)
        prod = ext_product(inst.pca, left, right)
        inst.assemblies[name] = prod.object
        inst.extmorphisms[name + "_fst"] = prod.fst
        inst.extmorphisms[name + "_snd"] = prod.snd
        _record(inst, "assembly", name)
        _record(inst, "extmorphism", name + "_fst")
        _record(inst, "extmorphism", name + "_snd")
        return
    p.expect("{")
    points = []
    naming = []
    while p.eat("point"):
        pid = _point_id(p)
        p.expect("names")
        for t in p.term_list():
            naming.append((t, pid))
        points.append(pid)
    p.expect("}")
    inst.assemblies[name] = assembly(inst.pca, points, naming)
    _record(inst, "assembly", name)


def _decl_morphism(p: _Parser, inst: Instance) -> None:
    name, at = _new_name(p, inst)
    p.expect(":")
    src = _object(p, inst)
    p.expect("->")
    tgt = _object(p, inst)
    if not (isinstance(src, FinSet) and isinstance(tgt, FinSet)):
        raise p.error("morphisms live between carriers", at)
    realizer = p.term() if p.eat("realizer") else None
    p.expect("graph")
    mapping = p.table(lambda: _parse_point(p, src), lambda: _parse_point(p, tgt))
    m = FinMap(src, tgt, mapping, realizer)
    if realizer is not None:
        m.check_realizer(inst.pca)
    inst.morphisms[name] = m
    _record(inst, "morphism", name)


def _decl_extmorphism(p: _Parser, inst: Instance) -> None:
    name, _ = _new_name(p, inst)
    p.expect(":")
    src = _name(p, "unknown assembly", inst.assemblies)
    p.expect("->")
    tgt = _name(p, "unknown assembly", inst.assemblies)
    p.expect("realizer")
    realizer = p.term()
    p.expect("pointmap")
    pointmap = p.table(lambda: p.pair(p.term, ",", lambda: _parse_point(p, src)), lambda: _parse_point(p, tgt))
    inst.extmorphisms[name] = ExtMorphism(src, tgt, realizer, pointmap)
    _record(inst, "extmorphism", name)


def _decl_tracked(p: _Parser, inst: Instance) -> None:
    name, at = _new_name(p, inst)
    p.expect("over")
    base = _object(p, inst)
    if not isinstance(base, FinSet):
        raise p.error("tracked families live over carriers", at)
    inst.tracked[name] = TrackedFamily(base, p.table(p.term, p.term))
    _record(inst, "tracked", name)


def _parse_policy(p: _Parser) -> str | None:
    if p.eat("policy"):
        word = p.ident()
        if word == "nonempty":
            return NONEMPTY
        if word == "allowempty":
            return ALLOW_EMPTY
        raise p.error(f"unknown policy {word!r}", p.i - 1)
    return None


def _decl_family(p: _Parser, inst: Instance) -> None:
    name, _ = _new_name(p, inst)
    p.expect("over")
    base = _object(p, inst)
    policy = _parse_policy(p)
    values = p.table(lambda: _parse_key(p, base), p.term_set)
    inst.families[name] = MassFamily(base, values, policy or ALLOW_EMPTY)
    _record(inst, "family", name)


def _decl_predicate(p: _Parser, inst: Instance) -> None:
    name, _ = _new_name(p, inst)
    p.expect("over")
    base = _object(p, inst)
    p.expect("index")
    index = _object(p, inst)
    policy = _parse_policy(p)
    table = p.table(lambda: p.pair(lambda: _parse_key(p, base), ";", lambda: _parse_key(p, index)), p.term_set)
    inst.predicates[name] = Predicate(base, index, table, policy or NONEMPTY)
    _record(inst, "predicate", name)


def _decl_extpredicate(p: _Parser, inst: Instance) -> None:
    name, at = _new_name(p, inst)
    p.expect("over")
    dom = _object(p, inst)
    if not isinstance(dom, FinSet):
        raise p.error("extended predicates live over carriers", at)
    table = p.table(p.term, lambda: frozenset(p.items("[", "]", p.term_set)))
    inst.extpredicates[name] = ExtendedPredicate(dom, table)
    _record(inst, "extpredicate", name)


def _decl_dialpredicate(p: _Parser, inst: Instance) -> None:
    name, at = _new_name(p, inst)
    p.expect("over")
    base = _object(p, inst)
    if not isinstance(base, FinSet):
        raise p.error("relation predicates live over carriers", at)
    inst.dialpredicates[name] = DialecticaPredicate(base, _choice_table(p))
    _record(inst, "dialpredicate", name)


def _decl_witness(p: _Parser, inst: Instance) -> None:
    name, at = _new_name(p, inst)
    p.expect("=")
    head = p.ident()
    if head == "uniform":
        w = Uniform(p.term())
    elif head == "bounded":
        w = Bounded(p.integer())
    elif head == "perpoint":
        w = PerPoint(p.table(lambda: _parse_perpoint_key(p), p.term))
    elif head in ("fwback", "extfwback"):
        p.assign("k")
        kind, table = ("morphism", inst.morphisms) if head == "fwback" else ("ext morphism", inst.extmorphisms)
        k = _name(p, f"unknown {kind}", table)
        p.expect(",")
        p.assign("h")
        w = ForwardBackward(k, p.term())
    elif head == "dial":
        choice = _choice_table(p)
        p.assign("h")
        w = DialecticaWitness(choice, p.term())
    elif head == "extstrong":
        p.assign("k")
        k = p.term()
        p.expect(",")
        p.expect("choice")
        choice = _choice_table(p)
        p.expect(",")
        p.assign("h")
        w = ExtStrong(k, choice, p.term())
    elif head == "mediate":
        p.assign("h")
        med = _morphism(p, inst)
        p.expect(",")
        p.assign("base")
        w = CompletionWitness(med, _name(p, "unknown witness", inst.witnesses))
    else:
        raise p.error(f"unknown witness form {head!r}", at)
    inst.witnesses[name] = w
    _record(inst, "witness", name)


def _parse_perpoint_key(p: _Parser):
    """Either a term, or (term, term) for per-solution keys, or
    (term, pointid) for assembly positions."""
    if p.peek() != "(":
        return p.term()
    save = p.i
    p.expect("(")
    first = p.term()
    if p.eat(","):
        if _KIND["ident"](p.peek()[:1]) and p.peek() not in ("K", "S"):
            pid = _point_id(p)
            p.expect(")")
            return (first, pid)
        second = p.term()
        p.expect(")")
        return (first, second)
    # it was a parenthesized application after all
    p.i = save
    return p.term()


def _decl_compobject(p: _Parser, inst: Instance) -> None:
    name, _ = _new_name(p, inst)
    p.expect("=")
    kind = p.ident()
    klass = p.ident()
    doc = p.ident()
    p.expect("leg")
    leg = _morphism(p, inst)
    p.expect("payload")
    payload = inst.element(p.ident(), functools.partial(p.error, at=p.i - 1))
    inst.compobjects[name] = CompletionObject(kind, klass, doc, leg, payload)
    _record(inst, "compobject", name)


def _decl_claim(p: _Parser, inst: Instance) -> None:
    name, at = _new_name(p, inst)
    p.expect(":")
    lhs = p.ident()
    p.expect("<=_")
    doc = p.ident()
    if doc not in DOCTRINES and doc != "comp":
        raise p.error(f"unknown doctrine id {doc!r}", at)
    rhs = p.ident()
    p.expect("by")
    witness = p.ident()
    # the names are the words at + 2, at + 5 and at + 7 (one word per token)
    inst.element(lhs, functools.partial(p.error, at=at + 2))
    inst.element(rhs, functools.partial(p.error, at=at + 5))
    _resolve(witness, "unknown witness", (inst.witnesses,), functools.partial(p.error, at=at + 7))
    inst.claims.append(Claim(name, lhs, doc, rhs, witness))
    _record(inst, "claim", name)


def _decl_result(p: _Parser, inst: Instance) -> None:
    claim = p.ident()
    status = p.ident()
    items = p.items("(", ")", lambda: _raw_item(p)) if p.eat("counterexample") else ()
    unknowns = p.integer() if p.eat("unknowns") else 0
    inst.results.append(ResultLine(claim, status, tuple(items), unknowns))
    _record(inst, "result", claim)


def _raw_item(p: _Parser) -> str:
    """The source text of one counterexample item: a term, a point tuple or
    a phrase, up to the next ',' or ')' outside brackets."""
    first = p.i
    depth = 0
    while True:
        word = p.peek()
        if not word:
            raise p.error("unterminated counterexample")
        if depth == 0 and word in (",", ")"):
            break
        if word in ("(", "[", "{"):
            depth += 1
        elif word in (")", "]", "}"):
            depth -= 1
        p.i += 1
    if p.i == first:
        raise p.error("empty counterexample item")
    return p.source[p.toks[first].start : p.toks[p.i - 1].end]


_DECL_PARSERS = {
    "oracle": _decl_oracle,
    "fuel": _decl_fuel,
    "universe": _decl_universe,
    "carrier": _decl_carrier,
    "assembly": _decl_assembly,
    "morphism": _decl_morphism,
    "extmorphism": _decl_extmorphism,
    "tracked": _decl_tracked,
    "family": _decl_family,
    "predicate": _decl_predicate,
    "extpredicate": _decl_extpredicate,
    "dialpredicate": _decl_dialpredicate,
    "witness": _decl_witness,
    "compobject": _decl_compobject,
    "claim": _decl_claim,
    "result": _decl_result,
}


# ---------------------------------------------------------------------------
# Printing (canonical form; print . parse is the identity up to layout)


def format_terms(ts) -> str:
    """A term list in canonical order: ``[K, S, (K K)]``."""
    return "[" + ", ".join(to_text(t) for t in sorted(ts, key=term_key)) + "]"


def format_table(mapping, show=point_text) -> str:
    """``key -> value`` entries in the order of their key texts."""
    return ", ".join(
        f"{point_text(k)} -> {show(v)}" for k, v in sorted(mapping.items(), key=lambda kv: point_text(kv[0]))
    )


def format_assembly(name: str, asm: Assembly) -> str:
    parts = []
    for pt in asm.points:
        names = [n for n, x in asm.naming if x == pt]
        parts.append(f"point {point_text(pt)} names {format_terms(names)}")
    return f"assembly {name} {{ " + " ".join(parts) + " }"


def format_morphism(inst: Instance, name: str, m: FinMap) -> str:
    realizer = f" realizer {to_text(m.realizer)}" if m.realizer is not None else ""
    src_name = object_name(inst, m.source)
    tgt_name = object_name(inst, m.target)
    return f"morphism {name} : {src_name} -> {tgt_name}{realizer} graph {{ {format_table(m.mapping)} }}"


def format_extmorphism(inst: Instance, name: str, m: ExtMorphism) -> str:
    body = ", ".join(
        f"({to_text(n)}, {point_text(x)}) -> {point_text(v)}"
        for (n, x), v in sorted(m.pointmap.items(), key=lambda kv: (to_text(kv[0][0]), point_text(kv[0][1])))
    )
    return (
        f"extmorphism {name} : {object_name(inst, m.source)} -> {object_name(inst, m.target)} "
        f"realizer {to_text(m.realizer)} pointmap {{ {body} }}"
    )


def format_result(claim: str, status: str, counterexample=(), unknowns: int = 0) -> str:
    """A ``result`` line, the one declaration check reports are made of."""
    line = f"result {claim} {status}"
    if counterexample:
        line += " counterexample (" + ", ".join(map(str, counterexample)) + ")"
    if unknowns:
        line += f" unknowns {unknowns}"
    return line


def print_instance(inst: Instance) -> str:
    out = []
    for oname in sorted(inst.pca.oracles):
        entries = inst.pca.oracles[oname]
        body = ", ".join(f"{to_text(k)} -> {to_text(v)}" for k, v in sorted(entries.items(), key=lambda kv: to_text(kv[0])))
        out.append(f"oracle #{oname} {{ {body} }}")
    out.append(f"fuel {inst.fuel}")
    for kind, name in inst.decls:
        if kind == "universe":
            out.append(f"universe {name} = {format_terms(inst.universes[name].points)}")
        elif kind == "carrier":
            out.append(f"carrier {name} = {format_terms(inst.carriers[name].points)}")
        elif kind == "assembly":
            out.append(format_assembly(name, inst.assemblies[name]))
        elif kind == "morphism":
            out.append(format_morphism(inst, name, inst.morphisms[name]))
        elif kind == "extmorphism":
            out.append(format_extmorphism(inst, name, inst.extmorphisms[name]))
        elif kind == "tracked":
            fam = inst.tracked[name]
            out.append(f"tracked {name} over {object_name(inst, fam.base)} {{ {format_table(fam.values)} }}")
        elif kind == "family":
            fam = inst.families[name]
            pol = " policy nonempty" if fam.policy == NONEMPTY else ""
            body = format_table(fam.values, format_terms)
            out.append(f"family {name} over {object_name(inst, fam.base)}{pol} {{ {body} }}")
        elif kind == "predicate":
            pred = inst.predicates[name]
            pol = "" if pred.policy == NONEMPTY else " policy allowempty"
            body = ", ".join(
                f"({point_text(b)}; {point_text(i)}) -> {format_terms(v)}"
                for (b, i), v in sorted(pred.table.items(), key=lambda kv: (point_text(kv[0][0]), point_text(kv[0][1])))
            )
            out.append(
                f"predicate {name} over {object_name(inst, pred.base)} index {object_name(inst, pred.index)}{pol} {{ {body} }}"
            )
        elif kind == "extpredicate":
            ep = inst.extpredicates[name]
            body = ", ".join(
                f"{to_text(k)} -> [" + ", ".join(format_terms(a) for a in sorted(v, key=lambda s: sorted(map(to_text, s)))) + "]"
                for k, v in sorted(ep.table.items(), key=lambda kv: to_text(kv[0]))
            )
            out.append(f"extpredicate {name} over {object_name(inst, ep.dom)} {{ {body} }}")
        elif kind == "dialpredicate":
            dp = inst.dialpredicates[name]
            out.append(f"dialpredicate {name} over {object_name(inst, dp.base)} {{ {_format_choice(dp.table)} }}")
        elif kind == "witness":
            out.append(format_witness(inst, name, inst.witnesses[name]))
        elif kind == "compobject":
            obj = inst.compobjects[name]
            leg_name = _morphism_name(inst, obj.leg)
            payload_name = _payload_name(inst, obj.payload)
            out.append(f"compobject {name} = {obj.kind} {obj.klass} {obj.doc} leg {leg_name} payload {payload_name}")
        elif kind == "claim":
            c = next(c for c in inst.claims if c.name == name)
            out.append(f"claim {c.name} : {c.lhs} <=_{c.doc} {c.rhs} by {c.witness}")
        elif kind == "result":
            r = next(r for r in inst.results if r.claim == name)
            out.append(format_result(r.claim, r.status, r.counterexample, r.unknowns))
    return "\n".join(out) + "\n"


def _format_choice(table) -> str:
    """``(x; [a]) -> [b]`` entries of a relation or choice table."""
    return ", ".join(
        f"({point_text(x)}; {format_terms(a)}) -> {format_terms(v)}"
        for (x, a), v in sorted(table.items(), key=lambda kv: (point_text(kv[0][0]), sorted(map(to_text, kv[0][1]))))
    )


def object_name(inst: Instance, obj) -> str:
    """The name a carrier, universe or assembly equal to ``obj`` is declared as."""
    for section in (inst.carriers, inst.universes, inst.assemblies):
        for name, val in section.items():
            if val == obj:
                return name
    raise InstanceError("object has no declared name")


def _morphism_name(inst: Instance, m) -> str:
    for name, val in {**inst.morphisms, **inst.extmorphisms}.items():
        if val is m or val == m:
            return name
    raise InstanceError("morphism has no declared name")


def _payload_name(inst: Instance, payload) -> str:
    for section in (inst.tracked, inst.families, inst.predicates, inst.extpredicates, inst.dialpredicates):
        for name, val in section.items():
            if val is payload or val == payload:
                return name
    raise InstanceError("payload has no declared name")


def format_witness(inst: Instance, name: str, w) -> str:
    if isinstance(w, Uniform):
        return f"witness {name} = uniform {to_text(w.term)}"
    if isinstance(w, Bounded):
        return f"witness {name} = bounded {w.bound}"
    if isinstance(w, PerPoint):
        return f"witness {name} = perpoint {{ {format_table(w.mapping)} }}"
    if isinstance(w, ForwardBackward):
        head = "extfwback" if isinstance(w.forward, ExtMorphism) else "fwback"
        return f"witness {name} = {head} k = {_morphism_name(inst, w.forward)}, h = {to_text(w.backward)}"
    if isinstance(w, DialecticaWitness):
        return f"witness {name} = dial {{ {_format_choice(w.choice)} }} h = {to_text(w.backward)}"
    if isinstance(w, ExtStrong):
        return (f"witness {name} = extstrong k = {to_text(w.forward)}, "
                f"choice {{ {_format_choice(w.choice)} }}, h = {to_text(w.backward)}")
    if isinstance(w, CompletionWitness):
        base_name = next((n for n, v in inst.witnesses.items() if v is w.base), None)
        if base_name is None:
            raise InstanceError("completion base witness has no declared name")
        return f"witness {name} = mediate h = {_morphism_name(inst, w.mediator)}, base = {base_name}"
    raise InstanceError(f"cannot format witness {type(w).__name__}")
