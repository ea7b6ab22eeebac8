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
    assembly Q = product A A
    assembly R { point (x, y) names [K] }
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

A product ``P = product A B`` also declares its projections ``P_fst`` and
``P_snd`` (morphisms for carriers, extmorphisms for assemblies).  An
assembly point id is an identifier other than ``K`` and ``S``, or a pair
``(x, y)`` of point ids, as the points of a product assembly are; a printed
product assembly lists its pair points.

Every declaration is recorded by ``Instance.declare`` and printed by the
printer of its kind, kept beside the parser of its kind, so what
``print_instance`` prints parses back to the same declarations.  The
command-line tools print what they declare the same way.  Machine-format reports are a
subset of the same grammar (``result`` lines), so reports re-parse and
search output can be fed back to ``check``.

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
import operator
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
    decls: list = field(default_factory=list)  # (kind, name, value) in file order
    declared: set = field(default_factory=set)  # the names in decls, but for result lines

    def declare(self, kind: str, name: str, value) -> None:
        """Record ``value`` as the declaration ``kind name``.  A result line
        reports on its claim's name and takes no name of its own."""
        section = getattr(self, _SECTIONS[kind])
        if isinstance(section, list):  # claims and results
            section.append(value)
        else:
            section[name] = value
        self.decls.append((kind, name, value))
        if kind != "result":
            self.declared.add(name)

    def free_name(self, name: str) -> str:
        """``name``, or the first of ``name_2``, ``name_3``, ... that no
        declaration has taken."""
        free, n = name, 1
        while free in self.declared:
            n += 1
            free = f"{name}_{n}"
        return free

    def sections(self, kinds) -> list:
        """The section of each of ``kinds``, in order."""
        return [getattr(self, _SECTIONS[kind]) for kind in kinds]

    def lookup(self, kind: str, name: str):
        """The value declared as ``kind name``."""
        return _resolve(name, f"unknown {kind}", self.sections((kind,)))

    def element(self, name: str, error=InstanceError):
        """The family, predicate or completion object declared as ``name``."""
        return _resolve(name, "no family/predicate/object named", self.sections(ELEMENTS), error)


# The Instance field each kind of declaration is recorded in.
_SECTIONS = {
    "universe": "universes", "carrier": "carriers", "assembly": "assemblies", "morphism": "morphisms",
    "extmorphism": "extmorphisms", "tracked": "tracked", "family": "families", "predicate": "predicates",
    "extpredicate": "extpredicates", "dialpredicate": "dialpredicates", "compobject": "compobjects",
    "witness": "witnesses", "claim": "claims", "result": "results",
}
# The kinds a reference of each role names, in the order they are searched.
OBJECTS = ("carrier", "universe", "assembly")
MORPHISMS = ("morphism", "extmorphism")
ELEMENTS = ("tracked", "family", "predicate", "extpredicate", "dialpredicate", "compobject")


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
    return _name(p, "unknown carrier/assembly", *inst.sections(OBJECTS))


def _morphism(p: _Parser, inst: Instance):
    return _name(p, "unknown morphism", *inst.sections(MORPHISMS))


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


def _product(p: _Parser, inst: Instance, kind: str, name: str, at: int, make) -> None:
    """The operands of ``name = product A B``, two earlier declarations of
    ``kind``: ``make`` builds their product, declared as ``name`` with its
    projections ``name_fst`` and ``name_snd``."""
    _fresh(p, inst, name + "_fst", at)
    _fresh(p, inst, name + "_snd", at)
    left = _name(p, f"unknown {kind}", *inst.sections((kind,)))
    right = _name(p, f"unknown {kind}", *inst.sections((kind,)))
    prod = make(inst.pca, left, right)
    projection = "morphism" if kind == "carrier" else "extmorphism"
    inst.declare(kind, name, prod.object)
    inst.declare(projection, name + "_fst", prod.fst)
    inst.declare(projection, name + "_snd", prod.snd)


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
    inst.declare("universe", name, carrier(inst.pca, p.term_list()))


def _decl_carrier(p: _Parser, inst: Instance) -> None:
    name, at = _new_name(p, inst)
    p.expect("=")
    if p.eat("product"):
        return _product(p, inst, "carrier", name, at, carrier_product)
    inst.declare("carrier", name, carrier(inst.pca, p.term_list()))


def _decl_assembly(p: _Parser, inst: Instance) -> None:
    name, at = _new_name(p, inst)
    if p.eat("="):
        p.expect("product")
        return _product(p, inst, "assembly", name, at, ext_product)
    p.expect("{")
    points = []
    naming = []
    while p.eat("point"):
        pid = _parse_point(p, None)  # an id, or a pair of points, as in a product
        p.expect("names")
        for t in p.term_list():
            naming.append((t, pid))
        points.append(pid)
    p.expect("}")
    inst.declare("assembly", name, assembly(inst.pca, points, naming))


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
    inst.declare("morphism", name, m)


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
    inst.declare("extmorphism", name, ExtMorphism(src, tgt, realizer, pointmap))


def _decl_tracked(p: _Parser, inst: Instance) -> None:
    name, at = _new_name(p, inst)
    p.expect("over")
    base = _object(p, inst)
    if not isinstance(base, FinSet):
        raise p.error("tracked families live over carriers", at)
    inst.declare("tracked", name, TrackedFamily(base, p.table(p.term, p.term)))


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
    inst.declare("family", name, MassFamily(base, values, policy or ALLOW_EMPTY))


def _decl_predicate(p: _Parser, inst: Instance) -> None:
    name, _ = _new_name(p, inst)
    p.expect("over")
    base = _object(p, inst)
    p.expect("index")
    index = _object(p, inst)
    policy = _parse_policy(p)
    table = p.table(lambda: p.pair(lambda: _parse_key(p, base), ";", lambda: _parse_key(p, index)), p.term_set)
    inst.declare("predicate", name, Predicate(base, index, table, policy or NONEMPTY))


def _decl_extpredicate(p: _Parser, inst: Instance) -> None:
    name, at = _new_name(p, inst)
    p.expect("over")
    dom = _object(p, inst)
    if not isinstance(dom, FinSet):
        raise p.error("extended predicates live over carriers", at)
    table = p.table(p.term, lambda: frozenset(p.items("[", "]", p.term_set)))
    inst.declare("extpredicate", name, ExtendedPredicate(dom, table))


def _decl_dialpredicate(p: _Parser, inst: Instance) -> None:
    name, at = _new_name(p, inst)
    p.expect("over")
    base = _object(p, inst)
    if not isinstance(base, FinSet):
        raise p.error("relation predicates live over carriers", at)
    inst.declare("dialpredicate", name, DialecticaPredicate(base, _choice_table(p)))


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
    inst.declare("witness", name, w)


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
    inst.declare("compobject", name, CompletionObject(kind, klass, doc, leg, payload))


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
    inst.declare("claim", name, Claim(name, lhs, doc, rhs, witness))


def _decl_result(p: _Parser, inst: Instance) -> None:
    claim = p.ident()
    status = p.ident()
    items = p.items("(", ")", lambda: _raw_item(p)) if p.eat("counterexample") else ()
    unknowns = p.integer() if p.eat("unknowns") else 0
    inst.declare("result", claim, ResultLine(claim, status, tuple(items), unknowns))


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


# ---------------------------------------------------------------------------
# Printing: canonical form, which the parser of each kind reads back


def format_terms(ts) -> str:
    """A term list in canonical order: ``[K, S, (K K)]``."""
    return "[" + ", ".join(to_text(t) for t in sorted(ts, key=term_key)) + "]"


def format_table(mapping, show=point_text, key=point_text, order=None) -> str:
    """``key -> value`` entries, sorted by ``order`` of their keys (default:
    the key texts)."""
    entries = sorted(mapping.items(), key=lambda kv: (order or key)(kv[0]))
    return ", ".join(f"{key(k)} -> {show(v)}" for k, v in entries)


def _by_parts(pair) -> tuple:
    """The texts of a pair key's parts, to order a table by its keys' first parts."""
    return tuple(map(point_text, pair))


def _format_choice(table) -> str:
    """``(x; [a]) -> [b]`` entries of a relation or choice table."""
    return format_table(table, format_terms, lambda k: f"({point_text(k[0])}; {format_terms(k[1])})",
                        lambda k: (point_text(k[0]), sorted(map(to_text, k[1]))))


def format_result(claim: str, status: str, counterexample=(), unknowns: int = 0) -> str:
    """A ``result`` line, the one declaration check reports are made of."""
    line = f"result {claim} {status}"
    if counterexample:
        line += " counterexample (" + ", ".join(map(str, counterexample)) + ")"
    if unknowns:
        line += f" unknowns {unknowns}"
    return line


def declared_name(inst: Instance, value, kinds) -> str:
    """The name ``value`` is declared as among the declarations of ``kinds``:
    the declaration that is ``value`` itself, else the first one equal to it
    (``kinds`` are searched in order)."""
    sections = inst.sections(kinds)
    for same in (operator.is_, operator.eq):
        for section in sections:
            for name, v in section.items():
                if same(v, value):
                    return name
    raise InstanceError(f"this {type(value).__name__} is no declared {'/'.join(kinds)}")


def format_witness(inst: Instance, name: str, w) -> str:
    if isinstance(w, Uniform):
        return f"witness {name} = uniform {to_text(w.term)}"
    if isinstance(w, Bounded):
        return f"witness {name} = bounded {w.bound}"
    if isinstance(w, PerPoint):
        return f"witness {name} = perpoint {{ {format_table(w.mapping)} }}"
    if isinstance(w, ForwardBackward):
        head = "extfwback" if isinstance(w.forward, ExtMorphism) else "fwback"
        return f"witness {name} = {head} k = {declared_name(inst, w.forward, MORPHISMS)}, h = {to_text(w.backward)}"
    if isinstance(w, DialecticaWitness):
        return f"witness {name} = dial {{ {_format_choice(w.choice)} }} h = {to_text(w.backward)}"
    if isinstance(w, ExtStrong):
        return (f"witness {name} = extstrong k = {to_text(w.forward)}, "
                f"choice {{ {_format_choice(w.choice)} }}, h = {to_text(w.backward)}")
    if isinstance(w, CompletionWitness):
        return (f"witness {name} = mediate h = {declared_name(inst, w.mediator, MORPHISMS)}, "
                f"base = {declared_name(inst, w.base, ('witness',))}")
    raise InstanceError(f"cannot format witness {type(w).__name__}")


def _print_assembly(inst: Instance, name: str, asm: Assembly) -> str:
    points = " ".join(f"point {point_text(x)} names {format_terms(asm.names_of(x))}" for x in asm.points)
    return f"assembly {name} {{ {points} }}"


def _print_morphism(inst: Instance, name: str, m: FinMap) -> str:
    realizer = "" if m.realizer is None else f" realizer {to_text(m.realizer)}"
    return (f"morphism {name} : {declared_name(inst, m.source, OBJECTS)} -> {declared_name(inst, m.target, OBJECTS)}"
            f"{realizer} graph {{ {format_table(m.mapping)} }}")


def _print_extmorphism(inst: Instance, name: str, m: ExtMorphism) -> str:
    return (f"extmorphism {name} : {declared_name(inst, m.source, OBJECTS)} -> "
            f"{declared_name(inst, m.target, OBJECTS)} realizer {to_text(m.realizer)} "
            f"pointmap {{ {format_table(m.pointmap, order=_by_parts)} }}")


def _print_family(inst: Instance, name: str, fam: MassFamily) -> str:
    policy = " policy nonempty" if fam.policy == NONEMPTY else ""
    return (f"family {name} over {declared_name(inst, fam.base, OBJECTS)}{policy} "
            f"{{ {format_table(fam.values, format_terms)} }}")


def _print_predicate(inst: Instance, name: str, pred: Predicate) -> str:
    policy = "" if pred.policy == NONEMPTY else " policy allowempty"
    body = format_table(pred.table, format_terms, lambda k: f"({point_text(k[0])}; {point_text(k[1])})", _by_parts)
    return (f"predicate {name} over {declared_name(inst, pred.base, OBJECTS)} "
            f"index {declared_name(inst, pred.index, OBJECTS)}{policy} {{ {body} }}")


def _print_extpredicate(inst: Instance, name: str, ep: ExtendedPredicate) -> str:
    def offers(sets) -> str:
        return "[" + ", ".join(format_terms(a) for a in sorted(sets, key=lambda a: sorted(map(to_text, a)))) + "]"

    return f"extpredicate {name} over {declared_name(inst, ep.dom, OBJECTS)} {{ {format_table(ep.table, offers)} }}"


def format_decl(inst: Instance, kind: str, name: str, value) -> str:
    """The line that declares ``value`` as ``kind name`` in ``inst``."""
    return _DECL_PRINTERS[kind](inst, name, value)


def print_instance(inst: Instance) -> str:
    out = [f"oracle #{o} {{ {format_table(inst.pca.oracles[o], to_text)} }}" for o in sorted(inst.pca.oracles)]
    out.append(f"fuel {inst.fuel}")
    out.extend(format_decl(inst, *decl) for decl in inst.decls)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# The grammar: each declaration kind's parser and printer


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

# Printers take (inst, name, value); oracle tables and fuel head the file.
# format_witness is looked up when a witness is printed, so a wrapper
# installed on it (the benchmark's layer tracer) sees every witness printed.
_DECL_PRINTERS = {
    "universe": lambda inst, name, u: f"universe {name} = {format_terms(u.points)}",
    "carrier": lambda inst, name, c: f"carrier {name} = {format_terms(c.points)}",
    "assembly": _print_assembly,
    "morphism": _print_morphism,
    "extmorphism": _print_extmorphism,
    "tracked": lambda inst, name, t: (f"tracked {name} over {declared_name(inst, t.base, OBJECTS)} "
                                      f"{{ {format_table(t.values)} }}"),
    "family": _print_family,
    "predicate": _print_predicate,
    "extpredicate": _print_extpredicate,
    "dialpredicate": lambda inst, name, d: (f"dialpredicate {name} over {declared_name(inst, d.base, OBJECTS)} "
                                            f"{{ {_format_choice(d.table)} }}"),
    "witness": lambda inst, name, w: format_witness(inst, name, w),
    "compobject": lambda inst, name, c: (f"compobject {name} = {c.kind} {c.klass} {c.doc} "
                                         f"leg {declared_name(inst, c.leg, MORPHISMS)} "
                                         f"payload {declared_name(inst, c.payload, ELEMENTS)}"),
    "claim": lambda inst, name, c: f"claim {name} : {c.lhs} <=_{c.doc} {c.rhs} by {c.witness}",
    "result": lambda inst, name, r: format_result(name, r.status, r.counterexample, r.unknowns),
}
