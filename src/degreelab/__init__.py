"""degreelab: a witness-certified workbench for computable reducibilities.

The term engine (`terms`, `pca`) evaluates closed combinatory terms over K, S
and finite-table oracle atoms under an explicit step budget.  On top of it,
`spaces` builds finite carriers and assemblies, `doctrines` checks the
reducibility orders with explicit witnesses, `completions` constructs free
quantifier completions, `isomorphisms` realizes the order isomorphisms
between the two with two-way witness transport, `search` enumerates bounded
witnesses, and `laws` packages the property suites run by the CLI and the
acceptance tests.
"""

from .pca import (
    EMPTY_PCA,
    FST,
    ID,
    PAIR,
    SND,
    EvalOutcome,
    Pca,
    apply,
    apply_many,
    bracket_abstract,
    derive_pairing,
    element_equal,
    enumerate_computable,
    is_computable,
    is_normal,
    normalize,
)
from .instance import parse_term
from .terms import App, K, Oracle, S, Term, Var, ap, pair_term, split_pair, to_text

__all__ = [
    "EMPTY_PCA", "FST", "ID", "PAIR", "SND", "EvalOutcome", "Pca",
    "apply", "apply_many", "bracket_abstract", "derive_pairing",
    "element_equal", "enumerate_computable", "is_computable", "is_normal",
    "normalize", "App", "K", "Oracle", "S", "Term", "Var", "ap",
    "pair_term", "parse_term", "split_pair", "to_text",
]
