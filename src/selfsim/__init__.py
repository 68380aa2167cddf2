"""Self-similar groups from wreath recursions.

Parse a recursion, act on the rooted tree, decide the word problem through
canonical minimal automata, compute the nucleus of a contracting action,
build level Schreier graphs with exports and spectra, and approximate the
limit space through asymptotic equivalence of boundary points, rooted
component sequences, and self-similarity graphs.
"""

from .core import (
    Alphabet,
    MealyAutomaton,
    Permutation,
    StateRef,
    act_word,
    inverse_state,
    invert,
    minimize,
    section_word,
    word,
    word_str,
)
from .dsl import (
    ParseError,
    RecursionDocument,
    StateDef,
    automaton_document,
    parse,
    serialize,
    to_automaton,
)
from .engine import (
    CanonicalElement,
    GroupWord,
    NotContractingError,
    NucleusResult,
    RecurrenceVerdict,
    canonical_state,
    canonicalize,
    compute_nucleus,
    is_recurrent,
    recurrent_sections,
)
from .schreier import (
    DEFAULT_VERTEX_CAP,
    LabeledSchreierGraph,
    ResourceCapError,
    SimplicialGraph,
    build_schreier,
    connected_components,
    pointed_component,
    simplicial,
)
from .limits import (
    BoundaryPoint,
    EquivalenceWitness,
    asymptotic_equivalent,
    equivalence_class,
    gh_sequence,
    self_similarity_graph,
)
from .exports import FORMATS, export_graph, parse_edges
from .spectra import eigenvalue_multiplicity, markov_operator, spectrum
from .catalog import (
    CatalogEntry,
    UnknownEntryError,
    catalog_get,
    catalog_list,
    check_entry,
    mother_document,
)
from .cli import cli_main

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BoundaryPoint",
    "CanonicalElement",
    "CatalogEntry",
    "DEFAULT_VERTEX_CAP",
    "EquivalenceWitness",
    "FORMATS",
    "GroupWord",
    "LabeledSchreierGraph",
    "MealyAutomaton",
    "NotContractingError",
    "NucleusResult",
    "ParseError",
    "Permutation",
    "RecursionDocument",
    "RecurrenceVerdict",
    "ResourceCapError",
    "SimplicialGraph",
    "StateDef",
    "StateRef",
    "UnknownEntryError",
    "act_word",
    "asymptotic_equivalent",
    "automaton_document",
    "build_schreier",
    "canonical_state",
    "canonicalize",
    "catalog_get",
    "catalog_list",
    "check_entry",
    "cli_main",
    "compute_nucleus",
    "connected_components",
    "eigenvalue_multiplicity",
    "equivalence_class",
    "export_graph",
    "gh_sequence",
    "inverse_state",
    "invert",
    "is_recurrent",
    "markov_operator",
    "minimize",
    "mother_document",
    "parse",
    "parse_edges",
    "pointed_component",
    "recurrent_sections",
    "section_word",
    "self_similarity_graph",
    "serialize",
    "simplicial",
    "spectrum",
    "to_automaton",
    "word",
    "word_str",
]
