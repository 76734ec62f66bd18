"""Finite complemented posets: ideals, filters, c-ideals, and the statement
harness that verifies the whole catalog of results about them, plus both
constructive separation procedures.
"""

from .complement import ComplementedPoset, ComplementProperties, attach_complementation
from .corpus import (
    CorpusEntry,
    PublishedLists,
    builtin_corpus,
    computed_lists,
    corpus_entry,
    published_divergences,
    random_complementation,
    random_complemented_poset,
    random_poset,
)
from .errors import (
    AxiomViolation,
    BadSize,
    CycleDetected,
    DuplicateName,
    DuplicateSection,
    NotBounded,
    NotFilter,
    NotIdeal,
    ParseError,
    PartialMap,
    PosetError,
    UnknownName,
)
from .harness import (
    DESCRIPTIONS,
    SeparationResult,
    StatementId,
    TheoremCheckResult,
    check_statement,
    run_all,
    separate,
    separate_first,
    separate_second,
)
from .io import (
    Instance,
    InstanceFile,
    Report,
    build_instance,
    build_report,
    emit_dot,
    emit_instance,
    load_instance,
    parse_instance,
    parse_machine_report,
    render_machine,
    render_text,
)
from .poset import DistributivityReport, Poset, build_poset, iter_bits, sort_key
from .substructures import (
    DEFAULT_BUDGET,
    SubsetClassification,
    classify,
    enumerate_filters,
    enumerate_ideals,
    is_filter,
    is_ideal,
)

__version__ = "0.1.0"
