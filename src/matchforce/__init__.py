"""matchforce: exact combinatorics of forcing sets of perfect matchings.

Solvers for forcing numbers and spectra, recognizers and generators for
the graph families where those numbers are extremal, matching 2-switch
dynamics, and a small-graph verification harness, all on an immutable
bitmask graph substrate.
"""

from ._core import kernel_backend
from .errors import (
    MatchforceError,
    MatchingOverflowError,
    NoPerfectMatchingError,
    ParseError,
    PreconditionError,
)
from .graph import (
    AlternatingCycle,
    Edge,
    Graph,
    PerfectMatching,
    components_masks,
    enumerate_perfect_matchings,
    has_perfect_matching,
    is_bipartite,
    is_connected,
    vertex_connectivity,
)
from .graphio import (
    load_graph,
    parse_edge_list,
    parse_graph6,
    read_graph6_collection,
    serialize_graph,
    to_edge_list,
    to_graph6,
)
from .forcing import (
    ForcingCertificate,
    SpectrumReport,
    forcing_number,
    forcing_profile,
    is_forcing_set,
)
from .structure import (
    ClassificationResult,
    ClassTag,
    classify_min_forcing,
    has_fixed_double_bond,
    is_complete_multipartite,
    is_knn_plus,
    max_independent_set_size,
)
from .extend import (
    DeficiencyWitness,
    NonTwoExtendableStructure,
    deficiency_witness,
    is_bicritical,
    is_brick,
    is_l_extendable,
)
from .generate import (
    LabeledGraph,
    enumerate_labeled_graphs,
    gen_complete_multipartite,
    gen_h_k,
    gen_knn_plus,
    gen_minimal_from_signature,
    gen_non_2_extendable,
    gen_random,
    splitmix64,
)
from .switch import (
    SwitchGraph,
    SwitchPath,
    build_switch_graph,
    reaches_top,
    switch_path,
    verify_switch_bound,
)
from .harness import (
    BlockResult,
    THEOREM_IDS,
    VerificationReport,
    builtin_corpus,
    family_corpus,
    verify_graphs,
)

__version__ = "0.1.0"
