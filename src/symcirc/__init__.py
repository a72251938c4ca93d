"""Symmetric arithmetic circuits and their combinatorial companions.

Exact determinant/permanent circuits whose symmetry witnesses are
variable permutations, each extending to a unique gate automorphism,
a symmetry-preserving lowering to Boolean threshold circuits, CFI
perfect-matching graphs, and k-Weisfeiler-Leman equivalence testing.
"""

from .errors import (
    BudgetExceededError,
    CircuitError,
    FieldMismatchError,
    SchemaError,
    SymcircError,
)
from .field import GF, QQ, Field, FieldValue
from .circuit import (
    ADD,
    AND,
    MUL,
    NOT,
    OR,
    Circuit,
    CircuitBuilder,
    GateLabel,
    const,
    deserialize,
    evaluate_arith,
    evaluate_bool,
    export_dot,
    input_label,
    pprod,
    psum,
    serialize,
    size_stats,
    th_eq,
    th_ge,
)
from .symmetry import (
    Matrix,
    Partition,
    Square,
    Transpose,
    check_symmetric,
    find_extension,
    group_generators,
    minimal_support,
    orbits,
)
from .generators import (
    GeneratedCircuit,
    eval_on_matrix,
    leverrier_det_circuit,
    matrix_assignment,
    ryser_perm_circuit,
)
from .lowering import (
    ExpandedCircuit,
    OrbitPreservationReport,
    PartitionCircuit,
    ValueSetMap,
    expand_to_threshold,
    lower_to_partition_basis,
    orbit_preservation_check,
    value_sets,
    verify_lowering,
)
from .graphs import (
    Graph,
    builtin_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    format_graph,
    is_graph_isomorphism,
    is_two_connected,
    parse_graph,
    path_graph,
    petersen_graph,
)
from .cfi import (
    BaseGraphReport,
    CFIGraph,
    ExperimentReport,
    MatchingReport,
    bipartition,
    build_cfi,
    check_base_graph,
    enumerate_perfect_matchings,
    matching_count_via_permanent,
    matching_experiment,
    orientation_odd_set_census,
    path_flip_isomorphism,
    pq,
    uniform_count_formula,
)
from .wl import WLReport, wl_equivalent

__version__ = "0.1.0"
