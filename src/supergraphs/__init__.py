"""Graphs defined on finite groups: supergraph constructions over five base
adjacencies and three coarsenings, compressed and quotient forms, composition
identities for the Wiener index, prime-cycle universality embeddings, and
generating-graph containments."""

from .constructions import (
    KINDS,
    PARTITIONS,
    Partition,
    base_adjacent,
    build_compressed,
    build_partition,
    build_supergraph,
    expand_quotient,
    hierarchy_report,
    quotient_supergraph,
)
from .families import (
    FAMILIES,
    family_graph,
    structure_expr,
    verify_family,
    wiener_closed_form,
)
from .generation import (
    containment_checks,
    equality_scan,
    generating_graph,
    invariable_generating_graph,
)
from .graphs import (
    Complete,
    Composition,
    DisconnectedGraphError,
    Empty,
    Graph,
    GraphExpr,
    Join,
    Union,
    compose_graphs,
    cotree_isomorphic,
    eval_expr,
    intersection,
    is_comparability,
    strong_product,
    wiener_index,
    wiener_supergraph_formula,
    wiener_via_composition,
)
from .groups import (
    ConjugacyClass,
    FiniteGroup,
    InvalidGroupSpec,
    SizeCapError,
    alternating,
    cyclic,
    dihedral,
    make_group,
    product,
    quaternion,
    symmetric,
)
from .universality import (
    EmbeddingCertificate,
    class_adjacency,
    embed_graph,
    primes_first,
    step3_embedding,
    strong_product_identity_check,
)

__version__ = "0.1.0"
