"""Normal factor graphs as probabilistic models.

Dense factors over finite alphabets, graph validation and classification,
exterior-function evaluation (brute force, elimination with cost accounting,
sum-product), holographic transformations with fast cumulus/difference and
Fourier kernels, conversions to and from factor graphs, convolutional factor
graphs, and cumulative distribution networks, linear-code realizations with
Fourier duality, independence queries, sampling, and evidence queries.
"""

from .algebra import (
    Alphabet,
    GroupAlphabet,
    OrderedAlphabet,
    OrderedProductAlphabet,
    ProductDomain,
    character,
    group_add,
    group_neg,
    group_tables,
    make_product_domain,
)
from .factor import (
    Factor,
    OpCounter,
    conditional_constant,
    contract,
    factors_allclose,
    marginalize,
    multiply_pointwise,
    split_decompose,
)
from .indicators import (
    TransformerPair,
    make_cumulus_pair,
    make_fourier_pair,
    make_indicator,
)
from .nfg import (
    ClassFlags,
    HalfEdge,
    InternalEdge,
    NfgGraph,
    classify,
    separated,
    wrap_half_edge_with_equality,
)
from .exterior import (
    EdgeMarginals,
    EliminationReport,
    block_order,
    derivative_sum_product,
    eliminate,
    exterior_bruteforce,
    sum_product,
)
from .transform import (
    HolographicSpec,
    fast_axis_transform,
    holographic_transform,
    insert_transformer,
    insert_transformer_pair,
    merge_vertices,
    split_vertex_guided,
)
from .models import (
    CdnDesc,
    CfgDesc,
    FactorGraphDesc,
    IndependenceVerdict,
    cfg_global_function,
    cfg_to_nfg,
    check_cdf_axioms,
    convolve,
    fg_global_function,
    fg_to_nfg,
    independence,
    nfg_to_cfg,
    nfg_to_fg,
    normalize_constrained,
    sample_many,
    to_cdn,
)
from .codes import (
    LinearCodeSpec,
    codewords,
    dual_via_fourier,
    generator_realization,
    parity_realization,
    parse_code_text,
    weight_distribution,
)
from .inference import Query, QueryResult, query, reduce_star
from .document import (
    NfgDocument,
    dump_document,
    graph_to_document,
    load_document,
    loads_document,
)

__version__ = "0.1.0"
