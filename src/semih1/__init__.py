"""semih1: exact first-cohomology computations for semidirect product algebras.

The toolkit represents finite-dimensional associative algebras over Q by
structure constants, solves for their derivation spaces, inner derivations,
module homomorphisms and first cohomology exactly, builds semidirect
products (direct products, module extensions, triangular algebras,
character-scaled and homomorphism-twisted products), and mechanically
verifies the block-structure and H1-quotient laws relating a product's
cohomology to that of its factors.
"""

from .algebra import (
    Algebra,
    BimoduleAction,
    Character,
    CornerModule,
    ModuleAlgebra,
    annihilator_in_algebra,
    annihilator_in_module,
    center,
    regular_action,
    regular_module,
    relative_annihilator,
    span_of_products,
    validate_algebra,
    validate_character,
    validate_corner,
    validate_module,
)
from .errors import Semih1Error
from .linalg import (
    Matrix,
    Subspace,
    frac,
    image,
    intersect,
    kernel,
    quotient_dim,
    rref,
    subspace_sum,
)
from .products import (
    SemidirectAlgebra,
    alpha_iso,
    alpha_product,
    direct_product,
    fixture_nonzero_tau1,
    fixture_paired_tau_blocks,
    module_extension,
    semidirect,
    theta_lau,
    triangular,
    unitization,
)
from .spaces import (
    c_space,
    derivation_space,
    h1_dim,
    hom_space,
    i_space,
    inner_map,
    inner_space,
    inner_witness,
    r_map,
    r_space,
)
from .verify import (
    BlockDecomposition,
    RuleReport,
    build_E,
    build_F,
    build_K,
    corollary_3_2_check,
    hypothesis_check,
    inner_characterization,
    is_derivation_via_3_1,
    split_blocks,
    tau1_vanishes,
    theorem_3_1_equivalence,
    verify_any,
    verify_special_case,
    verify_theorem,
)

__version__ = "0.1.0"
