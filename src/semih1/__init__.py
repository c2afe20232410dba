"""semih1: exact first-cohomology computations for semidirect product algebras.

The toolkit represents finite-dimensional associative algebras over Q by
structure constants, solves for their derivation spaces, inner derivations,
module homomorphisms and first cohomology exactly, builds semidirect
products (direct products, module extensions, triangular algebras,
character-scaled and homomorphism-twisted products), and mechanically
verifies the block-structure and H1-quotient laws relating a product's
cohomology to that of its factors.

The names imported here are the public surface, listed by workflow under
"Library overview" in README.md; the rest is reached through its module.
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
    separable,
    validate_algebra,
    validate_module,
)
from .errors import Semih1Error
from .linalg import (
    Matrix,
    Subspace,
    image,
    intersect,
    kernel,
    rref,
    subspace_sum,
    unflatten,
)
from .products import (
    SemidirectAlgebra,
    alpha_product,
    direct_product,
    fixture_nonzero_tau1,
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
    corollary_3_2_check,
    inner_characterization,
    split_blocks,
    verify_any,
    verify_theorem,
)

__version__ = "0.1.0"
