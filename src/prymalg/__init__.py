"""Exact engine for weighted-partition algebras and their dimension tables.

Submodules:

* abelian_group -- finite abelian deck groups, symbolic order
* partitions    -- set partitions and deck-weighted partitions
* algebra       -- normal-form arithmetic, graded dimensions, oracle
* series        -- dimension tables, stable ranges, census, gap reports
* symmetry      -- permutation characters and irreducible decompositions
* rigidity      -- symplectic commutants over exact rationals
* cli           -- batch command-line front end
"""

from .abelian_group import (
    FiniteAbelianGroup,
    SymbolicOrder,
    homology_group,
    parse_group_literal,
)
from .algebra import (
    AlgebraElement,
    AlgebraSpec,
    NormalMonomial,
    Variant,
    basis,
    graded_dimension,
    in_subspace,
    multiply,
    oracle_graded_dimension,
)
from .errors import (
    CapExceededError,
    InvalidParameterError,
    OracleMismatchError,
    ParseError,
    PrymAlgError,
)
from .partitions import (
    DWeightedPartition,
    JVector,
    count_d_weighted_partitions,
    enumerate_d_weighted_partitions,
    enumerate_set_partitions,
    relabel,
)
from .polynomial import IntPoly
from .rigidity import (
    AbelianSymplecticAction,
    commutant_sp,
    sp_dimension,
)
from .series import (
    DimensionTable,
    StableRangeKind,
    in_stable_range,
    j_twisted_dims,
    putman_gap,
    stable_cohomology_dims,
    stratum_census,
    twisted_cohomology_dims,
)
from .symmetry import (
    counted_character,
    decompose,
    permutation_character,
    sr_character_table,
)

__version__ = "0.1.0"
