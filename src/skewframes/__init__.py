"""Dihedral equiangular tight frames ETF(2n, n) via two-negacirculant
skew Hadamard matrices: construction, verification, exhaustive search,
and classification up to Gram matrix equivalence."""

from .algebra import (
    CycloPoly,
    RootIndex,
    circulant,
    is_circulant,
    is_negacirculant,
    negacirculant,
)
from .frames import (
    Configuration,
    DihedralFlavor,
    GramMatrix,
    NotFactorableError,
    StructureReport,
    analyze_gram_structure,
    coherence,
    configuration_from_gram,
    dihedral_orbit,
    frame_potential,
    gram,
    is_etf,
    is_regular,
    is_tight,
    welch_bound,
)
from .grambuild import (
    InvalidPairsError,
    InvalidPartitionError,
    SpectralPartition,
    full_root_set,
    is_regular_gram,
)
from .hadamard import (
    AmbiguousEntryError,
    BlockSkewHadamard,
    ExactifyFailure,
    approximate_sign_matrix,
    assemble,
    block_etf_gram,
    etf_gram,
    exactify,
    hex_decode,
    hex_encode,
    is_hadamard,
    is_skew_hadamard,
)
from .paley import (
    ConstructionError,
    FiniteField,
    conj_double_paley_gram,
    double_paley_gram,
    doubled_paley_rows,
    paley_gram,
    paley_hadamard,
    paley_rows,
)
from .equiv import (
    EquivalenceCertificate,
    EquivalenceResult,
    NotEtfGramError,
    are_equivalent,
)
from .search import (
    SolutionRecord,
    classify,
    enumerate_2circulant,
    load_records,
)
from .search import enumerate as enumerate_solutions
from .numopt import (
    DiscoveryFailure,
    MinimizeConfig,
    MinimizeResult,
    discover,
    minimize_fiducial,
)
