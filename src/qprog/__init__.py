"""Finite-field harmonic analysis for quadratic progressions.

Fields of odd characteristic with dense tables, additive and multiplicative
characters with both norm conventions, closed-form kernels of the quadratic
averaging operator with exhaustive brute-force equivalence checks, sliced
operator norms, mixed character-sum scans, and certified progression-free
set constructions -- all at desk scale (q up to ~1e4).
"""

from .field import (
    DESK_CAP,
    FieldCtx,
    SubfieldEmbedding,
    build_field,
    get_field,
    prime_power,
    subfield_embed,
)
from .characters import (
    ComplexFn,
    GaussSumInfo,
    fourier,
    fourier_inverse,
    gauss_sum,
    mult_fourier,
    mult_fourier_inverse,
    random_fn,
)
from .kernels import twisted_prefactor
from .operators import (
    ChainReport,
    DeviationReport,
    SlicedNormReport,
    ThresholdResult,
    averaging_apply,
    averaging_apply_fourier,
    count_progressions,
    density_threshold,
    deviation_norm,
    deviation_scan,
    sliced_norm_scan,
    triple_average_chain,
)
from .weil import WeilScanReport, weil_scan
from .constructions import (
    ElementSet,
    Plane,
    PlaneCensus,
    greedy_progression_free,
    is_progression_free,
    plane_census,
    quadratic_extension_line,
)
from .reporting import VERSION as __version__
