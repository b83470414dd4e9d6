"""Periodic decomposition of finite sequences over nested divisor bases.

The package builds real cosine-pair bases for every divisor period of a
signal length, stacks them into an invertible nested periodic matrix,
and uses the resulting transform (plus DFT and Ramanujan baselines) for
period, hidden-period, and frequency profiling. Non-divisor periods are
recovered with a penalized minimum-norm dictionary fit.
"""

from .errors import CcptError, NoPeriodicContent, NumericalError, SignalIoError
from .numtheory import (
    CoprimeHalfSet,
    DivisorSet,
    coprime_half_set,
    divisor_set,
    divisors,
    gcd,
    lcm,
    totient,
)
from .ccps import (
    CcpsSequence,
    CcsBasis,
    CirculantMatrix,
    ccps,
    ccps_inner_product,
    ccs_basis,
    circulant,
    factorize,
    inner_product_closed_form,
)
from .transform import (
    BasisBlock,
    CoefficientVector,
    NestedPeriodicMatrix,
    PeriodStrengthProfile,
    basis_block,
    build_ccpt_matrix,
    divisor_strengths,
    estimate_period,
    frequency_labels,
)
from .baselines import (
    ComplexityReport,
    RamanujanSum,
    build_rpt_matrix,
    complexity_estimate,
    dft,
    dft_divisor_strengths,
    idft,
    ramanujan_sum,
)
from .estimation import (
    DictionaryModel,
    DictionarySolution,
    ScanRecord,
    ScanResult,
    build_dictionary,
    default_p_max,
    dictionary_solve,
    dictionary_strength_profile,
    range_scan,
)
from .signalgen import SignalSpec, gen_custom_sum, gen_tiled_ccps, gen_y1, gen_y2

__version__ = "0.1.0"
