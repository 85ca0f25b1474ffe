"""Diffraction spectrum of the two-tile point set built on the
Prouhet-Thue-Morse sequence: Bragg positions, the singular-continuous
component and its scaling exponents, rarefied digit sums and their transfer
matrix, and the prime classification through real quadratic fields.
"""

from .tmcore import (
    QuasicrystalParams,
    digit_sum,
    tm_sign,
    point,
)
from .diffract import (
    fourier_sum,
    approximant_density,
    riesz_product,
    kappa_pair,
    kappa_eta_closed,
    scaling_exponent_alpha,
    fitted_alpha,
    ExtinctionError,
)
from .rareclass import (
    rarefied_sum,
    rarefied_vector,
    transfer_matrix,
    eigenvalues_explicit,
    scaling_exponents,
    fractal_profile,
    newman_check,
    positivity_scan,
    grabner_composite,
)
from .quadfield import (
    PrimeClass,
    is_prime,
    order_of_two,
    classify_prime,
    fundamental_unit,
    class_number,
    prime_record,
    scan_size_increasing,
)
from .spectrum import (
    SpectralKind,
    GrowthRegime,
    normalize_wavevector,
    classify,
    halving_reduction,
    rarefaction_domain,
    extinction_possible,
    growth_regime,
    marcinkiewicz_norm,
    class_invariance_check,
)

__version__ = "0.1.0"
