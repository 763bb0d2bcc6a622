"""Exact-arithmetic analysis of substitutions and their generating functions.

A substitution maps each letter of a finite alphabet to a non-empty word.
This package parses rule files, streams fixed words lazily, computes
Perron-Frobenius data exactly, classifies the letters' characteristic and
position generating functions as rational (with an explicit certificate),
transcendental (via aperiodicity), or inconclusive, realises fixed words as
tilings of the half-line with exact quadratic-field endpoints, and certifies
root-free intervals of the Fibonacci pair polynomials with Descartes' rule
of signs.
"""

from .errors import SubgfError
from .genfun import (
    CHARACTERISTIC,
    POSITION,
    Rational,
    RationalForm,
    TranscendentalByAperiodicity,
    TruncatedSeries,
    char_prefix_poly,
    char_series,
    difference_transform,
    position_prefix_poly,
    position_series,
    rational_form_from_witness,
    recursive_char_poly,
    recursive_pos_poly,
    series_verdict,
    series_verdict_of,
    summatory_transform,
)
from .geometric import (
    LengthAssignment,
    classify_two_letter,
    classify_two_letter_of,
    endpoint_sequence,
    natural_lengths,
    natural_lengths_of,
)
from .periodicity import PeriodWitness, detect_period
from .polynomials import ExactPolynomial
from .quadratic import QuadraticReal
from .realroots import ExclusionCertificate, certify_positive, isolate_max_root
from .substitutions import (
    Analysis,
    AperiodicByIrrationalPF,
    AperiodicityVerdict,
    EventuallyPeriodic,
    FixedPointSeed,
    InconclusiveUpTo,
    PFData,
    Substitution,
    SubstitutionMatrix,
    aperiodicity_verdict,
    fixed_point_seed,
    fixed_word_prefix,
    gap_bound,
    is_primitive,
    parse_substitution,
    pf_data,
    substitution_matrix,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
