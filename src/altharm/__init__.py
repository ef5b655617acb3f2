"""Harmonic and alternating harmonic sums, exactly and modulo primes.

The alternating sum A_n = 1 - 1/2 + ... + (-1)^(n-1)/n, written in lowest
terms, has a numerator divisible by p whenever n is the witness index built
from an odd prime p >= 5 via 2p-1 = 3n or 3n+1.  This package computes the
sums exactly (arbitrary precision), evaluates them modulo p at scale, and
verifies the divisibility claim prime by prime over ranges.
"""

from .engine import (
    ConsistencyError,
    DEFAULT_EXACT_THRESHOLD,
    FormCase,
    ProofInapplicableError,
    RangeSummary,
    WitnessRecord,
    classify_index,
    record_to_json,
    search_numerator_divisor,
    verify_prime,
    verify_range,
    witness_index,
)
from .modfield import (
    PrimeModulus,
    Residue,
    alternating_mod,
    pairing_defect,
)
from .primes import (
    PrimeRange,
    is_prime,
    odd_primes_iter,
    sieve_range,
)
from .rationals import (
    NotPAdicIntegerError,
    alternating_exact,
    format_fraction,
    harmonic_exact,
    residue_of,
    tail_exact,
)

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "DEFAULT_EXACT_THRESHOLD",
    "FormCase",
    "NotPAdicIntegerError",
    "PrimeModulus",
    "PrimeRange",
    "RangeSummary",
    "Residue",
    "WitnessRecord",
    "alternating_exact",
    "alternating_mod",
    "classify_index",
    "format_fraction",
    "harmonic_exact",
    "is_prime",
    "odd_primes_iter",
    "pairing_defect",
    "record_to_json",
    "residue_of",
    "search_numerator_divisor",
    "sieve_range",
    "tail_exact",
    "verify_prime",
    "verify_range",
    "witness_index",
]
