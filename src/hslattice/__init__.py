"""Exact-arithmetic lattice toolkit and hidden-structure recovery harness."""

from .intmath import factor, is_probable_prime
from .rationals import (
    PartialFractionForm,
    Rat,
    continued_fraction_convergents,
    legendre_reconstruct,
    partial_fractions,
)
from .matrix import IntMatrix, RatMatrix, hnf, snf, snf_rational
from .lll import babai_nearest_plane
from .lattice import (
    Lattice,
    TorusVec,
    coset_canonical,
    dual_membership,
    dual_sample_uniform,
    integer_orthogonal,
    lattice_from_generators,
    reciprocal_basis,
    saturation,
)
from .oracles import brick_oracle, rational_oracle, shift_pair_oracle, sparse_simon_oracle
from .alg_a import AlgAParams, end_to_end, finite_stage, recover_colattice, sample_fourier_point, schedule
from .sieve import (
    PhaseVector,
    SieveConfig,
    build_target_group,
    collimate,
    create_qubit,
    lift_shift,
    recover_shift,
    shorten,
    sieve_config,
    tensor,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
