"""Exact construction and verification of polynomial tau-functions.

Everything is computed over the rationals with no floating point anywhere:
sparse multivariate polynomials (polycore), elementary Schur polynomials
and shift algebra (schur), periodic partitions (partitions), determinant
constructors for the KP / multicomponent KP / n-KdV / mixed-reduction /
AKNS families (tau), bilinear residue verification (hirota) with its
fermionic single-component form (fermion), and an independent
exterior-algebra oracle (fock).
"""

from .fock import (
    BasisVector,
    GeneratorVector,
    generator_from_hspec,
    generators_from_partition,
    generators_from_profile,
    oracle_tau,
    wedge_from_generators,
    wedge_tau,
)
from .hirota import (
    VerificationReport,
    akns_pde_check,
    hirota_kp_check,
    hirota_mkp_check,
    reduction_check,
    verify_kp,
    verify_mkp_collection,
)
from .partitions import (
    Partition,
    VSequence,
    all_partitions,
    enumerate_n_periodic,
    expected_shift_lengths,
    free_parameter_count,
    is_n_periodic,
    v_sequence,
)
from .polycore import (
    Family,
    Poly,
    VarId,
    tvar,
    xvar,
    yvar,
)
from .schur import (
    ShiftVector,
    canonicalize_shifts,
    elementary_schur,
    schur_constant,
    schur_constants,
    schur_shifted,
    solve_shifts,
)
from .tau import (
    HSpec,
    HTerm,
    KdVProfile,
    TauCollection,
    akns_collection,
    akns_tau,
    apply_D,
    charge_vectors,
    compute_kj,
    det_poly,
    kp_specs_from_partition,
    tau_kp,
    tau_mkp_collection,
    tau_mkp_entry,
    tau_mnkdv_collection,
    tau_mnkdv_entry,
    tau_nkdv,
)

__version__ = "0.1.0"

__all__ = [
    "BasisVector",
    "Family",
    "GeneratorVector",
    "HSpec",
    "HTerm",
    "KdVProfile",
    "Partition",
    "Poly",
    "ShiftVector",
    "TauCollection",
    "VSequence",
    "VarId",
    "VerificationReport",
    "akns_collection",
    "akns_pde_check",
    "akns_tau",
    "all_partitions",
    "apply_D",
    "canonicalize_shifts",
    "charge_vectors",
    "compute_kj",
    "det_poly",
    "elementary_schur",
    "enumerate_n_periodic",
    "expected_shift_lengths",
    "free_parameter_count",
    "generator_from_hspec",
    "generators_from_partition",
    "generators_from_profile",
    "hirota_kp_check",
    "hirota_mkp_check",
    "is_n_periodic",
    "kp_specs_from_partition",
    "oracle_tau",
    "reduction_check",
    "schur_constant",
    "schur_constants",
    "schur_shifted",
    "solve_shifts",
    "tau_kp",
    "tau_mkp_collection",
    "tau_mkp_entry",
    "tau_mnkdv_collection",
    "tau_mnkdv_entry",
    "tau_nkdv",
    "tvar",
    "v_sequence",
    "verify_kp",
    "verify_mkp_collection",
    "wedge_from_generators",
    "wedge_tau",
    "xvar",
    "yvar",
]
