import ast
import enum
import inspect
import sys
from pathlib import Path

import tauforge

SRC = Path(tauforge.__file__).parent


def test_every_exported_name_resolves():
    missing = [name for name in tauforge.__all__ if not hasattr(tauforge, name)]
    assert missing == []
    assert len(set(tauforge.__all__)) == len(tauforge.__all__)


def test_the_package_imports_only_itself_and_the_standard_library():
    # pyproject.toml declares dependencies = []; a third-party import would break that
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


# The signature of every public callable, as ``inspect.signature`` prints it.  A
# change that adds, removes, renames or re-defaults a public parameter has to
# edit this table.  ``Family`` is left out: an enum's call signature is the
# enum machinery's, and it changes with the Python version.
API_SIGNATURES = {
    "BasisVector": "(component: ForwardRef('int'), index: ForwardRef('int'))",
    "GeneratorVector": (
        "(entries: 'Mapping[BasisVector, RationalLike]', ncomp: 'int | None' = None)"
    ),
    "HSpec": "(terms: 'tuple[HTerm, ...]') -> None",
    "HTerm": "(degree: 'int', coeff: 'Fraction', shift: 'ShiftVector' = <factory>) -> None",
    "KdVProfile": "(n_parts: 'tuple[int, ...]', specs: 'tuple[HSpec, ...]') -> None",
    "Partition": "(parts: 'tuple[int, ...]' = ()) -> None",
    "Poly": "(terms: 'Mapping[Monomial, Fraction] | None' = None, ncomp: 'int' = 1)",
    "ShiftVector": "(entries: 'tuple[Fraction, ...]' = ()) -> None",
    "TauCollection": (
        "(total: 'int', ncomp: 'int', entries: 'dict[ChargeVector, Poly]', "
        "ambient: 'int | None' = None) -> None"
    ),
    "VSequence": "(head: 'tuple[int, ...]', tail_start: 'int') -> None",
    "VarId": (
        "(family: ForwardRef('Family'), component: ForwardRef('int'), index: ForwardRef('int'))"
    ),
    "VerificationReport": (
        "(identity: 'str', params: 'dict', obstruction: 'Poly', passed: 'bool', "
        "time_ms: 'float', per_param: 'dict[str, Poly]' = <factory>) -> None"
    ),
    "akns_collection": (
        "(m1: 'int', m2: 'int', b1: 'RationalLike', b2: 'RationalLike', c1: 'ShiftLike', "
        "c2: 'ShiftLike', big_k: 'int | None' = None) -> 'TauCollection'"
    ),
    "akns_pde_check": (
        "(collection: 'TauCollection', base: 'Sequence[int]') -> 'VerificationReport'"
    ),
    "akns_tau": (
        "(m1: 'int', m2: 'int', b1: 'RationalLike', b2: 'RationalLike', c1: 'ShiftLike', "
        "c2: 'ShiftLike', big_k: 'int', p: 'int') -> 'Poly'"
    ),
    "all_partitions": "(max_size: 'int') -> 'Iterator[Partition]'",
    "apply_D": "(p: 'Poly', j: 'int', n_parts: 'Sequence[int]') -> 'Poly'",
    "canonicalize_shifts": (
        "(partition: 'Partition | Iterable[int]', "
        "shifts: 'Sequence[ShiftLike]') -> 'list[ShiftVector]'"
    ),
    "charge_vectors": "(total: 'int', ncomp: 'int') -> 'Iterator[ChargeVector]'",
    "compute_kj": "(spec: 'HSpec', n_parts: 'Sequence[int]') -> 'int'",
    "det_poly": "(rows: 'Sequence[Sequence[Poly]]') -> 'Poly'",
    "elementary_schur": "(j: 'int', component: 'int' = 1, ncomp: 'int' = 1) -> 'Poly'",
    "enumerate_n_periodic": "(n: 'int', max_size: 'int') -> 'list[Partition]'",
    "expected_shift_lengths": "(partition: 'Partition | Iterable[int]') -> 'list[int]'",
    "free_parameter_count": "(partition: 'Partition | Iterable[int]') -> 'int'",
    "generator_from_hspec": "(spec: 'HSpec', ncomp: 'int') -> 'GeneratorVector'",
    "generators_from_partition": "(partition, shifts=None) -> 'list[GeneratorVector]'",
    "generators_from_profile": "(profile: 'KdVProfile') -> 'list[GeneratorVector]'",
    "hirota_kp_check": "(tau: 'Poly', j: 'int' = 0, n: 'int' = 1) -> 'VerificationReport'",
    "hirota_mkp_check": (
        "(collection: 'TauCollection', m: 'Sequence[int]', q: 'Sequence[int]', j: 'int' = 0, "
        "n_parts: 'Sequence[int] | None' = None) -> 'VerificationReport'"
    ),
    "is_n_periodic": "(partition: 'Partition | Iterable[int]', n: 'int') -> 'bool'",
    "kp_specs_from_partition": (
        "(partition: 'Partition | Iterable[int]', "
        "shifts: 'Sequence[ShiftLike] | None' = None) -> 'list[HSpec]'"
    ),
    "oracle_tau": "(fs: 'Sequence[GeneratorVector]', charge: 'Sequence[int]') -> 'Poly'",
    "reduction_check": (
        "(p: 'Poly', n_parts: 'Sequence[int]', j_max: 'int' = 3) -> 'VerificationReport'"
    ),
    "schur_constant": "(j: 'int', c: 'ShiftLike') -> 'Fraction'",
    "schur_constants": "(upto: 'int', c: 'ShiftLike') -> 'list[Fraction]'",
    "schur_shifted": (
        "(j: 'int', c: 'ShiftLike', component: 'int' = 1, ncomp: 'int' = 1) -> 'Poly'"
    ),
    "solve_shifts": "(b: 'Sequence[RationalLike]') -> 'ShiftVector'",
    "tau_kp": (
        "(partition: 'Partition | Iterable[int]', "
        "shifts: 'Sequence[ShiftLike] | None' = None) -> 'Poly'"
    ),
    "tau_mkp_collection": (
        "(specs: 'Sequence[HSpec]', ncomp: 'int | None' = None) -> 'TauCollection'"
    ),
    "tau_mkp_entry": "(specs: 'Sequence[HSpec]', charge: 'Sequence[int]') -> 'Poly'",
    "tau_mnkdv_collection": "(profile: 'KdVProfile') -> 'TauCollection'",
    "tau_mnkdv_entry": "(profile: 'KdVProfile', charge: 'Sequence[int]') -> 'Poly'",
    "tau_nkdv": (
        "(partition: 'Partition | Iterable[int]', n: 'int', shifts_by_class: 'Mapping[int, "
        "ShiftLike] | None' = None) -> 'Poly'"
    ),
    "tvar": "(index: 'int', component: 'int' = 1, ncomp: 'int' = 1) -> 'Poly'",
    "v_sequence": "(partition: 'Partition | Iterable[int]') -> 'VSequence'",
    "verify_kp": (
        "(tau: 'Poly', n: 'int' = 1, j_values: 'Sequence[int]' = (0,)) "
        "-> 'list[VerificationReport]'"
    ),
    "verify_mkp_collection": (
        "(collection: 'TauCollection', n_parts: 'Sequence[int] | None' = None, "
        "j_values: 'Sequence[int]' = (0,)) -> 'list[VerificationReport]'"
    ),
    "wedge_from_generators": (
        "(fs: 'Sequence[GeneratorVector]', ncomp: 'int') "
        "-> 'tuple[dict[int, int], int, fermion.Layout]'"
    ),
    "wedge_tau": (
        "(wedge: 'tuple[dict[int, int], int, fermion.Layout]', charge: 'Sequence[int]') -> 'Poly'"
    ),
    "xvar": "(index: 'int', component: 'int' = 1, ncomp: 'int' = 1) -> 'Poly'",
    "yvar": "(index: 'int', component: 'int' = 1, ncomp: 'int' = 1) -> 'Poly'",
}


def test_public_signatures_are_pinned():
    got = {
        name: str(inspect.signature(obj))
        for name, obj in ((name, getattr(tauforge, name)) for name in tauforge.__all__)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, enum.Enum))
    }
    assert got == API_SIGNATURES
