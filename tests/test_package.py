import argparse
import ast
import enum
import importlib
import inspect
import sys
from pathlib import Path

import tauforge
from tauforge import cli

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


def test_only_polycore_names_the_packing():
    # every other module reaches a Packing through polycore.pack_over's return value
    naming = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "polycore":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name.rpartition(".")[2] if isinstance(node, ast.alias) else None)
            if name == "Packing":
                naming.append(f"{path.name}:{node.lineno}")
    assert naming == []


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


# The command line's knobs and the package's module state.  A change that adds a
# flag, an environment variable, a mutable module-level table or a functools
# cache has to edit these tables.  Positional arguments are listed by name.
CLI_OPTIONS = {
    "tauforge": ["-h", "--help", "command"],
    "schur": ["-h", "--help", "j", "--component", "--json"],
    "tau-kp": ["-h", "--help", "--partition", "--shifts", "--json"],
    "tau-mkp": ["-h", "--help", "--specs", "--charge", "--json"],
    "tau-nkdv": ["-h", "--help", "--partition", "--n", "--shifts", "--json"],
    "tau-mnkdv": ["-h", "--help", "--profile", "--charge", "--json"],
    "akns": [
        "-h", "--help", "--m1", "--m2", "--k", "--p", "--b1", "--b2", "--c1", "--c2", "--json",
    ],
    "verify": [
        "-h", "--help", "--what", "--partition", "--n", "--shifts", "--specs", "--profile",
        "--m1", "--m2", "--k", "--b1", "--b2", "--c1", "--c2", "--base", "--j", "--j-max",
        "--d-max", "--seed", "--trials", "--json", "--timings",
    ],
    "oracle-compare": ["-h", "--help", "--case", "--json"],
    "list-periodic": ["-h", "--help", "--n", "--max-size", "--json"],
}
MODULE_STATE = [
    "cli.VERIFY",
    "cli.build_parser",
    "fermion._CHARACTERS",
    "fermion._EXPANSIONS",
    "schur._MONOMIALS",
    "schur._power",
]
ENVIRONMENT = ["cli.py: TAUFORGE_MAX_DEGREE"]
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _options(parser: argparse.ArgumentParser) -> list[str]:
    return [o for action in parser._actions for o in action.option_strings or [action.dest]]


def _environment_reads(path: Path) -> list[str]:
    """``path.name: NAME`` for each use of os.environ or os.getenv, NAME being the first
    string constant of the call or subscript around it (``?`` if there is none)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    reads = []
    for node in ast.walk(tree):
        if getattr(node, "attr", getattr(node, "id", None)) not in ENVIRONMENT_NAMES:
            continue
        while node in parents and not isinstance(node, (ast.Call, ast.Subscript)):
            node = parents[node]
        keys = [n.value for n in ast.walk(node) if isinstance(n, ast.Constant)]
        reads.append(f"{path.name}: {next((k for k in keys if isinstance(k, str)), '?')}")
    return reads


def test_knobs_and_module_state_are_pinned():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: _options(sp) for name, sp in commands.choices.items()}
    assert {"tauforge": _options(parser), **options} == CLI_OPTIONS

    modules = [importlib.import_module(f"tauforge.{p.stem}") for p in sorted(SRC.glob("*.py"))
               if p.stem not in ("__init__", "__main__")]
    state = sorted(
        f"{module.__name__.rpartition('.')[2]}.{name}"
        for module in [tauforge, *modules]
        for name, value in vars(module).items()
        if not name.startswith("__") and (
            isinstance(value, (dict, list, set, bytearray))
            or hasattr(value, "cache_info") and value.__module__ == module.__name__
        )
    )
    assert state == MODULE_STATE

    assert [read for path in sorted(SRC.glob("*.py")) for read in _environment_reads(path)] \
        == ENVIRONMENT
