"""Bilinear residue identities and differential checks for tau-functions.

Every check returns a ``VerificationReport`` carrying the exact obstruction
polynomial; a check passes precisely when that polynomial is zero.  Nothing
is approximated and no tolerance exists.

The single-component identity verified is

    Res_z  z^{j n} * tau(t - [z^-1]) * tau(y + [z^-1]) * exp(sum (t_i - y_i) z^i),

where [z^-1] is the Miwa vector (z^-1, z^-2/2, z^-3/3, ...) and Res picks
the z^-1 coefficient; j = 0, n = 1 is the plain KP case and z^{jn} gives the
reduced hierarchy.  ``hirota_kp_check`` computes it in its fermionic form
(module ``fermion``): with tau = sum_mu xi_mu s_mu(t) and each state mu
written as the Maya set {mu_i - i}, the residue is the bosonization of

    B = sum_i psi_i tau (x) psi*_{i + j n} tau,

where psi_i inserts position i and psi*_k removes position k, each with
sign (-1)^{#occupied positions above}.  tau passes exactly when B = 0.  A
nonzero B maps back term by term: a charge +1 state S becomes
s_lambda(t) with lambda_i = S_i + i - 1, a charge -1 state becomes
s_lambda(y) with lambda_i = S_i + i + 1, and the obstruction is
sum_ab B_ab s_a(t) s_b(y), the same polynomial the residue gives.  tau must
be a polynomial in the t-variables of component 1.

The multicomponent identity sums, over components a,

    (-1)^{m_1+..+m_{a-1}+q_1+..+q_{a-1}}
        * Res_z z^{m_a-q_a+j n_a-2}
        * tau^{(m - e_a)}(t - [z^-1]_a) * tau^{(q + e_a)}(y + [z^-1]_a)
        * exp(sum (t_i^(a) - y_i^(a)) z^i)

with the Miwa shift applied in component a only, for label vectors m, q
summing to total + 1 and total - 1.

AKNS check.  The two-component (1,1)-reduced families in the half-difference
variables x satisfy, with w = tau^(p, K-p) at a base label and its lattice
neighbors u = -tau^(p+1, K-p-1) and v = tau^(p-1, K-p+1), the coupled system

    2 q_{x2} =  q_{x1 x1} + 8 q^2 r
   -2 r_{x2} =  r_{x1 x1} + 8 r^2 q        (q = u/w, r = v/w),

which is the standard AKNS pair i q_T = -q_XX/2 - q^2 r,
i r_T = +r_XX/2 + r^2 q after X = 2 x_1, T = -4 i x_2 (chain rule:
d/dX = (1/2) d/dx_1, d/dT = (i/4) d/dx_2; the i's cancel, leaving rational
coefficients).  Clearing w^3 turns the pair into the two polynomial
obstructions computed below; the derivation was done by hand and verified
on three independent determinant families before being frozen here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .fermion import kp_obstruction
from .polycore import (
    Family,
    Poly,
    VarId,
    laurent_mul_residue,
    miwa_shift,
    rename_family,
)
from .tau import ChargeVector, TauCollection, apply_D


@dataclass
class VerificationReport:
    """Outcome of one exact identity check."""

    identity: str
    params: dict
    obstruction: Poly
    passed: bool
    time_ms: float
    per_param: dict[str, Poly] = field(default_factory=dict)

    def to_json_obj(self, include_timing: bool = False) -> dict:
        out = {
            "identity": self.identity,
            "params": self.params,
            "pass": self.passed,
            "obstruction": str(self.obstruction),
        }
        if include_timing:
            out["time_ms"] = self.time_ms
        return out

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        params = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{status} {self.identity} {params}".rstrip()


def _finish(identity: str, params: dict, obstruction: Poly, t0: float,
            per_param: dict[str, Poly] | None = None) -> VerificationReport:
    return VerificationReport(
        identity=identity,
        params=params,
        obstruction=obstruction,
        passed=not obstruction.terms,
        time_ms=(time.perf_counter() - t0) * 1000.0,
        per_param=per_param or {},
    )


def _residue_term(tau_t: Poly, tau_y: Poly, power: int, component: int) -> Poly:
    """Res_z z^power * tau_t(t - [z^-1]_a) * tau_y(y + [z^-1]_a) * exp-series.

    The Miwa shifts and the series exp(sum (t_i - y_i) z^i) act in component
    a = ``component`` only; ``tau_y`` is given in the t-variables.
    """
    left = miwa_shift(tau_t, Family.T, component, -1)
    right = miwa_shift(rename_family(tau_y, Family.T, Family.Y), Family.Y, component, +1)
    return laurent_mul_residue(left, right, power, component)


def hirota_kp_check(tau: Poly, j: int = 0, n: int = 1) -> VerificationReport:
    """Residue identity for a single-component tau; z^{jn} selects the reduction.

    Raises ``ValueError`` if tau has a variable other than a t-variable of
    component 1.
    """
    if j < 0 or n < 1:
        raise ValueError("need j >= 0 and n >= 1")
    t0 = time.perf_counter()
    obstruction = kp_obstruction(tau, j * n)
    return _finish("kp-residue", {"j": j, "n": n}, obstruction, t0)


def _pair_terms(
    collection: TauCollection, mv: ChargeVector, qv: ChargeVector
) -> Iterator[tuple[int, int, Poly, Poly]]:
    """(a, sign, tau^(m - e_a), tau^(q + e_a)) for every component a whose
    term of the multicomponent identity does not reference a zero entry."""
    prefix = 0  # running parity of m_1 + .. + m_{a-1} + q_1 + .. + q_{a-1}
    for a in range(1, collection.ncomp + 1):
        sign = -1 if prefix & 1 else 1
        prefix += mv[a - 1] + qv[a - 1]
        m_shift = mv[:a - 1] + (mv[a - 1] - 1,) + mv[a:]
        q_shift = qv[:a - 1] + (qv[a - 1] + 1,) + qv[a:]
        if any(x < 0 for x in m_shift) or any(x < 0 for x in q_shift):
            continue
        tau_t = collection.get(m_shift)
        tau_y = collection.get(q_shift)
        if tau_t.terms and tau_y.terms:
            yield a, sign, tau_t, tau_y


def hirota_mkp_check(
    collection: TauCollection,
    m: Sequence[int],
    q: Sequence[int],
    j: int = 0,
    n_parts: Sequence[int] | None = None,
) -> VerificationReport:
    """Multicomponent residue identity at one pair of offset labels.

    ``m`` must sum to total + 1 and ``q`` to total - 1, so that the shifted
    labels m - e_a and q + e_a lie on the collection's level.  Entries off
    the polyhedron read as zero and their terms drop out.
    """
    s = collection.ncomp
    mv = tuple(int(x) for x in m)
    qv = tuple(int(x) for x in q)
    if len(mv) != s or len(qv) != s:
        raise ValueError("label arity must match the collection")
    if sum(mv) != collection.total + 1:
        raise ValueError(f"m must sum to {collection.total + 1}")
    if sum(qv) != collection.total - 1:
        raise ValueError(f"q must sum to {collection.total - 1}")
    parts = tuple(n_parts) if n_parts is not None else (1,) * s
    if len(parts) != s:
        raise ValueError("n_parts length must match the collection")
    if j < 0:
        raise ValueError("need j >= 0")
    t0 = time.perf_counter()
    ncomp_poly = next(iter(collection.entries.values())).ncomp if collection.entries else s
    obstruction = Poly.zero(ncomp_poly)
    for a, sign, tau_t, tau_y in _pair_terms(collection, mv, qv):
        power = mv[a - 1] - qv[a - 1] + j * parts[a - 1] - 2
        obstruction = obstruction + _residue_term(tau_t, tau_y, power, a).scale(sign)
    return _finish(
        "mkp-residue",
        {"m": list(mv), "q": list(qv), "j": j, "n_parts": list(parts)},
        obstruction,
        t0,
    )


def _offset_labels(collection: TauCollection, delta: int) -> list[ChargeVector]:
    """Labels l' with sum = total + delta lying one unit from a nonzero label."""
    out: set[ChargeVector] = set()
    for label in collection.entries:
        for a in range(collection.ncomp):
            moved = list(label)
            moved[a] += delta
            if moved[a] >= 0:
                out.add(tuple(moved))
    return sorted(out)


def verify_mkp_collection(
    collection: TauCollection,
    n_parts: Sequence[int] | None = None,
    j_values: Sequence[int] = (0,),
) -> list[VerificationReport]:
    """Run the residue identity over every label pair touching the collection.

    Pairs whose every term references a zero entry hold trivially and are
    skipped.
    """
    reports: list[VerificationReport] = []
    ms = _offset_labels(collection, +1)
    qs = _offset_labels(collection, -1)
    for j in j_values:
        for mv in ms:
            for qv in qs:
                if next(_pair_terms(collection, mv, qv), None) is None:
                    continue
                reports.append(hirota_mkp_check(collection, mv, qv, j, n_parts))
    return reports


def reduction_check(
    p: Poly, n_parts: Sequence[int], j_max: int = 3
) -> VerificationReport:
    """Check D_j p = 0 for j = 1..j_max; per-j residuals are reported."""
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    t0 = time.perf_counter()
    per: dict[str, Poly] = {}
    total = Poly.zero(p.ncomp)
    for j in range(1, j_max + 1):
        dj = apply_D(p, j, n_parts)
        per[f"j={j}"] = dj
        total = total + dj * dj
    return _finish(
        "reduction-derivative",
        {"n_parts": list(n_parts), "j_max": j_max},
        total,
        t0,
        per_param=per,
    )


def akns_pde_check(collection: TauCollection, base: Sequence[int]) -> VerificationReport:
    """Check the rationalized AKNS pair on an x-variable collection.

    ``base`` picks tau^0; the two flows use the lattice neighbors at
    base + (1, -1) and base + (-1, 1).  Both denominator-cleared residuals
    must vanish (see the module docstring for the derivation).
    """
    if collection.ncomp != 2:
        raise ValueError("the AKNS check needs a two-component label lattice")
    base_label = tuple(int(x) for x in base)
    if len(base_label) != 2:
        raise ValueError("base label must have two parts")
    w = collection.get(base_label)
    if not w.terms:
        raise ValueError(f"base entry {base_label} is zero")
    t0 = time.perf_counter()

    def neighbor(da: int, db: int) -> Poly:
        lab = (base_label[0] + da, base_label[1] + db)
        if lab[0] < 0 or lab[1] < 0:
            return Poly.zero(w.ncomp)
        return collection.get(lab)

    u = -neighbor(+1, -1)
    v = neighbor(-1, +1)
    x1 = VarId(Family.X, 1, 1)
    x2 = VarId(Family.X, 1, 2)

    w1, w2, w11 = w.diff(x1), w.diff(x2), w.diff(x1, 2)

    def flow_residual(f: Poly, orientation: int) -> Poly:
        # orientation +1: 2 f-flow; -1: reversed time direction.
        f1, f2, f11 = f.diff(x1), f.diff(x2), f.diff(x1, 2)
        lhs = (f2 * w - f * w2) * w
        rhs = (
            f11 * w * w
            - f * w11 * w
            - (f1 * w1 * w).scale(2)
            + (f * w1 * w1).scale(2)
        )
        nonlinear = (f * f * (v if orientation > 0 else u)).scale(8)
        return lhs.scale(2 * orientation) - rhs - nonlinear

    res_q = flow_residual(u, +1)
    res_r = flow_residual(v, -1)
    obstruction = res_q * res_q + res_r * res_r
    return _finish(
        "akns-pde",
        {"base": list(base_label)},
        obstruction,
        t0,
        per_param={"q_flow": res_q, "r_flow": res_r},
    )
