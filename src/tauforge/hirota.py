"""Bilinear residue identities and differential checks for tau-functions.

Every check returns a ``VerificationReport`` carrying the exact obstruction
polynomial; a check passes precisely when that polynomial is zero.  Nothing
is approximated and no tolerance exists.

The single-component identity verified is

    Res_z  z^{j n} * tau(t - [z^-1]) * tau(y + [z^-1]) * exp(sum (t_i - y_i) z^i),

where [z^-1] is the Miwa vector (z^-1, z^-2/2, z^-3/3, ...) and Res picks
the z^-1 coefficient; j = 0, n = 1 is the plain KP case and z^{jn} gives the
reduced hierarchy.  The multicomponent identity sums, over components a,

    (-1)^{m_1+..+m_{a-1}+q_1+..+q_{a-1}}
        * Res_z z^{m_a-q_a+j n_a-2}
        * tau^{(m - e_a)}(t - [z^-1]_a) * tau^{(q + e_a)}(y + [z^-1]_a)
        * exp(sum (t_i^(a) - y_i^(a)) z^i)

with the Miwa shift applied in component a only, for label vectors m, q
summing to total + 1 and total - 1.

Both are computed in their fermionic form (module ``fermion``), with one
fermion species per component.  Each entry is expanded as
tau^(l) = sum xi prod_b s_{mu(b)}(t^(b)), a state whose species b occupies the
positions {mu(b)_i - i + l_b}, and the residue is the bosonization of

    B = sum_a sign_a sum_i psi^(a)_i tau^(m - e_a) (x) psi*^(a)_{i + j n_a} tau^(q + e_a).

psi^(a)_i inserts position i into species a and psi*^(a)_k removes k, each
with sign (-1)^{#occupied positions above} in that species, and the Klein
sign sign_a = (-1)^{m_1+..+m_{a-1}+q_1+..+q_{a-1}} is the parity of the
charges the species before a carry on both sides.  The charges in the occupied
positions are absolute, so every a lands in the same (m, q) sector, and a pair
passes exactly when B = 0.  A nonzero B maps back term by term: species b
of a state S becomes s_lambda(t^(b)) at charge m_b and s_lambda(y^(b)) at
charge q_b, with lambda_i = S_i + i - charge, which gives the residue
polynomial itself.  The single-component check is one species with tau at
charge 0, m = 1 and q = -1, so B = sum_i psi_i tau (x) psi*_{i + j n} tau.
Every entry must be a polynomial in the t-variables of components 1..s.

A whole collection's check (``verify_kp``, ``verify_mkp_collection``) first
asks ``fermion.decomposable`` whether T = sum_l (-1)^{sum_b C(l_b, 2)} tau^(l)
is one wedge.  Its Plucker relations are the j = 0 sectors of every pair, so a
certified collection's j = 0 obstructions are all zero; otherwise every pair
runs as above, which alone decides a FAIL, and a refuted collection whose
pairs all pass runs the j = 0 pairs it did not visit until one fails.  On
level 0 no label has a positive charge, so the pairs visited there are the
(e_a, -e_a).  A
certified collection's pairs are zero also at each j >= 1 where
D_j = sum_a d/dt^(a)_{j n_a} kills every entry: D_j commutes with the Miwa
shift, so it passes through each tau onto exp xi(t^(a) - y^(a), z), which it
multiplies by z^{j n_a}, and the obstruction at j is D_j, on the t-variables,
of the one at j = 0.  Every other report runs B.

AKNS check.  The two-component (1,1)-reduced families in the half-difference
variables x satisfy, with w = tau^(p, K-p) at a base label and its lattice
neighbors u = -tau^(p+1, K-p-1) and v = tau^(p-1, K-p+1), the coupled system

    2 q_{x2} =  q_{x1 x1} + 8 q^2 r
   -2 r_{x2} =  r_{x1 x1} + 8 r^2 q        (q = u/w, r = v/w),

which is the standard AKNS pair i q_T = -q_XX/2 - q^2 r,
i r_T = +r_XX/2 + r^2 q after X = 2 x_1, T = -4 i x_2 (chain rule:
d/dX = (1/2) d/dx_1, d/dT = (i/4) d/dx_2; the i's cancel, leaving rational
coefficients).  Clearing w^3 turns the flow of f = u (g = v, o = +1) or
f = v (g = u, o = -1) into the polynomial obstruction

    R_f = 2o (f_2 w - f w_2) w - (f_11 w^2 - f w_11 w - 2 f_1 w_1 w + 2 f w_1^2) - 8 f^2 g,

subscripts naming x-derivatives.  With the Hirota derivative
D_x (a.b) = a_x b - a b_x it is R_f = w P_f + f Q, where

    P_f = (2o D_x2 - D_x1^2)(f.w) = 2o (f_2 w - f w_2) - (f_11 w - 2 f_1 w_1 + f w_11),
    Q   = D_x1^2 (w.w) - 8 u v    = 2 w w_11 - 2 w_1^2 - 8 u v:

expanding, w P_f + f Q carries -f w_11 w + 2 f w w_11 = f w_11 w and
8 f u v = 8 f^2 g, which is R_f term for term.  P_f and Q are the AKNS
pair in Hirota's bilinear form and vanish on the families constructed
here, so a passing check forms no product of three entries.  They are a
sufficient test, never the verdict: where they do not vanish, R_f is
formed in full and decides (a common factor of every entry keeps q and r
but not P_f and Q).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Sequence

from . import fermion
from .polycore import Family, Poly, VarId, _json_int, int_tuple
from .tau import ChargeVector, TauCollection, _apply_d, _reduction_orders, apply_D


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
        passed=not obstruction,
        time_ms=(time.perf_counter() - t0) * 1000.0,
        per_param=per_param or {},
    )


def _first_nonzero(residuals: Iterable[Poly], ncomp: int) -> Poly:
    return next((r for r in residuals if r), Poly.zero(ncomp))


def hirota_kp_check(tau: Poly, j: int = 0, n: int = 1) -> VerificationReport:
    """The single-component residue identity at one j: ``verify_kp(tau, n, (j,))[0]``."""
    return verify_kp(tau, n, (j,))[0]


def verify_kp(tau: Poly, n: int = 1, j_values: Sequence[int] = (0,)) -> list[VerificationReport]:
    """Residue identity for a single-component tau at each j, z^{jn} selecting the
    reduction, with tau expanded once: the sector m = (1,), q = (-1,) of the
    collection {(0,): tau}.  Raises ``ValueError`` if tau has a variable other
    than a t-variable of component 1, if some j < 0 or if n < 1."""
    collection = TauCollection(0, 1, {(0,): tau} if tau else {}, tau.ncomp)
    return _mkp_reports(collection, [((1,), (-1,))], (n,), j_values, "kp-residue",
                        lambda mv, qv, j, parts: {"j": j, "n": n}, unvisited=())


def _sector(fock: tuple[dict, int, fermion.Layout], mv: ChargeVector, qv: ChargeVector,
            j: int, parts: ChargeVector, ambient: int) -> Poly:
    """The obstruction of the (m, q) sector at j, with fock = fermion.fock_states(entries, s).

    Component a (0-based) adds the term (sign, a, m - e_a, q + e_a, j * n_a)
    when both labels are entries, the labels that key the fock states; its
    Klein sign is the parity of m_1 + .. + m_{a-1} + q_1 + .. + q_{a-1}.
    """
    states, den, layout = fock
    terms = []
    prefix = 0
    for a in range(len(mv)):
        m_shift = mv[:a] + (mv[a] - 1,) + mv[a + 1:]
        q_shift = qv[:a] + (qv[a] + 1,) + qv[a + 1:]
        if m_shift in states and q_shift in states:
            terms.append((-1 if prefix & 1 else 1, a, m_shift, q_shift, j * parts[a]))
        prefix += mv[a] + qv[a]
    b = fermion.sato_b(states, layout, terms)
    return fermion.bosonize(b, layout, den**2, mv, qv, ambient) if b else Poly.zero(ambient)


def _mkp_params(mv: ChargeVector, qv: ChargeVector, j: int, parts: ChargeVector) -> dict:
    return {"m": list(mv), "q": list(qv), "j": j, "n_parts": list(parts)}


def _mkp_reports(
    collection: TauCollection, pairs: Sequence[tuple[ChargeVector, ChargeVector]],
    n_parts: Sequence[int] | None, j_values: Sequence[int], identity: str,
    params_of: Callable[[ChargeVector, ChargeVector, int, ChargeVector], dict],
    unvisited: Sequence[tuple[ChargeVector, ChargeVector]] | None,
) -> list[VerificationReport]:
    """One report per j and (m, q) pair, every entry expanded once, with params
    ``params_of(m, q, j, n_parts)``.  A report's time runs from the end of the one
    before, so the first also counts the expansion.  Only a whole collection's
    check, which names its ``unvisited`` pairs (None for one pair), is certified
    (module docstring); when the certificate refutes a collection whose reports,
    j = 0 among them, all pass, the ``unvisited`` pairs run at j = 0 in sorted
    order until one fails, and its report is appended."""
    parts = _reduction_orders((1,) * collection.ncomp if n_parts is None else n_parts,
                              collection.ncomp)
    js = int_tuple(j_values)
    if any(j < 0 for j in js):
        raise ValueError("need j >= 0")
    t0 = time.perf_counter()
    fock = fermion.fock_states(collection.entries, collection.ncomp)
    ambient = collection.ambient
    zero_js = {  # the j whose reports a certified collection makes zero
        j for j in js if unvisited is not None
        and not (j and any(_apply_d(tau, j, parts) for tau in collection.entries.values()))
    }
    certified = bool(zero_js) and fermion.decomposable(fock[0])
    zero = Poly.zero(ambient)  # shared by the certified reports, as Polys are immutable
    reports = []
    for j in js:
        for mv, qv in pairs:
            obstruction = (zero if certified and j in zero_js
                           else _sector(fock, mv, qv, j, parts, ambient))
            reports.append(_finish(identity, params_of(mv, qv, j, parts), obstruction, t0))
            t0 = time.perf_counter()
    if 0 in zero_js and not certified and all(r.passed for r in reports):
        for mv, qv in sorted(unvisited):
            obstruction = _sector(fock, mv, qv, 0, parts, ambient)
            if obstruction:
                reports.append(_finish(identity, params_of(mv, qv, 0, parts), obstruction, t0))
                break
    return reports


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
    the polyhedron read as zero and their terms drop out.  Raises
    ``ValueError`` if an entry has a variable other than a t-variable of a
    component 1..s.  Every entry is expanded on each call; to check many
    pairs, ``verify_mkp_collection`` expands them once.
    """
    s = collection.ncomp
    mv = int_tuple(m)
    qv = int_tuple(q)
    if len(mv) != s or len(qv) != s:
        raise ValueError("label arity must match the collection")
    if sum(mv) != collection.total + 1:
        raise ValueError(f"m must sum to {collection.total + 1}")
    if sum(qv) != collection.total - 1:
        raise ValueError(f"q must sum to {collection.total - 1}")
    return _mkp_reports(collection, [(mv, qv)], n_parts, (j,), "mkp-residue", _mkp_params,
                        unvisited=None)[0]


def verify_mkp_collection(
    collection: TauCollection,
    n_parts: Sequence[int] | None = None,
    j_values: Sequence[int] = (0,),
) -> list[VerificationReport]:
    """Run the residue identity over the label pairs (l + e_a, r - e_a) for nonzero
    entries l, r and each a with r_a >= 1, in sorted order.  On level 0, where
    no r_a is positive, every a is visited: the pairs (e_a, -e_a), so that a
    collection with an entry never passes on no checks.

    Above level 0 the pairs with r_a = 0 are not visited, although their term
    a also has both labels as entries, so a collection could pass every
    visited pair and be no tau.  ``fermion.decomposable`` decides that: when it
    refutes a collection whose reports, j = 0 among them, all pass, the
    unvisited pairs run at j = 0 until one fails, and its report is appended.
    Each entry is expanded once, for every pair and j; entries are checked as
    in ``hirota_mkp_check``.
    """
    labels = collection.entries
    visited, unvisited = set(), set()
    for left, right, a in product(labels, labels, range(collection.ncomp)):
        pair = (left[:a] + (left[a] + 1,) + left[a + 1:],
                right[:a] + (right[a] - 1,) + right[a + 1:])
        (visited if right[a] >= 1 or not collection.total else unvisited).add(pair)
    return _mkp_reports(collection, sorted(visited), n_parts, j_values, "mkp-residue",
                        _mkp_params, unvisited=unvisited - visited)


def reduction_check(
    p: Poly, n_parts: Sequence[int], j_max: int = 3
) -> VerificationReport:
    """Check D_j p = 0 for j = 1..j_max; per-j residuals are reported.

    The obstruction is the residual of the first j with a nonzero one.
    """
    if _json_int(j_max) < 1:
        raise ValueError("j_max must be >= 1")
    n_parts = int_tuple(n_parts)
    t0 = time.perf_counter()
    per = {f"j={j}": apply_D(p, j, n_parts) for j in range(1, j_max + 1)}
    return _finish("reduction-derivative", {"n_parts": list(n_parts), "j_max": j_max},
                   _first_nonzero(per.values(), p.ncomp), t0, per_param=per)


def akns_pde_check(collection: TauCollection, base: Sequence[int]) -> VerificationReport:
    """Check the rationalized AKNS pair on an x-variable collection.

    ``base`` picks tau^0; the two flows use the lattice neighbors at
    base + (1, -1) and base + (-1, 1).  Both denominator-cleared residuals
    must vanish (see the module docstring for the derivation); the
    obstruction is the first nonzero one, q_flow before r_flow.
    """
    if collection.ncomp != 2:
        raise ValueError("the AKNS check needs a two-component label lattice")
    base_label = int_tuple(base)
    if len(base_label) != 2:
        raise ValueError("base label must have two parts")
    w = collection.get(base_label)
    if not w:
        raise ValueError(f"base entry {base_label} is zero")
    t0 = time.perf_counter()

    u = -collection.get((base_label[0] + 1, base_label[1] - 1))
    v = collection.get((base_label[0] - 1, base_label[1] + 1))
    x1 = VarId(Family.X, 1, 1)
    x2 = VarId(Family.X, 1, 2)

    w1, w2, w11 = w.diff(x1), w.diff(x2), w.diff(x1, 2)
    # Q = D_x1^2 (w.w) - 8uv, the same for both flows.
    bilinear_q = Poly.sum_of_products([(2, w, w11), (-2, w1, w1), (-8, u, v)], w.ncomp)

    def flow_residual(f: Poly, orientation: int) -> Poly:
        # R_f = w P_f + f Q (module docstring); orientation o = -1 reverses
        # the time direction.  P_f's five terms share the factors w and f, so it
        # takes three products.  sum_of_products drops zero factors, so where
        # P_f and Q vanish no product of three entries is formed.
        f1, f2, f11 = f.diff(x1), f.diff(x2), f.diff(x1, 2)
        by_w, by_f = f2.scale(2 * orientation) - f11, w2.scale(-2 * orientation) - w11
        bilinear_p = Poly.sum_of_products([(1, by_w, w), (1, f, by_f), (2, f1, w1)], w.ncomp)
        return Poly.sum_of_products([(1, w, bilinear_p), (1, f, bilinear_q)], w.ncomp)

    per = {"q_flow": flow_residual(u, +1), "r_flow": flow_residual(v, -1)}
    return _finish("akns-pde", {"base": list(base_label)}, _first_nonzero(per.values(), w.ncomp),
                   t0, per_param=per)
