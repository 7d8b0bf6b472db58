"""Obstruction analysis on the space-diagonal norm f1.

A blocker is a prime dividing f1 to odd exponent; any one of them
stops f1 from being a square, hence stops the brick from being a
perfect cuboid.  The conjecture under test here is stronger: every
hit should carry a blocker of exponent exactly one that is coprime
to all 29 canonical expressions of the tuple.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt, prod

from .master import MasterTuple, is_master_hit, parameter_set, row_fields, triples
from .ntkernel import Factorization, is_perfect_square, is_prime, valuation

VALID_MODIFIERS = (1, 5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97)


@dataclass
class BlockerReport:
    blockers: list[tuple[int, int]]
    exponent_one_outside_P: list[int]
    verdict: str  # verified | violated | undecidable_partial


@dataclass
class CanonicalDecomposition:
    g0: int
    xi: int
    eta: int


@dataclass
class SemiScaledCoords:
    g_plus: int
    g_minus: int


def blockers(t: MasterTuple, f: Factorization) -> list[tuple[int, int]]:
    """The odd-exponent rows p^e of f, ascending, each confirmed by two exact
    divisions of f1 = x^2 + y^2 + z^2 (from the hit check's one derivation):
    p^e divides f1, p^(e+1) does not.  Under status full a failing row, or a p
    not 1 mod 4, raises ValueError; under partial a failing row is dropped, as
    the residual may hold the rest of its power.  No row is proved prime here.
    """
    x, y, z, _, dyz = row_fields(t)
    if dyz is None:
        raise ValueError(f"{tuple(t)} is not a hit")
    value = x * x + y * y + z * z
    out = []
    for p, e in f.factors:
        if e % 2 == 0:
            continue
        if f.status == "full" and p % 4 != 1:
            raise ValueError(f"blocker {p} = 3 mod 4 on {tuple(t)}, impossible for a two-square norm")
        if value % p**e == 0 and value // p**e % p:
            out.append((p, e))
        elif f.status == "full":
            raise ValueError(f"row {p}^{e} does not divide f1 exactly on {tuple(t)}")
    return out


def verify_blocker_conjecture(t: MasterTuple, f: Factorization) -> BlockerReport:
    """Look for an exponent-one blocker coprime to the whole parameter set among
    those `blockers` confirms; no witness under partial status is undecidable."""
    blist = blockers(t, f)
    pset = parameter_set(t)
    witnesses = [p for p, e in blist if e == 1 and all(gcd(p, member) == 1 for member in pset)]
    if witnesses:
        verdict = "verified"
    elif f.status == "partial":
        verdict = "undecidable_partial"
    else:
        verdict = "violated"
    return BlockerReport(blist, witnesses, verdict)


def canonical_decomposition(t: MasterTuple) -> CanonicalDecomposition:
    """f1 = g0^2 (xi^2 + eta^2) with g0 = gcd(W1*U2, U1*V2), coprime tail."""
    t1, t2 = triples(t)
    A, B = t1.W * t2.U, t1.U * t2.V
    g0 = gcd(A, B)
    return CanonicalDecomposition(g0, A // g0, B // g0)


def verify_E1(t: MasterTuple) -> bool:
    """True when xi^2 + eta^2 is not a perfect square, as conjectured.
    A False here on a certified hit would exhibit a perfect cuboid."""
    if is_master_hit(t) is None:
        raise ValueError(f"{tuple(t)} is not a hit")
    d = canonical_decomposition(t)
    return is_perfect_square(d.xi**2 + d.eta**2) is None


def k_invariant(t: MasterTuple, f: Factorization):
    """(rf, h, k) with f1 = rf * h^2, rf the product of the blockers, h = k * g0.

    Needs a full factorization; None when a blocker has exponent above one.
    As f1 = g0^2 (xi^2 + eta^2), that holds when (xi^2 + eta^2) / rf = k^2, as
    the decomposition result makes it for f1's prime factorization: rows that
    leave anything else raise ValueError."""
    if f.status != "full":
        raise ValueError("k_invariant needs a full factorization")
    found = blockers(t, f)
    if any(e != 1 for _, e in found):
        return None
    rf = prod(p for p, _ in found)
    d = canonical_decomposition(t)
    tail = d.xi * d.xi + d.eta * d.eta
    k = isqrt(tail // rf)
    if k * k * rf != tail:
        raise ValueError(f"f1 / {rf} is not g0^2 = {d.g0 ** 2} times a square on {tuple(t)}")
    return rf, k * d.g0, k


def gaussian_gcds(t: MasterTuple) -> tuple[int, int]:
    """gcd(am+bn, an+bm) and gcd(|am-bn|, |an-bm|); both odd, coprime."""
    triples(t)  # the admissibility gate; no triple is read here
    a, b, m, n = t
    return gcd(a * m + b * n, a * n + b * m), gcd(abs(a * m - b * n), abs(a * n - b * m))


def semiscaled(t: MasterTuple) -> SemiScaledCoords:
    """The two gcds above with their product identity checked on the spot."""
    g_plus, g_minus = gaussian_gcds(t)
    t1, t2 = triples(t)
    if g_plus * g_minus != gcd(t1.U, t2.U):
        raise AssertionError(f"g+*g- != gcd(U1,U2) on {tuple(t)}")
    if gcd(g_plus, g_minus) != 1:
        raise AssertionError(f"g+ and g- share a factor on {tuple(t)}")
    value = (t1.W * t2.U) ** 2 + (t1.U * t2.V) ** 2  # f1
    if value % (g_plus * g_plus) or value % (g_minus * g_minus):
        raise AssertionError(f"semi-scaled square divisibility fails on {tuple(t)}")
    return SemiScaledCoords(g_plus, g_minus)


def is_strictly_semiscaled(t: MasterTuple) -> bool:
    c = semiscaled(t)
    return min(c.g_plus, c.g_minus) == 1 and max(c.g_plus, c.g_minus) > 1


def twelve_formulas(t: MasterTuple, k: int) -> list[int]:
    """The twelve square-extracting candidates D, in fixed order."""
    if k not in VALID_MODIFIERS:
        raise ValueError(f"modifier {k} not in {VALID_MODIFIERS}")
    a, b, m, n = t
    t1, t2 = triples(t)
    g_plus, g_minus = gaussian_gcds(t)
    return [
        b * t1.U * k, a * t1.U * k, t1.U * k, b * k, a * k,
        n * t2.U * k, m * t2.U * k, t2.U * k, n * k, m * k,
        g_plus * k, g_minus * k,
    ]


def padic_profile(t: MasterTuple, p: int):
    """(v_p(W1*U2), v_p(U1*V2), predicted v_p(f1) when the two differ)."""
    if p % 2 == 0 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    t1, t2 = triples(t)
    alpha = valuation(t1.W * t2.U, p)
    beta = valuation(t1.U * t2.V, p)
    predicted = 2 * min(alpha, beta) if alpha != beta else None
    return alpha, beta, predicted
