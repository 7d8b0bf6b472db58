"""Obstruction analysis on the space-diagonal norm f1.

A blocker is a prime dividing f1 to odd exponent; any one of them
stops f1 from being a square, hence stops the brick from being a
perfect cuboid.  The conjecture under test here is stronger: every
hit should carry a blocker of exponent exactly one that is coprime
to all 29 canonical expressions of the tuple.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .master import MasterTuple, f1, is_master_hit, parameter_set, triples
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


def blockers(f: Factorization) -> list[tuple[int, int]]:
    """Odd-exponent primes among the known factors, ascending."""
    return [(p, e) for p, e in f.factors if e % 2 == 1]


def verify_blocker_conjecture(t: MasterTuple, f: Factorization) -> BlockerReport:
    """Look for an exponent-one blocker coprime to the whole parameter set.

    With a partial factorization a witness still certifies the verdict,
    because exponent one is confirmed directly against f1 by two exact
    divisions; no witness under partial status is undecidable rather
    than a violation.
    """
    if is_master_hit(t) is None:
        raise ValueError(f"{tuple(t)} is not a hit")
    value = f1(t)
    blist = blockers(f)
    if f.status == "full":
        for p, _ in blist:
            if p % 4 != 1:
                raise AssertionError(f"blocker {p} = 3 mod 4 on {tuple(t)}, impossible for a two-square norm")
    pset = parameter_set(t)
    witnesses = []
    for p, e in blist:
        if e != 1:
            continue
        if f.status == "partial" and not (value % p == 0 and value % (p * p) != 0):
            continue
        if all(gcd(p, member) == 1 for member in pset):
            witnesses.append(p)
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


def _square_part_split(value: int, f: Factorization, g0: int):
    # rf = product of odd-exponent primes, h = sqrt of the even cofactor
    rf = 1
    for p, e in f.factors:
        if e % 2 == 1:
            if e != 1:
                return None
            rf *= p
    h = isqrt(value // rf)
    if h * h * rf != value:
        raise AssertionError("square part of f1 not square after removing exponent-one blockers")
    if h % g0:
        raise AssertionError(f"g0 = {g0} does not divide h = {h}")
    return rf, h, h // g0


def k_invariant(t: MasterTuple, f: Factorization):
    """(rf, h, k) with f1 = rf * h^2 and h = k * g0.

    Needs a full factorization whose blockers all have exponent one;
    returns None otherwise.  A g0 that fails to divide h would refute
    the decomposition result and raises instead of returning.
    """
    if f.status != "full":
        raise ValueError("k_invariant needs a full factorization")
    return _square_part_split(f1(t), f, canonical_decomposition(t).g0)


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
    value = f1(t)
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
