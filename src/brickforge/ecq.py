"""Exact rational arithmetic on the split cubics Y^2 = (X+B)(X^2-4*gamma^4).

The curve object is any value carrying integer attributes B, gamma and
the three roots e1, e2, e3; all point coordinates are Fractions, or the
integers (p, r, d) of X = p/d^2 and Y = r/d^3 that the group law works
in, so every identity below is checked exactly, never numerically.

The group law (add, neg, scalar_mul) assumes its inputs are on
the curve; it checks only the integral form its sums take.  Points
are checked where they enter: seed file lines in `mw.load_seed_file`,
seeds in `mw.enumerate_and_certify`, hit pairs in `fibration.phi` and
stored generators in `store.validate_consistency`.  The torsion of every
fibre is Z/2 x Z/4 (`TORSION_STRUCTURE`), none of it lifts to a hit, and
its points come from `torsion_subgroup`, unchecked, with a table of
their cosets of E[2] that tells the MW walk which translates share tau
and which invert it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt

from .ntkernel import is_perfect_square


@dataclass(frozen=True)
class CurvePoint:
    X: Fraction | None = None
    Y: Fraction | None = None

    @property
    def is_infinity(self) -> bool:
        return self.X is None


INFINITY = CurvePoint()


def cubic_rhs(c, X: Fraction) -> Fraction:
    g4 = 4 * c.gamma**4
    return ((X + c.B) * X - g4) * X - g4 * c.B


def on_curve(c, P: CurvePoint) -> bool:
    return P.is_infinity or P.Y * P.Y == cubic_rhs(c, P.X)


def neg(c, P: CurvePoint) -> CurvePoint:
    return INFINITY if P.is_infinity else CurvePoint(P.X, -P.Y)


def _triple(P: CurvePoint) -> tuple[int, int, int] | None:
    """P as the integers (p, r, d) with X = p/d^2 and Y = r/d^3 in lowest
    terms, None at infinity; a point on the integral model has this form."""
    if P.is_infinity:
        return None
    s, t = P.X.denominator, P.Y.denominator
    d = t // s
    if d * d != s or d * s != t:
        raise AssertionError(f"point {P} not in integral form")
    return P.X.numerator, P.Y.numerator, d


def _point(P: tuple[int, int, int] | None) -> CurvePoint:
    """The inverse of `_triple`."""
    if P is None:
        return INFINITY
    p, r, d = P
    s = d * d
    return CurvePoint(Fraction(p, s), Fraction(r, s * d))


def _raw_sum(c, P: tuple[int, int, int], Q: tuple[int, int, int]) -> tuple[int, int, int] | None:
    """P + Q as (u, w, D) with X = u/D^2 and Y = w/D^3, unreduced, for triples
    (p, r, d) with X = p/d^2 and Y = r/d^3, d != 0; None at infinity.

    With E = p2 d1^2 - p1 d2^2 and F = r2 d1^3 - r1 d2^3 the chord has slope
    F/D, D = d1 d2 E.  Where E = F = 0 and r != 0 the tangent has slope L/D,
    L = 3 p^2 + 2 B p d^2 - 4 gamma^4 d^4 and D = 2 r d, the integral form of
    X(2P) = phi_2/psi_2^2 (Silverman, AEC III.2).
    """
    p1, r1, d1 = P
    p2, r2, d2 = Q
    s1, s2 = d1 * d1, d2 * d2
    E = p2 * s1 - p1 * s2
    t2 = s2 * d2
    F = r2 * s1 * d1 - r1 * t2
    if E:
        D = d1 * d2 * E
        E2 = E * E
        x1 = p1 * s2 * E2  # X(P) * D^2
        u = F * F - c.B * D * D - x1 - p2 * s1 * E2
        return u, F * (x1 - u) - r1 * t2 * E2 * E, D
    if F or not r1:  # Q = -P, or P of order two
        return None
    L = (3 * p1 + 2 * c.B * s1) * p1 - 4 * c.gamma**4 * s1 * s1
    D = 2 * r1 * d1
    rr = r1 * r1
    u = L * L - c.B * D * D - 8 * p1 * rr
    return u, L * (4 * p1 * rr - u) - 8 * rr * rr, D


def _sum(c, P: tuple[int, int, int] | None, Q: tuple[int, int, int] | None) -> tuple[int, int, int] | None:
    """P + Q on triples (None at infinity), the sum with d > 0 and X in
    lowest terms.

    On the integral model X(P + Q) is p/d^2 in lowest terms with d | D, so
    gcd(u, D^2) = (D/d)^2 and one gcd reduces X and Y at once, for a chord
    and a tangent alike.  That this gcd is a square and divides w the right
    number of times is checked, never assumed.
    """
    if P is None:
        return Q
    if Q is None:
        return P
    R = _raw_sum(c, P, Q)
    if R is None:
        return None
    u, w, D = R
    if D < 0:
        D, w = -D, -w
    G = gcd(u, D * D)
    g = isqrt(G)
    g3 = G * g
    if g * g != G or w % g3:
        raise AssertionError(f"sum not in integral form on the curve with B = {c.B}")
    return u // G, w // g3, D // g


def add(c, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    """Chord-tangent sum of two points on the curve, in the integers of
    their triples (`_sum`)."""
    return _point(_sum(c, _triple(P), _triple(Q)))


def scalar_mul(c, k: int, P: CurvePoint) -> CurvePoint:
    if k < 0:
        k, P = -k, neg(c, P)
    R = INFINITY
    while k:
        if k & 1:
            R = add(c, R, P)
        P = add(c, P, P)
        k >>= 1
    return R


def two_torsion(c) -> list[CurvePoint]:
    """The three rational points of order two; the cubic always splits."""
    return [CurvePoint(Fraction(e), Fraction(0)) for e in (c.e1, c.e2, c.e3)]


TORSION_STRUCTURE = (2, 4)  # Z/2 x Z/4 on every fibre, see torsion_subgroup


@dataclass
class TorsionGroup:
    structure: tuple[int, int]  # (d1, d2) meaning Z/d1 + Z/d2
    points: list[CurvePoint]
    # always False, as the group is complete by theorem; kept only because
    # perfbench's torsion observer reads it
    lower_bound_only: bool = False
    # per point, (its coset of E[2], whether it is O or Q plus (e2,0) or (e3,0))
    cosets: list[tuple[int, bool]] = field(default_factory=list)


def torsion_subgroup(c) -> TorsionGroup:
    """The torsion of a fibre, Z/2 x Z/4: O, then its other seven points by
    (X, Y).

    On every fibre e2 - e1 = (2 U2)^2 = r1^2 and e2 - e3 = (2 gamma)^2 = r3^2,
    so (e2, 0) halves to X = e2 + s r1 r3, Y = +-r1 r3 (r1 + s r3), s = +-1:
    with the 2-torsion, Z/2 x Z/4.  By Mazur's theorem the torsion is that
    or Z/2 x Z/8 (no Z/4 x Z/4 or Z/2 x Z/12 over Q), the latter exactly
    when a point of order 4 halves, so when each X - e_i is a square.  For
    s = -1, X - e2 < 0; for s = 1, X - e2 = r1 r3 = 4 U2 gamma.  U2 and gamma
    are the coprime legs of U2^2 + gamma^2 = W2^2, so a square would make
    both squares with x^4 + y^4 = W2^2, which Fermat's right-triangle
    theorem rules out.  A cubic where that point halves raises ValueError.
    So every torsion point is O, one with Y = 0 or phi(+-1, +-2 U2), and
    none lifts (|t| = 1 gives a = b): no admissible hit a/b maps to one.

    The cosets of E[2] = {O, (e1,0), (e2,0), (e3,0)} are E[2] (coset 0) and
    Q + E[2] (coset 1), Q = (e2 + r1 r3, r1 r3 (r1 + r3)): Q + (e2,0) = -Q,
    and Q + (e1,0) and Q + (e3,0) are (e2 - r1 r3, -+r1 r3 (r1 - r3)).  The
    flag in `cosets` marks O or Q plus (e2,0) or (e3,0).  Translation by
    (e, 0) sends X to e + K/(X - e), K = (e - e')(e - e'').  With
    tau = 4 gamma^2 (X + B) / ((X - 2 gamma^2)(X + 2 gamma^2)), (e1,0) gives
    X' + B = (B^2 - 4 gamma^4)/(X + B), so tau is kept, and (e2,0) gives
    X' + B = (2 gamma^2 + B)(X + 2 gamma^2)/(X - 2 gamma^2) and
    X' + 2 gamma^2 = 4 gamma^2 (X + B)/(X - 2 gamma^2), so tau is inverted, as
    by (e3,0).  So tau(P + T) is tau(P + T0), T0 a point of T's coset
    without the flag, or its inverse where T has the flag.

    >>> from brickforge.fibration import build_fibre
    >>> c = build_fibre(2, 1)
    >>> tor = torsion_subgroup(c)
    >>> tor.structure, len(tor.points), 4 * c.U2 * c.gamma, is_perfect_square(48)
    ((2, 4), 8, 48, None)
    """
    r1 = is_perfect_square(c.e2 - c.e1)
    r3 = is_perfect_square(c.e2 - c.e3)
    if r1 is None or r3 is None or r1 * r3 * (r1 - r3) == 0:
        raise ValueError(f"e2 - e1 = {c.e2 - c.e1} and e2 - e3 = {c.e2 - c.e3} "
                         "are not distinct non-zero squares")
    X = c.e2 + r1 * r3
    if all(is_perfect_square(X - e) is not None for e in (c.e1, c.e2, c.e3)):
        raise ValueError(f"the point of order 4 at X = {X} halves: torsion Z/2 x Z/8 "
                         "is not that of a fibre")
    E1, E2, E3 = two_torsion(c)
    group = [(E1, (0, False)), (E2, (0, True)), (E3, (0, True))]
    for s in (1, -1):
        X, Y = Fraction(c.e2 + s * r1 * r3), Fraction(r1 * r3 * (r1 + s * r3))
        group += [(CurvePoint(X, Y), (1, s < 0)), (CurvePoint(X, -Y), (1, s > 0))]
    group.sort(key=lambda item: (item[0].X, item[0].Y))
    return TorsionGroup(TORSION_STRUCTURE, [INFINITY, *(P for P, _ in group)],
                        cosets=[(0, False), *(flag for _, flag in group)])
