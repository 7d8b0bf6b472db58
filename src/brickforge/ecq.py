"""Exact rational arithmetic on the split cubics Y^2 = (X+B)(X^2-4*gamma^4).

The curve object is any value carrying integer attributes B, gamma and
the three roots e1, e2, e3; all point coordinates are Fractions, so
every identity below is checked exactly, never numerically.

The group law (add, neg, scalar_mul, halve) assumes its inputs are on
the curve and checks nothing.  Points are checked where they enter: in
`mw` (seed files, seeds), `fibration.phi` and `store.validate_consistency`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ntkernel import is_perfect_square, is_square_rational


@dataclass(frozen=True)
class CurvePoint:
    X: Fraction | None = None
    Y: Fraction | None = None

    @property
    def is_infinity(self) -> bool:
        return self.X is None


INFINITY = CurvePoint()


def _coeffs(c) -> tuple[int, int, int]:
    g4 = c.gamma**4
    return c.B, -4 * g4, -4 * g4 * c.B


def cubic_rhs(c, X: Fraction) -> Fraction:
    a2, a4, a6 = _coeffs(c)
    return ((X + a2) * X + a4) * X + a6


def on_curve(c, P: CurvePoint) -> bool:
    if P.is_infinity:
        return True
    return P.Y * P.Y == cubic_rhs(c, P.X)


def neg(c, P: CurvePoint) -> CurvePoint:
    if P.is_infinity:
        return INFINITY
    return CurvePoint(P.X, -P.Y)


def add(c, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
    """Chord-tangent sum of two points on the curve.

    The model is integral, so a point on it is X = p/d^2, Y = r/d^3 in
    lowest terms.  The chord is summed in those integers: with
    E = p2 d1^2 - p1 d2^2, F = r2 d1^3 - r1 d2^3 and D = d1 d2 E the slope
    is F/D, and the sum is (u/D^2, w/D^3), reduced once at the end.
    """
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    if P.X == Q.X:
        if P.Y == -Q.Y:
            return INFINITY
        a2, a4, _ = _coeffs(c)
        lam = (3 * P.X * P.X + 2 * a2 * P.X + a4) / (2 * P.Y)
        X3 = lam * lam - a2 - P.X - Q.X
        return CurvePoint(X3, lam * (P.X - X3) - P.Y)
    # s = d^2 and t = d^3 are the denominators of X and Y
    p1, s1, r1, t1 = P.X.numerator, P.X.denominator, P.Y.numerator, P.Y.denominator
    p2, s2, r2, t2 = Q.X.numerator, Q.X.denominator, Q.Y.numerator, Q.Y.denominator
    E = p2 * s1 - p1 * s2
    F = r2 * t1 - r1 * t2
    D = (t1 // s1) * (t2 // s2) * E
    E2, D2 = E * E, D * D
    x1 = p1 * s2 * E2  # X(P) * D^2
    u = F * F - c.B * D2 - x1 - p2 * s1 * E2
    w = F * (x1 - u) - r1 * t2 * E2 * E
    return CurvePoint(Fraction(u, D2), Fraction(w, D2 * D))


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
    zero = Fraction(0)
    return [
        CurvePoint(Fraction(c.e1), zero),
        CurvePoint(Fraction(c.e2), zero),
        CurvePoint(Fraction(c.e3), zero),
    ]


def halve(c, P: CurvePoint) -> list[CurvePoint]:
    """All rational Q with 2Q = P, possibly empty.

    P halves exactly when X(P) - e_i is a rational square for each root;
    the candidate abscissae are X + r1*r2 + r1*r3 + r2*r3 over the sign
    choices of the roots r_i, and every candidate is confirmed by an
    exact doubling before it is returned.
    """
    if P.is_infinity:
        return [INFINITY] + two_torsion(c)
    roots = []
    for e in (c.e1, c.e2, c.e3):
        r = is_square_rational(P.X - e) if P.X != e else Fraction(0)
        if r is None:
            return []
        roots.append(r)
    out: list[CurvePoint] = []
    r1, r2, r3 = roots
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                u1, u2, u3 = s1 * r1, s2 * r2, s3 * r3
                X = P.X + u1 * u2 + u1 * u3 + u2 * u3
                Y2 = cubic_rhs(c, X)
                Y = is_square_rational(Y2) if Y2 != 0 else Fraction(0)
                if Y is None:
                    continue
                for Q in (CurvePoint(X, Y), CurvePoint(X, -Y)):
                    if Q not in out and add(c, Q, Q) == P:
                        out.append(Q)
    return out


def _closure(c, pts, base=frozenset()) -> set[CurvePoint]:
    """The group generated by `pts` and `base`, which must already be a
    group (or empty).  Semi-naive: each round forms only the sums that
    involve a point added in the round before."""
    group = set(base) | {INFINITY}
    fresh = [P for P in dict.fromkeys(pts) if P not in group]
    while fresh:
        older = [P for P in group if not P.is_infinity]
        group.update(fresh)
        new = []
        for i, P in enumerate(fresh):
            for Q in older + fresh[i:]:
                R = add(c, P, Q)
                if R not in group and R not in new:
                    new.append(R)
        fresh = new
    return group


@dataclass
class TorsionGroup:
    structure: tuple[int, int]  # (d1, d2) meaning Z/d1 + Z/d2
    points: list[CurvePoint]
    # always False, as the group is complete by theorem; kept only because
    # perfbench's torsion observer reads it
    lower_bound_only: bool = False


def torsion_subgroup(c) -> TorsionGroup:
    """Torsion as (d1, d2) plus the full point list, in closed form.

    On every fibre e2 - e1 = (2 U2)^2 = r1^2 and e2 - e3 = (2 gamma)^2 = r3^2,
    so (e2, 0) halves to X = e2 + s r1 r3, Y = +-r1 r3 (r1 + s r3), s = +-1:
    with the 2-torsion, Z/2 x Z/4.  By Mazur's theorem the torsion is that
    or Z/2 x Z/8 (no Z/4 x Z/4 or Z/2 x Z/12 over Q), the latter exactly
    when one of those points halves: when each X - e_i is a square.
    """
    r1 = is_perfect_square(c.e2 - c.e1)
    r3 = is_perfect_square(c.e2 - c.e3)
    if r1 is None or r3 is None or r1 * r3 * (r1 - r3) == 0:
        raise ValueError(f"e2 - e1 = {c.e2 - c.e1} and e2 - e3 = {c.e2 - c.e3} "
                         "are not distinct non-zero squares")
    group = {INFINITY, *two_torsion(c)}
    eighth = []
    for s in (1, -1):
        X, Y = c.e2 + s * r1 * r3, r1 * r3 * (r1 + s * r3)
        P = CurvePoint(Fraction(X), Fraction(Y))
        group.update((P, CurvePoint(P.X, Fraction(-Y))))
        if all(is_perfect_square(X - e) is not None for e in (c.e1, c.e2, c.e3)):
            eighth = halve(c, P)
    structure = (2, 4)
    if eighth:
        group = _closure(c, eighth[:1], group)
        structure = (2, 8)
    if len(group) != 2 * structure[1]:
        raise AssertionError(f"torsion {structure} with {len(group)} points")
    return TorsionGroup(structure, sorted(group, key=_point_key))


def _point_key(P: CurvePoint):
    if P.is_infinity:
        return (0, Fraction(0), Fraction(0))
    return (1, P.X, P.Y)
