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
from math import gcd

from .ntkernel import factor, is_prime, is_square_rational

MAZUR_CAP = 16  # largest torsion order for the full-2-torsion shapes
COUNT_P_LIMIT = 10**5


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
    """Chord-tangent sum of two points on the curve."""
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    if P.X == Q.X:
        if P.Y == -Q.Y:
            return INFINITY
        a2, a4, _ = _coeffs(c)
        lam = (3 * P.X * P.X + 2 * a2 * P.X + a4) / (2 * P.Y)
    else:
        lam = (Q.Y - P.Y) / (Q.X - P.X)
    a2 = c.B
    X3 = lam * lam - a2 - P.X - Q.X
    Y3 = lam * (P.X - X3) - P.Y
    return CurvePoint(X3, Y3)


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


def _discriminant_core(c) -> int:
    return (c.e1 - c.e2) * (c.e1 - c.e3) * (c.e2 - c.e3)


def count_points_mod_p(c, p: int) -> int:
    """#E(F_p) by direct Euler-criterion summation; p odd, good, small."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    if p > COUNT_P_LIMIT:
        raise ValueError(f"p > {COUNT_P_LIMIT} not supported by direct counting")
    if _discriminant_core(c) % p == 0:
        raise ValueError(f"bad reduction at {p}")
    a2, a4, a6 = (v % p for v in _coeffs(c))
    count = 1
    half = (p - 1) // 2
    for x in range(p):
        v = (((x + a2) * x + a4) * x + a6) % p
        if v == 0:
            count += 1
        elif pow(v, half, p) == 1:
            count += 2
    return count


def _good_odd_primes(c, how_many: int) -> list[int]:
    disc = _discriminant_core(c)
    out = []
    p = 3
    while len(out) < how_many:
        if is_prime(p) and disc % p != 0:
            out.append(p)
        p += 2
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


def _element_order(c, P: CurvePoint) -> int:
    R, k = P, 1
    while not R.is_infinity:
        R = add(c, R, P)
        k += 1
        if k > MAZUR_CAP:
            raise AssertionError("torsion element order beyond the cap")
    return k


def _psi3_rational_points(c, budget: float = 2.0):
    """Points of order three via rational roots of the division polynomial.

    Returns (points, complete).  complete is False when the constant
    term would not factor inside the budget, in which case the search
    is abandoned rather than trusted.
    """
    a2, a4, a6 = _coeffs(c)
    const = 4 * a2 * a6 - a4 * a4
    if const == 0:
        candidates = [Fraction(0)]
    else:
        f = factor(abs(const), budget=budget)
        if f.status != "full":
            return [], False
        divisors = [1]
        for p, e in f.factors:
            divisors = [d * p**i for d in divisors for i in range(e + 1)]
            if len(divisors) > 4096:
                return [], False
        candidates = []
        for d in divisors:
            for q in (1, 3):
                candidates.append(Fraction(d, q))
                candidates.append(Fraction(-d, q))
    pts = []
    for X in candidates:
        if 3 * X**4 + 4 * a2 * X**3 + 6 * a4 * X**2 + 12 * a6 * X + (4 * a2 * a6 - a4 * a4) != 0:
            continue
        Y2 = cubic_rhs(c, X)
        Y = is_square_rational(Y2) if Y2 != 0 else Fraction(0)
        if Y is None:
            continue
        pts.extend([CurvePoint(X, Y), CurvePoint(X, -Y)])
    return pts, True


@dataclass
class TorsionGroup:
    structure: tuple[int, int]  # (d1, d2) meaning Z/d1 + Z/d2
    points: list[CurvePoint]
    lower_bound_only: bool = False


def torsion_subgroup(c) -> TorsionGroup:
    """Torsion as (d1, d2) plus the full point list.

    The order bound is the gcd of point counts at the five smallest
    good odd primes; the group is then grown from the split two-torsion
    by repeated halving, with a division-polynomial check for order
    three only when the bound asks for it.  Mazur's theorem caps the
    possible order at sixteen for these shapes.
    """
    counts = [count_points_mod_p(c, p) for p in _good_odd_primes(c, 5)]
    bound = 0
    for n in counts:
        bound = gcd(bound, n)
    cap = min(bound, MAZUR_CAP)
    group = _closure(c, two_torsion(c))
    lower_bound_only = False
    grew = True
    while grew:
        grew = False
        if 2 * len(group) > cap:
            break
        for P in sorted(group, key=_point_key):
            if P.is_infinity:
                continue
            fresh = [Q for Q in halve(c, P) if Q not in group]
            if fresh:
                group = _closure(c, fresh, group)
                grew = True
                break
    if bound % 3 == 0 and len(group) * 3 <= cap:
        pts3, complete = _psi3_rational_points(c)
        if not complete:
            lower_bound_only = True
        elif pts3:
            group = _closure(c, pts3, group)
    order = len(group)
    d2 = max(_element_order(c, P) for P in group)
    d1 = order // d2
    if d1 * d2 != order or d2 % max(d1, 1) != 0:
        raise AssertionError(f"torsion structure ({d1},{d2}) inconsistent with order {order}")
    return TorsionGroup((d1, d2), sorted(group, key=_point_key), lower_bound_only)


def _point_key(P: CurvePoint):
    if P.is_infinity:
        return (0, Fraction(0), Fraction(0))
    return (1, P.X, P.Y)
