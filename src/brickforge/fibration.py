"""Per-(m,n) quartic, its Weierstrass cubic, and the lifting maps.

Fixing the second pair (m, n) turns the hit condition into rational
points on s^2 = gamma^2 t^4 + B t^2 + gamma^2 with gamma = 2mn and
B = 4*U2^2 - 2*V2^2.  The cubic model used everywhere downstream is
Y^2 = (X + B)(X^2 - 4 gamma^4), glued to the quartic by phi and tau
below; tau recovers t^2 and is the square of 2 gamma (X + B) / Y, so a
point lifts exactly when that root is an admissible ratio.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .ecq import CurvePoint, on_curve
from .master import EuclidPair, triple_from_pair


@dataclass(frozen=True)
class FibreCurve:
    m: int
    n: int
    U2: int
    V2: int
    gamma: int
    A: int
    B: int
    C: int
    e1: int
    e2: int
    e3: int


def build_fibre(m: int, n: int) -> FibreCurve:
    """Quartic and cubic data for the pair (m, n); rejects bad pairs.

    >>> f = build_fibre(2, 1)
    >>> (f.U2, f.V2, f.B, f.e1, f.e2, f.e3)
    (3, 4, 4, -4, 32, -32)
    """
    U2, V2, _ = triple_from_pair(EuclidPair(m, n))
    gamma = V2
    B = 4 * U2 * U2 - 2 * V2 * V2
    return FibreCurve(
        m=m, n=n, U2=U2, V2=V2, gamma=gamma,
        A=gamma * gamma, B=B, C=gamma * gamma,
        e1=-B, e2=2 * gamma * gamma, e3=-2 * gamma * gamma,
    )


def quartic_rhs(c: FibreCurve, t: Fraction) -> Fraction:
    t2 = t * t
    return (c.A * t2 + c.B) * t2 + c.C


def phi(c: FibreCurve, t: Fraction, s: Fraction) -> CurvePoint:
    """Map the quartic point (t, s) to the cubic; t = 0 has no image."""
    t = Fraction(t)
    s = Fraction(s)
    if t == 0:
        raise ValueError("t = 0 maps to the point at infinity")
    if s * s != quartic_rhs(c, t):
        raise ValueError("(t, s) does not satisfy the quartic")
    X = 2 * c.gamma * (s + c.gamma) / (t * t)
    Y = t * (X * X - 4 * c.gamma**4) / (2 * c.gamma)
    P = CurvePoint(X, Y)
    if not on_curve(c, P):
        raise AssertionError(f"phi image off curve on fibre ({c.m},{c.n})")
    return P


def tau(c: FibreCurve, P: CurvePoint) -> Fraction | None:
    """The t^2 a point came from; None at infinity and at X = +-2 gamma^2."""
    if P.is_infinity:
        return None
    g2 = 2 * c.gamma * c.gamma
    if P.X == g2 or P.X == -g2:
        return None
    return 4 * c.gamma**2 * (P.X + c.B) / (P.X * P.X - 4 * c.gamma**4)


def lift_pairs(c: FibreCurve, u: int, w: int, D: int) -> tuple[EuclidPair | None, EuclidPair | None]:
    """The lifts of tau and of 1/tau at the point X = u/D^2, Y = w/D^3 (any
    such integers, D != 0).

    On the cubic Y^2 = (X + B)(X^2 - 4 gamma^4), so tau Y^2 = 4 gamma^2 (X + B)^2
    and tau = t^2 exactly, t = 2 gamma (X + B) / Y = 2 gamma (u + B D^2) D / w,
    wherever Y != 0.  The point lifts when |t| = a/b in lowest terms has
    a > b with a - b odd.  The root of 1/tau is b/a, so one root decides
    both, and at most one of the two lifts.  The three points with Y = 0
    are those where tau is None or 0, and lift to nothing.
    """
    num = 2 * c.gamma * (u + c.B * D * D) * D
    if not num or not w:
        return None, None
    g = gcd(num, w)
    a, b = abs(num // g), abs(w // g)
    if (a - b) % 2 == 0:
        return None, None
    return (EuclidPair(a, b), None) if a > b else (None, EuclidPair(b, a))


def tau_phi_identity(c: FibreCurve) -> bool:
    """Exact check that tau after phi returns t^2 on the whole fibre.

    With X = (x0 + x1 s) / t^2, x0 = 2 gamma^2 and x1 = 2 gamma, tau(X) - t^2
    = N / D where D = (x0 + x1 s)^2 - 4 gamma^4 t^4 and N = t^2 (4 gamma^2
    (x0 + x1 s + B t^2) - D).  Modulo s^2 - f(t), each is P(t) + Q(t) s with
    P and Q of degree at most 6, so N is zero once it vanishes at the seven
    points t = 0, ..., 6, each element a + b s held as the pair (a, b).  D's
    s-part is the constant 2 x0 x1 = 8 gamma^3, so D is not zero.
    """
    g = c.gamma
    x0, x1 = 2 * g * g, 2 * g
    d1 = 2 * x0 * x1
    for t in range(7):
        t2 = t * t
        d0 = x0 * x0 + x1 * x1 * quartic_rhs(c, t) - 4 * g**4 * t2 * t2
        if t2 * (4 * g * g * (x0 + c.B * t2) - d0) or t2 * (4 * g * g * x1 - d1):
            return False
    return d1 != 0
