import functools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import (
    EIGHT_TORSION, admissible_fibres, halve, hand_fibre, lift_point, random_pair, scalar_mul,
)
from brickforge.ecq import CurvePoint, INFINITY, _triple, add, torsion_subgroup, two_torsion
from brickforge.fibration import (
    build_fibre, lift_pairs, phi, quartic_rhs, tau, tau_phi_identity,
)
from brickforge.master import EuclidPair, MasterTuple, is_master_hit
from brickforge.ntkernel import is_square_rational


def test_build_fibre_values():
    c = build_fibre(2, 1)
    assert (c.U2, c.V2, c.gamma, c.B) == (3, 4, 4, 4)
    assert (c.e1, c.e2, c.e3) == (-4, 32, -32)
    c = build_fibre(44, 9)
    assert (c.U2, c.V2) == (1855, 792)
    assert c.B == 4 * 1855**2 - 2 * 792**2 == 12509572
    c = build_fibre(88, 7)
    assert (c.U2, c.V2, c.B) == (7695, 1232, 233816452)
    assert c.A == c.C == c.gamma**2


def test_build_fibre_rejects():
    with pytest.raises(ValueError):
        build_fibre(3, 1)  # m - n even
    with pytest.raises(ValueError):
        build_fibre(4, 2)  # common factor
    with pytest.raises(ValueError):
        build_fibre(1, 2)  # unordered


def test_quartic_rhs():
    c = build_fibre(44, 9)
    t = Fraction(55, 48)
    assert quartic_rhs(c, t) == Fraction(9811032, 2304) ** 2
    assert quartic_rhs(c, Fraction(0)) == c.gamma**2
    rng = random.Random(40)
    for _ in range(50):
        t = Fraction(rng.randrange(-99, 100), rng.randrange(1, 40))
        assert quartic_rhs(c, t) == quartic_rhs(c, -t)


def test_phi_golden_seed():
    c = build_fibre(44, 9)
    t, s = Fraction(55, 48), Fraction(408793, 96)
    assert s * s == quartic_rhs(c, t)
    P = phi(c, t, s)
    assert tau(c, P) == t * t
    # same abscissa under t -> -t
    assert phi(c, -t, s).X == P.X


def test_phi_rejections():
    c = build_fibre(2, 1)
    with pytest.raises(ValueError):
        phi(c, Fraction(0), Fraction(4))
    with pytest.raises(ValueError):
        phi(c, Fraction(1), Fraction(5))  # 25 != f(1) = 36


def test_phi_unit_seed_every_fibre():
    # f(1) = (2 U2)^2 identically, so t = 1 always gives a point
    rng = random.Random(41)
    for _ in range(25):
        m, n = random_pair(rng, hi=60)
        c = build_fibre(m, n)
        P = phi(c, Fraction(1), Fraction(2 * c.U2))
        assert tau(c, P) == 1


def test_tau_special_values():
    c = build_fibre(2, 1)
    assert tau(c, CurvePoint(Fraction(-c.B), Fraction(0))) == 0
    assert tau(c, CurvePoint(Fraction(80), Fraction(672))) == 1
    assert tau(c, CurvePoint(Fraction(32), Fraction(0))) is None
    assert tau(c, CurvePoint(Fraction(-32), Fraction(0))) is None
    assert tau(c, INFINITY) is None


def test_lift_point():
    c = build_fibre(44, 9)
    P = phi(c, Fraction(55, 48), Fraction(408793, 96))
    pair = lift_point(c, P)
    assert pair == (55, 48)
    assert is_master_hit(MasterTuple(55, 48, 44, 9)) is not None

    c21 = build_fibre(2, 1)
    assert lift_point(c21, CurvePoint(Fraction(80), Fraction(672))) is None  # t = 1
    assert lift_point(c21, CurvePoint(Fraction(-4), Fraction(0))) is None  # t = 0
    assert lift_point(c21, INFINITY) is None


def test_lift_point_reads_the_quartic_root():
    # on the quartic point (t, s), t is the root 2 gamma (X + B) / Y
    c, t = build_fibre(44, 9), Fraction(55, 48)
    P = phi(c, t, is_square_rational(quartic_rhs(c, t)))
    root = 2 * c.gamma * (P.X + c.B) / P.Y
    assert root == t and root ** 2 == tau(c, P)
    assert lift_point(c, P) == EuclidPair(55, 48)


def test_lift_point_negative_branch():
    # tau recovers t^2, so the lift must normalize |a/b| and re-test parity
    c = build_fibre(44, 9)
    P = phi(c, Fraction(-55, 48), Fraction(408793, 96))
    assert lift_point(c, P) == (55, 48)


def test_tau_phi_identity_named_fibres():
    for mn in ((2, 1), (44, 9), (88, 7)):
        assert tau_phi_identity(build_fibre(*mn))


@pytest.mark.parametrize("mn", [(44, 9), (22, 17)])
def test_tau_phi_identity_fails_off_the_fibre(mn):
    # the identity holds for any B, and only when A = C = gamma^2
    c = build_fibre(*mn)
    assert not tau_phi_identity(replace(c, A=c.A + 1))
    assert not tau_phi_identity(replace(c, C=c.C - 1))
    assert tau_phi_identity(replace(c, B=c.B + 1))


def test_tau_phi_identity_random_fibres():
    rng = random.Random(42)
    for _ in range(20):
        m, n = random_pair(rng, hi=200)
        assert tau_phi_identity(build_fibre(m, n))


def test_tau_of_doubled_seed_is_square_consistent():
    # tau values of multiples of a seed stay consistent with the group law
    c = build_fibre(44, 9)
    P = phi(c, Fraction(55, 48), Fraction(408793, 96))
    Q = scalar_mul(c, 2, P)
    tv = tau(c, Q)
    assert tv is not None and tv > 0


def _poly(*coeffs):
    # coefficients from the constant term up, without trailing zeros
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def _padd(f, g):
    n = max(len(f), len(g))
    return _poly(*((f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)))


def _pmul(f, g):
    out = [0] * (len(f) + len(g))
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _poly(*out)


def _pscale(f, k):
    return _poly(*(k * a for a in f))


def test_tau_under_two_torsion_translation_in_ZX():
    # in Z[X]: translation by (e, 0) sends X to e + K/(X - e), K = (e - e')(e - e'');
    # then tau is kept by (e1, 0) and inverted by (e2, 0) and (e3, 0)
    rng = random.Random(5)
    fibres = [(2, 1), (44, 9), (88, 7), (22, 17)] + [random_pair(rng, hi=400) for _ in range(100)]
    for m, n in fibres:
        c = build_fibre(m, n)
        g2, g4 = 4 * c.gamma**2, 4 * c.gamma**4
        tau_num, tau_den = _pscale(_poly(c.B, 1), g2), _poly(-g4, 0, 1)
        cubic = _pmul(_poly(c.B, 1), tau_den)  # (X + B)(X^2 - 4 gamma^4)
        roots = (c.e1, c.e2, c.e3)
        assert roots[0] == -c.B and sorted(roots[1:]) == [-g2 // 2, g2 // 2]
        for i, e in enumerate(roots):
            K = (e - roots[i - 1]) * (e - roots[i - 2])
            N, V = _poly(K - e * e, e), _poly(-e, 1)  # X' = N / V
            # X' is the chord sum: X' (X - e)^2 = Y^2 - (X + e + B)(X - e)^2
            V2 = _pmul(V, V)
            assert _pmul(N, V) == _padd(cubic, _pscale(_pmul(_poly(e + c.B, 1), V2), -1))
            # tau(X') = 4 gamma^2 (N + B V) V / (N^2 - 4 gamma^4 V^2)
            num = _pmul(_pscale(_padd(N, _pscale(V, c.B)), g2), V)
            den = _padd(_pmul(N, N), _pscale(V2, -g4))
            assert num and den
            if i == 0:
                assert _pmul(num, tau_den) == _pmul(den, tau_num), (m, n)
            else:
                assert _pmul(num, tau_num) == _pmul(den, tau_den), (m, n, i)


def _lift_pairs_by_root(tv):
    """lift_pairs as it was written over is_square_rational's root."""
    root = None if tv is None else is_square_rational(tv)
    if root is None:
        return None, None
    a, b = root.numerator, root.denominator
    if (a - b) % 2 == 0:
        return None, None
    return (EuclidPair(a, b), None) if a > b else (None, EuclidPair(b, a))


def _eight_torsion_points(c):
    """The 16 torsion points of a Z/2 x Z/8 hand fibre, which torsion_subgroup
    refuses: the multiples of a half of the point of order 4 at
    X = e2 + 4 U2 gamma, each plus the 2-torsion."""
    r = 4 * c.U2 * c.gamma
    Q = halve(c, CurvePoint(Fraction(c.e2 + r), Fraction(r * (2 * c.U2 + 2 * c.gamma))))[0]
    points = {add(c, scalar_mul(c, k, Q), T) for k in range(8) for T in [INFINITY, *two_torsion(c)]}
    assert len(points) == 16
    return sorted(points, key=lambda P: (not P.is_infinity, P.X or 0, P.Y or 0))


@functools.cache
def _points_on_test_fibres():
    """(fibre, points) on the first 100 admissible fibres and the Z/2 x Z/8
    hand fibres: the torsion, the images of the quartic points a/b with
    a, b <= 30, and their sums with the torsion, with each other and with
    themselves."""
    out = []
    fibres = [(c, torsion_subgroup(c).points)
              for c in (build_fibre(m, n) for m, n in admissible_fibres(100))]
    for U2, gamma in EIGHT_TORSION:
        c = hand_fibre(U2, gamma)
        fibres.append((c, _eight_torsion_points(c)))
    for c, tor in fibres:
        seeds = []
        for a in range(1, 31):
            for b in range(1, 31):
                v = (c.A * a**2 + c.B * b**2) * a**2 + c.C * b**4
                s = math.isqrt(v)
                if s * s == v and math.gcd(a, b) == 1:
                    seeds.append(phi(c, Fraction(a, b), Fraction(s, b * b)))
        points = list(tor)
        for P in seeds:
            points += [add(c, P, Q) for Q in tor + seeds + [P]]
        out.append((c, points))
    return out


def test_tau_is_the_square_of_its_root():
    # tau Y^2 = 4 gamma^2 (X + B)^2 on the cubic, so tau = (2 gamma (X + B) / Y)^2
    checked = 0
    for c, points in _points_on_test_fibres():
        for P in points:
            if not P.is_infinity and P.Y:
                assert tau(c, P) == (2 * c.gamma * (P.X + c.B) / P.Y) ** 2, (c, P)
                checked += 1
    assert checked >= 2500


def test_points_with_y_zero_do_not_lift():
    found = 0
    for c, points in _points_on_test_fibres():
        for P in points:
            if not P.is_infinity and not P.Y:
                assert tau(c, P) in (None, 0)
                assert lift_point(c, P) is None
                assert lift_pairs(c, *_triple(P)) == (None, None)
                found += 1
    assert found >= 3 * 103


def test_lift_pairs_matches_the_square_root_rule():
    # lift_point and lift_pairs read the root 2 gamma (X + B) / Y; the old
    # rule took the square root of tau, for tau and for 1/tau at once
    rng = random.Random(61)
    kinds = {"infinity": 0, "Y = 0": 0, "lifts": 0, "inverse lifts": 0, "no lift": 0}
    for c, points in _points_on_test_fibres():
        for P in points:
            want = _lift_pairs_by_root(tau(c, P))
            assert lift_point(c, P) == want[0], (c, P)
            if P.is_infinity:
                kinds["infinity"] += 1
                continue
            # any X = u/D^2, Y = w/D^3 will do, D of either sign
            p, r, d = _triple(P)
            k = rng.choice((1, -1, 2, -3, 12))
            assert lift_pairs(c, p * k * k, r * k**3, d * k) == want, (c, P, k)
            kinds["Y = 0" if not P.Y else "lifts" if want[0] else
                  "inverse lifts" if want[1] else "no lift"] += 1
    assert min(kinds.values()) >= 100, kinds
    # the 2-adic refusal on any integers: the root num/w, num = 2 gamma (u + B D^2) D,
    # zero or negative in either part, and its parts scaled by powers of two apart
    c = build_fibre(22, 17)
    kinds = dict.fromkeys(("num = 0", "w = 0", "num < 0", "w < 0", "lifts", "refused"), 0)
    for _ in range(4000):
        D = rng.choice((1, -1, 2, -6, rng.randrange(-10**6, 10**6) or 1))
        u = -c.B * D * D if rng.random() < 0.1 else rng.randrange(-10**9, 10**9) << rng.randrange(12)
        num = 2 * c.gamma * (u + c.B * D * D) * D
        odd = rng.randrange(-10**9, 10**9) | 1
        # w with v2(w) = v2(num) + 0, 1 or 3, or any w, or none
        w = rng.choice((0, odd << rng.randrange(40), odd * (num & -num) << rng.choice((0, 0, 1, 3))))
        want = _lift_pairs_by_root(None if not w else Fraction(num, w) ** 2)
        assert lift_pairs(c, u, w, D) == want, (u, w, D)
        for kind, seen in (("num = 0", not num), ("w = 0", not w), ("num < 0", num < 0),
                           ("w < 0", w < 0), ("lifts", want != (None, None)),
                           ("refused", num and w and want == (None, None))):
            kinds[kind] += bool(seen)
    assert min(kinds.values()) >= 200, kinds
