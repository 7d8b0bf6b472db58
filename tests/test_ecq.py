import random
from fractions import Fraction
from itertools import product
from math import gcd, isqrt

import pytest

from conftest import random_pair
from brickforge.ecq import (
    INFINITY,
    CurvePoint,
    add,
    count_points_mod_p,
    cubic_rhs,
    halve,
    neg,
    on_curve,
    scalar_mul,
    torsion_subgroup,
    two_torsion,
)
from brickforge.fibration import build_fibre

F21 = build_fibre(2, 1)
F449 = build_fibre(44, 9)
F887 = build_fibre(88, 7)


def pt(x, y):
    return CurvePoint(Fraction(x), Fraction(y))


def test_two_torsion():
    xs = [p.X for p in two_torsion(F21)]
    assert xs == [-4, 32, -32]
    assert all(p.Y == 0 for p in two_torsion(F21))
    assert Fraction(2 * 1232**2) in [p.X for p in two_torsion(F887)]


def test_add_identity_and_inverse():
    P = pt(80, 672)
    assert on_curve(F21, P)
    assert add(F21, P, INFINITY) == P
    assert add(F21, INFINITY, P) == P
    assert add(F21, P, neg(F21, P)) == INFINITY


def test_two_torsion_doubles_to_infinity():
    for T in two_torsion(F21):
        assert add(F21, T, T) == INFINITY


def test_scalar_mul_four_torsion():
    # (80, 672) sits above the 2-torsion point (32, 0)
    assert 672**2 == 84 * (6400 - 1024)
    assert scalar_mul(F21, 2, pt(80, 672)) == pt(32, 0)
    assert scalar_mul(F21, 4, pt(80, 672)) == INFINITY
    assert scalar_mul(F21, 0, pt(80, 672)) == INFINITY
    assert scalar_mul(F21, -2, pt(80, 672)) == pt(32, 0)


def test_group_axioms_on_torsion_points():
    pts = torsion_subgroup(F21).points
    for P, Q, R in product(pts, repeat=3):
        left = add(F21, add(F21, P, Q), R)
        right = add(F21, P, add(F21, Q, R))
        assert left == right


def test_halve_two_torsion():
    halves = halve(F21, pt(32, 0))
    assert len(halves) == 4
    assert pt(80, 672) in halves and pt(80, -672) in halves
    assert pt(-16, 96) in halves and pt(-16, -96) in halves
    for Q in halves:
        assert scalar_mul(F21, 2, Q) == pt(32, 0)


def test_halve_obstructed():
    # -4 - 32 is negative, no rational square root
    assert halve(F21, pt(-4, 0)) == []


def test_halve_infinity():
    got = halve(F21, INFINITY)
    assert INFINITY in got and len(got) == 4


def test_halve_universal_on_random_fibres():
    rng = random.Random(30)
    for _ in range(20):
        m, n = random_pair(rng, hi=80)
        c = build_fibre(m, n)
        P = CurvePoint(Fraction(c.e2), Fraction(0))
        halves = halve(c, P)
        assert halves, f"(2 gamma^2, 0) must halve on fibre ({m},{n})"
        for Q in halves:
            assert scalar_mul(c, 2, Q) == P


def test_count_points_brute_force_agreement():
    for p in (5, 11, 13):
        expected = 1
        a2, a4, a6 = F21.B, -4 * F21.gamma**4, -4 * F21.gamma**4 * F21.B
        for x in range(p):
            rhs = (x**3 + a2 * x**2 + a4 * x + a6) % p
            expected += sum(1 for y in range(p) if y * y % p == rhs)
        assert count_points_mod_p(F21, p) == expected


def test_count_points_hasse_and_eight_divisibility():
    for p in (5, 11, 13, 17, 19):
        n = count_points_mod_p(F21, p)
        assert abs(n - (p + 1)) <= 2 * isqrt(p) + 1
        assert n % 8 == 0


def test_count_points_rejections():
    with pytest.raises(ValueError):
        count_points_mod_p(F21, 2)
    with pytest.raises(ValueError):
        count_points_mod_p(F21, 9)
    with pytest.raises(ValueError):
        count_points_mod_p(F21, 7)  # roots collide mod 7
    with pytest.raises(ValueError):
        count_points_mod_p(F21, 100003)


def test_torsion_benchmark_fibres():
    for c in (F21, F449, F887):
        tg = torsion_subgroup(c)
        assert tg.structure == (2, 4)
        assert len(tg.points) == 8
        assert not tg.lower_bound_only
        for P in tg.points:
            assert scalar_mul(c, 4, P) == INFINITY
        # closed under addition
        pts = set(tg.points)
        for P in pts:
            for Q in pts:
                assert add(c, P, Q) in pts


def test_torsion_order_divides_counts():
    disc = (F449.e1 - F449.e2) * (F449.e1 - F449.e3) * (F449.e2 - F449.e3)
    order = len(torsion_subgroup(F449).points)
    p = 3
    while p <= 100:
        if all(p % q for q in range(2, p)) and disc % p:
            assert count_points_mod_p(F449, p) % order == 0
        p += 2


def test_cubic_rhs_matches_roots():
    for c in (F21, F449):
        for e in (c.e1, c.e2, c.e3):
            assert cubic_rhs(c, Fraction(e)) == 0


def _all_pairs_closure(c, pts):
    # every pass re-adds all pairs until nothing new appears
    pts = set(pts) | {INFINITY}
    while True:
        fresh = {add(c, P, Q) for P in pts for Q in pts} - pts
        if not fresh:
            return pts
        pts |= fresh


def test_torsion_matches_all_pairs_closure(monkeypatch):
    from brickforge import ecq

    rng = random.Random(1717)
    fibres = {random_pair(rng, 2, 300) for _ in range(110)} | {(2, 1), (44, 9), (88, 7)}
    assert len(fibres) >= 100
    semi_naive = ecq._closure
    calls = []

    def checked(c, pts, base=frozenset()):
        # each semi-naive call must agree with the plain closure of its input
        got = semi_naive(c, pts, base)
        assert got == _all_pairs_closure(c, set(pts) | set(base))
        calls.append(len(got))
        return got

    for m, n in sorted(fibres):
        c = build_fibre(m, n)
        monkeypatch.setattr(ecq, "_closure", checked)
        fast = torsion_subgroup(c)
        monkeypatch.setattr(ecq, "_closure", lambda c, pts, base=(): _all_pairs_closure(
            c, set(pts) | set(base)))
        plain = torsion_subgroup(c)
        assert (fast.structure, fast.points, fast.lower_bound_only) == (
            plain.structure, plain.points, plain.lower_bound_only), (m, n)
    assert len(calls) >= 2 * len(fibres)  # the two-torsion and at least one halving
    monkeypatch.undo()
    # one generator, alone and on top of the two-torsion group
    for m, n in sorted(fibres)[:20]:
        c = build_fibre(m, n)
        two = ecq._closure(c, two_torsion(c))
        for P in torsion_subgroup(c).points:
            assert ecq._closure(c, [P]) == _all_pairs_closure(c, {P})
            assert ecq._closure(c, [P], two) == _all_pairs_closure(c, two | {P})


def _fraction_add(c, P, Q):
    """The chord-tangent law in Fractions, step by step, for comparison."""
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    if P.X == Q.X:
        if P.Y == -Q.Y:
            return INFINITY
        lam = (3 * P.X * P.X + 2 * c.B * P.X - 4 * c.gamma**4) / (2 * P.Y)
    else:
        lam = (Q.Y - P.Y) / (Q.X - P.X)
    X3 = lam * lam - c.B - P.X - Q.X
    return CurvePoint(X3, lam * (P.X - X3) - P.Y)


def test_integer_chord_law_matches_fraction_formula():
    from brickforge.mw import naive_quartic_search, seeds_from_hits

    pairs = 0
    integral = 0
    for m, n in ((13, 2), (44, 9), (6, 5), (2, 1)):
        c = build_fibre(m, n)
        tor = torsion_subgroup(c).points
        seeds = seeds_from_hits(c, naive_quartic_search(c, 60), torsion_subgroup(c)).points
        pts = list(tor) + [pt(80, 672)] * (m == 2)
        for P in seeds:
            for k in (1, 2, -1, -3):
                Q = scalar_mul(c, k, P)
                pts += [Q] + [_fraction_add(c, Q, T) for T in tor[1:4]]
        assert all(on_curve(c, P) for P in pts)
        integral += sum(1 for P in pts if not P.is_infinity and P.X.denominator == 1)
        for P, Q in product(pts, repeat=2):
            R = add(c, P, Q)
            assert R == _fraction_add(c, P, Q), (m, n, P, Q)
            assert on_curve(c, R)
            pairs += 1
    assert pairs >= 1000 and integral >= 40
