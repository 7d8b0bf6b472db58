import random
from fractions import Fraction
from itertools import product
from math import gcd, isqrt

import pytest

from conftest import (
    EIGHT_TORSION, admissible_fibres, halve, hand_fibre, lift_point, neg, random_pair, scalar_mul,
)
from brickforge.ecq import (
    INFINITY,
    CurvePoint,
    TorsionGroup,
    add,
    cubic_rhs,
    on_curve,
    torsion_subgroup,
    two_torsion,
)
from brickforge.fibration import FibreCurve, build_fibre, quartic_rhs
from brickforge.ntkernel import factor, is_perfect_square, is_prime, is_square_rational

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


# -- the torsion search that torsion_subgroup replaced, kept as its reference --

MAZUR_CAP = 16  # largest torsion order for the full-2-torsion shapes
COUNT_P_LIMIT = 10**5


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
    a2, a4, a6 = c.B % p, -4 * c.gamma**4 % p, -4 * c.gamma**4 * c.B % p
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


def _element_order(c, P: CurvePoint) -> int:
    R, k = P, 1
    while not R.is_infinity:
        R = add(c, R, P)
        k += 1
        if k > MAZUR_CAP:
            raise AssertionError("torsion element order beyond the cap")
    return k


def _psi3_rational_points(c, budget: float = 2.0):
    """Points of order three via rational roots of the division polynomial;
    (points, complete), complete False when the constant term would not
    factor inside the budget."""
    a2, a4, a6 = c.B, -4 * c.gamma**4, -4 * c.gamma**4 * c.B
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
        if 3 * X**4 + 4 * a2 * X**3 + 6 * a4 * X**2 + 12 * a6 * X + const != 0:
            continue
        Y2 = cubic_rhs(c, X)
        Y = is_square_rational(Y2) if Y2 != 0 else Fraction(0)
        if Y is None:
            continue
        pts.extend([CurvePoint(X, Y), CurvePoint(X, -Y)])
    return pts, True


def _point_key(P: CurvePoint):
    if P.is_infinity:
        return (0, Fraction(0), Fraction(0))
    return (1, P.X, P.Y)


def _all_pairs_closure(c, pts):
    # every pass re-adds all pairs until nothing new appears
    pts = set(pts) | {INFINITY}
    while True:
        fresh = {add(c, P, Q) for P in pts for Q in pts} - pts
        if not fresh:
            return pts
        pts |= fresh


def reference_torsion(c) -> TorsionGroup:
    """The search: an order bound from point counts at the five smallest good
    odd primes, growth from the two-torsion by repeated halving, a
    division-polynomial check for order three when the bound asks for it,
    and the structure from the largest element order."""
    bound = 0
    for p in _good_odd_primes(c, 5):
        bound = gcd(bound, count_points_mod_p(c, p))
    cap = min(bound, MAZUR_CAP)
    group = _all_pairs_closure(c, two_torsion(c))
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
                group = _all_pairs_closure(c, group | set(fresh))
                grew = True
                break
    if bound % 3 == 0 and len(group) * 3 <= cap:
        pts3, complete = _psi3_rational_points(c)
        if not complete:
            lower_bound_only = True
        elif pts3:
            group = _all_pairs_closure(c, group | set(pts3))
    order = len(group)
    d2 = max(_element_order(c, P) for P in group)
    d1 = order // d2
    assert d1 * d2 == order and d2 % max(d1, 1) == 0
    return TorsionGroup((d1, d2), sorted(group, key=_point_key), lower_bound_only)


def test_closed_form_torsion_matches_search_on_fibres():
    fibres = admissible_fibres(1500)
    for m, n in fibres:
        c = build_fibre(m, n)
        got, want = torsion_subgroup(c), reference_torsion(c)
        assert (got.structure, got.points, got.lower_bound_only) == (
            want.structure, want.points, want.lower_bound_only), (m, n)
    assert fibres[-1][0] >= 70


@pytest.mark.parametrize("U2,gamma", EIGHT_TORSION)
def test_torsion_refuses_eight_torsion(U2, gamma):
    # these cubics are no fibres: U2 gamma is a square
    c = hand_fibre(U2, gamma)
    want = reference_torsion(c)
    assert want.structure == (2, 8) and len(want.points) == 16
    for P in want.points:
        assert on_curve(c, P) and scalar_mul(c, 8, P) == INFINITY
    with pytest.raises(ValueError, match="halves: torsion Z/2 x Z/8"):
        torsion_subgroup(c)


def test_roots_differ_by_squares_on_every_fibre():
    for m, n in admissible_fibres(1500):
        c = build_fibre(m, n)
        assert c.e2 - c.e1 == (2 * c.U2) ** 2, (m, n)
        assert c.e2 - c.e3 == (2 * c.gamma) ** 2, (m, n)


def test_torsion_rejects_a_cubic_off_the_family():
    c = hand_fibre(3, 4)
    with pytest.raises(ValueError, match="not distinct non-zero squares"):
        torsion_subgroup(FibreCurve(**{**c.__dict__, "e1": c.e1 + 1}))


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


def test_torsion_matches_all_pairs_closure():
    # the closed form lists a group: closed under addition, nothing left out
    rng = random.Random(1717)
    fibres = [build_fibre(m, n) for m, n in
              sorted({random_pair(rng, 2, 300) for _ in range(110)} | {(2, 1), (44, 9), (88, 7)})]
    assert len(fibres) >= 100
    for c in fibres:
        points = torsion_subgroup(c).points
        assert set(points) == _all_pairs_closure(c, points)


def test_no_torsion_point_lifts_on_fibres():
    # the proof in torsion_subgroup, checked fibre by fibre: the points of
    # order 4 are phi(+-1, +-2 U2), none of the eight lifts, 4 U2 gamma is
    # no square, and no hit the seed search finds is torsion
    from brickforge.fibration import phi
    from brickforge.mw import naive_quartic_search

    fibres = admissible_fibres(1000)
    hits = 0
    for m, n in fibres:
        c = build_fibre(m, n)
        points = torsion_subgroup(c).points
        quartic = {phi(c, t, s) for t in (1, -1) for s in (2 * c.U2, -2 * c.U2)}
        assert {P for P in points if not P.is_infinity and P.Y} == quartic, (m, n)
        assert all(lift_point(c, P) is None for P in points), (m, n)
        assert is_perfect_square(4 * c.U2 * c.gamma) is None, (m, n)
        for a, b in naive_quartic_search(c, 60):
            t = Fraction(a, b)
            assert phi(c, t, is_square_rational(quartic_rhs(c, t))) not in points, (m, n)
            hits += 1
    assert fibres[-1][0] >= 70 and hits >= 120


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
        seeds = seeds_from_hits(c, naive_quartic_search(c, 60))
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


def _chord_test_points(c, rng):
    """Torsion points, multiples of the seeds and their torsion translates."""
    from brickforge.mw import naive_quartic_search, seeds_from_hits

    group = torsion_subgroup(c)
    tor = group.points
    pts = list(tor)
    for P in seeds_from_hits(c, naive_quartic_search(c, 60)):
        for k in (1, 2, -1, 3, -4):
            Q = scalar_mul(c, k, P)
            pts += [Q] + [add(c, Q, rng.choice(tor)) for _ in range(2)]
    return pts


def test_chord_helper_matches_add():
    from brickforge.ecq import _point, _sum, _triple
    from brickforge.mw import naive_quartic_search, seeds_from_hits

    rng = random.Random(2027)
    chords = negative = doublings = to_infinity = at_infinity = 0
    for m, n in ((13, 2), (44, 9), (6, 5), (22, 17), (8, 3)):
        c = build_fibre(m, n)
        pts = _chord_test_points(c, rng)
        pairs = [(rng.choice(pts), rng.choice(pts)) for _ in range(400)]
        pairs += [(P, Q) for P in pts for Q in (P, neg(c, P))]
        # doublings of seed multiples, up to 2^6 times a seed
        for P in seeds_from_hits(c, naive_quartic_search(c, 60)):
            for _ in range(6):
                pairs.append((P, P))
                P = _fraction_add(c, P, P)
        for P, Q in pairs:
            want = _fraction_add(c, P, Q)
            tP, tQ = _triple(P), _triple(Q)
            got = _sum(c, tP, tQ)
            assert got == _triple(want) and add(c, P, Q) == want, (m, n, P, Q)
            if tP is None or tQ is None:
                at_infinity += 1
                continue
            if got is None:
                to_infinity += 1  # P + (-P), or P of order two doubled
                assert P.X == Q.X
                continue
            p, r, d = got
            assert d > 0 and gcd(p, d) == 1 and gcd(r, d) == 1
            assert _point(got) == want
            if P == Q:
                doublings += 1
            else:
                chords += 1
                negative += Q.X < P.X  # E and D negative
    assert chords >= 1000 and negative >= 400 and at_infinity >= 100
    assert doublings >= 100 and to_infinity >= 100


def test_chord_helper_rejects_a_non_integral_sum():
    from brickforge.ecq import _point, _sum, _triple

    with pytest.raises(AssertionError, match="not in integral form"):
        _sum(F21, (-3, -3, 2), (1, 1, 1))
    with pytest.raises(AssertionError, match="not in integral form"):
        _triple(CurvePoint(Fraction(1, 2), Fraction(1)))
    # off the curve the sum is either exact or refused, never wrong
    raised = same_x = 0
    for P in product(range(-3, 4), range(-3, 4), (1, 2)):
        for Q in ((1, 1, 1), (2, 3, 1), (5, -7, 2)):
            if P[0] * Q[2] ** 2 == Q[0] * P[2] ** 2:
                if P[1] * Q[2] ** 3 not in (Q[1] * P[2] ** 3, -Q[1] * P[2] ** 3):
                    continue  # on a curve one X carries only +-Y
                same_x += 1
            want = _fraction_add(F21, _point(P), _point(Q))
            try:
                got = _sum(F21, P, Q)
            except AssertionError:
                raised += 1
                continue
            assert _point(got) == want
    assert raised >= 20 and same_x == 4
