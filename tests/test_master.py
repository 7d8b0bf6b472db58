import random
import re
from math import gcd

import pytest

from conftest import (
    admissible_fibres,
    bench_walk,
    random_admissible,
    reference_edges,
    reference_f1,
    reference_master_norm,
)
from brickforge.master import (
    Brick,
    EuclidPair,
    MasterTuple,
    canonical_expressions,
    edges,
    f1,
    f1_divisors,
    factor_f1,
    is_admissible,
    is_master_hit,
    is_perfect_cuboid,
    master_norm,
    parameter_set,
    recover_master_tuple_scaled,
    row_fields,
    sigma_canonical,
    triple_from_pair,
    triples,
)
from brickforge.ntkernel import factor
from brickforge.store import Store

GOLDEN = MasterTuple(55, 48, 44, 9)


def test_triple_from_pair():
    assert triple_from_pair(EuclidPair(2, 1)) == (3, 4, 5)
    assert triple_from_pair(EuclidPair(55, 48)) == (721, 5280, 5329)
    assert triple_from_pair(EuclidPair(44, 9)) == (1855, 792, 2017)
    with pytest.raises(ValueError):
        triple_from_pair(EuclidPair(3, 1))  # a - b even


def test_is_admissible_reasons():
    assert is_admissible(55, 48, 44, 9) == (True, None)
    ok, reason = is_admissible(3, 1, 2, 1)
    assert not ok and "even" in reason
    ok, reason = is_admissible(4, 2, 3, 2)
    assert not ok and "gcd(a,b)" in reason
    ok, reason = is_admissible(2, 3, 2, 1)
    assert not ok and reason == "a <= b"
    ok, reason = is_admissible(2, 1, 3, 0)
    assert not ok and reason == "n <= 0"
    assert is_admissible(2, 1, 4, 4) == (False, "m <= n")
    assert is_admissible(2, 1, 9, 3) == (False, "gcd(m,n) = 3")
    assert is_admissible(2, 1, 5, 3) == (False, "m - n even")
    # a fault in each pair: the first pair's is named
    assert is_admissible(4, 2, 3, 3) == (False, "gcd(a,b) = 2")


def test_master_norm():
    assert master_norm(GOLDEN) == 96256348905024
    assert master_norm(MasterTuple(2, 1, 4, 3)) == 5968
    assert master_norm(MasterTuple(2, 1, 2, 1)) == 288


def test_is_master_hit():
    assert is_master_hit(GOLDEN) == 9811032
    assert is_master_hit(MasterTuple(2, 1, 2, 1)) is None
    assert is_master_hit(MasterTuple(835, 88, 160, 89)) is not None


def test_f1_values():
    assert f1(GOLDEN) == 9885295**2 + 571032**2
    assert f1(MasterTuple(2, 1, 2, 1)) == 369


def test_f1_always_odd():
    rng = random.Random(10)
    for _ in range(200):
        assert f1(random_admissible(rng)) % 2 == 1


def test_f1_factors_as_two_polynomials():
    # the first 2,000 admissible tuples: pairs in the order of admissible_fibres
    pairs = admissible_fibres(45)
    tuples = [MasterTuple(a, b, m, n) for a, b in pairs for m, n in pairs][:2000]
    assert len(tuples) == 2000
    for t in tuples:
        (U1, V1, W1), (U2, V2, W2) = triples(t)
        P = W1 * W2 - V1 * V2
        assert f1(t) == P * (W1 * W2 + V1 * V2)
        e = edges(t)
        assert f1_divisors(t) == ((P,) if e.dyz is None else (P, e.dxy * e.x - e.z * e.dyz))


def test_a_hit_writes_f1_as_a_sum_of_two_squares_three_ways():
    hits = (GOLDEN, MasterTuple(835, 88, 160, 89), *bench_walk(2))
    for t in hits:
        e = edges(t)
        n = f1(t)
        assert n == e.dxy**2 + e.z**2 == e.x**2 + e.dyz**2 == e.dxz**2 + e.y**2
        P, E = f1_divisors(t)
        assert 1 < gcd(n, P) < n and 1 < gcd(n, E) < n


def test_tuple_functions_match_the_reference_rule():
    # the fibre-deep walk's hits, as the walk certifies them, and random tuples
    rng = random.Random(30)
    tuples = (*bench_walk(3), *(random_admissible(rng) for _ in range(3000)))
    assert len(tuples) == 1059 + 3000
    for t in tuples:
        e = edges(t)
        assert (e, master_norm(t), f1(t)) == (reference_edges(t), reference_master_norm(t),
                                              reference_f1(t)), t
        assert is_master_hit(t) == e.dyz
        assert row_fields(t) == (e.x, e.y, e.z, gcd(gcd(e.x, e.y), e.z), e.dyz), t
    assert all(edges(t).dyz is not None for t in bench_walk(3))


def test_g_scale_is_the_gcd_of_the_two_legs_u():
    # primitive triples: gcd(x, y) = U2 and gcd(x, z) = U1, so gcd(x, y, z) = gcd(U1, U2)
    rng = random.Random(31)
    tuples = (*bench_walk(3), *(random_admissible(rng) for _ in range(3000)))
    scaled = 0
    for t in tuples:
        (U1, _, _), (U2, _, _) = triples(t)
        e = reference_edges(t)
        assert (gcd(e.x, e.y), gcd(e.x, e.z)) == (U2, U1), t
        assert gcd(U1, U2) == gcd(gcd(e.x, e.y), e.z) == row_fields(t)[3], t
        scaled += gcd(U1, U2) > 1
    assert scaled >= 1000  # the rule is tested where g_scale is not 1


def test_factor_f1_factors_f1_along_its_divisors():
    # at budget 0 the result depends on no clock: trial division and the divisor split
    rng = random.Random(32)
    tuples = (*bench_walk(3), *(random_admissible(rng, hi=10**6) for _ in range(300)))
    partial = 0
    for t in tuples:
        got = factor_f1(t, 0)
        assert got == factor(f1(t), 0, divisors=f1_divisors(t)), t
        assert got.product() == reference_f1(t)
        partial += got.status == "partial"
    assert 0 < partial < len(tuples)


@pytest.mark.parametrize("t", [(3, 1, 44, 9), (44, 9, 3, 1), (9, 44, 55, 48), (55, 48, 4, 2),
                               (55, 48, 3, 0), (4, 2, 3, 3), (5, 5, 2, 1)])
def test_an_inadmissible_pair_is_refused_as_the_reference_refuses_it(t):
    t = MasterTuple(*t)
    for fn, reference in ((edges, reference_edges), (master_norm, reference_master_norm),
                          (f1, reference_f1), (is_master_hit, reference_master_norm),
                          (triples, reference_edges), (row_fields, reference_edges),
                          (factor_f1, reference_f1), (f1_divisors, reference_f1),
                          (lambda t: Store().insert_hit(t, "Rathbun-Search"),
                           lambda t: reference_edges(sigma_canonical(t)))):
        with pytest.raises(ValueError) as want:
            reference(t)
        assert str(want.value).startswith("inadmissible pair (")
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            fn(t)


def test_edges_golden():
    e = edges(GOLDEN)
    assert (e.x, e.y, e.z) == (1337455, 9794400, 571032)
    assert e.dxy == 9885295 and e.dxz == 721 * 2017
    assert e.dyz == 9811032


def test_edges_non_hits():
    e = edges(MasterTuple(2, 1, 2, 1))
    assert (e.x, e.y, e.z) == (9, 12, 12) and e.dyz is None
    e = edges(MasterTuple(2, 1, 4, 3))
    assert (e.x, e.y, e.z) == (21, 28, 72) and e.dyz is None


def test_edge_diagonal_identities_random():
    rng = random.Random(11)
    for _ in range(100):
        t = random_admissible(rng)
        e = edges(t)
        assert e.x**2 + e.y**2 == e.dxy**2
        assert e.x**2 + e.z**2 == e.dxz**2
        if e.dyz is not None:
            assert e.y**2 + e.z**2 == e.dyz**2


def test_is_perfect_cuboid():
    assert is_perfect_cuboid(GOLDEN) is False
    assert is_perfect_cuboid(MasterTuple(835, 88, 160, 89)) is False
    assert is_perfect_cuboid(MasterTuple(1770, 1219, 1408, 477)) is False
    with pytest.raises(ValueError):
        is_perfect_cuboid(MasterTuple(2, 1, 2, 1))


def test_canonical_expressions():
    l = canonical_expressions(MasterTuple(2, 1, 2, 1))
    assert len(l) == 29
    assert l[:8] == [2, 1, 2, 1, 3, 1, 3, 1]
    assert l[16] == 15  # W1 * U2


def test_canonical_expression_repeats():
    rng = random.Random(12)
    for _ in range(50):
        l = canonical_expressions(random_admissible(rng))
        # a^2-b^2 = U1, a^2+b^2 = W1, 2ab = V1 and the (m,n) mirror
        assert l[9] == l[23] and l[8] == l[25] and l[14] == l[24]
        assert l[11] == l[26] and l[10] == l[28] and l[15] == l[27]


def test_parameter_set():
    p = parameter_set(GOLDEN)
    assert 7 in p and 5329 in p
    assert len(p) == 23
    assert len(parameter_set(MasterTuple(2, 1, 2, 1))) < 23
    assert len(parameter_set(MasterTuple(835, 88, 160, 89))) == 23


def test_sigma_canonical():
    assert sigma_canonical(GOLDEN) == MasterTuple(44, 9, 55, 48)
    assert sigma_canonical(MasterTuple(44, 9, 55, 48)) == MasterTuple(44, 9, 55, 48)
    assert sigma_canonical(MasterTuple(2, 1, 2, 1)) == MasterTuple(2, 1, 2, 1)


def test_sigma_preserves_brick():
    rng = random.Random(13)
    for _ in range(50):
        t = random_admissible(rng)
        s = sigma_canonical(t)
        e, f = edges(t), edges(s)
        assert sorted((e.x, e.y, e.z)) == sorted((f.x, f.y, f.z))


def exact_recovery(x, y, z):
    return [t for t, scale in recover_master_tuple_scaled(x, y, z) if scale == 1]


def test_recover_master_tuple():
    assert GOLDEN in exact_recovery(1337455, 9794400, 571032)
    assert MasterTuple(2, 1, 2, 1) in exact_recovery(9, 12, 12)
    assert recover_master_tuple_scaled(1, 2, 3) == []


def test_recover_roundtrip_random():
    rng = random.Random(14)
    for _ in range(60):
        t = random_admissible(rng, hi=200)
        e = edges(t)
        got = exact_recovery(e.x, e.y, e.z)
        assert any(sigma_canonical(r) == sigma_canonical(t) for r in got)


def test_recover_scaled():
    got = recover_master_tuple_scaled(117, 44, 240)
    assert (MasterTuple(11, 2, 8, 5), 39) in got
    assert edges(MasterTuple(11, 2, 8, 5))[:3] == (39 * 117, 39 * 44, 39 * 240)


def test_brick_defaults():
    b = Brick(3, 4, 12, 5, 13)
    assert b.dyz is None
