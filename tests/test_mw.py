import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt

import pytest

from conftest import admissible_fibres, lift_point, neg, scalar_mul
from brickforge import cli, ecq, master, mw
from brickforge.ecq import INFINITY, CurvePoint, add, torsion_subgroup, two_torsion
from brickforge.fibration import build_fibre, tau
from brickforge.master import EuclidPair, MasterTuple, edges, is_master_hit, sigma_canonical
from brickforge.mw import (
    MwStats,
    _coefficient_vectors,
    enumerate_and_certify,
    load_seed_file,
    naive_quartic_search,
    seeds_from_hits,
)
from brickforge.ntkernel import is_perfect_square

F449 = build_fibre(44, 9)
F21 = build_fibre(2, 1)


def test_naive_quartic_search():
    hits = naive_quartic_search(F449, 60)
    assert (55, 48) in hits
    assert naive_quartic_search(F21, 20) == []
    assert naive_quartic_search(F21, 2) == []
    with pytest.raises(ValueError):
        naive_quartic_search(F449, 1)


def _reference_quartic_search(c, height_bound):
    """Every admissible (a, b), each tested through MasterTuple and master_norm."""
    out = []
    for a in range(2, height_bound + 1):
        for b in range(1, a):
            if not master.is_admissible(a, b, c.m, c.n)[0]:
                continue
            if is_perfect_square(master.master_norm(MasterTuple(a, b, c.m, c.n))) is not None:
                out.append((a, b))
    return out


def test_naive_quartic_search_matches_master_norm():
    fibres = SEEDED_FIBRES + ((2, 1), (22, 17), (44, 9), (99, 70))
    for m, n in fibres:
        c = build_fibre(m, n)
        for H in (2, 3, 60, 80):
            assert naive_quartic_search(c, H) == _reference_quartic_search(c, H), (m, n, H)


def _loop_quartic_search(c, height_bound):
    """The scan without the sieve: M tested for every admissible (a, b)."""
    U2, V2, _ = master.triple_from_pair(EuclidPair(c.m, c.n))
    out = []
    for a in range(2, height_bound + 1):
        for b in range(1 + (a % 2), a, 2):  # opposite parity to a
            if gcd(a, b) != 1:
                continue
            p, q = 2 * a * b * U2, (a * a - b * b) * V2
            M = p * p + q * q
            r = isqrt(M)
            if r * r == M:
                out.append((a, b))
    return out


def test_sieve_matches_the_loop_on_fibres_with_m_below_100():
    fibres = [(m, n) for m, n in admissible_fibres(2040) if m < 100][::6]
    assert len(fibres) >= 300
    for m, n in fibres:
        c = build_fibre(m, n)
        for H in (2, 3, 60, 150):
            assert naive_quartic_search(c, H) == _loop_quartic_search(c, H), (m, n, H)


def test_sieve_matches_the_loop_at_height_2000():
    for m, n in ((88, 7), (59, 40), (96, 91)):
        c = build_fibre(m, n)
        hits = naive_quartic_search(c, 2000)
        assert hits and hits == _loop_quartic_search(c, 2000), (m, n)


def test_sieve_matches_the_loop_where_a_prime_divides_U2_or_V2():
    # U2 V2 is 3 * 4, 5 * 12, 7 * 24, 11 * 60 and 13 * 84: the mask of l
    # would pass every ratio, from 3, which never sieves, up to 13
    for (m, n), l in (((2, 1), 3), ((3, 2), 5), ((4, 3), 7), ((6, 5), 11), ((7, 6), 13)):
        c = build_fibre(m, n)
        assert c.U2 * c.V2 % l == 0
        for H in (2, 3, 60, 150, 600):
            assert naive_quartic_search(c, H) == _loop_quartic_search(c, H), (m, n, H)


def test_naive_quartic_search_gates_its_inputs():
    for m, n in ((4, 2), (3, 1), (5, 5), (2, 3)):
        with pytest.raises(ValueError, match="inadmissible"):
            naive_quartic_search(replace(F449, m=m, n=n), 60)
    for H in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2"):
            naive_quartic_search(F449, H)


def test_seeds_from_hits():
    tor = torsion_subgroup(F449)
    seeds = seeds_from_hits(F449, [(55, 48)])
    assert len(seeds) == 1
    P = seeds[0]
    assert tau(F449, P) == Fraction(3025, 2304)
    assert P not in tor.points
    # duplicates collapse
    assert seeds_from_hits(F449, [(55, 48), (55, 48)]) == seeds
    with pytest.raises(ValueError):
        seeds_from_hits(F449, [(3, 2)])
    assert seeds_from_hits(F449, []) == []


def test_coefficient_vectors():
    vecs = _coefficient_vectors(1, 3)
    assert vecs == [(1,), (2,), (3,)]
    vecs = _coefficient_vectors(2, 1)
    # leading nonzero positive kills the mirror images
    assert (1, 0) in vecs and (-1, 0) not in vecs
    assert (0, 1) in vecs and (0, -1) not in vecs
    assert (1, -1) in vecs and (-1, 1) not in vecs
    assert vecs[0] in ((0, 1), (1, 0))


def _sorted_coefficient_vectors(r, K):
    """Every vector of product(range(-K, K + 1), repeat=r) with its leading
    nonzero entry positive, sorted by (sum of |entries|, vector)."""
    vecs = [v for v in product(range(-K, K + 1), repeat=r)
            if any(v) and next(x for x in v if x) > 0]
    vecs.sort(key=lambda v: (sum(abs(x) for x in v), v))
    return vecs


def test_coefficient_vectors_match_the_sorted_construction():
    for r in range(7):
        for K in range(5):
            assert _coefficient_vectors(r, K) == _sorted_coefficient_vectors(r, K), (r, K)


def test_enumerate_recovers_seed():
    run = enumerate_and_certify(F449, seeds_from_hits(F449, [(55, 48)]), 1)
    assert sigma_canonical(MasterTuple(55, 48, 44, 9)) in run.outputs
    assert run.provenance == "MW-44-9"
    assert run.stats.candidates == 8  # one vector, eight torsion shifts
    assert run.stats.certified >= 1
    assert run.stats.lifted == run.stats.certified


def test_enumerate_outputs_all_certified():
    run = enumerate_and_certify(F449, seeds_from_hits(F449, [(55, 48)]), 2)
    for t in run.outputs:
        assert is_master_hit(t) is not None
        assert t == sigma_canonical(t)
        e = edges(t)
        assert is_perfect_square(e.x**2 + e.y**2 + e.z**2) is None  # no perfect cuboid


def test_enumerate_monotone_in_K():
    seeds = seeds_from_hits(F449, [(55, 48)])
    small = set(enumerate_and_certify(F449, seeds, 1).outputs)
    large = set(enumerate_and_certify(F449, seeds, 2).outputs)
    assert small <= large


def test_enumerate_empty_generator_set():
    run = enumerate_and_certify(F21, [], 2)
    assert run.outputs == []
    assert run.stats.candidates == 0


def test_enumerate_rejects_bad_K():
    with pytest.raises(ValueError):
        enumerate_and_certify(F21, [], 0)


def test_mw_run_refuses_a_box_above_the_cap(tmp_path, monkeypatch, capsys):
    # 13 seeds at H=3000 on (88,7): 610,351,562 vectors at K=2, refused before any is built
    def fail(r, K):
        raise AssertionError(f"the box of {r} seeds at K={K} was built")

    monkeypatch.setattr(mw, "_coefficient_vectors", fail)
    assert cli.main(["mw", "run", "--m", "88", "--n", "7", "--seed-height", "3000",
                     "--K", "2", "--db", str(tmp_path)]) == 2
    assert ("the walk over 13 seeds at K=2 has 610,351,562 coefficient vectors, "
            "above the 1,000,000 allowed") in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_mirror_point_same_tau():
    P = seeds_from_hits(F449, [(55, 48)])[0]
    assert tau(F449, P) == tau(F449, neg(F449, P))


def test_load_seed_file(tmp_path):
    P = seeds_from_hits(F449, [(55, 48)])[0]
    path = tmp_path / "seeds.txt"
    path.write_text(
        "# cubic-side and quartic-side forms\n"
        f"{P.X} {P.Y}\n"
        "t 55/48\n"
        "\n"
    )
    assert load_seed_file(path, F449) == [P]  # the two lines name the same point

    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n")
    with pytest.raises(ValueError, match="bad.txt:1"):
        load_seed_file(bad, F449)

    bad2 = tmp_path / "bad2.txt"
    bad2.write_text("t 3/2\n")
    with pytest.raises(ValueError, match="not on a hit"):
        load_seed_file(bad2, F449)

    # a zero denominator, a missing field or t = 0 names the line, never crashes
    for line in ("1/0 3", "t 5/0", "t", "t 0"):
        bad3 = tmp_path / "bad3.txt"
        bad3.write_text(f"t 55/48\n{line}\n")
        with pytest.raises(ValueError, match="bad3.txt:2"):
            load_seed_file(bad3, F449)


# fibres with m < 100 that have seeds at height 60: every one with two or
# more seeds, then the first single-seed ones in order
SEEDED_FIBRES = (
    (6, 5), (8, 3), (8, 5), (9, 8), (13, 2), (16, 5), (16, 11), (17, 8), (17, 16),
    (18, 7), (19, 16), (24, 1), (24, 13), (32, 13), (32, 15), (33, 32), (40, 33),
    (41, 32), (49, 16), (55, 48), (59, 40), (64, 11), (64, 17), (67, 48), (88, 7),
    (88, 27), (88, 45), (91, 80), (96, 91),
    (4, 3), (5, 2), (10, 1), (10, 3), (11, 2), (11, 6), (11, 8), (13, 4), (13, 8),
    (13, 10), (14, 13), (16, 3), (20, 7), (21, 8), (22, 1), (22, 13), (23, 22),
    (24, 7), (24, 17), (25, 14), (29, 18), (29, 22), (30, 17), (31, 8), (31, 26),
    (32, 7), (32, 21),
)


def _reference_enumeration(c, seeds, K):
    """Every combination and torsion shift, summed from scratch with the checked law."""
    torsion = torsion_subgroup(c).points
    stats = MwStats()
    outputs, seen = [], set()
    multiples = []
    for P in seeds:
        row = {0: INFINITY}
        for k in range(1, K + 1):
            row[k] = add(c, row[k - 1], P)
            row[-k] = neg(c, row[k])
        multiples.append(row)
    for vec in _coefficient_vectors(len(seeds), K):
        base = INFINITY
        for i, coeff in enumerate(vec):
            base = add(c, base, multiples[i][coeff])
        for T in torsion:
            stats.candidates += 1
            if not base.is_infinity and max(
                    v.bit_length() for v in (base.X.numerator, base.X.denominator,
                                             base.Y.numerator, base.Y.denominator)) > mw._CAP_BITS:
                stats.skipped_large += 1
                continue
            R = add(c, base, T)
            pair = lift_point(c, R)
            if pair is None:
                continue
            stats.lifted += 1
            t = MasterTuple(pair.a, pair.b, c.m, c.n)
            assert is_master_hit(t) is not None
            stats.certified += 1
            canon = sigma_canonical(t)
            if canon not in seen:
                seen.add(canon)
                outputs.append(canon)
    return outputs, stats


def _assert_matches_reference(c, seeds, K):
    run = enumerate_and_certify(c, seeds, K)
    outputs, stats = _reference_enumeration(c, seeds, K)
    assert run.outputs == outputs  # same tuples in the same order
    assert run.stats == stats
    return stats


def test_enumerate_matches_reference_on_seeded_fibres():
    for m, n in SEEDED_FIBRES:
        c = build_fibre(m, n)
        seeds = seeds_from_hits(c, naive_quartic_search(c, 60))
        assert seeds, (m, n)
        for K in (1, 2):
            _assert_matches_reference(c, seeds, K)


@pytest.mark.parametrize("m, n, K", [(44, 9, 3), (22, 17, 2)])
def test_enumerate_matches_reference_with_dependent_seeds(m, n, K):
    # the five (22,17) seeds are dependent: some bases land at infinity and
    # some on a torsion point, which take the Fraction group law
    c = build_fibre(m, n)
    stats = _assert_matches_reference(c, seeds_from_hits(c, naive_quartic_search(c, 60)), K)
    assert stats.certified > 0


def test_enumerate_checks_points_where_they_enter():
    off = CurvePoint(Fraction(1), Fraction(1))
    with pytest.raises(ValueError, match="not on fibre"):
        enumerate_and_certify(F449, [off], 1)


def test_tau_shared_across_two_torsion_on_seeds():
    # translation by (e1,0) keeps tau, by (e2,0) or (e3,0) it inverts tau
    for m, n in SEEDED_FIBRES:
        c = build_fibre(m, n)
        tor = torsion_subgroup(c)
        E1, E2, E3 = two_torsion(c)
        for P in seeds_from_hits(c, naive_quartic_search(c, 60)):
            for k in (1, 2, -3):
                for T in tor.points:
                    R = add(c, scalar_mul(c, k, P), T)
                    t = tau(c, R)
                    assert t is not None and t != 0, (m, n)
                    assert tau(c, add(c, R, E1)) == t
                    assert tau(c, add(c, R, E2)) == tau(c, add(c, R, E3)) == 1 / t


def _reference_cosets(c, points):
    """The torsion points grouped into cosets of E[2] with the group law:
    the index of each coset's first point and, per point, the pair (coset,
    whether the point is that first point plus (e2,0) or (e3,0))."""
    index = {T: i for i, T in enumerate(points)}
    E1, E2, E3 = two_torsion(c)
    reps: list[int] = []
    coset: list = [None] * len(points)
    for i, T in enumerate(points):
        if coset[i] is None:
            for E, inverted in ((INFINITY, False), (E1, False), (E2, True), (E3, True)):
                coset[index[add(c, T, E)]] = (len(reps), inverted)
            reps.append(i)
    return reps, coset


def test_torsion_cosets_match_the_group_law_on_fibres():
    # the closed-form table of torsion_subgroup against the group law: the
    # same cosets, and the flag set exactly on the points that are the
    # coset's first point without it plus (e2,0) or (e3,0)
    fibres = admissible_fibres(1500)
    for m, n in fibres:
        c = build_fibre(m, n)
        tor = torsion_subgroup(c)
        _, E2, E3 = two_torsion(c)
        _, want = _reference_cosets(c, tor.points)
        assert [k for k, _ in tor.cosets] == [k for k, _ in want], (m, n)
        first = {}
        for T, (k, inverted) in zip(tor.points, tor.cosets):
            if not inverted:
                first.setdefault(k, T)
        for T, (k, inverted) in zip(tor.points, tor.cosets):
            assert inverted == (add(c, T, neg(c, first[k])) in (E2, E3)), (m, n, T)
    assert fibres[-1][0] >= 70


def test_walk_without_seeds_does_no_group_law(monkeypatch):
    def refuse(*args):
        raise AssertionError("group law called")

    for module in (ecq, mw):
        monkeypatch.setattr(module, "_sum", refuse)
        monkeypatch.setattr(module, "add", refuse)
    for m, n in SEEDED_FIBRES:
        run = enumerate_and_certify(build_fibre(m, n), [], 3)
        assert run.outputs == [] and run.stats == MwStats()


def _tau_fraction(c, u, D):
    """tau at X = u/D^2 as one reduced Fraction; None at X = +-2 gamma^2."""
    D2 = D * D
    den = u * u - 4 * c.gamma**4 * D2 * D2
    return Fraction(4 * c.gamma**2 * (u + c.B * D2) * D2, den) if den else None


def _lift_pairs_of_tau(tv):
    """The lift rule as a square test on tau, for tau and for 1/tau."""
    if tv is None or tv.numerator <= 0:
        return None, None
    a = is_perfect_square(tv.numerator)
    b = None if a is None else is_perfect_square(tv.denominator)
    if b is None or (a - b) % 2 == 0:
        return None, None
    return (EuclidPair(a, b), None) if a > b else (None, EuclidPair(b, a))


def _fraction_walk(c, seeds, K):
    """The walk on Fraction points with one reduced tau and two square tests
    per coset, as it was before it ran on integer triples."""
    torsion = torsion_subgroup(c).points
    stats = MwStats()
    shifts = [(T, None, None) if T.is_infinity else (T, T.X.numerator, T.Y.numerator)
              for T in torsion]
    torsion_xs = {xT for _, xT, _ in shifts if xT is not None}
    reps, coset = _reference_cosets(c, torsion)
    reps = [shifts[i][1:] for i in reps]
    multiples = []
    for P in seeds:
        row = {0: INFINITY}
        for k in range(1, K + 1):
            row[k] = add(c, row[k - 1], P)
            row[-k] = neg(c, row[k])
        multiples.append(row)
    outputs, seen = [], set()
    for vec in _coefficient_vectors(len(seeds), K):
        base = INFINITY
        for i, coeff in enumerate(vec):
            base = add(c, base, multiples[i][coeff])
        stats.candidates += len(shifts)
        if not base.is_infinity and max(
                v.bit_length() for v in (base.X.numerator, base.X.denominator,
                                         base.Y.numerator, base.Y.denominator)) > mw._CAP_BITS:
            stats.skipped_large += len(shifts)
            continue
        if base.is_infinity or base.X.denominator == 1 and base.X.numerator in torsion_xs:
            pairs = [_lift_pairs_of_tau(tau(c, add(c, base, T)))[0] for T, _, _ in shifts]
        else:
            p, r, d2 = base.X.numerator, base.Y.numerator, base.X.denominator
            d = base.Y.denominator // d2
            shared = []
            for xT, yT in reps:
                u, _, D = (p, r, d) if xT is None else ecq._raw_sum(c, (p, r, d), (xT, yT, 1))
                shared.append(_lift_pairs_of_tau(_tau_fraction(c, u, D)))
            pairs = [shared[k][inverted] for k, inverted in coset]
        for pair in pairs:
            if pair is None:
                continue
            stats.lifted += 1
            t = MasterTuple(pair.a, pair.b, c.m, c.n)
            assert is_master_hit(t) is not None
            stats.certified += 1
            canon = sigma_canonical(t)
            if canon not in seen:
                seen.add(canon)
                outputs.append(canon)
    return outputs, stats


def _seeded_fibres(how_many, height):
    """The first admissible fibres with a seed at this height, with their seeds."""
    out = []
    for m, n in admissible_fibres(3000):
        c = build_fibre(m, n)
        hits = naive_quartic_search(c, height)
        if hits:
            out.append((c, seeds_from_hits(c, hits)))
            if len(out) == how_many:
                return out
    raise AssertionError(f"fewer than {how_many} seeded fibres")


def _assert_walks_agree(c, seeds, K):
    run = enumerate_and_certify(c, seeds, K)
    outputs, stats = _fraction_walk(c, seeds, K)
    assert run.outputs == outputs  # same tuples in the same order
    assert run.stats == stats
    return stats


def test_integer_walk_matches_fraction_walk_on_seeded_fibres():
    fibres = _seeded_fibres(110, 60)
    certified = 0
    for c, seeds in fibres:
        certified += _assert_walks_agree(c, seeds, 2).certified
    assert fibres[-1][0].m >= 90 and certified >= 1000


def test_integer_walk_matches_fraction_walk_on_the_deep_fibre():
    c = build_fibre(22, 17)
    stats = _assert_walks_agree(c, seeds_from_hits(c, naive_quartic_search(c, 80)), 3)
    assert (stats.candidates, stats.certified) == (67224, 16770)


def test_size_cap_in_bits():
    # DIGIT_CAP decimal digits in bits, computed without a float, plus 8
    assert mw._CAP_BITS == 33228
    assert 10 ** mw.DIGIT_CAP < 2 ** (mw._CAP_BITS - 8) < 10 ** (mw.DIGIT_CAP + 1)


@pytest.mark.parametrize("cap", [40, 80, 120])
def test_skipped_large_matches_reference_at_small_caps(monkeypatch, cap):
    # at these caps some combination points are too large and some are not;
    # a base past the cap is skipped with every one of its torsion translates
    monkeypatch.setattr(mw, "_CAP_BITS", cap)
    c = build_fibre(13, 2)
    seeds = seeds_from_hits(c, naive_quartic_search(c, 60))
    stats = _assert_matches_reference(c, seeds, 2)
    assert 0 < stats.skipped_large < stats.candidates
    assert stats.skipped_large % 8 == 0  # the eight torsion translates
    _assert_walks_agree(c, seeds, 2)


@pytest.mark.parametrize("cap", [40, 80, 120, 200])
def test_skipped_large_matches_reference_with_dependent_seeds(monkeypatch, cap):
    # the (22,17) seeds are dependent, so later vectors reuse the result of
    # an earlier one of the same point; the cap is tested per point, so a
    # point must not be merged with its torsion translates or its negative
    monkeypatch.setattr(mw, "_CAP_BITS", cap)
    c = build_fibre(22, 17)
    stats = _assert_matches_reference(c, seeds_from_hits(c, naive_quartic_search(c, 60)), 2)
    assert 0 < stats.skipped_large < stats.candidates


def _random_relations(rng, r, how_many):
    return [tuple(rng.randint(-6, 6) * rng.randint(1, 3) for _ in range(r))
            for _ in range(how_many)]


def _echelon(relations):
    basis = []
    for w in relations:
        mw._add_relation(basis, w)
    return basis


def test_relation_basis_is_echelon_and_reduction_canonical():
    rng = random.Random(13)
    for _ in range(300):
        r = rng.randint(1, 6)
        relations = _random_relations(rng, r, rng.randint(1, 4))
        basis = _echelon(relations)
        pivots = [p for p, _ in basis]
        assert pivots == sorted(set(pivots))
        for p, row in basis:
            assert row[p] > 0 and not any(row[:p])
        for w in relations:
            assert mw._reduce(basis, w) == (0,) * r
            assert mw._add_relation(list(basis), w) is False
        for _ in range(5):
            v = tuple(rng.randint(-9, 9) for _ in range(r))
            key = mw._reduce(basis, v)
            assert mw._reduce(basis, key) == key
            assert all(0 <= key[p] < row[p] for p, row in basis)
            moved = list(v)
            for w in relations:
                k = rng.randint(-5, 5)
                moved = [x + k * y for x, y in zip(moved, w)]
            assert mw._reduce(basis, tuple(moved)) == key


def _det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def test_relation_basis_spans_exactly_the_relations():
    # the basis holds every relation; its index in Z^3 equals the gcd of
    # the 3x3 minors of the relations, so it holds nothing more
    rng = random.Random(17)
    tested = 0
    for _ in range(200):
        relations = _random_relations(rng, 3, rng.randint(3, 5))
        index = 0
        for rows in combinations(relations, 3):
            index = gcd(index, _det3(rows))
        if index == 0:
            continue
        basis = _echelon(relations)
        assert [p for p, _ in basis] == [0, 1, 2]
        assert basis[0][1][0] * basis[1][1][1] * basis[2][1][2] == index
        tested += 1
    assert tested > 150


def test_deep_walk_reuses_the_points_of_dependent_seeds(monkeypatch):
    # bench fibre (22,17), H=80, K=3: 8,403 coefficient vectors land on 2,312
    # points; counts and outputs keep their box meaning
    calls = {"lift_pairs": 0, "_raw_sum": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(module, name, counted)

    counting(mw, "lift_pairs")
    counting(ecq, "_raw_sum")
    c = build_fibre(22, 17)
    run = enumerate_and_certify(c, seeds_from_hits(c, naive_quartic_search(c, 80)), 3)
    assert (run.stats.candidates, run.stats.certified, len(run.outputs)) == (67224, 16770, 1059)
    assert calls["lift_pairs"] <= 4700  # 16,770 with every vector walked
    assert calls["_raw_sum"] <= 2700  # 8,386 with every vector walked


def test_deep_walk_at_height_150_and_K_4():
    # pinned to the outputs of the walk that summed every vector
    c = build_fibre(22, 17)
    run = enumerate_and_certify(c, seeds_from_hits(c, naive_quartic_search(c, 150)), 4)
    assert run.stats == MwStats(candidates=2125760, lifted=531072, certified=531072,
                                skipped_large=0)
    text = "".join(f"{t.a},{t.b},{t.m},{t.n}\n" for t in run.outputs)
    assert len(run.outputs) == 4600
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "596f13778799e6a4084e7a16b78d0ead977ecb2446193e8fb470b68f75f7cea1")
