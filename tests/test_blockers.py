import random

import pytest

from conftest import random_admissible
from brickforge.blockers import (
    blockers,
    canonical_decomposition,
    gaussian_gcds,
    is_strictly_semiscaled,
    k_invariant,
    padic_profile,
    semiscaled,
    twelve_formulas,
    verify_E1,
    verify_blocker_conjecture,
)
from brickforge import master
from brickforge.master import (
    MasterTuple,
    canonical_expressions,
    edges,
    f1,
    is_master_hit,
    master_norm,
)
from brickforge.ntkernel import Factorization, factor, valuation

GOLDEN = MasterTuple(55, 48, 44, 9)
APPA1 = MasterTuple(835, 88, 160, 89)


TUPLE_FUNCTIONS = {
    fn.__name__: fn
    for fn in (master_norm, is_master_hit, f1, edges, canonical_expressions,
               canonical_decomposition, gaussian_gcds, semiscaled)
}
TUPLE_FUNCTIONS["twelve_formulas"] = lambda t: twelve_formulas(t, 1)
TUPLE_FUNCTIONS["padic_profile"] = lambda t: padic_profile(t, 3)


@pytest.mark.parametrize("t", [MasterTuple(3, 1, 2, 1), MasterTuple(2, 1, 4, 2)])
@pytest.mark.parametrize("name", sorted(TUPLE_FUNCTIONS))
def test_tuple_functions_reject_inadmissible(name, t):
    # a - b even in the first pair, gcd(m, n) = 2 in the second
    with pytest.raises(ValueError, match="inadmissible"):
        TUPLE_FUNCTIONS[name](t)


def test_blockers_listing():
    f = factor(f1(GOLDEN))
    assert blockers(GOLDEN, f) == [(13, 3), (61, 1), (1597, 1), (9349, 1)]
    assert blockers(GOLDEN, Factorization([(5, 2), (13, 2)])) == []
    # 5 does not divide f1: a full row that fails its two divisions is refused
    assert f1(GOLDEN) % 5
    with pytest.raises(ValueError, match=r"^row 5\^1 does not divide f1 exactly on "):
        blockers(GOLDEN, Factorization([(5, 1)]))


def test_blockers_drops_a_partial_row_that_fails_against_f1():
    # 13^3 divides f1 exactly: under partial a row 13^1 may leave the rest of
    # its power in the residual, so it is dropped, and 61 is kept
    value = f1(GOLDEN)
    partial = Factorization([(13, 1), (61, 1)], value // (13 * 61), "partial")
    assert blockers(GOLDEN, partial) == [(61, 1)]
    # a row of a prime that is not 1 mod 4 is dropped there too, not refused
    assert blockers(GOLDEN, Factorization([(7, 1)], value // 7, "partial")) == []


def test_blockers_rejects_non_hit():
    with pytest.raises(ValueError, match="is not a hit$"):
        blockers(MasterTuple(2, 1, 2, 1), Factorization())


def test_verify_blocker_conjecture_golden():
    f = factor(f1(GOLDEN))
    rep = verify_blocker_conjecture(GOLDEN, f)
    assert rep.verdict == "verified"
    assert rep.exponent_one_outside_P == [61, 1597, 9349]
    # 13 is outside the parameter set too, but carries exponent 3
    assert (13, 3) in rep.blockers


def test_verify_blocker_conjecture_single_blocker():
    f = factor(f1(APPA1))
    rep = verify_blocker_conjecture(APPA1, f)
    assert rep.verdict == "verified"
    assert rep.blockers == [(259801, 1)]
    assert rep.exponent_one_outside_P == [259801]


def test_verify_blocker_conjecture_synthetic_status():
    # no odd exponent among known factors: outcome tracks the status
    full = Factorization([(13, 2)], 1, "full")
    assert verify_blocker_conjecture(GOLDEN, full).verdict == "violated"
    partial = Factorization([(13, 2)], f1(GOLDEN) // 169, "partial")
    assert verify_blocker_conjecture(GOLDEN, partial).verdict == "undecidable_partial"


def test_verify_blocker_conjecture_partial_witness():
    # a witness inside a partial factorization is certified against f1
    value = f1(GOLDEN)
    partial = Factorization([(61, 1)], value // 61, "partial")
    rep = verify_blocker_conjecture(GOLDEN, partial)
    assert rep.verdict == "verified"
    assert rep.exponent_one_outside_P == [61]
    # a prime outside the parameters that does not divide f1 is no witness
    assert value % 1000003 and all(member % 1000003 for member in canonical_expressions(GOLDEN))
    partial = Factorization([(1000003, 1)], value, "partial")
    assert verify_blocker_conjecture(GOLDEN, partial).verdict == "undecidable_partial"


def test_verify_blocker_conjecture_confirms_a_full_witness_against_f1():
    # 13 is outside the parameter set, but 13^3 divides f1 exactly: a row
    # 13^1 under status full fails the same two divisions as under partial,
    # and a full factorization holding it is refused
    value = f1(GOLDEN)
    assert value % 13**3 == 0 and value % 13**4
    with pytest.raises(ValueError, match=r"^row 13\^1 does not divide f1 exactly on "):
        verify_blocker_conjecture(GOLDEN, Factorization([(13, 1)], 1, "full"))


def test_verify_blocker_conjecture_refuses_a_3_mod_4_blocker():
    # 91 = 7 * 13 marked prime: the product is f1, and the blocker 7 is refused
    # as no full factorization of a two-square norm can hold it
    fact = Factorization([(7, 1), (13, 2), (61, 1), (91, 1), (1597, 1), (9349, 1)], 1, "full")
    assert fact.product() == f1(GOLDEN)
    with pytest.raises(ValueError, match="^blocker 7 = 3 mod 4 on "):
        verify_blocker_conjecture(GOLDEN, fact)


def test_verify_blocker_conjecture_rejects_non_hit():
    with pytest.raises(ValueError):
        verify_blocker_conjecture(MasterTuple(2, 1, 2, 1), Factorization())


def test_canonical_decomposition():
    d = canonical_decomposition(GOLDEN)
    assert (d.g0, d.xi, d.eta) == (7, 1412185, 81576)
    d = canonical_decomposition(MasterTuple(2, 1, 2, 1))
    assert (d.g0, d.xi, d.eta) == (3, 5, 4)


def test_canonical_decomposition_random():
    from math import gcd

    rng = random.Random(20)
    for _ in range(200):
        t = random_admissible(rng)
        d = canonical_decomposition(t)
        assert gcd(d.xi, d.eta) == 1
        assert d.g0**2 * (d.xi**2 + d.eta**2) == f1(t)


def test_verify_E1():
    assert verify_E1(GOLDEN) is True
    assert verify_E1(APPA1) is True
    with pytest.raises(ValueError):
        verify_E1(MasterTuple(2, 1, 2, 1))


def test_parity_transfer():
    # v_p(f1) and v_p(xi^2 + eta^2) agree mod 2 for every prime
    rng = random.Random(21)
    for _ in range(25):
        t = random_admissible(rng, hi=60)
        value = f1(t)
        d = canonical_decomposition(t)
        f = factor(value)
        assert f.status == "full"
        for p, e in f.factors:
            assert (e - valuation(d.xi**2 + d.eta**2, p)) % 2 == 0


def test_k_invariant_golden_absent():
    # the 13^3 blocker has exponent three, so no k-form exists
    f = factor(f1(GOLDEN))
    assert k_invariant(GOLDEN, f) is None


def test_k_invariant_single_blocker():
    f = factor(f1(APPA1))
    got = k_invariant(APPA1, f)
    assert got is not None
    rf, h, k = got
    assert rf == 259801
    assert k == 29
    assert h == 29 * canonical_decomposition(APPA1).g0
    assert rf * h * h == f1(APPA1)


def test_k_invariant_needs_full():
    with pytest.raises(ValueError):
        k_invariant(GOLDEN, Factorization([], 5, "partial"))


def test_k_invariant_three_blockers():
    # f1 = 5^4 13^2 53 97 317 and g0 = 65: rf = 53 * 97 * 317, h = 5^2 * 13 = 5 * g0
    t = MasterTuple(22, 17, 33, 32)
    f = factor(f1(t))
    assert f.factors == [(5, 4), (13, 2), (53, 1), (97, 1), (317, 1)]
    assert canonical_decomposition(t).g0 == 65
    assert k_invariant(t, f) == (1629697, 325, 5)


def test_k_invariant_refuses_rows_that_leave_no_square():
    # the blocker 259801 left out: f1 / rf is no square, which no prime
    # factorization of f1 gives, so the rows are refused, not asserted on
    value = f1(APPA1)
    assert value % 259801 == 0
    fact = Factorization([(value // 259801, 1)], 1, "full")
    with pytest.raises(ValueError, match="is not g0\\^2 = .* times a square on "):
        k_invariant(APPA1, fact)


def test_gaussian_gcds():
    assert gaussian_gcds(GOLDEN) == (1, 7)
    assert gaussian_gcds(MasterTuple(2, 1, 2, 1)) == (1, 3)


def test_gaussian_gcds_disjoint_random():
    from math import gcd

    rng = random.Random(22)
    for _ in range(200):
        g_plus, g_minus = gaussian_gcds(random_admissible(rng))
        assert gcd(g_plus, g_minus) == 1
        assert g_plus % 2 == 1 and g_minus % 2 == 1


def test_semiscaled():
    c = semiscaled(GOLDEN)
    assert (c.g_plus, c.g_minus) == (1, 7)
    c = semiscaled(MasterTuple(2, 1, 2, 1))
    assert (c.g_plus, c.g_minus) == (1, 3)


def test_semiscaled_derives_the_tuple_four_times(monkeypatch):
    # two pair gates in gaussian_gcds, two for the triples that also give f1
    gate, calls = master._pair_entries, []
    monkeypatch.setattr(master, "_pair_entries", lambda a, b: calls.append(1) or gate(a, b))
    semiscaled(APPA1)
    assert len(calls) == 4


def test_semiscaled_invariants_random():
    rng = random.Random(23)
    for _ in range(200):
        semiscaled(random_admissible(rng))  # raises on any identity failure


def test_is_strictly_semiscaled():
    assert is_strictly_semiscaled(APPA1) is True
    assert is_strictly_semiscaled(MasterTuple(2, 1, 2, 1)) is True
    assert is_strictly_semiscaled(MasterTuple(2, 1, 4, 3)) is False


def test_twelve_formulas():
    vals = twelve_formulas(APPA1, 29)
    assert 89 * 29 in vals and 160 * 29 in vals
    assert vals[8] == 89 * 29 and vals[9] == 160 * 29

    vals = twelve_formulas(GOLDEN, 1)
    assert vals[10] == 1 and vals[11] == 7  # the two Gaussian gcds
    assert len(vals) == 12

    with pytest.raises(ValueError):
        twelve_formulas(GOLDEN, 3)
    with pytest.raises(ValueError):
        twelve_formulas(GOLDEN, 101)


def test_padic_profile():
    assert padic_profile(GOLDEN, 7) == (1, 1, None)
    assert padic_profile(GOLDEN, 73) == (2, 0, 0)
    assert padic_profile(MasterTuple(2, 1, 2, 1), 5) == (1, 0, 0)
    assert f1(MasterTuple(2, 1, 2, 1)) == 9 * 41
    for p in (2, 4, 9, 15):
        with pytest.raises(ValueError):
            padic_profile(GOLDEN, p)


def test_padic_prediction_random():
    rng = random.Random(24)
    primes = (3, 5, 7, 11, 13, 17)
    for _ in range(100):
        t = random_admissible(rng)
        value = f1(t)
        for p in primes:
            alpha, beta, predicted = padic_profile(t, p)
            if predicted is not None:
                assert valuation(value, p) == predicted
            else:
                assert valuation(value, p) >= 2 * alpha
