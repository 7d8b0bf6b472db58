import math
import random
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import bench_walk, ecm_stage2_projective
from brickforge import ntkernel
from brickforge.master import MasterTuple, f1, f1_divisors, factor_f1
from brickforge.ntkernel import (
    Factorization,
    factor,
    is_perfect_square,
    is_prime,
    is_square_rational,
    valuation,
)


def test_is_perfect_square():
    assert is_perfect_square(15625) == 125
    assert is_perfect_square(5968) is None
    assert is_perfect_square(-4) is None
    assert is_perfect_square(0) == 0


def test_square_detection_agrees_with_isqrt():
    rng = random.Random(2)
    for _ in range(500):
        n = rng.randrange(10**12)
        r = is_perfect_square(n)
        assert (r is not None) == (math.isqrt(n) ** 2 == n)
        if r is not None:
            assert r * r == n


def test_is_square_rational():
    assert is_square_rational(Fraction(3025, 2304)) == Fraction(55, 48)
    assert is_square_rational(Fraction(1)) == 1
    assert is_square_rational(Fraction(2, 9)) is None
    assert is_square_rational(Fraction(0)) is None
    assert is_square_rational(Fraction(-16, 9)) is None
    assert is_square_rational(Fraction(4, 2)) is None  # reduces to 2/1


def test_valuation():
    assert valuation(2197, 13) == 3
    assert valuation(571032, 7) == 1
    assert valuation(9, 2) == 0
    assert valuation(-24, 2) == 3
    with pytest.raises(ValueError):
        valuation(0, 5)


def test_is_prime_small():
    assert is_prime(13)
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(5329)  # 73**2
    assert not is_prime(561)  # Carmichael
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert not is_prime(3825123056546413051)  # strong pseudoprime to bases 2,...,23
    # squares of the Wieferich primes pass Miller-Rabin to base 2, and the
    # Lucas test refuses them by its square check: no Selfridge D has
    # (D|n) = -1 for a square n = p^2, so without it the D search would
    # stop only at D = +-p, 2**60 steps for p = 2**61 - 1
    assert not is_prime(1093**2)
    assert not is_prime(3511**2)
    assert not ntkernel._strong_lucas_prp((2**61 - 1) ** 2)


def test_is_prime_large():
    # cofactors that stage 1 leaves behind on real space-diagonal norms
    assert is_prime(259801)
    assert is_prime(1167800789401)
    assert is_prime(17337223625401)
    assert is_prime(8006882310769)
    assert is_prime(2**89 - 1)  # above 2**64
    assert not is_prime((2**61 - 1) ** 2)
    assert not is_prime(318665857834031151167461)  # strong pseudoprime to bases 2,...,37


def test_is_prime_matches_sieve():
    flags = [True] * 2000
    flags[0] = flags[1] = False
    for i in range(2, 45):
        for j in range(i * i, 2000, i):
            flags[j] = False
    for n in range(2000):
        assert is_prime(n) == flags[n]


def test_factor_basics():
    f = factor(2021)
    assert f.factors == [(43, 1), (47, 1)]
    assert f.status == "full"
    assert f.residual == 1

    f = factor(1)
    assert f.factors == [] and f.residual == 1 and f.status == "full"

    f = factor(96256348905024)
    assert (2, 6) in f.factors and (3, 2) in f.factors
    assert f.status == "full"
    assert f.product() == 96256348905024


def test_factor_golden_f1():
    # (W1*U2)**2 + (U1*V2)**2 for (a,b,m,n) = (55,48,44,9)
    n = 9885295**2 + 571032**2
    f = factor(n)
    assert f.status == "full"
    assert f.factors == [(7, 2), (13, 3), (61, 1), (1597, 1), (9349, 1)]


def test_factor_ecm_splits_primes_just_above_the_trial_bound():
    # both factors above the trial-division bound; the last pairs a prime
    # just above it with a large one
    for p, q in ((100003, 100019), (1000003, 1000033), (100003, 2**89 - 1)):
        f = factor(p * q)
        assert f.factors == [(p, 1), (q, 1)]
        assert f.status == "full"


def test_factor_perfect_power_shortcut():
    f = factor(1000003**4)
    assert f.factors == [(1000003, 4)]
    assert f.status == "full"


def test_perfect_power_tries_every_prime_exponent_a_piece_allows():
    # a piece has no prime below TRIAL_LIMIT, so its base is at least 10**5
    assert ntkernel._perfect_power(1000003**67) == (1000003, 67)
    p, q = 100003, 1000003
    assert ntkernel._perfect_power((p * q) ** 2) == (p * q, 2)
    assert ntkernel._perfect_power(p**3 * q**3) == (p * q, 3)
    assert ntkernel._perfect_power(p * q) is None
    assert ntkernel._perfect_power(p**2 * q) is None
    assert factor(1000003**67).factors == [(1000003, 67)]


def test_factor_budget_exhaustion_degrades():
    n = (2**61 - 1) * (2**89 - 1)
    f = factor(n, budget=0.0)
    assert f.status == "partial"
    assert f.residual == n
    assert not is_prime(f.residual)
    assert f.product() == n


def _counting_clock(monkeypatch):
    """An int subclass whose reductions `x % n` tick a clock that
    ntkernel reads as time.monotonic(), and that clock's reading."""
    steps = [0]

    class Modulus(int):
        def __rmod__(self, other):
            steps[0] += 1
            return int(other) % int(self)

    monkeypatch.setattr(ntkernel, "time", SimpleNamespace(monotonic=lambda: steps[0]))
    return Modulus, lambda: steps[0]


def test_factor_deadline_inside_ecm_stages(monkeypatch):
    # the clock counts reductions mod n, so a deadline falls at a chosen
    # step; a first pass records where stage 2 of the first curve starts
    # and ends, then one deadline falls inside each stage
    Modulus, clock = _counting_clock(monkeypatch)
    n = Modulus((2**61 - 1) * (2**89 - 1))
    stage2 = ntkernel._ecm_stage2
    marks = []

    class Stop(Exception):
        pass

    def first_curve_only(*args):
        marks.append(clock())
        assert stage2(*args) is not None
        marks.append(clock())
        raise Stop

    monkeypatch.setattr(ntkernel, "_ecm_stage2", first_curve_only)
    with pytest.raises(Stop):
        ntkernel._ecm(n, math.inf)
    begin, end = marks
    assert begin > 1000 and end - begin > 1000

    def no_stage2(*args):
        raise AssertionError("stage 1 ran past its deadline")

    for budget, spy in ((begin // 2, no_stage2), ((begin + end) // 2, stage2)):
        monkeypatch.setattr(ntkernel, "_ecm_stage2", spy)
        start = clock()
        assert ntkernel._ecm(n, start + budget) is None
        assert 0 <= clock() - start - budget <= 2 * 128


def test_factor_deadline_inside_normalisation_and_pm1_stage2(monkeypatch):
    # the counting clock of the test above; ECM's stage 2 takes one inverse,
    # between the prefix products of the z's and the pass back over them
    Modulus, clock = _counting_clock(monkeypatch)
    inverses = []

    def recording_pow(base, exp, mod):
        if exp == -1:
            inverses.append(clock())
        return pow(base, exp, mod)

    monkeypatch.setattr(ntkernel, "pow", recording_pow, raising=False)
    n = Modulus((2**61 - 1) * (2**89 - 1))
    stage2 = ntkernel._ecm_stage2
    marks = []

    class Stop(Exception):
        pass

    def first_curve_only(*args):
        marks.append(clock())
        assert stage2(*args) is not None
        raise Stop

    monkeypatch.setattr(ntkernel, "_ecm_stage2", first_curve_only)
    with pytest.raises(Stop):
        ntkernel._ecm(n, math.inf)
    monkeypatch.setattr(ntkernel, "_ecm_stage2", stage2)
    invert = inverses[-1]
    assert invert - marks[0] > 500
    for budget in (invert - 64, invert + 64):  # in the prefix pass, then the pass back
        start = clock()
        assert ntkernel._ecm(n, start + budget) is None
        assert 0 <= clock() - start - budget <= 2 * 128

    # p - 1 stage 1 is pow alone, which the clock does not count; both
    # primes are safe, so stage 2 runs to its end and finds neither
    n = Modulus(PM1_SAFE[0] * PM1_SAFE[1])
    start = clock()
    assert ntkernel._pm1(n, math.inf) is None
    whole = clock() - start
    assert whole > 1000
    for budget in (whole // 8, whole // 2):
        start = clock()
        assert ntkernel._pm1(n, start + budget) is None
        assert 0 <= clock() - start - budget <= 2 * 128


def test_ecm_splits_a_13_digit_prime_from_a_20_digit_one():
    p, q = 1000000000039, 10**19 + 51
    assert is_prime(q) and len(str(q)) == 20
    assert ntkernel._ecm(p * q, math.inf) in (p, q)


def test_ecm_suyama_denominator_sharing_a_prime_is_a_factor():
    # sigma = 6 gives v = 4 * sigma = 24, which 3 divides
    p = 1000000000039
    assert ntkernel._ecm(3 * p, math.inf) == 3


# products of two primes of 10 to 12 digits, each with the factor _ecm
# returned when stage 1 stepped its ladder without _xadd/_xdbl: the same
# factor means the same curves and the same arithmetic
ECM_FACTORS = (
    (3000000040000000133, 3000000019), (30001108275124292783, 3000104743),
    (300021116884812617507, 3000209477), (30003563493029496401, 1000108309),
    (300009472133770330903, 30000418933), (3000060158465998401773, 30000523673),
    (300108384706706286247, 1000359187), (3000149676877873379729, 300000733163),
    (30000265461107393913403, 100000605581), (3003200945341779233, 1000752551),
    (30013220145696457301, 3001047299), (300118485563314314023, 3001152023),
    (30039913048320147151, 1001288489), (300058581820629654007, 30001361479),
    (3000198374899244420989, 30001466221), (300591668933018174969, 1001966983),
    (3000684197118009958841, 10002224789), (30000927583848287447471, 100002498461),
    (3010254369756141731, 3001885141), (30029185122398571419, 3001989901),
)


@pytest.mark.parametrize("n,p", ECM_FACTORS)
def test_ecm_returns_the_recorded_factor(n, p):
    assert n % p == 0 and is_prime(p) and is_prime(n // p)
    # each takes well under 0.1 s; a broken ladder gives up instead of running on
    assert ntkernel._ecm(n, time.monotonic() + 10) == p



def test_ecm_separates_two_primes_caught_in_one_stage2_product(monkeypatch):
    # the sigma = 6 curve misses both primes in stage 1 and catches both in
    # stage 2, 1000037 at giant step 15 and 1000033 at step 22, so the whole
    # product is 0 mod n; the product after step 15 separates them on that
    # same curve
    p, q = 1000037, 1000033
    n = p * q
    calls = []
    stage2 = ntkernel._ecm_stage2

    def recording(*args):
        calls.append(args)
        return stage2(*args)

    monkeypatch.setattr(ntkernel, "_ecm_stage2", recording)
    assert ntkernel._ecm(n, math.inf) == p
    assert len(calls) == 1
    products = stage2(*calls[0])
    assert math.gcd(products[-1], n) == n
    assert [math.gcd(acc, n) for acc in products[13:22]] == [1, p, p, p, p, p, p, p, n]


def test_affine_stage2_catches_what_the_projective_rule_catches(monkeypatch):
    # the stage-2 points of every curve _ecm runs on the products above,
    # each with the gcds of both rules after every giant step
    points = []
    stage2 = ntkernel._ecm_stage2

    def recording(n, x, z, a24, deadline):
        points.append((n, x, z, a24))
        return stage2(n, x, z, a24, deadline)

    monkeypatch.setattr(ntkernel, "_ecm_stage2", recording)
    for n, p in ECM_FACTORS:
        assert ntkernel._ecm(n, math.inf) == p
    assert len(points) >= 100
    caught = 0
    for n, x, z, a24 in points:
        gcds = [math.gcd(acc, n) for acc in stage2(n, x, z, a24, math.inf)]
        assert gcds == [math.gcd(acc, n) for acc in ecm_stage2_projective(n, x, z, a24)]
        caught += gcds[-1] > 1
    assert caught >= 5


def test_ecm_stage2_returns_a_z_that_is_not_a_unit():
    # Q = (5 : p) is the point at infinity mod p, and so is every multiple
    p, q = 1000037, 1000033
    products = ntkernel._ecm_stage2(p * q, 5, p, 7, math.inf)
    assert len(products) == 1 and math.gcd(products[0], p * q) % p == 0


# Pollard p - 1: p - 1 = 2 3 5 7 17 1997 1999 is 2,000-smooth, and
# q - 1 = 2 r with r prime for each safe q, so p - 1 never finds q
PM1_SMOOTH = 14251450711
PM1_SAFE = (1000667, 1000919, 1001003, 1001159)


def test_pm1_stage1_finds_a_prime_with_smooth_p_minus_1():
    assert is_prime(PM1_SMOOTH) and all(is_prime(q) and is_prime(q // 2) for q in PM1_SAFE)
    for q in PM1_SAFE:
        assert ntkernel._pm1(PM1_SMOOTH * q, math.inf) == PM1_SMOOTH
    assert ntkernel._pm1(PM1_SAFE[0] * PM1_SAFE[1], math.inf) is None


def test_pm1_stage1_separates_primes_caught_in_different_runs():
    # p - 1 = 2^2 3 5^2 7 11 13 101 divides the first run of k, q - 1 =
    # 2 3 103 1999 only the whole k, so the gcd after all runs is p q
    p, q = 30330301, 1235383
    first, *_ = runs = ntkernel._ecm_tables()[2]
    assert is_prime(p) and is_prime(q) and first % (p - 1) == 0
    assert pow(3, first, q) != 1 and math.prod(runs) % (q - 1) == 0
    assert ntkernel._pm1(p * q, math.inf) == p


@pytest.mark.parametrize("p,s", [(46193071, 19997), (69360061, 15013), (69348511, 10007)])
def test_pm1_stage2_finds_one_prime_in_b1_to_b2(monkeypatch, p, s):
    # p - 1 = s times a 2,000-smooth cofactor, s in (2,000, 20,000]
    assert is_prime(p) and is_prime(s) and (p - 1) % s == 0
    assert max(f for f, _ in factor((p - 1) // s).factors) <= 2000
    n = p * PM1_SAFE[0]
    assert ntkernel._pm1(n, math.inf) == p
    monkeypatch.setattr(ntkernel, "_pair_products", lambda n, babies, giants, deadline: [1])
    assert ntkernel._pm1(n, math.inf) is None


def test_factor_runs_pm1_once_on_each_fresh_piece(monkeypatch):
    calls = []
    pm1 = ntkernel._pm1

    def spy(n, deadline):
        calls.append(n)
        return pm1(n, deadline)

    monkeypatch.setattr(ntkernel, "_pm1", spy)
    q, r, s, t = PM1_SAFE
    # p - 1 splits off PM1_SMOOTH, and ECM the part q r that it leaves
    n = PM1_SMOOTH * q * r
    assert factor(n).factors == [(q, 1), (r, 1), (PM1_SMOOTH, 1)]
    assert calls == [n]
    calls.clear()
    # pieces from the divisor split, one of them through its square root
    f = factor(7 * (q * r) ** 2 * s * t, divisors=[(q * r) ** 2])
    assert f.factors == [(7, 1), (q, 2), (r, 2), (s, 1), (t, 1)]
    assert sorted(calls) == [q * r, s * t]
    calls.clear()
    assert factor(n, budget=0).status == "partial"
    assert calls == []


def test_factor_three_primes_near_10_to_11():
    primes = [p for p in range(10**11, 10**11 + 200) if is_prime(p)][:3]
    n = math.prod(primes)
    f = factor(n)
    assert f.status == "full"
    assert f.factors == [(p, 1) for p in primes]
    assert all(is_prime(p) for p, _ in f.factors)


def _plain_trial_division(n):
    """Stage 1 of factor() as one prime at a time, for comparison."""
    counts, rem = {}, n
    for p in ntkernel._trial_primes():
        if p * p > rem:
            break
        while rem % p == 0:
            counts[p] = counts.get(p, 0) + 1
            rem //= p
    if 1 < rem < ntkernel.TRIAL_LIMIT**2:
        counts[rem] = counts.get(rem, 0) + 1
        rem = 1
    return counts, rem


def test_trial_division_by_blocks_matches_plain_loop():
    primes = ntkernel._trial_primes()
    below = list(primes[-12:])
    above = [p for p in range(ntkernel.TRIAL_LIMIT, ntkernel.TRIAL_LIMIT + 400) if is_prime(p)][:12]
    # the first and last prime of every few runs, where a run's product starts and ends
    edges = [primes[i] for k in range(0, len(primes), 8 * ntkernel._BLOCK)
             for i in (k, min(k + ntkernel._BLOCK - 1, len(primes) - 1))]
    audit = [f1(t) for t in bench_walk(2)]
    assert len(audit) == 346
    # the plain loop takes about 2 ms on each of these 90-digit values, so a
    # quarter of them, spread over the whole store, keeps the test short
    inputs = audit[::4]
    inputs += list(range(1, 200))
    inputs += below + above + [p * q for p in below[:4] for q in above[:4]]
    inputs += [2 * p for p in below] + [3 * p * p for p in above[:4]]
    inputs += [p**k for p in [2, 3, 1619, 1621, *edges, *below[-3:]] for k in (2, 3)]
    inputs += [math.prod(below[-3:]) * 2**40, 2**89 - 1, (2**61 - 1) * 999983**2]
    assert len(inputs) >= 300
    for n in inputs:
        assert ntkernel._trial_divide(n) == _plain_trial_division(n), n


def test_factor_reconstruction_random():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randrange(1, 10**12)
        f = factor(n)
        assert f.status == "full"
        assert f.residual == 1
        assert f.product() == n
        primes = [p for p, _ in f.factors]
        assert primes == sorted(set(primes))
        assert all(is_prime(p) for p in primes)


def test_valuation_consistent_with_factor():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randrange(2, 10**10)
        f = factor(n)
        for p, e in f.factors:
            assert valuation(n, p) == e
        assert valuation(n, 1000003) == 0 or (1000003, valuation(n, 1000003)) in f.factors


def test_factorization_dataclass_defaults():
    f = Factorization()
    assert f.product() == 1
    assert f.status == "full"


def _certified(f: Factorization, n: int) -> None:
    """The invariants of Factorization on a result for n."""
    assert f.product() == n
    primes = [p for p, _ in f.factors]
    assert primes == sorted(set(primes))
    assert all(is_prime(p) and e >= 1 for p, e in f.factors)
    assert (f.status == "full") == (f.residual == 1)


def test_factor_with_junk_divisors_keeps_its_invariants():
    p, q = 10000019, 100000007  # both above the trial-division bound
    big = (2**61 - 1) * (2**89 - 1)
    for n, budget in ((1, 1.0), (2021, 1.0), (p * q, 1.0), (p * p * q, 1.0), (p**3, 1.0),
                      (9885295**2 + 571032**2, 1.0), (big, 0.0), (big * p * q, 0.0)):
        junk = [0, 1, -1, n, n * n, -n, n + 1, 2 * n + 7, 10**200 + 1, 999983, -p, q * 6, p * q]
        plain = factor(n, budget=budget)
        for divisors in [[g] for g in junk] + [junk, junk[::-1]]:
            f = factor(n, budget=budget, divisors=divisors)
            _certified(f, n)
            if f.status == "full":
                assert f == factor(n)
            if plain.status == "full":
                assert f == plain


def test_divisor_split_works_with_no_time_for_ecm():
    p, q, r = 1000000000039, 10000000000037, 100000000000031
    n = p * q * r
    assert factor(n, budget=0.0).status == "partial"
    assert factor(n, budget=0.0, divisors=[q]).factors == [(q, 1)]
    assert factor(n, budget=0.0, divisors=[p * 5, -r]).factors == [(p, 1), (q, 1), (r, 1)]
    # a shared square: the pieces q^2 and r go through the perfect-power stage
    f = factor(q * q * r, budget=0.0, divisors=[q * q])
    assert f.factors == [(q, 2), (r, 1)] and f.residual == 1


# the tuples of test_blockers.py
GOLDEN_TUPLES = [MasterTuple(55, 48, 44, 9), MasterTuple(835, 88, 160, 89),
                 MasterTuple(2, 1, 2, 1), MasterTuple(2, 1, 4, 3)]


def test_factor_f1_matches_plain_factor_on_golden_tuples():
    for t in GOLDEN_TUPLES:
        f = factor_f1(t)
        assert f.status == "full"
        assert f == factor(f1(t))


def test_factor_f1_full_results_match_plain_factor_on_the_audit_store():
    # The plain engine cannot finish some of these 80-digit cofactors within
    # seconds that the split finishes within the audit budget.  A full
    # result is the unique factorization once its primes pass is_prime and
    # multiply back to n; it is compared with the plain one where that one
    # also finishes.
    full = compared = 0
    for t in bench_walk(2)[::4]:
        n = f1(t)
        split = factor_f1(t, budget=0.05)
        _certified(split, n)
        if split.status != "full":
            continue
        full += 1
        plain = factor(n, budget=0.05)
        if plain.status == "full":
            compared += 1
            assert split == plain
    assert full >= 20 and compared >= 5
    assert all(len(f1_divisors(t)) == 2 for t in bench_walk(2))
