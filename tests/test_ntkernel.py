import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from brickforge import ntkernel
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


def test_is_prime_large():
    # cofactors that stage 1 leaves behind on real space-diagonal norms
    assert is_prime(259801)
    assert is_prime(1167800789401)
    assert is_prime(17337223625401)
    assert is_prime(8006882310769)
    assert is_prime(2**89 - 1)  # above 2**64, Baillie-PSW path
    assert not is_prime((2**61 - 1) ** 2)


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


def test_factor_rho_semiprime():
    # both factors above the trial-division bound
    f = factor(1000003 * 1000033)
    assert f.factors == [(1000003, 1), (1000033, 1)]
    assert f.status == "full"


def test_factor_perfect_power_shortcut():
    f = factor(1000003**4)
    assert f.factors == [(1000003, 4)]
    assert f.status == "full"


def test_factor_budget_exhaustion_degrades():
    n = (2**61 - 1) * (2**89 - 1)
    f = factor(n, budget=0.0)
    assert f.status == "partial"
    assert f.residual == n
    assert not is_prime(f.residual)
    assert f.product() == n


def test_factor_deadline_inside_rho_advance_loop(monkeypatch):
    # the clock counts reductions mod n, so the deadline falls at a chosen
    # step; 57000 lies inside the 16384-step advance of the r = 2**14 round
    steps = 0

    class Modulus(int):
        def __rmod__(self, other):
            nonlocal steps
            steps += 1
            return int(other) % int(self)

    monkeypatch.setattr(ntkernel, "time", SimpleNamespace(monotonic=lambda: steps))
    n = (2**61 - 1) * (2**89 - 1)
    budget = 57000
    f = factor(Modulus(n), budget=budget)
    assert f.status == "partial"
    assert f.residual == n
    assert steps - budget <= 2 * 128  # one batch past the deadline at most


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
