"""Integer utilities and the staged factorization engine.

Plain Python ints throughout.  The factor() pipeline has three stages:
trial division by primes below 10**6 (one gcd per run of 256 primes),
a divisor split (the cofactor is cut by its gcds with integers the
caller knows to share factors with it, such as the two free divisors of
f1 in master.f1_divisors), then Brent's cycle-finding variant of Pollard
rho with batched gcds on each piece.  Whatever survives the time budget
is returned as a composite residual and the result is marked partial
instead of raising.
"""
from __future__ import annotations

import math
import time
from array import array
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress

TRIAL_LIMIT = 10**6
DEFAULT_BUDGET = 600.0  # seconds, per factored integer

_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_perfect_square(n: int) -> int | None:
    """Return the nonnegative root when n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def is_square_rational(q: Fraction) -> Fraction | None:
    """Positive rational square root of q in lowest terms, or None.

    Zero is rejected on purpose (callers discard t = 0 lifts).

    >>> is_square_rational(Fraction(3025, 2304))
    Fraction(55, 48)
    """
    if q <= 0:
        return None
    rn = is_perfect_square(q.numerator)
    if rn is None:
        return None
    rd = is_perfect_square(q.denominator)
    if rd is None:
        return None
    return Fraction(rn, rd)


def valuation(n: int, p: int) -> int:
    """Largest e with p**e dividing n.  n must be nonzero."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


# ---------------------------------------------------------------------------
# primality


def _mr_composite(n: int, a: int) -> bool:
    """One Miller-Rabin round; True means a witnesses compositeness."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    # n odd positive
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters."""
    # pick D from 5, -7, 9, -11, ... with (D|n) = -1
    D = 5
    while True:
        j = _jacobi(D % n, n)
        if j == 0:
            return False  # shares a factor with n
        if j == -1:
            break
        D = -(D + 2) if D > 0 else -(D - 2)
        if D == 13 and is_perfect_square(n) is not None:
            return False
    P = 1
    Q = (1 - D) // 4
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # compute U_d, V_d, Q^d by the binary chain
    U, V, Qk = 1, P, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = U * P + V, D * U + V * P  # pre-halving values (2U', 2V')
            if U % 2:
                U += n
            if V % 2:
                V += n
            U, V = U // 2 % n, V // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def is_prime(n: int) -> bool:
    """Deterministic below 2**64 (fixed Miller-Rabin bases); Baillie-PSW
    probable-prime answer above that, which has no known counterexample."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < 2**64:
        return not any(_mr_composite(n, a) for a in _MR_BASES_64)
    return not _mr_composite(n, 2) and _strong_lucas_prp(n)


# ---------------------------------------------------------------------------
# factorization


@dataclass
class Factorization:
    """Prime-exponent list, possibly-composite residual, full/partial flag.

    Invariants: primes strictly increasing, every one certified by
    is_prime, residual == 1 exactly when status == "full", and
    product() reconstructs the original input.
    """

    factors: list[tuple[int, int]] = field(default_factory=list)
    residual: int = 1
    status: str = "full"

    def product(self) -> int:
        out = self.residual
        for p, e in self.factors:
            out *= p**e
        return out


_trial_primes_cache: array | None = None
_trial_blocks_cache: list[tuple[int, int]] | None = None
_BLOCK = 256  # trial primes per gcd


def _trial_primes() -> array:
    """The primes below TRIAL_LIMIT as 4-byte machine ints: a list of int
    objects would hold 2.5 MB more for the life of the process."""
    global _trial_primes_cache
    if _trial_primes_cache is None:
        sieve = bytearray([1]) * TRIAL_LIMIT
        sieve[0] = sieve[1] = 0
        for i in range(2, math.isqrt(TRIAL_LIMIT) + 1):
            if sieve[i]:
                sieve[i * i :: i] = bytes((TRIAL_LIMIT - 1 - i * i) // i + 1)
        _trial_primes_cache = array("I", compress(range(TRIAL_LIMIT), sieve))
    return _trial_primes_cache


def _trial_blocks() -> list[tuple[int, int]]:
    """The product of each run of _BLOCK trial primes, with the index of its first prime."""
    global _trial_blocks_cache
    if _trial_blocks_cache is None:
        primes = _trial_primes()
        _trial_blocks_cache = [(math.prod(primes[i:i + _BLOCK]), i)
                               for i in range(0, len(primes), _BLOCK)]
    return _trial_blocks_cache


def _trial_divide(n: int) -> tuple[dict[int, int], int]:
    """Stage 1 of factor(): the primes below TRIAL_LIMIT with their
    exponents, and the cofactor free of them.  Each run of trial primes
    costs one gcd; single primes are tried only in a run that shares a
    factor with what is left."""
    primes = _trial_primes()
    counts: dict[int, int] = {}
    rem = n
    for product, start in _trial_blocks():
        if primes[start] ** 2 > rem:
            break
        g = math.gcd(rem, product)
        if g == 1:
            continue
        for p in primes[start:start + _BLOCK]:
            if g % p == 0:
                while rem % p == 0:
                    counts[p] = counts.get(p, 0) + 1
                    rem //= p
    if 1 < rem < TRIAL_LIMIT * TRIAL_LIMIT:
        # rem has no prime factor up to its square root, so it is prime
        counts[rem] = counts.get(rem, 0) + 1
        rem = 1
    return counts, rem


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root, Newton iteration on ints."""
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int] | None:
    """(base, k) with base**k == n and k >= 2, or None."""
    for k in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        if (1 << k) > n:
            break
        r = _iroot(n, k)
        if r**k == n:
            return r, k
    return None


def _brent_rho(n: int, deadline: float) -> int | None:
    """A nontrivial factor of composite odd n, or None on budget exhaustion.

    Brent's cycle finder with products of differences accumulated so a
    gcd is only taken once per batch; the polynomial constant is bumped
    whenever a run collapses to the trivial factor.
    """
    c = 1
    while time.monotonic() < deadline:
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        batch = 128
        while g == 1:
            x = y
            for j in range(0, r, batch):
                for _ in range(min(batch, r - j)):
                    y = (y * y + c) % n
                if time.monotonic() >= deadline:
                    return None
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += batch
                if g == 1 and time.monotonic() >= deadline:
                    return None
            r *= 2
        if g == n:
            # batch overshot; replay one step at a time from the saved point
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
        c += 1
    return None


def _split(pieces: list[int], g: int) -> list[int]:
    """Each piece p with 1 < d = gcd(p, g) < p replaced by d and p // d."""
    out = []
    for p in pieces:
        d = math.gcd(p, g)
        out.extend((d, p // d) if 1 < d < p else (p,))
    return out


def factor(n: int, budget: float = DEFAULT_BUDGET, divisors: Iterable[int] = ()) -> Factorization:
    """Factor n within a wall-clock budget in seconds.

    Stage 1 is trial division by every prime below 10**6 (`_trial_divide`),
    run once on n.  Stage 2 cuts the cofactor along `divisors`: each g in
    turn replaces every piece p so far with d = gcd(p, g) and p // d when
    1 < d < p.  Only gcds are used, so any integers are safe there; one
    that shares some but not all primes of a piece saves stage 3 work.
    Stage 3 is Brent rho with recursive splitting on each piece; all emitted
    primes pass is_prime.  Budget exhaustion is not an error, the unsplit
    pieces multiply into the residual and the status degrades to
    "partial".

    >>> factor(2021).factors
    [(43, 1), (47, 1)]

    With no time for rho, a divisor sharing one prime still splits n:

    >>> n = 1000000000039 * 10000000000037
    >>> factor(n, budget=0).status
    'partial'
    >>> factor(n, budget=0, divisors=[3 * 1000000000039]).factors
    [(1000000000039, 1), (10000000000037, 1)]
    """
    if n < 1:
        raise ValueError("factor() wants n >= 1")
    deadline = time.monotonic() + budget
    counts, rem = _trial_divide(n)
    pieces = [rem] if rem > 1 else []
    for g in divisors:
        pieces = _split(pieces, g)
    leftovers: list[int] = []
    stack: list[tuple[int, int]] = [(m, 1) for m in pieces]
    while stack:
        m, mult = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            counts[m] = counts.get(m, 0) + mult
            continue
        pw = _perfect_power(m)
        if pw is not None:
            stack.append((pw[0], mult * pw[1]))
            continue
        d = None
        if time.monotonic() < deadline:
            d = _brent_rho(m, deadline)
        if d is None:
            leftovers.append(m**mult)
            continue
        stack.append((d, mult))
        stack.append((m // d, mult))
    residual = 1
    for m in leftovers:
        residual *= m
    return Factorization(
        factors=sorted(counts.items()),
        residual=residual,
        status="full" if residual == 1 else "partial",
    )
