"""Integer utilities and the staged factorization engine.

Plain Python ints throughout.  The factor() pipeline has three stages:
trial division by primes below 10**5 (one gcd per run of 256 primes),
a divisor split (the cofactor is cut by its gcds with integers the
caller knows to share factors with it, such as the two free divisors of
f1 in master.f1_divisors), then on each piece the elliptic curve method
(ECM, Lenstra; Montgomery curves and stage 2 after Montgomery 1987),
curve after curve until the deadline.  Whatever survives the time
budget is returned as a composite residual and the result is marked
partial instead of raising.
"""
from __future__ import annotations

import functools
import math
import time
from array import array
from bisect import bisect_right
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress

TRIAL_LIMIT = 10**5  # ECM finds the primes above it (see factor)
DEFAULT_BUDGET = 600.0  # seconds, per factored integer
_ECM_B1 = 200
_ECM_B2 = 20_000
_ECM_D = 210  # giant step of stage 2, 2*3*5*7

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
    """Baillie-PSW: Miller-Rabin to base 2, then the strong Lucas test.

    Deterministic below 2**64: Gilchrist (2009) ran the strong Lucas test
    on Feitsma's complete list of base-2 strong pseudoprimes below 2**64,
    and none passes it.  Above 2**64 a probable-prime answer, with no
    known counterexample."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
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


_BLOCK = 256  # trial primes per gcd


@functools.cache
def _trial_primes() -> array:
    """The primes below TRIAL_LIMIT as 4-byte machine ints, also the primes
    of ECM's stage 2: a list of int objects would hold nine times the
    memory for the life of the process."""
    sieve = bytearray([1]) * TRIAL_LIMIT
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(TRIAL_LIMIT) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes((TRIAL_LIMIT - 1 - i * i) // i + 1)
    return array("I", compress(range(TRIAL_LIMIT), sieve))


@functools.cache
def _trial_blocks() -> list[tuple[int, int]]:
    """The product of each run of _BLOCK trial primes, with the index of its first prime."""
    primes = _trial_primes()
    return [(math.prod(primes[i:i + _BLOCK]), i) for i in range(0, len(primes), _BLOCK)]


def _trial_divide(n: int) -> tuple[dict[int, int], int]:
    """Stage 1 of factor(): the primes below TRIAL_LIMIT (10**5) with their
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


@functools.cache
def _ecm_tables() -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
    """The bits of k = prod p**floor(log_p B1) after the leading one, in runs
    of 16, and for each giant step i = 1, 2, ... the baby steps j < D/2 with
    i*D +- j a prime in (B1, B2], each as j // 2 (one j serves both signs,
    as x(jQ) = x(-jQ))."""
    primes = _trial_primes()
    lo, hi = bisect_right(primes, _ECM_B1), bisect_right(primes, _ECM_B2)
    k = 1
    for p in primes[:lo]:
        q = p
        while q * p <= _ECM_B1:
            q *= p
        k *= q
    bits = bin(k)[3:]
    # B1 >= D/2, so every prime in (B1, B2] is i*D +- j with i >= 1
    giants: list[set[int]] = [set() for _ in range((_ECM_B2 + _ECM_D // 2) // _ECM_D)]
    for q in primes[lo:hi]:
        i, j = divmod(q, _ECM_D)
        if j > _ECM_D // 2:
            i, j = i + 1, _ECM_D - j
        giants[i - 1].add(j // 2)
    return (tuple(bits[i:i + 16] for i in range(0, len(bits), 16)),
            tuple(tuple(sorted(g)) for g in giants))


def _xdbl(n: int, x: int, z: int, a24: int) -> tuple[int, int]:
    """2P on a Montgomery curve in x:z coordinates, a24 = (A + 2) / 4."""
    s = (x + z) ** 2 % n
    d = (x - z) ** 2 % n
    t = s - d
    return s * d % n, t * (d + a24 * t) % n


def _xadd(n: int, xp: int, zp: int, xq: int, zq: int, xd: int, zd: int) -> tuple[int, int]:
    """P + Q in x:z coordinates, given their difference (xd:zd)."""
    u = (xp - zp) * (xq + zq) % n
    w = (xp + zp) * (xq - zq) % n
    return zd * (u + w) ** 2 % n, xd * (u - w) ** 2 % n


def _ecm_stage2(n: int, x: int, z: int, a24: int, deadline: float) -> list[int] | None:
    """The product of X_G*Z_j - X_j*Z_G over the baby steps jQ and giant
    steps G = iDQ with i*D +- j a prime in (B1, B2], for Q = (x:z), as it
    stands after each giant step; a prime p of n divides the last when the
    order of Q mod p is such a prime.  None when the deadline passes."""
    giants = _ecm_tables()[1]
    x2, z2 = _xdbl(n, x, z, a24)
    odd = [(x, z), _xadd(n, x2, z2, x, z, x, z)]  # (2i + 1) Q
    while len(odd) <= _ECM_D // 4:
        if len(odd) % 16 == 0 and time.monotonic() >= deadline:
            return None
        (xa, za), (xb, zb) = odd[-2:]
        odd.append(_xadd(n, xb, zb, x2, z2, xa, za))
    xr, zr = _xdbl(n, *odd[-1], a24)  # D Q = 2 (D/2) Q
    xg, zg, xh, zh = xr, zr, *_xdbl(n, xr, zr, a24)  # iDQ and (i + 1)DQ, i = 1
    acc, products = 1, []
    for i, near in enumerate(giants):
        if i % 4 == 0 and time.monotonic() >= deadline:
            return None
        for b in near:
            xj, zj = odd[b]
            acc = acc * (xg * zj - xj * zg) % n
        products.append(acc)
        xg, zg, xh, zh = xh, zh, *_xadd(n, xh, zh, xr, zr, xg, zg)
    return products


def _ecm(n: int, deadline: float) -> int | None:
    """A nontrivial factor of n, odd, composite and not a prime power, or
    None when the deadline passes.

    One curve per sigma = 6, 7, 8, ...: Suyama's parametrisation of a
    Montgomery curve, whose group order is divisible by 12; stage 1 is an
    x:z Montgomery ladder for kP, one `_xadd` and one `_xdbl` per bit of k,
    stage 2 is `_ecm_stage2`.  When the stage-2 product holds every prime
    of n, the product after the first giant step that shares a factor with
    n separates primes caught at different giant steps.  Any other gcd
    equal to n moves on to the next sigma.
    """
    chunks = _ecm_tables()[0]
    sigma = 5
    while time.monotonic() < deadline:
        sigma += 1
        u, v = sigma * sigma - 5, 4 * sigma
        # one inverse gives x0 = u^3 / v^3 and a24 = (v - u)^3 (3u + v) / (16 u^3 v)
        den = 16 * u**3 * v**3 % n
        g = math.gcd(den, n)
        if g > 1:
            if g < n:
                return g
            continue
        inv = pow(den, -1, n)
        x0 = 16 * u**6 * inv % n
        a24 = (v - u) ** 3 * (3 * u + v) * v * v * inv % n
        # stage 1: R = P, S = 2P; each bit keeps S - R = P
        x, z = x0, 1
        x1, z1 = _xdbl(n, x0, 1, a24)
        for chunk in chunks:
            for bit in chunk:
                if bit == "1":
                    x, z, x1, z1 = *_xadd(n, x, z, x1, z1, x0, 1), *_xdbl(n, x1, z1, a24)
                else:
                    x, z, x1, z1 = *_xdbl(n, x, z, a24), *_xadd(n, x, z, x1, z1, x0, 1)
            if time.monotonic() >= deadline:
                return None
        g = math.gcd(z, n)
        if g == 1:
            products = _ecm_stage2(n, x, z, a24, deadline)
            if products is None:
                return None
            g = math.gcd(products[-1], n)
            if g == n:  # every prime caught: the first giant step that catches one
                g = next(h for h in (math.gcd(acc, n) for acc in products) if h > 1)
        if 1 < g < n:
            return g
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

    Stage 1 is trial division by every prime below TRIAL_LIMIT = 10**5
    (`_trial_divide`), run once on n.  Stage 2 cuts the cofactor along
    `divisors`: each g in turn replaces every piece p so far with
    d = gcd(p, g) and p // d when 1 < d < p.  Only gcds are used, so any
    integers are safe there; one that shares some but not all primes of a
    piece saves stage 3 work.  Stage 3 splits each composite piece that is
    not a perfect power, recursively, by ECM until the deadline (`_ecm`),
    with B1 = 200, B2 = 20,000 and giant step D = 210.  All emitted primes
    pass is_prime.  Budget exhaustion is not an error, the unsplit pieces
    multiply into the residual and the status degrades to "partial".

    The constants balance one another at the cost of a modular operation
    in Python.  One ECM curve costs about 3 ms on a 150-bit piece and
    finds a prime below 10**6 within a curve or two, so trial division
    stops at 10**5: above that a prime is cheaper to find in the pieces
    that hold it than to divide out of every n.  With B1 = 200 and
    B2 = 100 B1, one curve finds a prime of 10-11 digits about one time in
    ten and one of 13 digits about one time in a hundred, and a 0.05 s
    budget runs about fifteen curves; bounds from 150 to 300 for B1 gave
    the same number of full results on the factor-audit store.

    >>> factor(2021).factors
    [(43, 1), (47, 1)]

    ECM splits two primes of 13 and 14 digits:

    >>> factor(1000000000039 * 10000000000037).factors
    [(1000000000039, 1), (10000000000037, 1)]

    With no time for ECM, a divisor sharing one prime still splits n:

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
    residual = 1
    stack: list[tuple[int, int]] = [(m, 1) for m in pieces]
    while stack:
        m, mult = stack.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + mult
            continue
        pw = _perfect_power(m)
        if pw is not None:
            stack.append((pw[0], mult * pw[1]))
            continue
        d = _ecm(m, deadline)
        if d is None:
            residual *= m**mult
            continue
        stack.append((d, mult))
        stack.append((m // d, mult))
    return Factorization(
        factors=sorted(counts.items()),
        residual=residual,
        status="full" if residual == 1 else "partial",
    )
