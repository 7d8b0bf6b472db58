"""Integer utilities and the staged factorization engine.

Plain Python ints throughout.  The factor() pipeline has four stages:
trial division by primes below 10**5 (one gcd per run of 256 primes),
a divisor split (the cofactor is cut by its gcds with integers the
caller knows to share factors with it, such as the two free divisors of
f1 in master.f1_divisors), one Pollard p - 1 pass on each piece, then
the elliptic curve method (ECM, Lenstra; Montgomery curves) until the
deadline; both end in one stage-2 product after Montgomery (1987), on
affine points.  Whatever survives the time budget is returned as a
composite residual and the result is marked partial instead of raising.
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
from itertools import accumulate, compress

TRIAL_LIMIT = 10**5  # ECM finds the primes above it (see factor)
DEFAULT_BUDGET = 600.0  # seconds, per factored integer
_ECM_B1 = 200
_ECM_B2 = 20_000
_ECM_D = 210  # giant step of stage 2, 2*3*5*7
_PM1_B1 = 2_000  # p - 1 shares ECM's stage 2

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
    rn, rd = is_perfect_square(q.numerator), is_perfect_square(q.denominator)
    return None if rn is None or rd is None else Fraction(rn, rd)


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
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    x = pow(a, (n - 1) >> s, n)
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
    # the primes factor() proved, none when built by hand; equality ignores it
    proved: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def product(self) -> int:
        return self.residual * math.prod(p**e for p, e in self.factors)


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


def _perfect_power(m: int) -> tuple[int, int] | None:
    """(base, k) with base**k == m and k prime, or None, for m with no prime
    factor below TRIAL_LIMIT (a piece of factor()): its base is at least
    TRIAL_LIMIT, so only the k with TRIAL_LIMIT**k <= m can hold."""
    r = math.isqrt(m)
    if r * r == m:
        return r, 2
    for k in _trial_primes()[1:]:
        if TRIAL_LIMIT**k > m:
            break
        r = _iroot(m, k)
        if r**k == m:
            return r, k
    return None


@functools.cache
def _ecm_tables() -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The bits of k = prod p**floor(log_p B1) after the leading one, in runs
    of 16; for each giant step i = 1, 2, ... the baby steps j < D/2 with
    i*D +- j a prime in (B1, B2], each as j // 2 (one j serves both signs,
    as x(jQ) = x(-jQ) and V_j = V_-j); and k of p - 1, for its B1 = 2,000,
    as products of runs of 32 prime powers (about 300 bits)."""
    primes = _trial_primes()

    def powers(bound: int) -> list[int]:  # q**floor(log_q bound), q <= bound
        return [max(q**e for e in range(1, bound.bit_length()) if q**e <= bound)
                for q in primes[:bisect_right(primes, bound)]]

    bits = bin(math.prod(powers(_ECM_B1)))[3:]
    pm1 = powers(_PM1_B1)
    # B1 >= D/2, so every prime in (B1, B2] is i*D +- j with i >= 1
    giants: list[set[int]] = [set() for _ in range((_ECM_B2 + _ECM_D // 2) // _ECM_D)]
    for q in primes[bisect_right(primes, _ECM_B1):bisect_right(primes, _ECM_B2)]:
        i, j = divmod(q, _ECM_D)
        if j > _ECM_D // 2:
            i, j = i + 1, _ECM_D - j
        giants[i - 1].add(j // 2)
    return (tuple(bits[i:i + 16] for i in range(0, len(bits), 16)),
            tuple(tuple(sorted(g)) for g in giants),
            tuple(math.prod(pm1[i:i + 32]) for i in range(0, len(pm1), 32)))


def _pair_products(n: int, babies: list[int], giants: list[int], deadline: float) -> list[int] | None:
    """Stage 2 of p - 1 and ECM: the product of giants[i] - babies[b] over
    the pairs of `_ecm_tables` after each giant step i, or None at the deadline."""
    acc, products = 1, []
    for i, (g, near) in enumerate(zip(giants, _ecm_tables()[1])):
        if i % 4 == 0 and time.monotonic() >= deadline:
            return None
        for b in near:
            acc = acc * (g - babies[b]) % n
        products.append(acc)
    return products


def _caught(products: list[int], n: int) -> int:
    """gcd(products[-1], n), or when that is n the first gcd > 1 of a
    product with n, which separates primes caught at different steps."""
    g = math.gcd(products[-1], n)
    if g == n:
        g = next(h for h in (math.gcd(acc, n) for acc in products) if h > 1)
    return g


def _pm1(n: int, deadline: float) -> int | None:
    """A nontrivial factor of n, composite and free of the primes below
    TRIAL_LIMIT, by Pollard p - 1, or None (none found, or the deadline).

    Stage 1 takes gcd(x - 1, n), x = 3**k with k of `_ecm_tables`, the
    clock read after each run (`_caught` splits primes caught in different
    runs when that gcd is n).  Stage 2 takes `_pair_products` of V_m =
    x**m + x**-m, as V_iD - V_j = x**-iD (x**(iD+j) - 1) (x**(iD-j) - 1):
    it finds p when p - 1 is 2,000-smooth times one prime up to 20,000."""
    x, runs = 3, []
    for e in _ecm_tables()[2]:
        x = pow(x, e, n)
        runs.append(x - 1)
        if time.monotonic() >= deadline:
            return None
    g = _caught(runs, n)
    if g == 1:
        v1 = (x + pow(x, -1, n)) % n
        v2 = (v1 * v1 - 2) % n
        babies = [v1, (v1 * v2 - v1) % n]  # V_(2b+1), V_-1 = V_1
        while len(babies) <= _ECM_D // 4:
            babies.append((babies[-1] * v2 - babies[-2]) % n)
        vd = (babies[-1] ** 2 - 2) % n  # V_D = V_(D/2)^2 - 2
        giants = [vd, (vd * vd - 2) % n]
        while len(giants) < len(_ecm_tables()[1]):
            giants.append((giants[-1] * vd - giants[-2]) % n)
        products = _pair_products(n, babies, giants, deadline)
        if products is None:
            return None
        g = _caught(products, n)
    return g if 1 < g < n else None


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
    """The `_pair_products` of the affine x of the giant steps iDQ and baby
    steps jQ, Q = (x:z): x_G - x_j is X_G*Z_j - X_j*Z_G over the unit
    Z_G*Z_j, so a prime p of n divides the last when the order of Q mod p
    is a prime in (B1, B2].  Montgomery's simultaneous inversion takes the
    x:z points to z = 1, three reductions a point, the clock read every 16
    on the way back; the product of the z's alone if it is no unit mod n.
    None when the deadline passes."""
    babies, steps = _ECM_D // 4 + 1, len(_ecm_tables()[1])
    x2, z2 = _xdbl(n, x, z, a24)
    points = [(x, z), _xadd(n, x2, z2, x, z, x, z)]  # (2b + 1) Q, then iDQ
    step = x2, z2
    while len(points) < babies + steps:
        if len(points) == babies:
            step = _xdbl(n, *points[-1], a24)  # D Q = 2 (D/2) Q
            points += [step, _xdbl(n, *step, a24)]
        elif len(points) % 16 == 0 and time.monotonic() >= deadline:
            return None
        else:
            (xa, za), (xb, zb) = points[-2:]
            points.append(_xadd(n, xb, zb, *step, xa, za))
    prefix = list(accumulate((z for _, z in points), lambda a, b: a * b % n, initial=1))
    if math.gcd(prefix[-1], n) > 1:
        return [prefix[-1]]
    inv = pow(prefix[-1], -1, n)  # 1 / (z_0 ... z_i) as i falls
    affine = [0] * len(points)
    for i in range(len(points) - 1, -1, -1):
        if i % 16 == 0 and time.monotonic() >= deadline:
            return None
        affine[i] = points[i][0] * inv * prefix[i] % n
        inv = inv * points[i][1] % n
    return _pair_products(n, affine[:babies], affine[babies:], deadline)


def _ecm(n: int, deadline: float) -> int | None:
    """A nontrivial factor of n, odd, composite and not a prime power, or
    None when the deadline passes.

    One curve per sigma = 6, 7, 8, ...: Suyama's parametrisation of a
    Montgomery curve, whose group order is divisible by 12; stage 1 is an
    x:z Montgomery ladder for kP, one `_xadd` and one `_xdbl` per bit of k,
    stage 2 is `_ecm_stage2`, whose products `_caught` reads.  Any gcd
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
            g = _caught(products, n)
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
    integers are safe there.  Each composite piece that is not a perfect
    power then gets one Pollard p - 1 pass (`_pm1`) if the deadline has
    not passed, then ECM curves until it does (`_ecm`, B1 = 200,
    B2 = 20,000, D = 210), recursively on the parts.  All emitted primes
    pass is_prime.  Budget exhaustion is not an error, the unsplit pieces
    multiply into the residual and the status degrades to "partial".

    The constants balance one another at the cost of a modular operation
    in Python.  On a 2-CPU host, one ECM curve costs 3-6 ms at 100-200
    bits and 10-22 ms at 400-600, and finds a prime below 10**6 within a
    curve or two, so trial division stops at 10**5.  One curve finds a
    prime of 10-11 digits about one time in ten and one of 13 digits about
    one time in a hundred.  A p - 1 pass costs about 0.6 of a curve; on
    the factor-audit store it splits 272 of the 491 pieces it meets, 182
    of them in stage 1.

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
    # (piece, exponent, fresh): p - 1 skips a part of a split, as mod the
    # part it computes the same x and products, catching the same primes
    stack = [(m, 1, True) for m in pieces]
    while stack:
        m, mult, fresh = stack.pop()
        if is_prime(m):
            counts[m] = counts.get(m, 0) + mult
            continue
        pw = _perfect_power(m)
        if pw is not None:
            stack.append((pw[0], mult * pw[1], fresh))
            continue
        d = _pm1(m, deadline) if fresh and time.monotonic() < deadline else None
        if d is None:
            d = _ecm(m, deadline)
        if d is None:
            residual *= m**mult
            continue
        stack.append((d, mult, False))
        stack.append((m // d, mult, False))
    return Factorization(
        factors=sorted(counts.items()),
        residual=residual,
        status="full" if residual == 1 else "partial",
        proved=tuple(counts),
    )
