"""Admissible tuples, Pythagorean triples, coupling norms and edges.

An admissible pair (a, b) has a > b > 0, gcd(a, b) = 1 and a - b odd;
it generates the primitive triple (a^2 - b^2, 2ab, a^2 + b^2).  Two
such pairs form a tuple (a, b, m, n), and the tuple is a hit when the
coupling norm M = (V1*U2)^2 + (U1*V2)^2 is a perfect square, in which
case the edges x = U1*U2, y = V1*U2, z = U1*V2 form a box with integer
face diagonals.  `_box` is the one derivation of that box and certifies
the hit (dyz is the root of M); `edges`, `row_fields` and `factor_f1`
read it.  A store row's g_scale = gcd(x, y, z) is gcd(U1, U2): the
triples are primitive, so gcd(x, y) = U2 and gcd(x, z) = U1.  `_box`,
`master_norm` and `f1` read the entries as plain ints, each pair gated once.
"""
from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .ntkernel import DEFAULT_BUDGET, Factorization, factor, is_perfect_square


class EuclidPair(NamedTuple):
    a: int
    b: int


class PythTriple(NamedTuple):
    U: int
    V: int
    W: int


class MasterTuple(NamedTuple):
    a: int
    b: int
    m: int
    n: int


class Brick(NamedTuple):
    x: int
    y: int
    z: int
    dxy: int
    dxz: int
    dyz: int | None = None  # present exactly when the tuple is a hit


def pair_fault(x: int, y: int, names: str = "ab") -> str | None:
    """Why (x, y), its slots called `names`, is no admissible pair: the first
    it violates of the orderings, coprimality and parity.  None if it is one."""
    u, v = names
    if x <= y:
        return f"{u} <= {v}"
    if y <= 0:
        return f"{v} <= 0"
    if gcd(x, y) != 1:
        return f"gcd({u},{v}) = {gcd(x, y)}"
    if (x - y) % 2 == 0:
        return f"{u} - {v} even"
    return None


def is_admissible(a: int, b: int, m: int, n: int):
    """(True, None) for an admissible quadruple, else (False, reason): the
    pair_fault of (a, b), else of (m, n), so a fault in each names (a, b)'s."""
    reason = pair_fault(a, b) or pair_fault(m, n, "mn")
    return reason is None, reason


def _pair_entries(a: int, b: int) -> tuple[int, int, int]:
    """(U, V, W) as plain ints: the admissibility gate of every triple and norm."""
    if pair_fault(a, b):
        raise ValueError(f"inadmissible pair ({a}, {b})")
    return a * a - b * b, 2 * a * b, a * a + b * b


def triple_from_pair(p: EuclidPair) -> PythTriple:
    """Primitive Pythagorean triple (a^2 - b^2, 2ab, a^2 + b^2).

    >>> triple_from_pair(EuclidPair(2, 1))
    PythTriple(U=3, V=4, W=5)
    """
    return PythTriple(*_pair_entries(*p))


def triples(t: MasterTuple) -> tuple[PythTriple, PythTriple]:
    """Both triples, each pair gated once."""
    return PythTriple(*_pair_entries(t[0], t[1])), PythTriple(*_pair_entries(t[2], t[3]))


def master_norm(t: MasterTuple) -> int:
    (U1, V1, _), (U2, V2, _) = _pair_entries(t[0], t[1]), _pair_entries(t[2], t[3])
    return (V1 * U2) ** 2 + (U1 * V2) ** 2


def is_master_hit(t: MasterTuple) -> int | None:
    """The exact root of M when M is a perfect square, else None."""
    return is_perfect_square(master_norm(t))


def f1(t: MasterTuple) -> int:
    """The space-diagonal norm (W1*U2)^2 + (U1*V2)^2.  Always odd."""
    (U1, _, W1), (U2, V2, _) = _pair_entries(t[0], t[1]), _pair_entries(t[2], t[3])
    return (W1 * U2) ** 2 + (U1 * V2) ** 2


def f1_divisors(t: MasterTuple) -> tuple[int, ...]:
    """Integers that share factors with f1 for free: (P, E), or (P,) when
    the tuple is no hit.

    P = W1*W2 - V1*V2 divides f1 as a polynomial: f1 = P * (W1*W2 + V1*V2).
    A hit writes f1 as a sum of two squares in two ways, f1 = dxy^2 + z^2
    = x^2 + dyz^2, and then f1 divides (dxy*x + z*dyz) * E with
    E = dxy*x - z*dyz, so gcd(f1, E) is a proper divisor unless f1
    divides one factor (Euler's factoring method).

    >>> t = MasterTuple(55, 48, 44, 9)
    >>> (U1, V1, W1), (U2, V2, W2) = triples(t)
    >>> f1(t) == (W1 * W2 - V1 * V2) * (W1 * W2 + V1 * V2)
    True
    >>> e = edges(t)
    >>> f1(t) == e.dxy ** 2 + e.z ** 2 == e.x ** 2 + e.dyz ** 2 == e.dxz ** 2 + e.y ** 2
    True
    """
    return _f1_and_divisors(t)[1]


def _f1_and_divisors(t: MasterTuple) -> tuple[int, tuple[int, ...]]:
    (U1, V1, W1, U2, V2, W2), (x, _, z, dyz) = _box(t)
    dxy, P = W1 * U2, W1 * W2 - V1 * V2
    return dxy * dxy + z * z, (P,) if dyz is None else (P, dxy * x - z * dyz)


def factor_f1(t: MasterTuple, budget: float = DEFAULT_BUDGET) -> Factorization:
    """f1 factored within `budget` seconds, its cofactor split along
    f1_divisors before p - 1 and ECM (see ntkernel.factor)."""
    value, divisors = _f1_and_divisors(t)
    return factor(value, budget, divisors=divisors)


def _box(t: MasterTuple):
    """The entries (U1, V1, W1, U2, V2, W2) and the box (x, y, z, dyz), dyz
    None when M is no square."""
    (U1, V1, W1), (U2, V2, W2) = _pair_entries(t[0], t[1]), _pair_entries(t[2], t[3])
    y, z = V1 * U2, U1 * V2
    return (U1, V1, W1, U2, V2, W2), (U1 * U2, y, z, is_perfect_square(y * y + z * z))


def row_fields(t: MasterTuple) -> tuple[int, int, int, int, int | None]:
    """x, y, z and g_scale = gcd(U1, U2) of a tuple's store row, then dyz (None for no hit)."""
    (U1, _, _, U2, _, _), (x, y, z, dyz) = _box(t)
    return x, y, z, gcd(U1, U2), dyz


def edges(t: MasterTuple) -> Brick:
    (U1, _, W1, U2, _, W2), (x, y, z, dyz) = _box(t)
    return Brick(x, y, z, W1 * U2, U1 * W2, dyz)


def canonical_expressions(t: MasterTuple) -> list[int]:
    """The ordered list of 29 expressions in (a, b, m, n).

    Six entries repeat the squared-difference abbreviations, so the
    value set is generically of size 23.
    """
    a, b, m, n = t
    (U1, V1, W1), (U2, V2, W2) = triples(t)
    return [
        a, b, m, n,
        a + b, a - b, m + n, m - n,
        a * a + b * b, a * a - b * b, m * m + n * n, m * m - n * n,
        a * b, m * n, 2 * a * b, 2 * m * n,
        W1 * U2, U1 * V2, W1 * V2, V1 * U2, U1 * U2, V1 * V2, W1 * W2,
        U1, V1, W1, U2, V2, W2,
    ]


def parameter_set(t: MasterTuple) -> set[int]:
    """Distinct values of the 29 canonical expressions (size measured,
    not assumed: degenerate tuples collide below 23)."""
    return set(canonical_expressions(t))


def sigma_canonical(t: MasterTuple) -> MasterTuple:
    """Lexicographic minimum of (a,b,m,n) and the slot swap (m,n,a,b)."""
    return MasterTuple(*min(tuple(t), (t.m, t.n, t.a, t.b)))


def _pair_from_triple(U: int, V: int) -> EuclidPair | None:
    # invert U = a^2 - b^2, V = 2ab: a^2 = (W+U)/2, b^2 = (W-U)/2
    W = is_perfect_square(U * U + V * V)
    if W is None or (W + U) % 2:
        return None
    a = is_perfect_square((W + U) // 2)
    b = is_perfect_square((W - U) // 2)
    if a is None or b is None or 2 * a * b != V:
        return None
    return EuclidPair(a, b)


def recover_master_tuple_scaled(x: int, y: int, z: int) -> list[tuple[MasterTuple, int]]:
    """All (tuple, scale) whose edges are scale times (x, y, z) in some
    order.  Closed-form family bricks are primitive while the edges of a
    hit carry an intrinsic common factor, so family output is matched
    through this proportional form; exact edges come out with scale 1.

    Works on ratios: y/x reduces to V1/U1 and z/x to V2/U2 because both
    triples are primitive, so gcd(U1, V1) = gcd(U2, V2) = 1.  With exact
    input edges the scale comes out 1 and the first division is just
    U2 = gcd(x, y).
    """
    if min(x, y, z) <= 0:
        return []
    out: list[tuple[MasterTuple, int]] = []
    for xi in range(3):
        exs = [x, y, z]
        ex = exs.pop(xi)
        for ey, ez in (exs, exs[::-1]):
            d1 = gcd(ex, ey)
            u1, v1 = ex // d1, ey // d1
            d2 = gcd(ex, ez)
            u2, v2 = ex // d2, ez // d2
            p1 = _pair_from_triple(u1, v1)
            p2 = _pair_from_triple(u2, v2)
            if p1 is None or p2 is None:
                continue
            t = MasterTuple(p1.a, p1.b, p2.a, p2.b)
            if not is_admissible(*t)[0]:
                continue
            e = edges(t)
            if e.x % ex or (e.x // ex) * ey != e.y or (e.x // ex) * ez != e.z:
                continue
            rec = (t, e.x // ex)
            if rec not in out:
                out.append(rec)
    return out
