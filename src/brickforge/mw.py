"""Bounded enumeration of new hits fibre by fibre.

Seeds (points of presumed infinite order, independence never assumed)
come from a direct quartic scan, a stored database, or a file.  All
integer combinations with coefficients up to K, shifted through every
torsion point, are pushed through tau; positive square values lift to
candidate pairs and each candidate is re-certified with exact integer
arithmetic before it may be reported.  Soundness is total, completeness
is not claimed at any bound.

The quartic scan tests M in plain integers over pairs that are admissible
by construction, once the fibre pair has passed `triple_from_pair`; each
pair it finds is checked again by `seeds_from_hits` (`master_norm`) and
`phi` (on the curve) before it becomes a seed.

The `ecq` group law assumes its inputs are on the curve, so points are
checked where they enter: seed file lines in `load_seed_file`, hit pairs
in `fibration.phi`, and each seed and torsion point once per run at the
top of `enumerate_and_certify`; the enumeration then runs unchecked.
Partial sums over coefficient prefixes are shared, so each combination
(the base) costs one addition.  Each torsion shift of a base is then done
in integers: with X = p/d^2, Y = r/d^3 and T integral, the shifted
abscissa is u/D^2 without any gcd, and tau is built from u and D as one
reduced Fraction.  Bases at infinity or above a torsion point take the
ordinary Fraction group law instead.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, isqrt

from .ecq import INFINITY, CurvePoint, add, neg, on_curve, torsion_subgroup
from .fibration import FibreCurve, lift_point, pair_from_tau, phi, quartic_rhs
from .master import (
    EuclidPair, MasterTuple, is_master_hit, master_norm, sigma_canonical, triple_from_pair,
)
from .ntkernel import is_perfect_square, is_square_rational

DIGIT_CAP = 10000  # skip combination points with larger coordinates
_CAP_BITS = int(DIGIT_CAP * 3.3220) + 8


@dataclass
class GeneratorSet:
    fibre: FibreCurve
    points: list[CurvePoint]


@dataclass
class MwStats:
    candidates: int = 0
    lifted: int = 0
    certified: int = 0
    skipped_large: int = 0


@dataclass
class MwRun:
    outputs: list[MasterTuple]
    stats: MwStats
    provenance: str


def naive_quartic_search(c: FibreCurve, height_bound: int) -> list[EuclidPair]:
    """Every admissible (a, b) with a <= bound that is a hit on this fibre."""
    if height_bound < 2:
        raise ValueError("height bound must be at least 2")
    U2, V2, _ = triple_from_pair(EuclidPair(c.m, c.n))
    out = []
    for a in range(2, height_bound + 1):
        for b in range(1 + (a % 2), a, 2):  # opposite parity to a
            if gcd(a, b) != 1:
                continue
            # the coupling norm M of (a, b, m, n); (a, b) is admissible here
            p, q = 2 * a * b * U2, (a * a - b * b) * V2
            M = p * p + q * q
            r = isqrt(M)
            if r * r == M:
                out.append(EuclidPair(a, b))
    return out


def seeds_from_hits(c: FibreCurve, hits, torsion=None) -> GeneratorSet:
    """Map hit pairs onto the cubic and drop anything of finite order."""
    if torsion is None:
        torsion = torsion_subgroup(c)
    torsion_set = set(torsion.points)
    points: list[CurvePoint] = []
    for pair in hits:
        a, b = pair
        q = is_perfect_square(master_norm(MasterTuple(a, b, c.m, c.n)))
        if q is None:
            raise ValueError(f"({a},{b}) is not a hit on fibre ({c.m},{c.n})")
        P = phi(c, Fraction(a, b), Fraction(q, b * b))
        if P in torsion_set or P in points:
            continue
        points.append(P)
    return GeneratorSet(c, points)


def load_seed_file(path, c: FibreCurve, torsion=None) -> GeneratorSet:
    """Seed points from a text file: either `Xn/Xd Yn/Yd` or `t a/b` lines."""
    if torsion is None:
        torsion = torsion_subgroup(c)
    torsion_set = set(torsion.points)
    points: list[CurvePoint] = []
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split("#")[0].split()
            if not tokens:
                continue
            if tokens[0] == "t":
                t = Fraction(tokens[1])
                s = is_square_rational(quartic_rhs(c, t))
                if s is None:
                    raise ValueError(f"{path}:{lineno}: t = {t} is not on a hit")
                P = phi(c, t, s)
            else:
                if len(tokens) != 2:
                    raise ValueError(f"{path}:{lineno}: expected two fields")
                P = CurvePoint(Fraction(tokens[0]), Fraction(tokens[1]))
                if not on_curve(c, P):
                    raise ValueError(f"{path}:{lineno}: point not on fibre ({c.m},{c.n})")
            if P not in torsion_set and P not in points:
                points.append(P)
    return GeneratorSet(c, points)


def _coefficient_vectors(r: int, K: int) -> list[tuple[int, ...]]:
    # graded lex with the leading nonzero entry positive; -v would give
    # the mirror point, whose tau is identical
    vecs = []
    for v in product(range(-K, K + 1), repeat=r):
        nz = [x for x in v if x]
        if nz and nz[0] > 0:
            vecs.append(v)
    vecs.sort(key=lambda v: (sum(abs(x) for x in v), v))
    return vecs


def _too_large(P: CurvePoint) -> bool:
    if P.is_infinity:
        return False
    return max(
        P.X.numerator.bit_length(),
        P.X.denominator.bit_length(),
        P.Y.numerator.bit_length(),
        P.Y.denominator.bit_length(),
    ) > _CAP_BITS


def enumerate_and_certify(g: GeneratorSet, K: int, torsion) -> MwRun:
    """Run the bounded enumeration and keep only re-certified hits."""
    if K < 1:
        raise ValueError("K must be at least 1")
    c = g.fibre
    shifts = []
    for T in torsion.points:
        if not on_curve(c, T):
            raise ValueError(f"torsion point {T} not on fibre ({c.m},{c.n})")
        if T.is_infinity:
            shifts.append((T, None, None))
        elif T.X.denominator != 1 or T.Y.denominator != 1:
            # Nagell-Lutz on this integral model
            raise AssertionError(f"torsion point {T} not integral on fibre ({c.m},{c.n})")
        else:
            shifts.append((T, T.X.numerator, T.Y.numerator))
    multiples = []
    for P in g.points:
        if not on_curve(c, P):
            raise ValueError(f"seed {P} not on fibre ({c.m},{c.n})")
        row = {0: INFINITY}
        for k in range(1, K + 1):
            row[k] = add(c, row[k - 1], P)
        for k in range(1, K + 1):
            row[-k] = neg(c, row[k])
        multiples.append(row)
    prefixes = {(): INFINITY}

    def partial_sum(vec: tuple[int, ...]) -> CurvePoint:
        # extend the longest prefix already summed, keeping every new one
        i = len(vec)
        while vec[:i] not in prefixes:
            i -= 1
        P = prefixes[vec[:i]]
        for j in range(i, len(vec)):
            P = prefixes[vec[:j + 1]] = add(c, P, multiples[j][vec[j]])
        return P

    B, g2, g4 = c.B, 4 * c.gamma**2, 4 * c.gamma**4
    stats = MwStats()
    outputs: list[MasterTuple] = []
    seen: set[MasterTuple] = set()
    for vec in _coefficient_vectors(len(g.points), K):
        base = add(c, partial_sum(vec[:-1]), multiples[-1][vec[-1]])
        if not base.is_infinity:
            p, r, d2 = base.X.numerator, base.Y.numerator, base.X.denominator
            d = isqrt(d2)
            if d * d != d2 or d * d2 != base.Y.denominator:
                raise AssertionError(f"point {base} not in integral form on fibre ({c.m},{c.n})")
            d3 = d * d2
        for T, xT, yT in shifts:
            stats.candidates += 1
            if base.is_infinity or xT is not None and xT * d2 == p:
                R = add(c, base, T)
                if _too_large(R):
                    stats.skipped_large += 1
                    continue
                pair = lift_point(c, R)
            else:
                if xT is None:
                    u, D = p, d
                    if _too_large(base):
                        stats.skipped_large += 1
                        continue
                else:
                    # base + T with X(base + T) = u / D^2, unreduced
                    e = xT * d2 - p
                    N = yT * d3 - r
                    D = d * e
                    pe2 = p * e * e
                    u = N * N - (B + xT) * D * D - pe2
                    # Y(base + T) = (N * (pe2 - u) - r * e^3) / D^3; reduction only
                    # shrinks these bit lengths, so reduce only past the bound
                    bits = max(u.bit_length(), 3 * D.bit_length(),
                               N.bit_length() + max(pe2.bit_length(), u.bit_length()) + 2,
                               r.bit_length() + 3 * e.bit_length() + 1)
                    if bits > _CAP_BITS and _too_large(CurvePoint(
                            Fraction(u, D * D), Fraction(N * (pe2 - u) - r * e**3, D**3))):
                        stats.skipped_large += 1
                        continue
                D2 = D * D
                den = u * u - g4 * D2 * D2  # zero exactly at X = +-2 gamma^2
                pair = pair_from_tau(Fraction(g2 * (u + B * D2) * D2, den) if den else None)
            if pair is None:
                continue
            stats.lifted += 1
            t = MasterTuple(pair.a, pair.b, c.m, c.n)
            if is_master_hit(t) is None:
                raise AssertionError(f"lifted pair {tuple(t)} failed certification")
            stats.certified += 1
            canon = sigma_canonical(t)
            if canon not in seen:
                seen.add(canon)
                outputs.append(canon)
    return MwRun(outputs=outputs, stats=stats, provenance=f"MW-{c.m}-{c.n}")
