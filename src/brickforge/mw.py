"""Bounded enumeration of new hits fibre by fibre.

Seeds (points of presumed infinite order, independence never assumed)
come from a direct quartic scan, a stored database, or a file.  All
integer combinations with coefficients up to K, shifted through every
torsion point, are pushed through tau; positive square values lift to
candidate pairs and each distinct pair is re-certified with exact integer
arithmetic before it may be reported.  Soundness is total, completeness
is not claimed at any bound.

The quartic scan looks for the admissible (a, b) with a <= H whose
coupling norm M(a, b) = (2 a b U2)^2 + ((a^2 - b^2) V2)^2 is a square,
with the residue sieve of Stoll's ratpoints.  M is homogeneous of degree
4, so for an odd prime l and b not divisible by l, M(a, b) = b^4 M(a/b, 1)
is a square mod l (0 counts as one) exactly when M(r, 1) is, r = a/b mod
l.  The ratios r that pass give, for each class of b mod l, a mask over
a in [0, H]: bit a is set when a/b mod l passes, and every bit is set for
b divisible by l, where M = a^4 V2^2.  A square M is a square mod every
l, so ANDing the masks of a few primes with the parity and range masks
drops no hit, and each a that survives still gets gcd and the exact
`isqrt` test.  The pairs it finds are checked again by `seeds_from_hits`
(`master_norm`) and `phi` (on the curve) before they become seeds.

The `ecq` group law assumes its inputs are on the curve, so points are
checked where they enter: seed file lines in `load_seed_file`, hit pairs
in `fibration.phi`, and each seed once per run at the top of
`enumerate_and_certify`; the enumeration then runs unchecked.  The walk
reads the eight torsion points from `ecq.torsion_subgroup` itself.
The walk works on the reduced integers (p, r, d) of X = p/d^2 and
Y = r/d^3.  Partial sums over coefficient prefixes are shared, so each
combination (the base) costs one chord or tangent in integers
(`ecq._sum`, one gcd).  Each torsion shift of a base is the unreduced
sum u/D^2, w/D^3 (`ecq._raw_sum`), and its lift is read from the root
2 gamma (u + B D^2) D / w of tau (`fibration.lift_pairs`, one gcd).
Only one shift per coset of E[2] = {O, (e1,0), (e2,0), (e3,0)} is
computed, by T0, the coset's first point without the flag in the table
of `ecq.torsion_subgroup`: tau(base + T) is tau(base + T0) or, where T
has the flag, its inverse, so one root decides the lifts of all four
translates.  A base at infinity or above a torsion point, where the
shift is undefined, is itself torsion, so none of its translates lifts.
A base past the size cap is skipped with all of its translates.
Each distinct lifted pair is certified once per run, and output then: on
one fibre a pair names one sigma-canonical tuple, and distinct pairs
distinct ones.

The seeds are dependent, so many coefficient vectors land on one point
(8,403 vectors on 2,312 points on (22,17) at H=80, K=3).  The walk keeps
the integer relations it proves itself: a base at infinity gives its
vector w, and a base on a torsion point gives k w, where k is its
order in Z/2 x Z/4, read from its triple: 2 where Y = 0, else 4.  They
form an echelon basis (`_add_relation`, Euclid's algorithm at the pivots
as for the Hermite normal form), and a vector's key is its reduction by
it (`_reduce`), so equal keys are equal points.  The first vector of a
key is summed, lifted and certified as above; a later one adds its
stored number of lifts, or of skipped translates, to the counts and
appends nothing.  So `candidates`, `lifted`, `certified` and
`skipped_large` count the vectors of the box times the torsion points,
not the work done, and the outputs keep their order.  Points are not
merged up to a torsion translate or a sign, because the size cap is
tested per point.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, cycle, islice, repeat
from math import gcd, isqrt
from operator import and_, itemgetter, lshift, sub

from .ecq import (  # no call to add here: perfbench's wrapper test reads mw.add
    CurvePoint, _raw_sum, _sum, _triple, add, on_curve, torsion_subgroup,
)
from .fibration import FibreCurve, lift_pairs, phi, quartic_rhs
from .master import (
    EuclidPair, MasterTuple, is_master_hit, master_norm, sigma_canonical, triple_from_pair,
)
from .ntkernel import is_perfect_square, is_square_rational

DIGIT_CAP = 10000  # skip combination points with larger coordinates and their translates
MAX_BOX = 10 ** 6  # refuse a walk over more coefficient vectors than this
_CAP_BITS = DIGIT_CAP * 33220 // 10000 + 8  # log2(10) < 3.3220


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
    """Every admissible (a, b) with a <= bound that is a hit on this fibre,
    sorted by (a, b).

    The candidates a of each b are the set bits of one int: a of parity
    opposite to b and b < a <= H, ANDed with the sieve mask of b's class
    for each odd prime 5 <= l < 5 * H.bit_length() (3 never sieves: r = 0
    and r = +-1 always pass, as M(0, 1) = V2^2 and M(1, 1) = 4 U2^2).  The
    masks of l are built per call in O(l) steps: the passing ratios as a
    string of digits, one slice of it per pair of classes +-b, read as one
    int in base 2 and repeated over [0, H] by one product.  A prime that
    passes every ratio, as every prime of U2 V2 does, is left out.  The
    bound on l balances the O(l) set-up of a prime against the gcd and
    `isqrt` it saves; the best bounds measured at H = 60, 150, 600 and
    3,000 were about 20-30, 30-40, 45 and 55-60.  The rows of b are
    ANDed a block at a time, about 2^21 bits of them, so memory grows with
    H times the primes' sum, not with H^2.
    """
    if height_bound < 2:
        raise ValueError("height bound must be at least 2")
    U2, V2, _ = triple_from_pair(EuclidPair(c.m, c.n))
    H = height_bound
    u, v = 4 * U2 * U2, V2 * V2
    sieves = []
    for l in range(5, 5 * H.bit_length(), 2):
        if not all(l % q for q in range(3, isqrt(l) + 1, 2)):
            continue
        squares = {x * x % l for x in range(l // 2 + 1)}
        # M(r, 1) = 4 r^2 U2^2 + (r^2 - 1)^2 V2^2 is even in r
        half = bytes(48 + ((r * r * u + (r * r - 1) ** 2 * v) % l in squares)
                     for r in range(l // 2 + 1))
        if b"0" not in half:
            continue
        digits = (half + half[:0:-1]) * l  # digits[i]: "1" when i mod l passes
        repeats = ((1 << l * (H // l + 1)) - 1) // ((1 << l) - 1)  # bits at multiples of l
        masks = [-1] * l
        for beta in range(1, l // 2 + 1):
            # bit a is digits[a / beta mod l]; the class -beta has the same mask
            g = pow(beta, -1, l)
            masks[beta] = masks[l - beta] = int(digits[(l - 1) * g::-g], 2) * repeats
        sieves.append((l, masks))
    evens = ((1 << 2 * (H // 2 + 1)) - 1) // 3  # the even a in [0, H]
    odds = evens << 1 & ((1 << (H + 1)) - 1)
    step = 2 * max(1, (1 << 20) // H)  # even, so each block starts at an odd b
    out = []
    for start in range(1, H, step):
        bs = range(start, min(start + step, H))
        # the a of opposite parity with b < a <= H, for each b in the block
        rows = list(map(and_, cycle((evens, odds)),
                        map(lshift, repeat(-1), range(start + 1, bs.stop + 1))))
        for l, masks in sieves:
            rows = list(map(and_, rows, islice(cycle(masks), start % l, None)))
        for b, row in compress(zip(bs, rows), rows):
            while row:
                low = row & -row
                a = low.bit_length() - 1
                row ^= low
                if gcd(a, b) != 1:
                    continue
                # the coupling norm M of (a, b, m, n); (a, b) is admissible here
                p, q = 2 * a * b * U2, (a * a - b * b) * V2
                M = p * p + q * q
                r = isqrt(M)
                if r * r == M:
                    out.append(EuclidPair(a, b))
    out.sort()
    return out


def seeds_from_hits(c: FibreCurve, hits) -> list[CurvePoint]:
    """Map hit pairs onto the cubic, each distinct point once; no hit maps
    to a torsion point (`ecq.torsion_subgroup`)."""
    points: list[CurvePoint] = []
    for a, b in hits:
        q = is_perfect_square(master_norm(MasterTuple(a, b, c.m, c.n)))
        if q is None:
            raise ValueError(f"({a},{b}) is not a hit on fibre ({c.m},{c.n})")
        P = phi(c, Fraction(a, b), Fraction(q, b * b))
        if P not in points:
            points.append(P)
    return points


def load_seed_file(path, c: FibreCurve) -> list[CurvePoint]:
    """Seed points from a text file: either `Xn/Xd Yn/Yd` or `t a/b` lines;
    torsion points are dropped, and a bad line raises ValueError naming it."""
    torsion = torsion_subgroup(c).points
    points: list[CurvePoint] = []
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split("#")[0].split()
            if not tokens:
                continue
            if len(tokens) != 2:
                raise ValueError(f"{path}:{lineno}: expected two fields")
            try:
                values = [Fraction(tok) for tok in (tokens[1:] if tokens[0] == "t" else tokens)]
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"{path}:{lineno}: expected fractions a/b with b != 0") from None
            if tokens[0] == "t":
                t = values[0]
                s = is_square_rational(quartic_rhs(c, t))
                if s is None:
                    raise ValueError(f"{path}:{lineno}: t = {t} is not on a hit")
                try:
                    P = phi(c, t, s)
                except ValueError as err:  # t = 0
                    raise ValueError(f"{path}:{lineno}: {err}") from None
            else:
                P = CurvePoint(*values)
                if not on_curve(c, P):
                    raise ValueError(f"{path}:{lineno}: point not on fibre ({c.m},{c.n})")
            if P not in torsion and P not in points:
                points.append(P)
    return points


def _coefficient_vectors(r: int, K: int) -> list[tuple[int, ...]]:
    # graded lex (by the sum of |entries|, then lexicographic) with the
    # leading nonzero entry positive; -v would give the mirror point,
    # whose tau is identical.  Built in that order with no sort, one
    # length at a time from the last entry: signed[s] holds the vectors of
    # sum s in lex order, lead[s] those whose leading nonzero entry is
    # positive (and the zero vector), each made by putting x = -K..K (or
    # 0..K) in front of the shorter vectors of sum s - |x|.
    signed: dict[int, list[tuple[int, ...]]] = {0: [()]}
    lead = signed
    for length in range(1, r + 1):
        sums = range(length * K + 1)
        lead = {s: [(x, *v) for x in range(K + 1)
                    for v in (lead if x == 0 else signed).get(s - x, ())] for s in sums}
        if length < r:
            signed = {s: [(x, *v) for x in range(-K, K + 1)
                          for v in signed.get(s - abs(x), ())] for s in sums}
    return [v for s in range(1, r * K + 1) for v in lead[s]]


def _reduce(basis, v: tuple[int, ...]) -> tuple[int, ...]:
    """v reduced by an echelon basis: a list of (pivot, row), pivots
    increasing, each row zero before its pivot and positive there.  Each
    pivot entry of the result lies in [0, row[pivot]), so two vectors that
    differ by a lattice vector reduce to the same one.

    >>> basis = [(0, (2, 1, 0)), (1, (0, 3, 6))]
    >>> _reduce(basis, (5, 2, 1))
    (1, 0, 1)
    >>> _reduce(basis, (5, 2, 1)) == _reduce(basis, (5 - 2, 2 - 1 + 3, 1 + 6))
    True
    """
    for p, row in basis:
        q = v[p] // row[p]
        if q:
            v = tuple(x - q * y for x, y in zip(v, row))
    return v


def _add_relation(basis, w: tuple[int, ...]) -> bool:
    """Put w into the lattice of the echelon basis, in place (Euclid's
    algorithm on the rows that meet at a pivot, as for the Hermite normal
    form); False when w was already in it."""
    w = _reduce(basis, w)
    if not any(w):
        return False
    while any(w):
        p = next(i for i, x in enumerate(w) if x)
        j = next((j for j, (q, _) in enumerate(basis) if q == p), None)
        if j is None:
            basis.append((p, w if w[p] > 0 else tuple(-x for x in w)))
            basis.sort()
            break
        row = basis[j][1]  # 0 < w[p] < row[p] after the reduction
        while w[p]:
            q = row[p] // w[p]
            row, w = w, tuple(x - q * y for x, y in zip(row, w))
        basis[j] = (p, row)
        w = _reduce(basis, w)
    return True


def enumerate_and_certify(c: FibreCurve, seeds: list[CurvePoint], K: int) -> MwRun:
    """Run the bounded enumeration over the seeds and every torsion point
    of the fibre, and keep only re-certified hits.  A box of more than
    MAX_BOX coefficient vectors is refused before anything is built."""
    if K < 1:
        raise ValueError("K must be at least 1")
    box = ((2 * K + 1) ** len(seeds) - 1) // 2
    if box > MAX_BOX:
        raise ValueError(f"the walk over {len(seeds)} seeds at K={K} has {box:,} coefficient "
                         f"vectors, above the {MAX_BOX:,} allowed")
    torsion = torsion_subgroup(c)
    shifts = [_triple(T) for T in torsion.points]
    torsion_xs = {T[0] for T in shifts if T is not None}
    reps: dict[int, tuple[int, int, int] | None] = {}  # coset -> T0, O for E[2]
    for T, (k, inverted) in zip(shifts, torsion.cosets):
        if not inverted:
            reps.setdefault(k, T)
    multiples = []
    for P in seeds:
        if not on_curve(c, P):
            raise ValueError(f"seed {P} not on fibre ({c.m},{c.n})")
        P = _triple(P)
        row = {0: None}
        for k in range(1, K + 1):
            row[k] = _sum(c, row[k - 1], P)
        for k in range(1, K + 1):
            R = row[k]
            row[-k] = None if R is None else (R[0], -R[1], R[2])
        multiples.append(row)
    prefixes = {(): None}

    def partial_sum(vec: tuple[int, ...]):
        # extend the longest prefix already summed, keeping every new one
        i = len(vec)
        while vec[:i] not in prefixes:
            i -= 1
        P = prefixes[vec[:i]]
        for j in range(i, len(vec)):
            P = prefixes[vec[:j + 1]] = _sum(c, P, multiples[j][vec[j]])
        return P

    relations: list = []  # echelon basis of the proven relations, see `_reduce`
    known: dict[tuple[int, ...], int] = {}  # key -> pairs lifted, or -1 past the cap
    pivots = corrections = None
    stats = MwStats()
    outputs: list[MasterTuple] = []
    certified: set[EuclidPair] = set()
    for vec in _coefficient_vectors(len(seeds), K):
        stats.candidates += len(shifts)
        key = vec
        if relations:  # v - _reduce(relations, v) depends only on v at the pivots
            at = pivots(vec)
            offset = corrections.get(at)
            if offset is None:
                offset = corrections[at] = tuple(map(sub, vec, _reduce(relations, vec)))
            key = tuple(map(sub, vec, offset))
        count = known.get(key)
        if count is not None:  # the same point as an earlier vector
            if count < 0:
                stats.skipped_large += len(shifts)
            else:
                stats.lifted += count
                stats.certified += count
            continue
        base = _sum(c, partial_sum(vec[:-1]), multiples[-1][vec[-1]])
        # the bit lengths of the reduced X = p/d^2 and Y = r/d^3
        if base is not None and max(base[0].bit_length(), base[1].bit_length(),
                                    (base[2] ** 3).bit_length()) > _CAP_BITS:
            stats.skipped_large += len(shifts)
            known[key] = -1
            continue
        relation = None
        if base is None or base[2] == 1 and base[0] in torsion_xs:
            # no shift is defined, and the base is torsion: nothing lifts,
            # and its order is 1 at infinity, 2 where Y = 0, else 4
            k = 1 if base is None else 2 if base[1] == 0 else 4
            relation = tuple(k * x for x in vec)
            pairs = ()
        else:
            # one root of tau per coset
            roots = {k: lift_pairs(c, *(base if T is None else _raw_sum(c, base, T)))
                     for k, T in reps.items()}
            pairs = [roots[k][inverted] for k, inverted in torsion.cosets]
        count = 0
        for pair in pairs:
            if pair is None:
                continue
            count += 1
            if pair not in certified:
                t = MasterTuple(pair.a, pair.b, c.m, c.n)
                if is_master_hit(t) is None:
                    raise AssertionError(f"lifted pair {tuple(t)} failed certification")
                certified.add(pair)
                outputs.append(sigma_canonical(t))
        stats.lifted += count
        stats.certified += count
        known[key] = count
        if relation is not None and _add_relation(relations, relation):
            # a key reduced by the old basis still names its point, though
            # a later vector of that point may now reduce further
            pivots, corrections = itemgetter(*(p for p, _ in relations)), {}
    return MwRun(outputs=outputs, stats=stats, provenance=f"MW-{c.m}-{c.n}")
