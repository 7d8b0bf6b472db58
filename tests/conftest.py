"""Shared helpers: pseudorandom admissible tuples, lists of fibres, the
hits of the factor-audit and fibre-deep walks for property tests, a fault
written into a store as its lines, and reference rules (negating, multiplying,
halving and lifting a point, ECM's projective stage 2, a tuple's brick, norms
and hit line) the tests check the package against."""
import functools
from fractions import Fraction
from math import gcd

from brickforge.ecq import INFINITY, CurvePoint, _triple, add, cubic_rhs, two_torsion
from brickforge.fibration import FibreCurve, lift_pairs
from brickforge.master import Brick, EuclidPair, MasterTuple, PythTriple, pair_fault, sigma_canonical
from brickforge import ntkernel
from brickforge.ntkernel import is_perfect_square, is_square_rational
from brickforge.store import HitRecord, _line

# one line per acceptance criterion, echoed after the test summary so the
# verdicts survive pytest's output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_pair(rng, lo=2, hi=1000):
    while True:
        a = rng.randrange(lo, hi)
        b = rng.randrange(1, a)
        if (a - b) % 2 == 1 and gcd(a, b) == 1:
            return a, b


def random_admissible(rng, lo=2, hi=1000) -> MasterTuple:
    a, b = random_pair(rng, lo, hi)
    m, n = random_pair(rng, lo, hi)
    return MasterTuple(a, b, m, n)


def put_lines(db, hit_id: int | None = None, rec=None, factors=None, fibre=None) -> None:
    """Writes a (corrupted) record and factor rows of hit `hit_id`, or a
    fibre row, into the store `db` as the lines export writes for them, past
    every check of the setters; factors=[] removes the hit's factor rows."""
    if rec is not None:
        db._hits[hit_id] = _line(rec)
    if factors == []:
        del db._factors[hit_id]
    elif factors is not None:
        db._factors[hit_id] = "\n".join(map(_line, factors))
    if fibre is not None:
        db._fibres[fibre.m, fibre.n] = _line(fibre)
    db._on_disk.clear()  # as a setter that changed a line: export builds the files again


def admissible_fibres(how_many: int) -> list[tuple[int, int]]:
    """The first admissible (m, n) by m, then n."""
    out = []
    m = 2
    while len(out) < how_many:
        out += [(m, n) for n in range(1, m) if (m - n) % 2 and gcd(m, n) == 1]
        m += 1
    return out[:how_many]


def hand_fibre(U2: int, gamma: int) -> FibreCurve:
    """The cubic of build_fibre for any U2 and gamma, not only a pair's."""
    B = 4 * U2 * U2 - 2 * gamma * gamma
    g2 = gamma * gamma
    return FibreCurve(m=0, n=0, U2=U2, V2=gamma, gamma=gamma, A=g2, B=B, C=g2,
                      e1=-B, e2=2 * g2, e3=-2 * g2)


# (U2, gamma) where U2 gamma, U2 (U2 + gamma) and gamma (U2 + gamma) are all squares
EIGHT_TORSION = [(9, 16), (16, 9), (27, 48)]


@functools.cache
def bench_walk(K: int) -> tuple[MasterTuple, ...]:
    """The hits of mw run (22,17) at seed height 80 and this K, in the order
    of the walk: at K=2 the 346 of the store perfbench's factor-audit
    factors, at K=3 the 1,059 of its fibre-deep export."""
    from brickforge.fibration import build_fibre
    from brickforge.mw import enumerate_and_certify, naive_quartic_search, seeds_from_hits

    c = build_fibre(22, 17)
    run = enumerate_and_certify(c, seeds_from_hits(c, naive_quartic_search(c, 80)), K)
    return tuple(run.outputs)


def neg(c, P: CurvePoint) -> CurvePoint:
    return INFINITY if P.is_infinity else CurvePoint(P.X, -P.Y)


def scalar_mul(c, k: int, P: CurvePoint) -> CurvePoint:
    """kP by double-and-add over `ecq.add`, -P for k < 0."""
    if k < 0:
        k, P = -k, neg(c, P)
    R = INFINITY
    while k:
        if k & 1:
            R = add(c, R, P)
        P = add(c, P, P)
        k >>= 1
    return R


def halve(c, P: CurvePoint) -> list[CurvePoint]:
    """All rational Q with 2Q = P, possibly empty.

    P halves exactly when X(P) - e_i is a rational square for each root;
    the candidate abscissae are X + r1*r2 + r1*r3 + r2*r3 over the sign
    choices of the roots r_i, and every candidate is confirmed by an
    exact doubling before it is returned.
    """
    if P.is_infinity:
        return [INFINITY] + two_torsion(c)
    roots = []
    for e in (c.e1, c.e2, c.e3):
        r = is_square_rational(P.X - e) if P.X != e else Fraction(0)
        if r is None:
            return []
        roots.append(r)
    out: list[CurvePoint] = []
    r1, r2, r3 = roots
    for s1 in (1, -1):
        for s2 in (1, -1):
            for s3 in (1, -1):
                u1, u2, u3 = s1 * r1, s2 * r2, s3 * r3
                X = P.X + u1 * u2 + u1 * u3 + u2 * u3
                Y2 = cubic_rhs(c, X)
                Y = is_square_rational(Y2) if Y2 != 0 else Fraction(0)
                if Y is None:
                    continue
                for Q in (CurvePoint(X, Y), CurvePoint(X, -Y)):
                    if Q not in out and add(c, Q, Q) == P:
                        out.append(Q)
    return out


def lift_point(c: FibreCurve, P: CurvePoint) -> EuclidPair | None:
    """The admissible pair (a, b) behind a point, when one exists, by the
    rule of `fibration.lift_pairs`.  Certification of the hit itself stays
    with the caller."""
    return None if P.is_infinity else lift_pairs(c, *_triple(P))[0]


def ecm_stage2_projective(n: int, x: int, z: int, a24: int) -> list[int]:
    """ECM's stage 2 on x:z points: the product of X_G*Z_j - X_j*Z_G over
    the baby steps jQ and giant steps G = iDQ paired in
    `ntkernel._ecm_tables`, for Q = (x:z), as it stands after each giant
    step.  Each factor is the affine x_G - x_j times the unit Z_G*Z_j."""
    xdbl, xadd = ntkernel._xdbl, ntkernel._xadd
    x2, z2 = xdbl(n, x, z, a24)
    odd = [(x, z), xadd(n, x2, z2, x, z, x, z)]  # (2i + 1) Q
    while len(odd) <= ntkernel._ECM_D // 4:
        (xa, za), (xb, zb) = odd[-2:]
        odd.append(xadd(n, xb, zb, x2, z2, xa, za))
    xr, zr = xdbl(n, *odd[-1], a24)  # D Q = 2 (D/2) Q
    xg, zg, xh, zh = xr, zr, *xdbl(n, xr, zr, a24)  # iDQ and (i + 1)DQ, i = 1
    acc, products = 1, []
    for near in ntkernel._ecm_tables()[1]:
        for b in near:
            xj, zj = odd[b]
            acc = acc * (xg * zj - xj * zg) % n
        products.append(acc)
        xg, zg, xh, zh = xh, zh, *xadd(n, xh, zh, xr, zr, xg, zg)
    return products


def _reference_triple(a: int, b: int) -> PythTriple:
    if pair_fault(a, b):
        raise ValueError(f"inadmissible pair ({a}, {b})")
    return PythTriple(a * a - b * b, 2 * a * b, a * a + b * b)


def _reference_triples(t: MasterTuple):
    return _reference_triple(t.a, t.b), _reference_triple(t.m, t.n)


def reference_edges(t: MasterTuple) -> Brick:
    """The brick of a tuple from its two triples as `PythTriple`s, each pair
    gated on its own: the rule `master.edges` derives from plain ints."""
    t1, t2 = _reference_triples(t)
    y, z = t1.V * t2.U, t1.U * t2.V
    return Brick(x=t1.U * t2.U, y=y, z=z, dxy=t1.W * t2.U, dxz=t1.U * t2.W,
                 dyz=is_perfect_square(y * y + z * z))


def reference_master_norm(t: MasterTuple) -> int:
    t1, t2 = _reference_triples(t)
    return (t1.V * t2.U) ** 2 + (t1.U * t2.V) ** 2


def reference_f1(t: MasterTuple) -> int:
    t1, t2 = _reference_triples(t)
    return (t1.W * t2.U) ** 2 + (t1.U * t2.V) ** 2


def reference_hit_line(hit_id: int, t: MasterTuple, provenance: str) -> str:
    """The line of a new hit as `_line` writes its record: what
    `Store.insert_hit` forms without building that record."""
    canon = sigma_canonical(t)
    e = reference_edges(canon)
    return _line(HitRecord(id=hit_id, a=canon.a, b=canon.b, m=canon.m, n=canon.n,
                           x=e.x, y=e.y, z=e.z, g_scale=gcd(gcd(e.x, e.y), e.z),
                           provenance=provenance))
