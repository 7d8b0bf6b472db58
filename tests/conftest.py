"""Shared helpers: pseudorandom admissible tuples, lists of fibres and the
hits of the factor-audit store for property tests."""
import functools
from math import gcd

from brickforge.fibration import FibreCurve
from brickforge.master import MasterTuple

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
def audit_tuples() -> tuple[MasterTuple, ...]:
    """The 346 hits of mw run (22,17) at seed height 80, K=2: the store that
    perfbench's factor-audit factors."""
    from brickforge.fibration import build_fibre
    from brickforge.mw import enumerate_and_certify, naive_quartic_search, seeds_from_hits

    c = build_fibre(22, 17)
    run = enumerate_and_certify(c, seeds_from_hits(c, naive_quartic_search(c, 80)), 2)
    return tuple(run.outputs)
