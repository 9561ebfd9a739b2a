"""Seeded inputs, exact-output digests and independent identities for the
trace-kit benchmark.

Pure Python with no trace_kit import: the orchestrator (run.py), the round
process (child.py) and the recorder (record.py) all share it.

A run is a sequence of rounds.  Each round is one fresh process that
executes a fixed batch of timed calls, so every round starts with cold memo
tables, as a user's invocation does, and the peak memory of a round does
not depend on how many calls fit into a run.  The seed and the round index
choose the batch; they only choose among inputs of similar cost, and every
input they can choose has an exact output digest in expected.json.
"""

import hashlib
import json
import math
import random
import time
from fractions import Fraction

WORKLOADS = ("table-scan", "single-large", "oracle-verify")

# -- table-scan: CLI range queries ---------------------------------------------------
# (id, trace arguments without --n, window length L): a command covers n in
# A..A+L-1 with A seeded in 1..TABLE_JITTER+1, a shift small against L so
# that every seed's windows cost about the same.  The lengths make every
# command cost about the same (0.3-0.4 s with one worker on the reference
# machine), so that the median command does not depend on which templates
# the last, cut-short round of a run reached, and a run makes about 100
# commands, enough for ten beyond the 90th percentile.
TABLE_TEMPLATES = (
    ("L1k12", ("--level", "1", "--weight", "12"), 195),
    ("L11k2", ("--level", "11", "--weight", "2"), 180),
    ("L12k4full", ("--level", "12", "--weight", "4", "--space", "full"), 95),
    ("c5.1k3", ("--level", "5", "--weight", "3", "--char", "5.1"), 135),
    ("c13.1k3", ("--level", "13", "--weight", "3", "--char", "13.1"), 90),
    ("c13.2k2", ("--level", "13", "--weight", "2", "--char", "13.2"), 120),
    ("L6ell2", ("--level", "6", "--weight", "2", "--ell", "2"), 190),
    ("L30ell5full", ("--level", "30", "--weight", "4", "--ell", "5", "--space", "full"), 205),
)
TABLE_JITTER = 10
TABLE_MAX_N = max(t[2] for t in TABLE_TEMPLATES) + TABLE_JITTER
TAU_TEMPLATE = "L1k12"  # level 1, weight 12: the trace of T_n is tau(n)

# -- single-large: one huge key per call ---------------------------------------------
# Large index: level 1, weight 12, n in a narrow band so that calls cost the same.
LARGE_INDEX_POOL = tuple(range(20000, 20480, 8))
# Large level: weight 2, N with d(N) >= 64 and N * d(N) within 5%; square n pays
# the D = 0 term, which scans N residues for every divisor u of N.
LARGE_LEVEL_POOL = (31920, 34650, 36036, 39270, 40040, 40920)
LEVEL_SQUARE_N = (1, 4, 9)
LEVEL_NONSQUARE_N = (2, 3, 5, 6, 7)

# -- oracle-verify: closed formula against the period-space trace ---------------------
# Spaces (N, character index, k) where the elimination plus six comparisons
# cost within about 25% of each other at the seed commit (0.8-1.35 s on the
# reference machine), so that any four of them make rounds of equal cost.
# Characters of order 3, 4 and 10 are included; table-scan covers 6 and 12.
ORACLE_SPACES = (
    (6, 0, 10), (7, 0, 12), (8, 0, 10), (8, 1, 10), (9, 0, 10), (9, 2, 6), (9, 4, 6), (10, 1, 5),
    (10, 2, 8), (10, 3, 5), (11, 0, 8), (11, 3, 5), (11, 9, 5), (12, 0, 6), (12, 3, 6), (13, 0, 8),
    (14, 2, 4), (15, 5, 4), (15, 7, 4), (16, 0, 6), (16, 1, 4), (16, 2, 6),
)
# Composed spaces (N, ell, k), trivial character, compared at n * ell <= ORACLE_MAX_N.
ATKIN_SPACES = (
    (6, 2, 6), (10, 2, 4), (10, 2, 6), (10, 5, 4), (12, 3, 4), (12, 3, 6),
    (12, 4, 4), (14, 2, 4), (15, 3, 4), (15, 5, 4),
)
ORACLE_MAX_N = 16
SPACES_PER_ROUND = 4
N_PER_SPACE = 6
ATKIN_N_PER_ROUND = 3


def _rng(workload, seed, round_index):
    return random.Random(f"{workload}:{seed}:{round_index}")


def table_jobs(seed, round_index):
    """One CLI command per template, in seeded order: (template id, argv, A, B)."""
    rng = _rng("table-scan", seed, round_index)
    jobs = []
    for tid, args, length in TABLE_TEMPLATES:
        a = rng.randint(1, TABLE_JITTER + 1)
        jobs.append((tid, list(args) + ["--n", f"{a}:{a + length - 1}"], a, a + length - 1))
    rng.shuffle(jobs)
    return jobs


def large_jobs(seed, round_index):
    """One large-index call, then one square and one non-square large-level call."""
    rng = _rng("single-large", seed, round_index)
    return [
        ("cusp", 1, 12, rng.choice(LARGE_INDEX_POOL)),
        ("cusp", rng.choice(LARGE_LEVEL_POOL), 2, rng.choice(LEVEL_SQUARE_N)),
        ("cusp", rng.choice(LARGE_LEVEL_POOL), 2, rng.choice(LEVEL_NONSQUARE_N)),
    ]


def _spread_degrees(rng, top, count):
    """One degree from each of `count` consecutive slices of 1..top."""
    count = min(count, top)
    edges = [1 + (top * i) // count for i in range(count + 1)]
    return [rng.randrange(lo, hi) for lo, hi in zip(edges, edges[1:])]


def oracle_jobs(seed, round_index):
    """SPACES_PER_ROUND Hecke spaces with N_PER_SPACE degrees each, then one
    composed space: ("full", N, chi index, k, n) or ("atkin", N, ell, k, n).

    Rounds walk one seeded permutation of ORACLE_SPACES, so that a run visits
    nearly every space once whatever the seed."""
    order = random.Random(f"oracle-verify:{seed}").sample(ORACLE_SPACES, len(ORACLE_SPACES))
    first = round_index * SPACES_PER_ROUND
    spaces = [order[(first + i) % len(order)] for i in range(SPACES_PER_ROUND)]
    rng = _rng("oracle-verify", seed, round_index)
    jobs = []
    for N, ci, k in spaces:
        jobs += [("full", N, ci, k, n) for n in _spread_degrees(rng, ORACLE_MAX_N, N_PER_SPACE)]
    N, ell, k = rng.choice(ATKIN_SPACES)
    jobs += [("atkin", N, ell, k, n) for n in _spread_degrees(rng, ORACLE_MAX_N // ell, ATKIN_N_PER_ROUND)]
    return jobs


def jobs(workload, seed, round_index):
    return {"table-scan": table_jobs, "single-large": large_jobs, "oracle-verify": oracle_jobs}[workload](
        seed, round_index
    )


def job_key(job):
    return ":".join(str(x) for x in job)


# -- machine speed ---------------------------------------------------------------------
# A fixed piece of pure-Python work of the kind trace_kit does (rational
# arithmetic, small dicts), timed next to every timed call.  The benchmark
# code never changes between the two commits it compares, so its time
# measures only the speed of the machine at that moment.
REFERENCE_ITERS = 3000
REFERENCE_NOMINAL_S = 0.010  # times are reported at the speed where the reference takes this long


def reference_s():
    """Seconds the reference work takes now."""
    t0 = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, REFERENCE_ITERS):
        acc += Fraction(i % 97 - 48, i % 89 + 1)
        table[i % 256] = table.get(i % 256, 0) + i * i
    return time.perf_counter() - t0


# -- exact outputs ----------------------------------------------------------------------


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj):
    return hashlib.sha256(canonical(obj).encode()).hexdigest()[:8]


def exact_value(v):
    """[order, [[num, den], ...]] for a cyclotomic number or a rational."""
    coeffs = getattr(v, "coeffs", None)
    if coeffs is None:
        return [1, [[int(v.numerator), int(v.denominator)]]]
    return [v.order, [[int(c.numerator), int(c.denominator)] for c in coeffs]]


def record_exact(rec):
    """A CLI JSON record minus its float rendering."""
    return {k: v for k, v in rec.items() if k != "approx"}


# -- independent identities -------------------------------------------------------------


def tau_table(m):
    """tau(0..m) from q * prod (1 - q^k)^24, with prod (1 - q^k)^3 taken from
    Jacobi's identity sum (-1)^j (2j+1) q^(j(j+1)/2)."""
    eta3 = [0] * m
    j = 0
    while j * (j + 1) // 2 < m:
        eta3[j * (j + 1) // 2] = (-1) ** j * (2 * j + 1)
        j += 1

    def mul(a, b):
        out = [0] * m
        for i, x in enumerate(a):
            if x:
                for k in range(m - i):
                    if b[k]:
                        out[i + k] += x * b[k]
        return out

    e6 = mul(eta3, eta3)
    e12 = mul(e6, e6)
    e24 = mul(e12, e12)
    return [0] + e24


def _factor(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def genus_x0(N):
    """Genus of X_0(N) from the index, elliptic points and cusps; the trace
    of T_1 on weight-2 cusp forms of level N."""
    fac = _factor(N)
    index = N
    for p in fac:
        index = index // p * (p + 1)
    nu2 = 0 if N % 4 == 0 else math.prod(1 + (0 if p == 2 else (1 if p % 4 == 1 else -1)) for p in fac)
    nu3 = 0 if N % 9 == 0 else math.prod(1 + (0 if p == 3 else (1 if p % 3 == 1 else -1)) for p in fac)
    cusps = 0
    for d in range(1, N + 1):
        if N % d == 0:
            g = math.gcd(d, N // d)
            cusps += sum(1 for x in range(1, g + 1) if math.gcd(x, g) == 1)
    twelve_g = 12 + index - 3 * nu2 - 4 * nu3 - 6 * cusps
    if twelve_g % 12:
        raise ArithmeticError(f"genus formula is not integral at N={N}")
    return twelve_g // 12
