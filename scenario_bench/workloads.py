"""Seeded scenario documents for the three benchmark workloads.

Inputs come only from the public `koszul_index.suites` generators driven by
this module's own `random.Random(seed)`. Every scenario carries `expect`
fields that follow from how it was built, never from running the program:

* HOMOLOGY: index 0 (the Euler characteristic vanishes on a
  finite-dimensional space), and `cone_isomorphism: true` for cone checks.
* SPECTRAL_SEQUENCE: `euler_via_e2: 0` for the same reason.
* MULTIPLICITY: multiplicity 1 at a zero of a regular system, `a*b` for
  `z1^a - z2; z2^b` at the origin, and the full zero table with quotient
  dimension for global runs.
* INDEX / RECIPROCITY: minus the multiplicity of the known zeros inside
  the domain, classified here with exact `Fraction` arithmetic.

Each document is a sequence of rounds. A round holds a fixed set of size
cells of its workload, shuffled, so a run that covers whole rounds sees the
same mix of sizes whatever the seed; only the random entries differ between
seeds. The `z1^a - z2; z2^b` local checks, whose cost spans two orders of
magnitude, follow a seeded permutation of all admissible (a, b) so that one
document covers each pair the same number of times.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from koszul_index import suites
from koszul_index.cli import SCHEMA_VERSION
from koszul_index.scalars import QQi, scalar_str

# Rounds per document, sized so one pass over a document takes 5 to 10 s
# (scaled, see `speed`) on a 2-core x86 host under Python 3.11 and holds
# at least 100 scenarios, so the 90th percentile has ten samples beyond
# it. Seed-to-seed differences in a pass's cost shrink with the number of
# costly scenarios in it, so passes are as long as a run allows.
ROUNDS = {
    "koszul_homology": 32,
    "spectral_pages": 10,
    "zeros_and_index": 10,
}

# Operator families are block-diagonal polynomial families
# (`random_commuting_family(..., conjugate=False)`). The suites' default
# conjugates half of the families at random, and that coin alone spread one
# scenario's cost threefold. Dimensions are fixed per cell for the same
# reason; the seed draws the entries, and for Koszul homology the cell
# also fixes the sizes of the diagonal blocks, since one cone cell cost
# 80 to 280 ms depending only on them.

# Koszul homology: (n, block sizes) of plain scenarios, and of cone
# scenarios, whose tuple is extended by one more commuting operator; the
# dimension is the sum of the block sizes. The costliest cell comes twice
# a round, so the 90th percentile falls inside its samples rather than in
# the gap between two cells; it is also the cell whose cost varies least
# with the entries (a cone over a 3 + 1 block tuple of three operators
# spread twofold with the entries and took half of a pass).
HOMOLOGY_PLAIN = [(2, (2, 1)), (2, (3, 2)), (2, (4, 3)), (2, (4, 3, 2)),
                  (3, (2, 1)), (3, (3, 2)), (3, (4, 3))]
HOMOLOGY_CONE = [(2, (2, 1)), (3, (2,)), (2, (3, 2)), (2, (3, 2))]

# Spectral sequences: (n, m, block sizes), r_max 3. Cost grows fast with
# n + m and dim, so larger shapes get smaller dims. Block sizes are fixed
# as for Koszul homology, and the costliest cell comes twice a round for
# the same reason; a second cheap cell keeps the median inside the dense
# middle cells rather than between two of them.
SPECTRAL_CELLS = [(1, 1, (2,)), (1, 1, (2, 1)), (1, 1, (2, 1)), (1, 1, (3, 1)),
                  (1, 1, (3, 2)),
                  (1, 2, (2,)), (1, 2, (2, 1)), (2, 1, (2,)), (2, 1, (2, 1)),
                  (2, 2, (2,)), (2, 2, (2,))]

# z1^a - z2; z2^b: local checks take the 20 pairs with a*b <= 8, global and
# index runs the 10 pairs with 2 <= a, b <= 5 and a*b <= 12. The diagonal
# degree check doubles the variables and its cost grows steeply with a*b
# (about 0.7 s at 8, 1 s at 9, 4 s at 12), so it runs only up to a*b = 6:
# above that a few checks would fill most of a pass.
CHAIN_DIAGONAL_MAX = 6
CHAIN_LOCAL_PAIRS = [(a, b) for a in range(1, 9) for b in range(1, 9) if a * b <= 8]
CHAIN_GLOBAL_PAIRS = [(a, b) for a in range(2, 6) for b in range(2, 6) if a * b <= 12]

# Zero count of the regular systems, by variable count.
REGULAR_ZEROS = {2: 2, 3: 4}


def matrix_json(m):
    return [[scalar_str(x) for x in row] for row in m.entries]


def point_json(point):
    return [scalar_str(c) for c in point]


def document_sha256(doc: dict) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- koszul_homology -----------------------------------------------------------


def _block_sizes(ops, dim: int):
    """Sizes of the diagonal blocks the operators' common zero pattern
    splits `range(dim)` into, largest first."""
    root = list(range(dim))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for op in ops:
        for i in range(dim):
            for j in range(dim):
                if op[i, j] != 0:
                    root[find(i)] = find(j)
    sizes = {}
    for i in range(dim):
        sizes[find(i)] = sizes.get(find(i), 0) + 1
    return tuple(sorted(sizes.values(), reverse=True))


def _family(rng: random.Random, count: int, dim: int, blocks=None):
    """`count` commuting operators of size `dim`; with `blocks`, drawn
    again until their block sizes are `blocks`."""
    while True:
        ops = suites.random_commuting_family(rng, count, dim, conjugate=False)
        if blocks is None or _block_sizes(ops, dim) == blocks:
            return [matrix_json(op) for op in ops]


def _homology_round(rng: random.Random, tag: str):
    out = []
    for n, blocks in HOMOLOGY_PLAIN:
        dim = sum(blocks)
        out.append((f"{tag}-plain-n{n}-d{dim}", "HOMOLOGY",
                    {"operators": _family(rng, n, dim, blocks),
                     "expect": {"index": 0, "euler": 0}}))
    for k, (n, blocks) in enumerate(HOMOLOGY_CONE):
        dim = sum(blocks)
        ops = _family(rng, n + 1, dim, blocks)
        out.append((f"{tag}-cone{k}-n{n}-d{dim}", "HOMOLOGY",
                    {"operators": ops[:n], "cone_with": ops[n],
                     "expect": {"index": 0, "euler": 0,
                                "cone_isomorphism": True}}))
    return out


# -- spectral_pages ------------------------------------------------------------


def _spectral_round(rng: random.Random, tag: str):
    out = []
    for k, (n, m, blocks) in enumerate(SPECTRAL_CELLS):
        dim = sum(blocks)
        ops = _family(rng, n + m, dim, blocks)
        out.append((f"{tag}-ss{k}-n{n}-m{m}-d{dim}", "SPECTRAL_SEQUENCE",
                    {"operators_a": ops[:n], "operators_b": ops[n:],
                     "r_max": 3,
                     "expect": {"euler_via_e2": 0}}))
    return out


# -- zeros_and_index -----------------------------------------------------------


def _random_gaussian(rng: random.Random) -> QQi:
    re = Fraction(rng.randint(-4, 4), rng.choice([2, 3, 4]))
    im = Fraction(rng.randint(-2, 2), 4) if rng.random() < 0.3 else Fraction(0)
    return QQi(re, im)


def _abs2(z: QQi, c: QQi) -> Fraction:
    dr, di = z.re - c.re, z.im - c.im
    return dr * dr + di * di


def _location(domain, point) -> str:
    """interior / boundary / exterior, by exact squared distances."""
    kind, center, radii = domain
    if kind == "polydisc":
        dists = [_abs2(z, c) for z, c in zip(point, center)]
        bounds = [r * r for r in radii]
    else:
        dists = [sum((_abs2(z, c) for z, c in zip(point, center)), Fraction(0))]
        bounds = [radii[0] * radii[0]]
    if any(d > b for d, b in zip(dists, bounds)):
        return "exterior"
    if all(d < b for d, b in zip(dists, bounds)):
        return "interior"
    return "boundary"


def _random_domain(rng: random.Random, kind: str, nvars: int, zeros, inside=None):
    """A domain with no known zero on its boundary, since a boundary zero
    makes the index undefined, and with `zeros[0]` inside it or not as
    `inside` says, when given; drawn again until that holds."""
    count = nvars if kind == "polydisc" else 1
    while True:
        center = tuple(_random_gaussian(rng) for _ in range(nvars))
        radii = tuple(Fraction(rng.randint(1, 12), rng.choice([2, 3, 4, 5]))
                      for _ in range(count))
        domain = (kind, center, radii)
        where = [_location(domain, z) for z in zeros]
        if "boundary" not in where and (
                inside is None or (where[0] == "interior") == inside):
            return domain


def _domain_json(domain):
    kind, center, radii = domain
    return {"kind": kind, "center": point_json(center),
            "radii": [str(r) for r in radii]}


def _system_text(system) -> str:
    return "; ".join(str(g) for g in system)


def _zero_table(zeros, multiplicity=1):
    return [{"point": point_json(z), "multiplicity": multiplicity} for z in zeros]


def _inside_count(domain, zeros, multiplicity=1) -> int:
    return sum(multiplicity for z in zeros if _location(domain, z) == "interior")


def _regular(rng: random.Random, nvars: int):
    """A regular system with REGULAR_ZEROS[nvars] zeros, drawn again until
    it has that many: a system's cost follows its zero count, which the
    suites draw at random from 1 to 2**nvars."""
    while True:
        system, zeros = suites.random_regular_system(rng, nvars)
        if len(zeros) == REGULAR_ZEROS[nvars]:
            return system, zeros


def _zeros_round(rng: random.Random, tag: str, local_pairs, global_pair, index_pair,
                index_kind):
    # every regular scenario gets its own system, so one draw does not set
    # the cost of four scenarios
    out = []
    origin = (QQi(0), QQi(0))

    def regular(nv):
        return _regular(rng, nv)

    for nv in (2, 3):
        system, zeros = regular(nv)
        at = rng.choice(zeros)
        out.append((f"{tag}-local-regular-{nv}v", "MULTIPLICITY",
                    {"system": _system_text(system), "variables": nv,
                     "at": point_json(at), "check_diagonal": True,
                     "expect": {"multiplicity": 1, "jacobian_regular": True,
                                "diagonal_degree_equal": True}}))

    for nv in (2, 3):
        system, zeros = regular(nv)
        out.append((f"{tag}-global-regular-{nv}v", "MULTIPLICITY",
                    {"system": _system_text(system), "variables": nv,
                     "expect": {"quotient_dim": len(zeros),
                                "zeros": _zero_table(zeros)}}))

    for a, b in local_pairs:
        diagonal = a * b <= CHAIN_DIAGONAL_MAX
        expect = {"multiplicity": a * b, "jacobian_regular": a * b == 1}
        if diagonal:
            expect["diagonal_degree_equal"] = True
        out.append((f"{tag}-local-chain-{a}x{b}", "MULTIPLICITY",
                    {"system": f"z1^{a} - z2; z2^{b}", "variables": 2,
                     "at": ["0", "0"], "check_diagonal": diagonal,
                     "expect": expect}))
    a, b = global_pair
    out.append((f"{tag}-global-chain-{a}x{b}", "MULTIPLICITY",
                {"system": f"z1^{a} - z2; z2^{b}", "variables": 2,
                 "expect": {"quotient_dim": a * b,
                            "zeros": _zero_table([origin], a * b)}}))

    for nv, kind in ((2, "polydisc"), (3, "ball")):
        system, zeros = regular(nv)
        domain = _random_domain(rng, kind, nv, zeros)
        out.append((f"{tag}-index-regular-{nv}v", "INDEX",
                    {"domain": _domain_json(domain),
                     "system": _system_text(system), "variables": nv,
                     "expect": {"global_index": -_inside_count(domain, zeros),
                                "quotient_dim": len(zeros)}}))
    # whether the origin lies inside costs an index run up to 40%, so it
    # follows from the pair: inside when a >= b
    a, b = index_pair
    domain = _random_domain(rng, index_kind, 2, [origin], inside=a >= b)
    out.append((f"{tag}-index-chain-{a}x{b}", "INDEX",
                {"domain": _domain_json(domain),
                 "system": f"z1^{a} - z2; z2^{b}", "variables": 2,
                 "expect": {"global_index": -_inside_count(domain, [origin], a * b),
                            "quotient_dim": a * b}}))

    for nv in (2, 3):
        system, zeros = regular(nv)
        dom_a = _random_domain(rng, "polydisc", nv, zeros)
        dom_b = _random_domain(rng, "ball", nv, zeros)
        both = sum(1 for z in zeros if _location(dom_a, z) == "interior"
                   and _location(dom_b, z) == "interior")
        out.append((f"{tag}-reciprocity-{nv}v", "RECIPROCITY",
                    {"domain_a": _domain_json(dom_a),
                     "domain_b": _domain_json(dom_b),
                     "system": _system_text(system), "variables": nv,
                     "expect": {"lhs": both, "rhs": both}}))
    return out


def _zeros_rounds(rng: random.Random, rounds: int):
    # chain pairs follow seeded permutations, so every 10 rounds cover each
    # local pair once (two per round, half a permutation apart) and each
    # global and index pair once; index runs take a polydisc in the first
    # 10 rounds, a ball in the next 10, and so on
    local = rng.sample(CHAIN_LOCAL_PAIRS, len(CHAIN_LOCAL_PAIRS))
    glob = rng.sample(CHAIN_GLOBAL_PAIRS, len(CHAIN_GLOBAL_PAIRS))
    index = rng.sample(CHAIN_GLOBAL_PAIRS, len(CHAIN_GLOBAL_PAIRS))
    half = len(local) // 2
    return [_zeros_round(rng, f"r{r:03d}",
                         (local[r % len(local)], local[(r + half) % len(local)]),
                         glob[r % len(glob)], index[r % len(index)],
                         ("polydisc", "ball")[r // len(index) % 2])
            for r in range(rounds)]


ROUND_BUILDERS = {
    "koszul_homology": lambda rng, rounds: [
        _homology_round(rng, f"r{r:03d}") for r in range(rounds)],
    "spectral_pages": lambda rng, rounds: [
        _spectral_round(rng, f"r{r:03d}") for r in range(rounds)],
    "zeros_and_index": _zeros_rounds,
}
WORKLOADS = tuple(ROUND_BUILDERS)


def generate(workload: str, seed: int, rounds: int | None = None) -> dict:
    """The scenario document of `workload` for `seed`: `rounds` rounds
    (default ROUNDS[workload]), each shuffled."""
    if workload not in ROUND_BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    count = ROUNDS[workload] if rounds is None else rounds
    scenarios = []
    for cells in ROUND_BUILDERS[workload](rng, count):
        rng.shuffle(cells)
        scenarios.extend({"id": sid, "kind": kind, "payload": payload}
                         for sid, kind, payload in cells)
    return {"schema": SCHEMA_VERSION, "scenarios": scenarios}
