"""Random commuting tuples for the tests, drawn with
`koszul_index.suites.random_commuting_family`."""

import random

from koszul_index.koszul import CommutingTuple
from koszul_index.suites import random_commuting_family


def random_commuting_tuple(rng: random.Random, n: int, dim: int) -> CommutingTuple:
    return CommutingTuple(random_commuting_family(rng, n, dim))


def random_cone_instance(rng: random.Random, n: int, dim: int):
    """A commuting tuple together with one extra commuting operator."""
    family = random_commuting_family(rng, n + 1, dim)
    return CommutingTuple(family[:n]), family[n]


def random_bicomplex_pair(rng: random.Random, n: int, m: int, dim: int):
    """Two tuples whose union commutes, for spectral sequence runs."""
    family = random_commuting_family(rng, n + m, dim)
    return CommutingTuple(family[:n]), CommutingTuple(family[n:])
