"""Workload registry shared by ``run.py`` and the samples it starts.

A workload fixes a command at one scale (n, l).  The seed picks only the
coefficient field: seed 0 is the level preset, any other seed draws a
prime p from the admissible small primes for the level's quantum
characteristic e, and a primitive e-th root of unity q mod p.  The program
receives nothing else from the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The small primes p with e | p - 1 that a seed may choose, by the quantum
# characteristic e of the level preset.
PRIMES = {5: (11, 31, 41, 61, 71), 7: (29, 43, 71, 113, 127)}

# Gram ranks of the cell modules, in the order of ``cell_modules``,
# measured at this scale; every admissible prime gives the same ranks.
GRAM_RANKS = {
    (2, 2): (1, 2, 1),
    (3, 3): (1, 2, 3, 1, 3, 6, 2, 3, 3, 1),
    (4, 2): (1, 4, 5, 3, 1),
}

VERIFY_SUITES = ("hecke", "klr", "cellular", "jm", "rewrite")

# Certifying calls of one pipeline pass, then the output checks on its
# results, in the order they run.
PIPELINE_CHECKS = ("build_blob", "dim_B", "relations", "cellular_basis",
                   "cellularity", "jm", "cell_modules", "cell_dims",
                   "gram_ranks")


@dataclass(frozen=True)
class Workload:
    kind: str            # "verify" (through cli.main) or "pipeline"
    n: int
    l: int
    suite: str = "all"   # verify workloads only

    @property
    def e(self) -> int:
        """Quantum characteristic of the level preset."""
        from blobcell import hecke
        return hecke.default_params(self.n, self.l).e

    @property
    def checks(self) -> tuple[str, ...]:
        if self.kind == "pipeline":
            return PIPELINE_CHECKS
        suites = VERIFY_SUITES if self.suite == "all" else (self.suite,)
        return suites + ("report",)


# Why each workload is here (BENCHMARK.json lists the ones the regression
# gate runs; the others take a minute or more a sample, or exist for the
# smoke test):
# * verify_n3_l2: the command users run; touches every module and rebuilds
#   the blob algebra and its generator images once per suite.
# * pipeline_n3_l3: one certified pass at (3,3); Murphy idempotents in
#   ``hecke`` are most of the time and the matrices are small (D = 162).
# * hecke_n3_l3: dense int64 products in ``RegularRep.matrix_of``, with no
#   Murphy work and no quotient.
# * pipeline_n4_l2: one pass at (4,2), where the quotient closure and the
#   large products are a real share; it reports the two known
#   dot-exchange relation failures.  About a minute per sample.
# * pipeline_n2_l2, verify_n2_l2: sub-second scale for the smoke test.
WORKLOADS = {
    "verify_n3_l2": Workload("verify", 3, 2),
    "pipeline_n3_l3": Workload("pipeline", 3, 3),
    "hecke_n3_l3": Workload("verify", 3, 3, suite="hecke"),
    "pipeline_n4_l2": Workload("pipeline", 4, 2),
    "pipeline_n2_l2": Workload("pipeline", 2, 2),
    "verify_n2_l2": Workload("verify", 2, 2),
}


def primitive_roots(p: int, e: int) -> list[int]:
    """Elements of order e mod the prime p (e is prime, so every x != 1
    with x^e = 1 has order e)."""
    return [x for x in range(2, p) if pow(x, e, p) == 1]


def field_for_seed(workload: Workload, seed: int) -> tuple:
    """(p, q) for a seed; (None, None) for seed 0, the preset field."""
    if seed == 0:
        return None, None
    rng = random.Random(seed)
    p = rng.choice(PRIMES[workload.e])
    return p, rng.choice(primitive_roots(p, workload.e))
