"""Named verification scenarios for the `examples` CLI subcommand.

Each scenario re-derives one published or independently computed value
and compares against the expected outcome.  Provenance labels:
"reported" for values stated in the literature, "derived" for values
fixed by an independent computation in this package's test suite, and
"direct" for definitional cases.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bounds as bnd
from .constructions import (construct_identity_block, construct_rho1,
                            construct_subgeometry, cutting_system_6_3,
                            cutting_system_8_4, decompose, direct_sum,
                            gabidulin)
from .covering import (is_linear_cutting_blocking_set, rank_covering_radius,
                       saturation_radius, saturation_radius_geometric)
from .gftower import make_tower
from .linalg import DEFAULT_BUDGET
from .qsystem import QSystem, associated_code, linear_set, is_scattered, \
    lift_system


@dataclass
class Scenario:
    name: str
    description: str
    expected: object
    provenance: str
    runner: Callable[[int], object]

    def run(self, budget: int = DEFAULT_BUDGET):
        t0 = time.perf_counter()
        actual = self.runner(budget)
        elapsed = time.perf_counter() - t0
        return actual, elapsed


def _gabidulin_radius(k: int):
    def run(budget):
        tower = make_tower(2, 4)
        code = gabidulin(tower, 4, k, 1)
        return rank_covering_radius(code, budget)
    return run


def _rho1(q: int, m: int, k: int):
    def run(budget):
        tower = make_tower(q, m)
        v = np.zeros(k, dtype=np.int64)
        v[k - 1] = 1
        sysm = construct_rho1(tower, k, v, v)
        rho, _ = saturation_radius(sysm, budget)
        return (sysm.n, rho)
    return run


def _identity_block(q: int, m: int, k: int, rho: int):
    def run(budget):
        tower = make_tower(q, m)
        sysm = construct_identity_block(tower, k, rho)
        return saturation_radius_geometric(sysm, budget)
    return run


def _remark_4_9(budget):
    tower = make_tower(2, 4, [1, 1, 0, 0, 1])
    a = tower.alpha
    u1 = QSystem(tower, np.eye(2, dtype=np.int64))
    u2 = QSystem(tower, np.array([[1, a, tower.pow(a, 5)]], dtype=np.int64))
    rho, _ = saturation_radius(direct_sum(u1, u2), budget)
    return rho


def _example_5_8(budget):
    sysm = cutting_system_6_3()
    ls = linear_set(sysm, budget)
    cutting = is_linear_cutting_blocking_set(sysm, budget)
    lifted = lift_system(sysm, make_tower(2, 8))
    rho = saturation_radius_geometric(lifted, budget)
    return (len(ls), is_scattered(ls), cutting, rho)


def _example_5_9(budget):
    tower = make_tower(2, 4)
    sysm = cutting_system_8_4(tower)
    return (sysm.n, sysm.k, is_linear_cutting_blocking_set(sysm, budget))


def _experiment_5_9_q4(budget):
    """Open experiment: the same system at q = 4 (h even).

    The exact radius is beyond exhaustive budgets; we report the dual
    distance bound rho <= min(n,m) - d + 1 after certifying d >= 2 by
    checking that no F_q-proportional vector lies in the code.
    """
    tower = make_tower(4, 4)
    sysm = cutting_system_8_4(tower)
    code = associated_code(sysm)
    # rank-1 codewords are lambda * v with v over F_q; reduce all such v
    # against the row echelon form of the generator at once
    from . import fqlinalg
    R, pivots = fqlinalg.rref(code.generator, tower)
    V = fqlinalg.all_vectors(sysm.n, tower.base)[1:].astype(np.int64)
    for r, c in enumerate(pivots):
        coef = V[:, c]
        V = tower.sub_arr(V, tower.mul_arr(coef[:, None], R[r][None, :]))
    has_rank1 = bool((~V.any(axis=1)).any())
    d_lower = 1 if has_rank1 else 2
    bound = min(sysm.n, tower.m) - d_lower + 1
    return {"d_rk_at_least": d_lower, "radius_at_most": bound}


def _subgeometry(q: int, r: int, t: int, h: int):
    def run(budget):
        tower = make_tower(q, r * t)
        sysm = construct_subgeometry(tower, r, t, h)
        return (sysm.n, sysm.k, saturation_radius_geometric(sysm, budget))
    return run


def _decompose_check(q: int, r: int, t: int, h: int, trials: int = 200):
    def run(budget):
        import random
        tower = make_tower(q, r * t)
        sysm = construct_subgeometry(tower, r, t, h)
        rng = random.Random(0)
        s = (r - 1) * t + 1
        worst = 0
        for _ in range(trials):
            v = np.array([tower.random_element(rng)
                          for _ in range(sysm.k)], dtype=np.int64)
            dec = decompose(sysm, v)
            if not dec.verify(sysm):
                return "reconstruction failure"
            worst = max(worst, dec.terms)
        return worst <= s
    return run


def _bounds_diff(budget):
    return len(bnd.verify_published_rows(5, 12, 12))


def _brute_s(q, m, k, rho):
    def run(budget):
        return bnd.brute_force_s(q, m, k, rho, budget)
    return run


SCENARIOS: list[Scenario] = [
    Scenario("gabidulin-4-1", "covering radius of the [4,1] Gabidulin code "
             "over F_16", 3, "reported", _gabidulin_radius(1)),
    Scenario("gabidulin-4-2", "covering radius of the [4,2] Gabidulin code "
             "over F_16", 2, "reported", _gabidulin_radius(2)),
    Scenario("gabidulin-4-3", "covering radius of the [4,3] Gabidulin code "
             "over F_16", 1, "reported", _gabidulin_radius(3)),
    Scenario("rho1-2-2-2", "radius-1 system at q=2, m=2, k=2: (n, radius)",
             (3, 1), "reported", _rho1(2, 2, 2)),
    Scenario("rho1-2-2-3", "radius-1 system at q=2, m=2, k=3: (n, radius)",
             (5, 1), "reported", _rho1(2, 2, 3)),
    Scenario("rho1-3-2-2", "radius-1 system at q=3, m=2, k=2: (n, radius)",
             (3, 1), "reported", _rho1(3, 2, 2)),
    Scenario("identity-block-2-2-3-2", "radius of the [4,3] block system "
             "at q=2, m=2", 2, "derived", _identity_block(2, 2, 3, 2)),
    Scenario("identity-block-2-3-4-3", "radius of the [6,4] block system "
             "at q=2, m=3", 3, "derived", _identity_block(2, 3, 4, 3)),
    Scenario("remark-4.9", "direct sum of the [2,2] and [3,1] systems over "
             "F_16 (radius drops below the sum)", 2, "reported", _remark_4_9),
    Scenario("example-5.8", "[6,3]_{16/2} golden matrix: (|L_U|, scattered, "
             "cutting, radius over F_256)", (63, True, True, 2), "reported",
             _example_5_8),
    Scenario("example-5.9", "[8,4]_{q^4/q} system at q=2: (n, k, cutting)",
             (8, 4, True), "reported", _example_5_9),
    Scenario("experiment-5.9-q4", "open question at q=4 (h even): dual "
             "distance bound only; no expected radius is asserted",
             {"d_rk_at_least": 2, "radius_at_most": 3}, "derived",
             _experiment_5_9_q4),
    Scenario("subgeometry-2-2-2-1", "[5,4]_{16/2} subgeometry system: "
             "(n, k, radius)", (5, 4, 3), "reported", _subgeometry(2, 2, 2, 1)),
    Scenario("decompose-2-2-2-2", "200 random targets decompose within "
             "(r-1)t+1 terms", True, "derived", _decompose_check(2, 2, 2, 2)),
    Scenario("bounds-table", "number of discrepancies re-deriving the "
             "published exact rows on the grid q<=5, m<=12, k<=12", 0,
             "reported", _bounds_diff),
    Scenario("brute-s-2-2-2-1", "exhaustive minimal dimension at q=2, m=2, "
             "k=2, rho=1", 3, "derived", _brute_s(2, 2, 2, 1)),
]


def get_scenarios(pattern: str | None = None) -> list[Scenario]:
    import fnmatch
    if not pattern:
        return sorted(SCENARIOS, key=lambda s: s.name)
    return sorted((s for s in SCENARIOS if fnmatch.fnmatch(s.name, pattern)),
                  key=lambda s: s.name)
