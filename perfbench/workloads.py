"""Seeded workloads of exact ranksat jobs, each with its known answer.

Every input is an equivalence image of a system whose answer is known:
a random row transform A in GL(k, q^m) and a random column transform B
in GL(n, q) turn G into A G B, which spans an image of the same
F_q-subspace under a linear automorphism.  The seed therefore changes
the matrices the program receives, but not the answers or the work an
exact enumeration does.

Jobs call ranksat through module attributes (`covering.saturation_radius`,
`cli.main`, ...) so that the tracer, which rebinds those attributes,
sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ranksat import (cli, constructions, covering, fqlinalg, gftower,
                     interchange, linalg, qsystem)

# Moduli are pinned so that element codes below keep their meaning even
# if the library's default modulus choice changes.
F4 = (2, 2, (1, 1, 1))
F16 = (2, 4, (1, 1, 0, 0, 1))
F27 = (3, 3, (1, 2, 0, 1))
F64 = (2, 6, (1, 1, 0, 0, 0, 0, 1))
F81 = (3, 4, (2, 1, 0, 0, 1))
F256 = (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1))

# A [6,3]_{27/3} system with saturation radius 2 (coefficient and
# geometric routes agree); odd characteristic, so add_arr takes the
# digit-table path.
F27_6_3 = [[19, 8, 23, 11, 25, 22],
           [26, 23, 20, 16, 0, 26],
           [14, 24, 7, 20, 1, 5]]

# Tiny systems over F_4 and their saturation radius; the coefficient,
# geometric, dual rank-covering and Hamming-bridge routes all give it.
F4_SYSTEMS = [
    ([[3, 0], [3, 1]], 2),
    ([[2, 0], [0, 1]], 2),
    ([[0, 3, 1, 0], [2, 3, 0, 1]], 1),
    ([[1, 1, 3, 1, 3], [0, 1, 3, 3, 2], [2, 2, 1, 3, 2]], 1),
    ([[0, 3, 2, 2], [1, 1, 1, 2], [2, 0, 0, 1]], 2),
    ([[2, 1, 1, 2], [0, 2, 2, 1], [3, 0, 3, 2]], 2),
    ([[1, 1, 1, 3], [2, 3, 1, 1], [2, 2, 2, 0]], 2),
    ([[3, 3, 2, 0], [2, 0, 3, 1]], 1),
    ([[1, 3, 1], [0, 2, 2]], 1),
    ([[3, 2, 1, 0], [3, 3, 1, 2]], 1),
]

DECOMPOSE_TARGETS = 500     # per subgeometry system

WORKLOADS = ("coeff-sweep", "span-marking", "small-exact")


@dataclass
class Job:
    """One exact computation.  `run` returns {"answer": ..., "detail": ...}
    as plain JSON data; `answer` must equal `expected` and does not depend
    on the seed, `detail` may (certificates, witnesses)."""

    kind: str
    run: Callable[[], dict]
    expected: object


def tower(spec) -> gftower.FieldTower:
    q, m, modulus = spec
    return gftower.make_tower(q, m, list(modulus))


def _invertible(size: int, order: int, rank, rng: random.Random):
    while True:
        M = np.array([[rng.randrange(order) for _ in range(size)]
                      for _ in range(size)], dtype=np.int64)
        if rank(M) == size:
            return M


def gl_image(G, tw: gftower.FieldTower, rng: random.Random) -> np.ndarray:
    """A G B with A uniform in GL(k, q^m) and B uniform in GL(n, q).

    B has F_q entries, whose codes are their own codes in F_{q^m}.
    """
    G = np.asarray(G, dtype=np.int64)
    k, n = G.shape
    A = _invertible(k, tw.order, lambda M: linalg.ext_rank(M, tw), rng)
    B = _invertible(n, tw.base.q, lambda M: fqlinalg.rank(M, tw.base), rng)
    return linalg.ext_matmul(linalg.ext_matmul(A, G, tw), B, tw)


def _rng(seed: int, name: str) -> random.Random:
    # str seeds hash with SHA-512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{seed}/{name}")


def _write_matrix(workdir: str, name: str, tw, G) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        json.dump(interchange.matrix_to_json(tw, G), fh)
    return path


def _warm(towers) -> None:
    """Fill lazy tables and caches with one tiny exact job per field."""
    for tw in towers:
        sysm = constructions.construct_identity_block(tw, 2, 2)
        covering.saturation_radius(sysm)
        covering.saturation_radius_geometric(sysm)


# ----------------------------------------------------------------------
# Job kinds
# ----------------------------------------------------------------------

def verify_job(kind: str, workdir: str, matrix_path: str, rho: int,
               method: str) -> Job:
    """`ranksat verify` run in-process, as a user of the CLI would."""
    cert_path = os.path.join(workdir, kind + ".cert.json")

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", matrix_path, "--rho", str(rho),
                             "--method", method,
                             "--certificate", cert_path])
        with open(cert_path) as fh:
            cert = json.load(fh)
        return {"answer": {"exit": code, "rho": cert["measured_rho"]},
                "detail": {"stdout": out.getvalue(), "certificate": cert}}
    return Job(kind, run, {"exit": 0, "rho": rho})


def cross_check_job(kind: str, tw, G, rho: int) -> Job:
    """Coefficient route checked against the geometric route."""
    def run():
        sysm = qsystem.QSystem(tw, G)
        r_coeff, cert = covering.saturation_radius(sysm)
        r_geo = covering.saturation_radius_geometric(sysm)
        return {"answer": {"coefficient": r_coeff, "geometric": r_geo},
                "detail": cert.to_json()}
    return Job(kind, run, {"coefficient": rho, "geometric": rho})


def geometric_job(kind: str, tw, G, rho: int, points: int,
                  weights: dict[int, int]) -> Job:
    """Linear set (point count and weight distribution) and geometric
    saturation radius of one system."""
    def run():
        sysm = qsystem.QSystem(tw, G)
        ls = qsystem.linear_set(sysm)
        rho_geo = covering.saturation_radius_geometric(sysm)
        return {"answer": {"points": len(ls),
                           "weights": _weight_counts(ls),
                           "rho": rho_geo},
                "detail": ls.points.tolist()}
    return Job(kind, run, {"points": points, "weights": weights,
                           "rho": rho})


def _weight_counts(ls) -> dict[int, int]:
    counts: dict[int, int] = {}
    for w in ls.weight_multiset():
        counts[w] = counts.get(w, 0) + 1
    return counts


def lifted_geometric_job(kind: str, workdir: str, matrix_path: str,
                         systems) -> Job:
    """`ranksat verify --method geometric` on the lifted [6,3] image, and
    the linear sets of [6,3] images (63 points, all of weight 1)."""
    verify = verify_job(kind, workdir, matrix_path, 2, "geometric")

    def run():
        out = verify.run()
        for tw, G in systems:
            ls = qsystem.linear_set(qsystem.QSystem(tw, G))
            out["answer"].setdefault("linear_sets", []).append(
                {"points": len(ls), "weights": _weight_counts(ls)})
            out["detail"].setdefault("points", []).append(ls.points.tolist())
        return out
    return Job(kind, run, dict(verify.expected, linear_sets=[
        {"points": 63, "weights": {1: 63}}] * len(systems)))


def cutting_job(kind: str, tw, G) -> Job:
    def run():
        sysm = qsystem.QSystem(tw, G)
        return {"answer": covering.is_linear_cutting_blocking_set(sysm),
                "detail": None}
    return Job(kind, run, True)


def search_job(kind: str, q: int, m: int, k: int, rho: int, n: int) -> Job:
    """`ranksat search --mode exhaustive`, whose minimal n is known."""
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["search", "--q", str(q), "--m", str(m),
                             "--k", str(k), "--rho", str(rho),
                             "--mode", "exhaustive"])
        doc = json.loads(out.getvalue())
        return {"answer": {"exit": code, "mode": doc["mode"], "n": doc["n"],
                           "minimal": doc["minimal"]},
                "detail": doc}
    return Job(kind, run, {"exit": 0, "mode": "exhaustive", "n": n,
                           "minimal": True})


def decompose_job(kind: str, cases) -> Job:
    """Decompositions of seeded targets in box systems; each must verify
    and use at most (r-1)t+1 terms.  `cases` holds (system, targets,
    (r-1)t+1) triples."""
    def run():
        answer, detail = [], []
        for sysm, targets, max_terms in cases:
            terms = []
            verified = True
            for v in targets:
                dec = constructions.decompose(sysm, v)
                verified &= dec.verify(sysm)
                terms.append(dec.terms)
            answer.append({"verified": verified,
                           "within_bound": max(terms) <= max_terms})
            detail.append(terms)
        return {"answer": answer, "detail": detail}
    return Job(kind, run,
               [{"verified": True, "within_bound": True}] * len(cases))


def four_route_job(kind: str, tw, systems) -> Job:
    """Coefficient, geometric, dual rank covering radius and Hamming bridge
    on each system; all four must give its known radius."""
    def run():
        answer = []
        for G in systems:
            sysm = qsystem.QSystem(tw, G)
            r_coeff, _ = covering.saturation_radius(sysm)
            r_geo = covering.saturation_radius_geometric(sysm)
            code = qsystem.associated_code(sysm)
            r_dual = covering.rank_covering_radius(code.dual())
            gh = qsystem.projective_hamming_code(sysm)
            r_ham = covering.hamming_covering_radius(
                linalg.RankCode(tw, gh.A).parity_check, tw)
            answer.append([r_coeff, r_geo, r_dual, r_ham])
        return {"answer": answer, "detail": None}
    return Job(kind, run, [[rho] * 4 for _, rho in F4_SYSTEMS])


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def _lifted_6_3(seed: int, t256):
    """Seeded image of the published [6,3]_{16/2} cutting set read over
    F_256 (saturation radius 2)."""
    lifted = qsystem.lift_system(constructions.cutting_system_6_3(tower(F16)),
                                 t256)
    return gl_image(lifted.generator, t256, _rng(seed, "lifted-6-3"))


def coeff_sweep(seed: int, workdir: str) -> list[Job]:
    t256, t27 = tower(F256), tower(F27)
    path = _write_matrix(workdir, "lifted-6-3.json", t256,
                         _lifted_6_3(seed, t256))
    G27 = gl_image(F27_6_3, t27, _rng(seed, "f27-6-3"))
    _warm([t256, t27])
    return [
        verify_job("verify-coefficient-lifted-6-3", workdir, path, 2,
                   "coefficient"),
        cross_check_job("cross-check-f27-6-3", t27, G27, 2),
    ]


def span_marking(seed: int, workdir: str) -> list[Job]:
    t16, t27, t64, t256 = tower(F16), tower(F27), tower(F64), tower(F256)
    block64 = constructions.construct_identity_block(t64, 4, 3)
    block27 = constructions.construct_identity_block(t27, 4, 3)
    G64 = gl_image(block64.generator, t64, _rng(seed, "block-9-4-f64"))
    G27 = gl_image(block27.generator, t27, _rng(seed, "block-6-4-f27"))
    G_lifted = _lifted_6_3(seed, t256)
    path = _write_matrix(workdir, "lifted-6-3.json", t256, G_lifted)
    G16 = gl_image(constructions.cutting_system_6_3(t16).generator, t16,
                   _rng(seed, "cutting-6-3"))
    _warm([t16, t27, t64, t256])
    # F_q^3 x F_{q^m}: (q^3 - 1)/(q - 1) * q^m points of weight 1, and
    # the point (0,0,0,1) of weight m
    return [
        geometric_job("geometric-block-9-4-f64", t64, G64, 3, 449,
                      {1: 448, 6: 1}),
        geometric_job("geometric-block-6-4-f27", t27, G27, 3, 352,
                      {1: 351, 3: 1}),
        lifted_geometric_job("verify-geometric-lifted-6-3", workdir, path,
                             [(t16, G16), (t256, G_lifted)]),
    ]


def _targets(sysm, count: int, rng: random.Random) -> list[np.ndarray]:
    Q = sysm.tower.order
    return [np.array([rng.randrange(Q) for _ in range(sysm.k)],
                     dtype=np.int64) for _ in range(count)]


def small_exact(seed: int, workdir: str) -> list[Job]:
    t4, t16, t81 = tower(F4), tower(F16), tower(F81)
    G84 = gl_image(constructions.cutting_system_8_4(t16).generator, t16,
                   _rng(seed, "cutting-8-4"))
    G63 = gl_image(constructions.cutting_system_6_3(t16).generator, t16,
                   _rng(seed, "cutting-6-3"))
    sub2 = constructions.construct_subgeometry(t16, 2, 2, 2)
    sub3 = constructions.construct_subgeometry(t81, 2, 2, 1)
    tiny_rng = _rng(seed, "four-route")
    tiny = [gl_image(G, t4, tiny_rng) for G, _ in F4_SYSTEMS]
    _warm([t4, t16, t81, gftower.make_tower(3, 2)])
    return [
        cutting_job("cutting-8-4-f16", t16, G84),
        cutting_job("cutting-6-3-f16", t16, G63),
        search_job("search-exhaustive-3-2-2-1", 3, 2, 2, 1, 3),
        decompose_job("decompose-subgeometry", [
            (sub2, _targets(sub2, DECOMPOSE_TARGETS,
                            _rng(seed, "decompose-2-2-2-2")), 3),
            (sub3, _targets(sub3, DECOMPOSE_TARGETS,
                            _rng(seed, "decompose-3-2-2-1")), 3)]),
        four_route_job("four-route-f4", t4, tiny),
    ]


BUILDERS = {"coeff-sweep": coeff_sweep, "span-marking": span_marking,
            "small-exact": small_exact}


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """Generate the inputs of one job cycle, write its JSON files and warm
    up; this is the set-up a run pays once."""
    return BUILDERS[workload](seed, workdir)
