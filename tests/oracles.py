"""Naive independent oracles used to freeze expected values.

Everything here recomputes results from definitions (subset spans,
all-pairs distances, exhaustive subspace listings) without touching the
package's sweep machinery, so a test asserting `fast == oracle` is a
genuine two-route check.
"""

from itertools import combinations, product

import numpy as np

from ranksat.gftower import _poly_mulmod, _poly_trim
from ranksat.linalg import ext_rank, rank_weight


def schoolbook_mul(tower, a, b):
    """a b in F_{q^m} as the product of the two digit polynomials over
    F_q, reduced mod the tower's modulus (no log/exp tables)."""
    res = _poly_mulmod(tower.base, _poly_trim(tower.digits(a)),
                       _poly_trim(tower.digits(b)), list(tower.modulus))
    return tower.from_digits(res + [0] * tower.m)


def schoolbook_pow(tower, a, n):
    """a^n by square-and-multiply over `schoolbook_mul`."""
    result = 1
    while n:
        if n & 1:
            result = schoolbook_mul(tower, result, a)
        a = schoolbook_mul(tower, a, a)
        n >>= 1
    return result


def brute_rank_covering_radius(code):
    """max over ambient vectors of min rank distance to a codeword."""
    tower = code.tower
    Q = tower.order
    words = code.codewords()
    worst = 0
    for x in product(range(Q), repeat=code.n):
        xv = np.array(x, dtype=np.int64)
        best = min(rank_weight(tower.sub_arr(xv, c), tower) for c in words)
        worst = max(worst, best)
    return worst


def brute_min_coefficient_rank(G, tower):
    """For every target (indexed with its first entry most significant),
    the least rank weight of a lambda with G lambda^T = target, from all
    Q^n coefficient vectors and scalar field operations."""
    G = np.atleast_2d(np.asarray(G, dtype=np.int64))
    k, n = G.shape
    Q = tower.order
    least = np.full(Q ** k, n + 1)
    for lam in product(range(Q), repeat=n):
        target = 0
        for i in range(k):
            entry = 0
            for j in range(n):
                entry = tower.add(entry, tower.mul(int(G[i, j]), lam[j]))
            target = target * Q + entry
        least[target] = min(least[target], rank_weight(lam, tower))
    return least


def brute_saturation_radius(sysm):
    """min rho such that every ambient vector lies in the span of some
    rho-subset of U (subset enumeration from the definition)."""
    tower = sysm.tower
    Q = tower.order
    U = [np.array(u, dtype=np.int64) for u in sysm.vectors() if any(u)]
    for rho in range(1, sysm.k + 1):
        if all(_in_some_span(v, U, rho, tower)
               for v in product(range(Q), repeat=sysm.k)):
            return rho
    return None


def _in_some_span(v, U, rho, tower):
    va = np.array(v, dtype=np.int64)
    if not va.any():
        return True
    for subset in combinations(U, rho):
        M0 = np.array(subset, dtype=np.int64)
        if ext_rank(np.vstack([M0, va]), tower) == ext_rank(M0, tower):
            return True
    return False


def brute_min_terms(sysm, v, rmax):
    """Smallest number of U-elements whose span contains v."""
    tower = sysm.tower
    U = [np.array(u, dtype=np.int64) for u in sysm.vectors() if any(u)]
    va = np.asarray(v, dtype=np.int64)
    if not va.any():
        return 0
    for r in range(1, rmax + 1):
        if _in_some_span(tuple(va), U, r, tower):
            return r
    return None


def brute_hamming_covering_radius(gen, tower):
    from ranksat.linalg import span_vectors
    Q = tower.order
    gen = np.atleast_2d(np.asarray(gen, dtype=np.int64))
    words = span_vectors(gen, tower)
    worst = 0
    for x in product(range(Q), repeat=gen.shape[1]):
        xv = np.array(x, dtype=np.int64)
        best = min(int(np.count_nonzero(tower.sub_arr(xv, c)))
                   for c in words)
        worst = max(worst, best)
    return worst


def brute_is_maximal(code):
    """No ambient vector keeps rank distance >= d from every codeword."""
    from ranksat.linalg import min_rank_distance
    tower = code.tower
    d = min_rank_distance(code)
    words = code.codewords()
    for x in product(range(tower.order), repeat=code.n):
        xv = np.array(x, dtype=np.int64)
        if min(rank_weight(tower.sub_arr(xv, c), tower)
               for c in words) >= d:
            return False
    return True


def brute_subspace_count(n, w, q, field):
    """Number of w-dimensional subspaces of F_q^n, counted by listing
    the span of every independent w-tuple (no RREF involved)."""
    from ranksat import fqlinalg
    vectors = [tuple(v) for v in fqlinalg.all_vectors(n, field)]
    spans = set()
    for combo in combinations(vectors[1:], w):
        M = np.array(combo, dtype=np.int16)
        if fqlinalg.rank(M, field) != w:
            continue
        # span = all F_q-combinations
        members = {tuple(np.zeros(n, dtype=np.int16))}
        for coeffs in product(range(q), repeat=w):
            acc = np.zeros(n, dtype=np.int16)
            for c, row in zip(coeffs, M):
                acc = field._add[acc, field._mul[np.full(n, c,
                                                 dtype=np.int16), row]]
            members.add(tuple(int(x) for x in acc))
        spans.add(frozenset(members))
    return len(spans)


def brute_cutting(sysm):
    """Hyperplane check straight from the definition, enumerating U."""
    from ranksat.qsystem import PointIndexer
    tower = sysm.tower
    U = [np.array(u, dtype=np.int64) for u in sysm.vectors()]
    indexer = PointIndexer(tower, sysm.k)
    for hidx in range(indexer.total):
        h = indexer.decode([hidx])[0]
        members = []
        for u in U:
            dot = 0
            for a, b in zip(h, u):
                dot = tower.add(dot, tower.mul(int(a), int(b)))
            if dot == 0:
                members.append(u)
        M = np.array(members, dtype=np.int64)
        if ext_rank(M, tower) != sysm.k - 1:
            return False
    return True


def brute_is_minimal(code, budget=1 << 26):
    """No two projectively distinct codewords have nested rank supports:
    every pair of supports compared, from the codeword list."""
    from ranksat.linalg import rank_support
    from ranksat.qsystem import PointIndexer
    tower = code.tower
    words = code.codewords(budget)
    reps, idx, _ = PointIndexer(tower, code.n).canonicalize(words)
    _, first = np.unique(idx, return_index=True)
    supports = [rank_support(r, tower) for r in reps[first]]
    if len(set(supports)) < len(supports):
        return False
    return not any(big.contains(small, tower.base) for small in supports
                   for big in supports if small.dim < big.dim)


def degenerate_code(sysm, extra, rng):
    """The code generated by G A for a random F_q-matrix A with n rows,
    n + extra columns and full row rank: its columns span the same U as
    G's, and for extra > 0 they are F_q-dependent."""
    from ranksat.linalg import RankCode, ext_matmul
    tower, n = sysm.tower, sysm.n
    R = [[rng.randrange(tower.base.q) for _ in range(extra)]
         for _ in range(n)]
    A = np.hstack([np.eye(n, dtype=np.int64),
                   np.array(R, dtype=np.int64).reshape(n, extra)])
    cols = list(range(n + extra))
    rng.shuffle(cols)
    return RankCode(tower, ext_matmul(sysm.generator, A[:, cols], tower))


def decompose_by_solves(sysm, v, basis=None):
    """`decompose` with one `fqlinalg.solve` per bottom coordinate and per
    extension candidate: the module grows by the first candidate outside
    it while some bottom coordinate is outside it, and every bottom
    coordinate is read from its own particular solution."""
    from ranksat import fqlinalg
    from ranksat.constructions import Decomposition
    s, t, h = sysm.meta["box"]
    tower = sysm.tower
    q = tower.base.q
    v = np.asarray(v, dtype=np.int64).ravel()
    emb = tower.subfield(t)
    sub_basis = [int(emb.embed_table[emb.sub_tower.from_digits(
        [0] * i + [1] + [0] * (t - 1 - i))]) for i in range(t)]
    top = [int(x) for x in v[:s]]
    bottom = [int(x) for x in v[s:]]
    if all(x < q for x in top) and all(emb.contains(w) for w in bottom):
        if not v.any():
            return Decomposition(v, [], [])
        return Decomposition(v, [1], [v.copy()])

    R, pivots = fqlinalg.rref(tower.digit_table()[top].T, tower.base)
    lams = [top[c] for c in pivots]
    nu = len(lams)
    coeffs = np.zeros((s, s), dtype=np.int16)
    coeffs[:, :nu] = R.T

    def module_matrix(gens):
        cols = [np.array(tower.digits(tower.mul(g, d)), dtype=np.int16)
                for g in gens for d in sub_basis]
        if not cols:
            return np.zeros((tower.m, 0), dtype=np.int16)
        return np.stack(cols, axis=1)

    def solvable(A, w):
        return fqlinalg.solve(A, np.array(tower.digits(w), dtype=np.int16),
                              tower.base)

    gens = list(lams)
    candidates = []
    if basis is not None and basis.t == t:
        candidates.extend(basis.betas)
    candidates.extend(tower.pow(tower.alpha, j) for j in range(tower.m))
    A = module_matrix(gens)
    for w in bottom:
        while solvable(A, w) is None:
            cand = next(c for c in candidates
                        if c and solvable(A, c) is None)
            gens.append(cand)
            A = module_matrix(gens)

    bottoms = np.zeros((len(gens), h), dtype=np.int64)
    for i, w in enumerate(bottom):
        x = solvable(A, w)
        for j in range(len(gens)):
            digs = x[j * t:(j + 1) * t]
            bottoms[j, i] = emb.embed_table[emb.sub_tower.from_digits(digs)]

    lams_out, vecs_out = [], []
    for j, g in enumerate(gens):
        u = np.zeros(sysm.k, dtype=np.int64)
        if j < nu:
            u[:s] = coeffs[:, j]
        u[s:] = bottoms[j]
        if g and u.any():
            lams_out.append(g)
            vecs_out.append(u)
    return Decomposition(v.copy(), lams_out, vecs_out)


def affine_rank_layers(H, tower, budget, first_touch=None):
    """The coefficient sweep over an affine bitmap: yield (w, covered)
    after marking the packed indices of all Q^w multiples gamma * M of
    every RREF basis M of dimension w, finishing every level.  When
    `first_touch` is a dict it collects, for each syndrome index, the
    first x = gamma * M that reaches it (subspaces, then gamma).  It
    shares the package's `_span_marks` kernel, which the brute-force
    oracles above check, so it is the reference for the projective
    marking, the early stop and the witness replay."""
    from ranksat import fqlinalg
    from ranksat.covering import _charge, _check_space, _packing, _span_marks
    from ranksat.linalg import ext_matmul
    H = np.atleast_2d(np.asarray(H, dtype=np.int64))
    r, n = H.shape
    Q = tower.order
    _check_space(Q ** r, budget)
    covered = np.zeros(Q ** r, dtype=bool)
    covered[0] = True
    work = 1
    w = 0
    yield w, covered
    while not covered.all():
        w += 1
        assert w <= min(n, tower.m), "sweep failed to terminate"
        work = _charge(work, fqlinalg.count_subspaces(n, w, tower.base.q)
                       * Q ** w, budget, "rank", w,
                       float(covered.sum()) / covered.size)
        for _, batch in fqlinalg.rref_subspaces(n, w, tower.base):
            B = ext_matmul(H, batch.reshape(-1, n).T.astype(np.int64), tower)
            idx = _span_marks(B.reshape(r, -1, w), tower).ravel()
            if first_touch is not None:
                fresh = np.nonzero(~covered[idx])[0]
                uniq, upos = np.unique(idx[fresh], return_index=True)
                pos = fresh[upos]
                gammas = pos[:, None] // _packing(Q, w) % Q
                terms = tower.mul_arr(gammas[:, :, None], batch[pos // Q ** w])
                x = terms[:, 0]
                for j in range(1, w):
                    x = tower.add_arr(x, terms[:, j])
                first_touch.update(zip(uniq.tolist(), map(tuple, x.tolist())))
            covered[idx] = True
        yield w, covered


def affine_saturation_radius(sysm, budget=1 << 26, witness_cap=1 << 12):
    """`saturation_radius` over `affine_rank_layers`: the tightness target
    is the least packed target still missed when the last level starts."""
    from ranksat.covering import SaturationCertificate, system_hash
    tower = sysm.tower
    Q = tower.order
    first_touch = {} if Q ** sysm.k <= witness_cap else None
    tight = None
    for rho, covered in affine_rank_layers(sysm.generator, tower, budget,
                                           first_touch):
        if not covered.all():
            tight = int(np.argmin(covered))

    def decode(idx):
        return (np.asarray(idx)[..., None]
                // Q ** np.arange(sysm.k - 1, -1, -1) % Q).tolist()

    keys = sorted(first_touch or {})
    witnesses = {tuple(t): first_touch[i] for i, t in zip(keys, decode(keys))}
    if tight is not None:
        tight = tuple(decode(tight))
    return rho, SaturationCertificate(rho, sysm.k, sysm.n, tower, witnesses,
                                      tight, system_hash(sysm))
