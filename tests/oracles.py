"""Naive independent oracles used to freeze expected values.

Everything here recomputes results from definitions (subset spans,
all-pairs distances, exhaustive subspace listings) without touching the
package's sweep machinery, so a test asserting `fast == oracle` is a
genuine two-route check.
"""

from itertools import combinations, islice, product

import numpy as np

from ranksat import fqlinalg
from ranksat.gftower import (FieldTower, SmallField, _poly_mulmod, _poly_trim,
                             add_digits, expand)
from ranksat.linalg import _combinations, ext_matmul, ext_rank
from ranksat.qsystem import PointIndexer


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


def _digits(tower, A):
    """The m e base-p digits of each code of A, lowest first, on a new
    last axis."""
    p, n = tower.base.p, tower.m * tower.base.e
    return np.asarray(A, dtype=np.int64)[..., None] // p ** np.arange(n)


def _pack(tower, D):
    """Codes of the digit arrays D (last axis), each digit taken mod p."""
    p = tower.base.p
    return D % p @ p ** np.arange(D.shape[-1])


def digit_table_add(tower, A, B):
    """`FieldTower.add_arr` by definition: the base-p digits of both
    operands added mod p, one by one."""
    return _pack(tower, _digits(tower, A) + _digits(tower, B))


def digit_table_neg(tower, A):
    """`FieldTower.neg_arr` by definition: each base-p digit negated."""
    return _pack(tower, -_digits(tower, A))


def digit_table_sub(tower, A, B):
    """`FieldTower.sub_arr` by definition: digit-wise differences mod p."""
    return _pack(tower, _digits(tower, A) - _digits(tower, B))


def digit_rank_weight(v, tower):
    """`linalg.rank_weight` before the F_q-span kernel: the F_q-rank of
    the digit matrix of v."""
    v = np.asarray(v, dtype=np.int64).ravel()
    if not v.size or not v.any():
        return 0
    return fqlinalg.rank(expand(v, tower), tower.base)


def echelon_rank_weight_batch(V, tower):
    """`linalg.rank_weight_batch` before the F_q-span kernel: the ranks
    of the rows' digit matrices, by one batched `echelon` over F_q."""
    V = np.atleast_2d(np.asarray(V, dtype=np.int64))
    return fqlinalg.echelon(tower.digit_table()[V], tower.base)[2]


def numpy_rref(M, field):
    """`fqlinalg.rref` before it ran on Python rows: per pivot, one array
    op normalises the pivot row and one clears its column."""
    R = np.atleast_2d(np.array(M, dtype=np.int64))
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = R[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        row = (R[p].copy() if R[p, c] == 1
               else field.mul_arr(field.inv_arr(R[p, c]), R[p]))
        R[p] = R[r]
        R[r] = row
        # clear column c in every other row with one array op
        f = R[:, c].copy()
        f[r] = 0
        if np.count_nonzero(f):
            R[:] = field.sub_arr(R, field.mul_arr(f[:, None], row))
        pivots.append(c)
        r += 1
    return R[:r], pivots


def brute_rank_covering_radius(code):
    """max over ambient vectors of min rank distance to a codeword."""
    tower = code.tower
    Q = tower.order
    words = code.codewords()
    worst = 0
    for x in product(range(Q), repeat=code.n):
        xv = np.array(x, dtype=np.int64)
        best = min(digit_rank_weight(tower.sub_arr(xv, c), tower)
                   for c in words)
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
        least[target] = min(least[target], digit_rank_weight(lam, tower))
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
        if min(digit_rank_weight(tower.sub_arr(xv, c), tower)
               for c in words) >= d:
            return False
    return True


def pivot_batch_subspaces(n, w, field):
    """`fqlinalg.rref_subspaces` before it yielded bounded stacks: all
    w-dimensional subspaces of F_q^n, one RREF basis each.

    Yields (pivot_cols, batch) where batch has shape (count, w, n) and
    collects every RREF matrix with that pivot set.  The total number of
    matrices over all batches is the Gaussian binomial [n choose w]_q.
    """
    q = field.q
    if w == 0:
        yield (), np.zeros((1, 0, n), dtype=np.int16)
        return
    if w > n:
        return
    for pivots in combinations(range(n), w):
        free_slots = []
        for r in range(w):
            for c in range(pivots[r] + 1, n):
                if c not in pivots:
                    free_slots.append((r, c))
        nf = len(free_slots)
        count = q ** nf
        batch = np.zeros((count, w, n), dtype=np.int16)
        for r in range(w):
            batch[:, r, pivots[r]] = 1
        vals = np.arange(count)
        for s, (r, c) in enumerate(free_slots):
            batch[:, r, c] = (vals // (q ** s)) % q
        yield pivots, batch


def brute_subspace_count(n, w, q, field):
    """Number of w-dimensional subspaces of F_q^n, counted by listing
    the span of every independent w-tuple (no RREF basis involved)."""
    vectors = [tuple(v) for v in _combinations(np.eye(n, dtype=np.int64),
                                               np.arange(q), field)]
    spans = set()
    for combo in combinations(vectors[1:], w):
        M = np.array(combo, dtype=np.int64)
        if fqlinalg.rank(M, field) != w:
            continue
        # span = all F_q-combinations
        members = set()
        for coeffs in product(range(q), repeat=w):
            acc = np.zeros(n, dtype=np.int64)
            for c, row in zip(coeffs, M):
                acc = field.add_arr(acc, field.mul_arr(c, row))
            members.add(tuple(int(x) for x in acc))
        spans.add(frozenset(members))
    return len(spans)


def brute_cutting(sysm):
    """Hyperplane check straight from the definition, enumerating U."""
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


def echelon_cutting(sysm, chunk=1 << 14):
    """`covering.is_linear_cutting_blocking_set` before the F_q-span
    kernel: per chunk of normals h, the digits of h G form the
    F_q-constraints C c = 0; their RREF rows, placed at their pivot rows,
    form an idempotent S with kernel ker C, and G (I - S), which spans
    H intersect U, must have rank k - 1 over F_{q^m}."""
    tower, G, k, n = sysm.tower, sysm.generator, sysm.k, sysm.n
    indexer = PointIndexer(tower, k)
    per = max(1, chunk // max(1, k * n))
    for start in range(0, indexer.total, per):
        h = indexer.decode(np.arange(start, min(start + per, indexer.total)))
        C = tower.digit_table()[ext_matmul(h, G, tower)].transpose(0, 2, 1)
        R, pivot_col, _ = fqlinalg.echelon(C, tower.base)
        S = np.zeros((len(h), n + 1, n), dtype=np.int64)
        S[np.arange(len(h))[:, None], pivot_col] = R
        I_S = tower.base.sub_arr(np.eye(n, dtype=np.int64), S[:, :n])
        if (fqlinalg.echelon(ext_matmul(G, I_S, tower), tower)[2]
                != k - 1).any():
            return False
    return True


def brute_is_minimal(code, budget=1 << 26):
    """No two projectively distinct codewords have nested rank supports:
    every pair of supports compared, from the codeword list.  The rank
    support of v is the row space of the RREF of expand(v)^T over F_q,
    and one support holds another iff stacking them keeps its rank."""
    tower = code.tower
    words = code.codewords(budget)
    reps, idx, _ = PointIndexer(tower, code.n).canonicalize(words)
    _, first = np.unique(idx, return_index=True)
    supports = [fqlinalg.rref(expand(r, tower).T, tower.base)[0]
                for r in reps[first]]
    if len({(len(S), S.tobytes()) for S in supports}) < len(supports):
        return False
    return not any(fqlinalg.rank(np.concatenate([big, small]), tower.base)
                   == len(big) for small in supports for big in supports
                   if len(small) < len(big))


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


def rank_membership(sysm, vectors):
    """`Decomposition.verify`'s former membership test: every vector lies
    in U iff the expanded [G | vectors] has F_q-rank n."""
    from ranksat import fqlinalg
    from ranksat.qsystem import expanded_columns
    cols = expanded_columns(np.column_stack([sysm.generator] + list(vectors)),
                            sysm.tower)
    return fqlinalg.rank(cols, sysm.tower.base) == sysm.n


def parity_contains(sysm, V):
    """`QSystem.contains` before the syndrome tables: membership in U of
    each row of V as one product of its k m e base-p digits with a parity
    check P of U over F_p, built afresh, P d(v) = 0 mod p.  U's F_p-span
    is spanned by c g_j, c = p^i (i < e) and g_j the generator columns."""
    tower, k = sysm.tower, sysm.k
    p = tower.base.p
    ppow = p ** np.arange(tower.m * tower.base.e)

    def pdigits(X):
        X = np.asarray(X, dtype=np.int64)
        return (X[..., None] // ppow % p).reshape(X.shape[:-1]
                                                  + (k * ppow.size,))

    c = p ** np.arange(tower.base.e)
    span = tower.mul_arr(c[:, None, None], sysm.generator.T)
    parity = fqlinalg.kernel(pdigits(span.reshape(c.size * sysm.n, k)),
                             SmallField(p))
    return ~(pdigits(V) @ parity.T % p).any(axis=-1)


def decompose_by_solves(sysm, v):
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
    candidates = [tower.pow(tower.alpha, j) for j in range(tower.m)]
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


def digit_matrix_decompose(sysm, v):
    """`constructions.decompose` before the F_q-span kernel: its three
    eliminations row-reduce the digit matrices of the codes with
    `fqlinalg.rref_rows`.  Returns the same Decomposition, lams and
    vectors alike."""
    from ranksat.constructions import Decomposition
    s, t, h = sysm.meta["box"]
    tower = sysm.tower
    q = tower.base.q
    v = np.asarray(v, dtype=np.int64).ravel()
    emb = tower.subfield(t)
    D = tower.digit_table()
    sub_basis = emb.embed_table[emb.sub_tower._qpow]
    alphas = [tower.pow(tower.alpha, j) for j in range(tower.m)]
    alpha_rows = D[alphas].T.tolist()
    top, bottom = v[:s], v[s:]
    if (top < q).all() and emb.member_mask[bottom].all():
        if not v.any():
            return Decomposition(v, [], [])
        return Decomposition(v, [1], [v.copy()])

    T = D[top].T.tolist()
    lams = [int(top[c]) for c in fqlinalg.rref_rows(T, tower.base)]
    nu = len(lams)
    gens = list(lams)
    bottom_rows = D[bottom].T.tolist()
    while True:
        A = D[[tower.mul(g, b) for g in gens for b in sub_basis]].T.tolist()
        c = len(gens) * t
        R = [a + b for a, b in zip(A, bottom_rows)]
        pivots = fqlinalg.rref_rows(R, tower.base)
        if not pivots or pivots[-1] < c:
            break
        found = fqlinalg.rref_rows([a + b for a, b in zip(A, alpha_rows)],
                                   tower.base)
        gens.append(alphas[[p - c for p in found if p >= c][0]])

    X = np.zeros((c, h), dtype=np.int64)
    X[pivots] = np.array(R, dtype=np.int64).reshape(len(pivots), c + h)[:, c:]
    bottoms = emb.embed_table[emb.sub_tower._qpow
                              @ X.reshape(len(gens), t, h)]
    U = np.zeros((len(gens), sysm.k), dtype=np.int64)
    U[:nu, :s] = np.array(T, dtype=np.int64).reshape(nu, s)
    U[:, s:] = bottoms
    keep = np.flatnonzero(np.array(gens, dtype=bool) & U.any(axis=1))
    return Decomposition(v.copy(), [gens[j] for j in keep], list(U[keep]))


def _packing(Q, k):
    """Place values of a length-k vector's packed index, first entry most
    significant."""
    return Q ** np.arange(k - 1, -1, -1, dtype=np.int64)


def _span_marks(B, tower, first=0):
    """Packed indices of sum_j gamma_j B[:, s, j] for each stacked r x w
    block s of B (shape (r, c, w)) and every gamma in {first..Q-1}^w.

    Returns shape (c, (Q - first)^w); gamma runs in base-(Q - first)
    order, first coordinate most significant.  Each column gets a
    multiples table (the packed index of gamma * B[:, s, j] for every
    gamma); the tables are then combined by broadcasting.  A packed index
    is a base-p number whose digits add mod p under vector addition: XOR
    when p = 2, explicit digit arrays otherwise.
    """
    r, c, w = B.shape
    Q, p = tower.order, tower.base.p
    gammas = np.arange(first, Q, dtype=np.int64)
    table = np.tensordot(_packing(Q, r), tower.mul_arr(B[..., None], gammas),
                         axes=1)
    if p == 2 or w == 1:
        acc = table[:, 0]
        for j in range(1, w):
            acc = (acc[:, :, None] ^ table[:, j, None, :]).reshape(c, -1)
        return acc
    ppow = p ** np.arange(r * tower.m * tower.base.e, dtype=np.int64)
    digits = (table[..., None] // ppow % p).astype(np.min_scalar_type(2 * p))
    acc = digits[:, 0]
    for j in range(1, w):
        acc = ((acc[:, :, None] + digits[:, j, None]) % p).reshape(
            c, -1, ppow.size)
    return acc @ ppow


def _cone(tower: FieldTower, V) -> np.ndarray:
    """The multiples c v, c = 1..Q-1 (axis 1), of the rows v of V."""
    return tower.mul_arr(np.arange(1, tower.order)[:, None], V[:, None, :])


def mu_digit_flat_points(R, pivots, indexer: PointIndexer) -> np.ndarray:
    """`covering._flat_points` before `PointIndexer.multiples`: the span
    of the rows below grew by products of each row with the codes of five
    base-p digits of mu at a time, packed by a matmul."""
    tower, (b, w, k) = indexer.tower, R.shape
    p, me = tower.base.p, tower.m * tower.base.e
    steps = [np.arange(p ** min(5, me - t)) * p ** t for t in range(0, me, 5)]
    packed = R @ indexer.qpow
    span, out = None, []    # no rows below: the span is {0}
    for i in range(w - 1, -1, -1):
        row = packed[:, i, None]
        out.append(indexer.off[pivots[:, i], None]
                   + (row if span is None else add_digits(row, span, p,
                                                          k * me)))
        for mus in (steps if i else []):
            mults = tower.mul_arr(R[:, i, None], mus[:, None]) @ indexer.qpow
            span = mults if span is None else add_digits(
                span[:, None], mults[:, :, None], p, k * me).reshape(
                    b, mus.size * span.shape[1])
    return np.concatenate(out, axis=1)


def affine_coverage(covered, tower, r):
    """The affine bitmap over F_{q^m}^r (packed targets, first entry most
    significant) of a projective bitmap over PG(r-1, Q): zero and every
    multiple of each covered point."""
    points = PointIndexer(tower, r)
    affine = np.zeros(tower.order ** r, dtype=bool)
    affine[0] = True
    reps = points.decode(np.flatnonzero(covered))
    affine[_cone(tower, reps) @ points.qpow] = True
    return affine


def coverage_through_level(G, tower, w_max, budget):
    """Bitmap of packed targets that the package's `_rank_layers` reaches
    with coefficient rank <= w_max."""
    from ranksat.covering import _rank_layers
    for w, covered in _rank_layers(G, tower, budget):
        if w == w_max:
            break
    return affine_coverage(covered, tower, np.atleast_2d(G).shape[0])


def affine_rank_layers(H, tower, budget, first_touch=None):
    """The coefficient sweep over an affine bitmap: yield (w, covered)
    after marking the packed indices of all Q^w multiples gamma * M of
    every RREF basis M of dimension w, finishing every level.  When
    `first_touch` is a dict it collects, for each syndrome index, the
    first x = gamma * M that reaches it (subspaces, then gamma).  Its
    multiples-table kernel `_span_marks` shares no marking code with the
    package's sweep, and the brute-force oracles above check it, so it is
    the reference for the projective marking, the early stop and the
    witness replay."""
    from ranksat.bounds import gaussian_binomial
    from ranksat.covering import _charge, _check_space
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
        work = _charge(work, gaussian_binomial(n, w, tower.base.q)
                       * Q ** w, budget, "rank", w,
                       float(covered.sum()) / covered.size)
        for _, batch in pivot_batch_subspaces(n, w, tower.base):
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


def affine_hamming_covering_radius(generator, tower, budget=1 << 26):
    """The Hamming sweep over an affine bitmap: every level marks the
    syndromes of all (Q-1)^w full-support vectors on each w-subset of the
    coordinates, and finishes."""
    from math import comb
    from ranksat.covering import _MARK_CHUNK, _charge, _check_space
    from ranksat.linalg import RankCode, as_matrix
    Gm = as_matrix(tower, generator)
    H = RankCode(tower, Gm).parity_check
    r, N = H.shape[0], Gm.shape[1]
    if r == 0:
        return 0
    Q = tower.order
    _check_space(Q ** r, budget)
    covered = np.zeros(Q ** r, dtype=bool)
    covered[0] = True
    work = 1
    w = 0
    while not covered.all():
        w += 1
        assert w <= N, "Hamming sweep failed to terminate"
        work = _charge(work, comb(N, w) * (Q - 1) ** w, budget,
                       "Hamming weight", w,
                       float(covered.sum()) / covered.size)
        supports = combinations(range(N), w)
        per = max(1, _MARK_CHUNK // (Q - 1) ** w)
        while chunk := list(islice(supports, per)):
            covered[_span_marks(H[:, chunk], tower, first=1).ravel()] = True
    return w


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


def full_subspace_s(q, m, k, rho, budget=1 << 26):
    """s_{q^m/q}(k, rho) by the search over every n-dimensional subspace
    of the expanded ambient space F_q^{mk} (n = k, k+1, ...), skipping
    those that do not span F_{q^m}^k.  Each candidate is tested by
    `affine_rank_layers` through level rho, so neither the reduction to
    F_q^k + W of `brute_force_s` nor its marking kernel is involved."""
    from ranksat.gftower import make_tower
    from ranksat.qsystem import QSystem, SystemError_
    tower = make_tower(q, m)
    D = m * k
    for n in range(k, D + 1):
        for _, batch in pivot_batch_subspaces(D, n, tower.base):
            for M in batch:
                gen = (M.reshape(n, k, m).astype(np.int64) @ tower._qpow).T
                try:
                    QSystem(tower, gen)
                except SystemError_:
                    continue
                for w, covered in affine_rank_layers(gen, tower, budget):
                    if w == rho:
                        break
                if covered.all():
                    return n
    raise RuntimeError("no saturating system found (unreachable)")


def orbit_walk_tables(tower):
    """`FieldTower._build_tables` before the order test: walk the orbit of
    1 under v -> g v for every candidate g = 1, 2, ... until one has
    length Q - 1.  Returns (g, exp, log), exp the orbit (Q - 1 codes) and
    log indexed by code with the sentinel 2(Q - 1) at 0."""
    Q, q, m = tower.order, tower.base.q, tower.m
    xm = tower.from_digits([tower.base.neg(c) for c in tower.modulus[:-1]])
    times_x = tower._linear_map([q ** j for j in range(1, m)] + [xm])
    for g in range(1, Q):
        images = [g]
        for _ in range(m - 1):
            images.append(int(times_x[images[-1]]))
        step = tower._linear_map(images).tolist()
        orbit, v = [1], step[1]
        while v != 1 and len(orbit) < Q:
            orbit.append(v)
            v = step[v]
        if len(orbit) == Q - 1:
            break
    else:
        raise RuntimeError("no primitive element found (unreachable)")
    log = np.full(Q, 2 * (Q - 1), dtype=np.int64)
    log[orbit] = np.arange(Q - 1)
    return g, np.array(orbit, dtype=np.int64), log
