"""Per-layer tracing of ranksat from outside the package.

`Tracer.install` rebinds each traced function where its callers look it
up: module functions in every `ranksat` module that holds the same
object (so `covering.ext_matmul`, bound by `from .linalg import ...`, is
wrapped together with `linalg.ext_matmul`), and methods on their class.
`bounds.brute_force_s` imports `saturation_radius` when it is called, so
rebinding `covering.saturation_radius` covers it too.

Each call records a span (id, name, start, end, parent id, job id).  Spans
stay in memory until `write_spans`.  A span's self time is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import Counter

import numpy as np


def gaussian_binomial(n: int, w: int, q: int) -> int:
    """Number of w-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(w):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def coefficient_cells(n: int, q: int, Q: int, rho: int) -> int:
    """Budget-accounted cells of a coefficient sweep through level rho:
    1 + sum_{w <= rho} [n w]_q Q^w."""
    return 1 + sum(gaussian_binomial(n, w, q) * Q ** w
                   for w in range(1, rho + 1))


# -- count hooks: (tracer, args, result) -> None --------------------------

def _elems(name):
    def hook(tr, args, result):
        tr.counts[name + ".elems"] += int(np.size(result))
    return hook


def _canonicalize_rows(tr, args, result):
    tr.counts["qsystem.PointIndexer.canonicalize.rows"] += int(result[2].size)


def _decode_rows(tr, args, result):
    tr.counts["qsystem.PointIndexer.decode.rows"] += int(result.shape[0])


def _saturation_cells(tr, args, result):
    sysm, rho = args[0], result[0]
    Q = sysm.tower.order
    tr.counts["covering.saturation_radius.cells"] += coefficient_cells(
        sysm.n, sysm.tower.base.q, Q, rho)
    tr.counts["covering.saturation_radius.targets"] += Q ** sysm.k
    if tr.active["bounds.brute_force_s"]:
        tr.counts["bounds.brute_force_s.systems"] += 1


def _hyperplanes(tr, args, result):
    # the test visits every hyperplane exactly when the answer is True
    if result:
        Q, k = args[0].tower.order, args[0].k
        tr.counts["covering.is_linear_cutting_blocking_set.hyperplanes"] += \
            (Q ** k - 1) // (Q - 1)


# (module, attribute path, count hook); "rref_subspaces" is a generator
TARGETS = [
    ("gftower", "FieldTower.mul_arr", _elems("gftower.mul_arr")),
    ("gftower", "FieldTower.add_arr", _elems("gftower.add_arr")),
    ("gftower", "FieldTower.mul_scalar", None),
    ("fqlinalg", "rref", None),
    ("fqlinalg", "kernel", None),
    ("fqlinalg", "solve", None),
    ("fqlinalg", "rref_subspaces", None),
    ("linalg", "ext_matmul", None),
    ("linalg", "ext_rref", None),
    ("qsystem", "PointIndexer.canonicalize", _canonicalize_rows),
    ("qsystem", "PointIndexer.decode", _decode_rows),
    ("qsystem", "QSystem.__init__", None),
    ("qsystem", "linear_set", None),
    ("covering", "saturation_radius", _saturation_cells),
    ("covering", "saturation_radius_geometric", None),
    ("covering", "rank_covering_radius", None),
    ("covering", "hamming_covering_radius", None),
    ("covering", "is_linear_cutting_blocking_set", _hyperplanes),
    ("constructions", "decompose", None),
    ("constructions", "Decomposition.verify", None),
    ("bounds", "brute_force_s", None),
    ("cli", "main", None),
    ("interchange", "matrix_from_json", None),
]

GENERATORS = {"fqlinalg.rref_subspaces"}


def span_name(module: str, path: str) -> str:
    """Metric prefix: methods drop their class for the field kernels
    (`gftower.mul_arr`), and the constructor is named by its class."""
    if module == "gftower":
        path = path.split(".")[-1]
    return f"{module}.{path.removesuffix('.__init__')}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.active: Counter = Counter()   # names open on the stack
        self.job = ""
        self._stack: list[list] = []  # [id, name, start, child s, parent]
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- spans ----------------------------------------------------------
    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._next_id += 1
        self.active[name] += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0,
                            parent])

    def _exit(self) -> None:
        end = time.perf_counter()
        sid, name, start, child, parent = self._stack.pop()
        dur = end - start
        self.active[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][3] += dur
        self.spans.append((sid, name, start, end, parent, self.job))

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if hook is not None:
                hook(tracer, args, result)
            return result
        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Each `next` is one span; `.matrices` counts RREF bases yielded."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def traced():
                while True:
                    tracer._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    tracer.counts[name + ".matrices"] += item[1].shape[0]
                    yield item
            return traced()
        return wrapper

    # -- patching -------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        pkg = [mod for key, mod in sorted(sys.modules.items())
               if key == "ranksat" or key.startswith("ranksat.")]
        for module, path, hook in TARGETS:
            mod = sys.modules["ranksat." + module]
            name = span_name(module, path)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                self._set(cls, attr, self._wrap(name, cls.__dict__[attr],
                                                hook))
                continue
            orig = getattr(mod, path)
            wrapped = (self._wrap_generator(name, orig) if name in GENERATORS
                       else self._wrap(name, orig, hook))
            for other in pkg:
                for attr, value in list(vars(other).items()):
                    if value is orig:
                        self._set(other, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results --------------------------------------------------------
    def metrics(self, cycles: int) -> dict[str, float]:
        """Per-layer metrics per job cycle, named as in BENCHMARK.json."""
        out: dict[str, float] = {}
        for module, path, _ in TARGETS:
            name = span_name(module, path)
            if name not in GENERATORS:
                out[name + ".calls"] = self.calls[name] / cycles
            out[name + ".self_s"] = self.self_s[name] / cycles
        for key in ("gftower.mul_arr.elems", "gftower.add_arr.elems",
                    "fqlinalg.rref_subspaces.matrices",
                    "qsystem.PointIndexer.canonicalize.rows",
                    "qsystem.PointIndexer.decode.rows",
                    "covering.saturation_radius.cells",
                    "covering.is_linear_cutting_blocking_set.hyperplanes",
                    "bounds.brute_force_s.systems"):
            out[key] = self.counts[key] / cycles
        cells = self.counts["covering.saturation_radius.cells"]
        out["covering.saturation_radius.mark_yield"] = (
            self.counts["covering.saturation_radius.targets"] / cells
            if cells else 0.0)
        return out

    def write_spans(self, path: str) -> None:
        """Gzipped TSV, one span a line; parent -1 marks a root span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\tjob\n")
            for sid, name, start, end, parent, job in self.spans:
                fh.write(f"{sid}\t{name}\t{start:.7f}\t{end:.7f}\t"
                         f"{parent}\t{job}\n")
