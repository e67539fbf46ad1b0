"""JSON, CSV and Markdown interchange for fields, matrices and bound tables.

Matrix entries travel as Gamma-coordinate vectors (length-m lists of
F_q element codes), never as packed integers, so files are readable and
independent of the packing convention.
"""

from __future__ import annotations

import json

import numpy as np

from .gftower import FieldTower, _is_int, make_tower
from .linalg import as_matrix


def matrix_to_json(tower: FieldTower, entries) -> dict:
    A = as_matrix(tower, entries)
    dig = tower.digit_table()
    return {
        "q": tower.base.q,
        "m": tower.m,
        "modulus": list(tower.modulus),
        "rows": int(A.shape[0]),
        "cols": int(A.shape[1]),
        "entries": [[[int(d) for d in dig[int(x)]] for x in row]
                    for row in A],
    }


def matrix_from_json(data) -> tuple[FieldTower, np.ndarray]:
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError("matrix JSON must be an object")
    q, m, rows, cols = data["q"], data["m"], data["rows"], data["cols"]
    if not all(_is_int(x) for x in (q, m, rows, cols)):
        raise ValueError("q, m, rows and cols must be integers")
    tower = make_tower(q, m, data["modulus"])
    A = np.zeros((rows, cols), dtype=np.int64)
    entries = data["entries"]
    if (not isinstance(entries, list) or len(entries) != rows
            or any(not isinstance(r, list) or len(r) != cols
                   for r in entries)):
        raise ValueError("entry grid does not match rows x cols")
    for i, row in enumerate(entries):
        for j, digs in enumerate(row):
            if (not isinstance(digs, (list, tuple)) or len(digs) != m
                    or not all(_is_int(d) and 0 <= d < q for d in digs)):
                raise ValueError(f"entry ({i}, {j}) = {digs} is not a "
                                 f"length-{m} vector of digits 0..{q - 1}")
            A[i, j] = tower.from_digits(digs)
    return tower, A


def bounds_to_csv(entries) -> str:
    lines = ["q,m,k,rho,lower,lower_provenance,upper,upper_provenance,"
             "exact,exact_provenance"]
    for e in entries:
        lines.append(
            f"{e.q},{e.m},{e.k},{e.rho},{e.lower},\"{e.lower_provenance}\","
            f"{e.upper},\"{e.upper_provenance}\","
            f"{'' if e.exact is None else e.exact},"
            f"\"{e.exact_provenance or ''}\"")
    return "\n".join(lines) + "\n"


def bounds_to_json(entries) -> list[dict]:
    return [{"q": e.q, "m": e.m, "k": e.k, "rho": e.rho,
             "lower": e.lower, "lower_provenance": e.lower_provenance,
             "upper": e.upper, "upper_provenance": e.upper_provenance,
             "exact": e.exact, "exact_provenance": e.exact_provenance}
            for e in entries]


def bounds_to_markdown(entries) -> str:
    lines = ["| q | m | k | rho | lower | upper | exact | provenance |",
             "|---|---|---|-----|-------|-------|-------|------------|"]
    for e in entries:
        ex = "" if e.exact is None else str(e.exact)
        prov = e.exact_provenance or e.upper_provenance
        lines.append(f"| {e.q} | {e.m} | {e.k} | {e.rho} | {e.lower} "
                     f"| {e.upper} | {ex} | {prov} |")
    return "\n".join(lines) + "\n"
