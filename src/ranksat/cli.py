"""Command-line front end: verify, construct, bounds, search, examples.

Exit codes for `verify`: 0 the claimed radius matches, 1 it does not,
2 the input could not be parsed or the certificate written, 3 the budget
refused the sweep (stderr names the last completed level and coverage).
`search` is exhaustive: it exits 0 with the least saturating system, or
3 when the budget refuses a dimension before one is found.  `construct`,
`bounds` and `search` exit 2, with a one-line message, when the
parameters name no field, no valid cell or no valid construction: q not
a prime power, a field beyond the tables, m, k, kmax or rhomax below 1,
rho out of range, a modulus coefficient outside 0..q-1, a malformed --v,
or an unreadable or malformed --left/--right matrix.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

import numpy as np

from . import bounds as bnd
from . import interchange as io
from .constructions import (construct_identity_block, construct_rho1,
                            construct_subgeometry, cutting_system_6_3,
                            cutting_system_8_4, f_sum, gabidulin)
from .covering import geometric_certificate, saturation_radius
from .gftower import FieldError, make_tower
from .linalg import BudgetExceeded, DEFAULT_BUDGET
from .qsystem import QSystem, SystemError_, lift_system
from .scenarios import SCENARIOS, get_scenarios


def _parse_modulus(text):
    return None if text is None else [int(c) for c in text.split(",")]


def _parse_vector(text, k):
    v = np.array([int(c) for c in text.split(",")], dtype=np.int64)
    if v.size != k:
        raise ValueError(f"vector must have {k} entries")
    return v


def _add_budget(p):
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="cell budget for exhaustive sweeps (default 2^26)")


def cmd_verify(args) -> int:
    try:
        with open(args.matrix) as fh:
            data = json.load(fh)
        tower, A = io.matrix_from_json(data)
        sysm = QSystem(tower, A)
    except (OSError, ValueError, KeyError, FieldError, SystemError_,
            json.JSONDecodeError) as exc:
        print(f"parse failure: {exc}", file=sys.stderr)
        return 2
    try:
        sweep = (geometric_certificate if args.method == "geometric" else
                 saturation_radius)
        rho, cert = sweep(sysm, args.budget)
    except BudgetExceeded as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        print(f"largest completed level: {exc.completed_level}, "
              f"coverage: {exc.coverage}", file=sys.stderr)
        return 3
    out = cert.to_json()
    out["claimed_rho"] = args.rho
    out["measured_rho"] = rho
    path = args.certificate or (args.matrix + ".cert.json")
    try:
        with open(path, "w") as fh:
            json.dump(out, fh, indent=1)
    except OSError as exc:
        print(f"cannot write certificate: {exc}", file=sys.stderr)
        return 2
    print(f"measured rho = {rho}, claimed {args.rho}; certificate -> {path}")
    return 0 if rho == args.rho else 1


def _construct(args) -> QSystem:
    modulus = _parse_modulus(args.modulus)
    fam = args.family
    if fam == "rho1":
        if args.k < 1:
            raise ValueError(f"need k >= 1, got k={args.k}")
        tower = make_tower(args.q, args.m, modulus)
        v = (_parse_vector(args.v, args.k) if args.v else
             np.eye(args.k, dtype=np.int64)[args.k - 1])
        vp = (_parse_vector(args.v_prime, args.k) if args.v_prime else
              v.copy())
        sysm = construct_rho1(tower, args.k, v, vp)
    elif fam == "identity-block":
        tower = make_tower(args.q, args.m, modulus)
        sysm = construct_identity_block(tower, args.k, args.rho)
    elif fam == "subgeometry":
        tower = make_tower(args.q, args.r * args.t, modulus)
        sysm = construct_subgeometry(tower, args.r, args.t, args.h)
    elif fam == "gabidulin":
        tower = make_tower(args.q, args.m, modulus)
        code = gabidulin(tower, args.n, args.k, args.i)
        sysm = QSystem(tower, code.generator)
    elif fam == "example-5.8":
        sysm = cutting_system_6_3()
    elif fam == "example-5.9":
        tower = make_tower(args.q, 4, modulus)
        sysm = cutting_system_8_4(tower)
    else:   # f-sum, the last of the parser's choices
        with open(args.left) as fh:
            tower, A = io.matrix_from_json(json.load(fh))
        with open(args.right) as fh:
            tower2, B = io.matrix_from_json(json.load(fh))
        if tower2 != tower:
            raise ValueError("summands live over different fields")
        f = "identity" if args.f == "identity" else None
        sysm = f_sum(QSystem(tower, A), QSystem(tower, B), f)
    if args.lift_m:
        sysm = lift_system(sysm, make_tower(sysm.tower.base.q, args.lift_m))
    return sysm


def cmd_construct(args) -> int:
    try:
        sysm = _construct(args)
        text = json.dumps(io.matrix_to_json(sysm.tower, sysm.generator),
                          indent=1)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
    except (OSError, ValueError, KeyError) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    if args.out:
        print(f"wrote {sysm.n}-dim system -> {args.out}")
    else:
        print(text)
    return 0


def cmd_bounds(args) -> int:
    if args.verify_paper:
        diffs = bnd.verify_published_rows(5, 12, 12)
        for d in diffs:
            print(f"DIFF {d}")
        print(f"published-row verification: "
              f"{'PASS' if not diffs else 'FAIL'} ({len(diffs)} diffs)")
        return 0 if not diffs else 1
    try:
        entries = bnd.bounds_table(args.q, args.m, args.kmax, args.rhomax)
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    if args.format == "csv":
        print(io.bounds_to_csv(entries), end="")
    elif args.format == "markdown":
        print(io.bounds_to_markdown(entries), end="")
    else:
        print(json.dumps(io.bounds_to_json(entries), indent=1))
    return 0


def cmd_search(args) -> int:
    try:
        witness = bnd.brute_force_witness(args.q, args.m, args.k, args.rho,
                                          args.budget)
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 3
    print(json.dumps({"q": args.q, "m": args.m, "k": args.k, "rho": args.rho,
                      "mode": "exhaustive", "n": witness.n, "minimal": True,
                      "matrix": io.matrix_to_json(witness.tower,
                                                  witness.generator)},
                     indent=1))
    return 0


def cmd_examples(args) -> int:
    chosen = get_scenarios(args.filter)
    if not chosen:
        print(f"warning: no scenario matches '{args.filter}'; known: "
              + ", ".join(sorted(s.name for s in SCENARIOS)),
              file=sys.stderr)
        return 0
    failures = 0
    for sc in chosen:
        try:
            actual, elapsed = sc.run(args.budget)
        except BudgetExceeded as exc:
            print(f"REFUSED {sc.name}: {exc}")
            failures += 1
            continue
        ok = actual == sc.expected
        mark = "PASS" if ok else "FAIL"
        if ok and elapsed > args.time_budget:
            mark = "SLOW"
            failures += 1
        print(f"{mark} {sc.name}: expected {sc.expected!r}, got {actual!r} "
              f"[{sc.provenance}] ({elapsed:.2f}s)")
        if not ok:
            failures += 1
    print(f"{len(chosen) - failures}/{len(chosen)} scenarios passed")
    return 1 if failures else 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The `ranksat` parser, built once per process: it is configuration,
    and `parse_args` does not change it."""
    ap = argparse.ArgumentParser(
        prog="ranksat",
        description="rank-saturating systems and rank-metric covering codes")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="measure the saturation radius of a "
                                      "matrix JSON and compare to a claim")
    p.add_argument("matrix")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--certificate", default=None)
    p.add_argument("--method", choices=["coefficient", "geometric"],
                   default="coefficient")
    _add_budget(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", help="emit a named construction as "
                                         "matrix JSON")
    p.add_argument("--family", required=True,
                   choices=["rho1", "identity-block", "subgeometry",
                            "gabidulin", "example-5.8", "example-5.9",
                            "f-sum"])
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--modulus", default=None,
                   help="comma-separated ascending coefficients")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--rho", type=int, default=1)
    p.add_argument("--i", type=int, default=1)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--h", type=int, default=1)
    p.add_argument("--v", default=None)
    p.add_argument("--v-prime", default=None)
    p.add_argument("--left", default=None)
    p.add_argument("--right", default=None)
    p.add_argument("--f", choices=["zero", "identity"], default="zero")
    p.add_argument("--lift-m", type=int, default=None,
                   help="re-read the system over F_(q^M) for this M")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("bounds", help="tabulate bounds on the minimal "
                                      "saturating dimension")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--kmax", type=int, default=6)
    p.add_argument("--rhomax", type=int, default=None)
    p.add_argument("--verify-paper", action="store_true",
                   help="re-derive every published exact row on the grid "
                        "q<=5, m<=12, k<=12 and report differences")
    p.add_argument("--format", choices=["json", "csv", "markdown"],
                   default="json")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("search", help="exhaustive search for the least "
                                      "saturating system")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--mode", choices=["exhaustive"], default="exhaustive")
    _add_budget(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("examples", help="run the named verification "
                                        "scenarios")
    p.add_argument("filter", nargs="?", default=None)
    p.add_argument("--time-budget", type=float, default=60.0,
                   help="per-scenario wall-clock ceiling in seconds")
    _add_budget(p)
    p.set_defaults(func=cmd_examples)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
