"""Command-line front end for reproducible batch runs.

Subcommands: params, build, verify, analyze, quotient, etf, lemma-check,
cases.  Output is canonical JSON, emitted by one json.dumps with sorted
keys, so golden-file comparisons are stable; etf, the one payload with
floats, has them rounded to 15 significant digits first, in text mode too.
Every run embeds its full configuration.  Exit codes: 0 success/verified,
1 verification, certificate or case-match failure, 2 bad input or path.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import casecheck, constructions, numtheory
from .frames import (SpectrumCertificateError, all_characters,
                     character_matrix, extract_lines)
from .graphcore import CoverGraph, verify_cover
from .groupops import (arc_orbit_count, covering_group, fibre_action,
                       involution_audit, involution_types, quotient_cover,
                       structure_audit, subdegree_identity_check)
from .autgroup import automorphism_group
from .params import (derive_params, family_B, feasible_A, feasible_B,
                     hoffman_bounds)
from .perms import subgroups_of

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


def _round15(x):
    """x with every float in it at 15 significant digits, so float noise
    past that does not reach a golden comparison."""
    if isinstance(x, dict):
        return {k: _round15(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round15(v) for v in x]
    if isinstance(x, (float, np.floating)):
        return float(f"{float(x):.15g}")
    return x


def _canonical(obj) -> str:
    def default(x):
        if isinstance(x, np.integer):
            return int(x)
        if isinstance(x, np.floating):  # np.float32 is no float subclass
            return _round15(x)
        if isinstance(x, complex):
            return {"re": x.real, "im": x.imag}
        if hasattr(x, "to_json"):
            return x.to_json()
        raise TypeError(f"not JSON-serializable: {type(x)}")

    return json.dumps(obj, sort_keys=True, default=default,
                      separators=(",", ":"))


def _emit(payload: dict, args) -> None:
    payload["config"] = {
        "subcommand": args.command,
        "args": {k: v for k, v in sorted(vars(args).items())
                 if k not in ("func", "command") and v is not None
                 and not callable(v)},
    }
    if args.command == "etf":  # the one payload (--tol too) with floats
        payload = _round15(payload)
    if getattr(args, "output", "json") == "text":
        _print_text(payload)
    else:
        print(_canonical(payload))


def _print_text(payload, indent=0):
    pad = "  " * indent
    if isinstance(payload, dict):
        for k in sorted(payload):
            v = payload[k]
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _print_text(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                _print_text(v, indent)
            else:
                print(f"{pad}- {v}")


def _load_cover(path: str) -> CoverGraph:
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path) as fh:
            raw = fh.read()
    return CoverGraph.from_json(raw)


# -- subcommands ------------------------------------------------------------------

# the flags each params table needs; the others have defaults
PARAMS_FLAGS = {"derive": ("n", "r", "mu"), "family-b": ("t", "r")}


def cmd_params(args) -> int:
    missing = [f"--{k}" for k in PARAMS_FLAGS.get(args.table, ())
               if getattr(args, k) is None]
    if missing:
        print(f"params {args.table} needs {' '.join(missing)}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.table == "derive":
        p = derive_params(args.n, args.r, args.mu)
        _emit({"params": p.to_json()}, args)
    elif args.table == "family-b":
        fb = family_B(args.t, args.r)
        clique, coclique = hoffman_bounds(fb)
        _emit({"t": fb.t, "r": fb.r, "special": fb.special,
               "params": fb.params.to_json(),
               "hoffman": {"clique": str(clique), "coclique": str(coclique)}},
              args)
    elif args.table == "feasible-b":
        rows = []
        for fb in feasible_B(args.t_max):
            rows.append({"t": fb.t, "r": fb.r, "special": fb.special,
                         "params": fb.params.to_json()})
        _emit({"feasible_b": rows, "t_max": args.t_max}, args)
    else:
        rows = []
        for e in feasible_A(args.t_max):
            rows.append({"t": str(e.t), "r": e.r, "branch": e.branch,
                         "conditions": list(e.conditions),
                         "params": e.params.to_json()})
        _emit({"feasible_a": rows, "t_max": args.t_max}, args)
    return EXIT_OK


def cmd_build(args) -> int:
    kwargs = {}
    if args.name.replace("-", "_") == "thas_somma":
        kwargs = {"q": args.q, "m": args.m}
    elif args.name.replace("-", "_") == "taylor_from_seidel":
        if not args.seidel:
            print("taylor construction needs --seidel FILE", file=sys.stderr)
            return EXIT_USAGE
        with open(args.seidel) as fh:
            seidel = json.load(fh)
        kwargs = {"seidel": seidel, "convention": args.convention}
    g = constructions.build(args.name, **kwargs)
    print(g.to_json_str())
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _load_cover(args.cover)
    rep = verify_cover(g, max_violations=args.max_violations)
    _emit({"report": rep.to_json()}, args)
    return EXIT_OK if rep.is_cover else EXIT_FAIL


def cmd_analyze(args) -> int:
    if args.max_involutions < 1:
        print(f"--max-involutions must be at least 1, got "
              f"{args.max_involutions}", file=sys.stderr)
        return EXIT_USAGE
    g = _load_cover(args.cover)
    rep = verify_cover(g)
    if not rep.is_cover:
        _emit({"report": rep.to_json()}, args)
        return EXIT_FAIL
    aut = automorphism_group(g)
    fa = fibre_action(g, aut)
    arcs = arc_orbit_count(g, fa)
    payload = {
        "report": rep.to_json(),
        "automorphism_group": {
            "order": aut.order(),
            "generators": [list(p.img) for p in aut.generators],
        },
        "covering_group": dict(fa.kernel_info,
                               generators=[list(p.img)
                                           for p in fa.kernel.generators]),
        "fibre_action": {"transitive": fa.transitive, "rank": fa.rank,
                         "subdegrees": list(fa.subdegrees or ())},
        "arc_orbits": arcs,
        "rank_identity_holds": (
            arcs["rank_identity_applicable"] and fa.rank is not None
            and arcs["arc_orbits"] == fa.rank - 1),
    }
    if args.audits:
        payload["structure_audit"] = [a.to_json()
                                      for a in structure_audit(g, fa)]
        payload["subdegree_identities"] = subdegree_identity_check(g, fa)
        types, draws = involution_types(g, aut)
        payload["involution_audits"] = [
            {"fixed_points": kind[0], "displacement_profile": list(kind),
             "failures": [i.to_json() for i in involution_audit(g, x)
                          if i.status == "fail"]}
            for kind, x in types[:args.max_involutions]]
        payload["involution_draws"] = {"draws": draws, "types": len(types)}
    _emit(payload, args)
    return EXIT_OK


def cmd_quotient(args) -> int:
    g = _load_cover(args.cover)
    kernel, kinfo = covering_group(g)
    subs = [s for s in subgroups_of(kernel)
            if s.order() == args.subgroup_order]
    if not subs:
        print(f"no subgroup of order {args.subgroup_order} in the covering "
              f"group (order {kinfo['order']})", file=sys.stderr)
        return EXIT_USAGE
    if not 0 <= args.subgroup_index < len(subs):
        print(f"subgroup index must be in 0..{len(subs) - 1}",
              file=sys.stderr)
        return EXIT_USAGE
    quot = quotient_cover(g, subs[args.subgroup_index])
    print(quot.to_json_str())
    return EXIT_OK


def cmd_etf(args) -> int:
    g = _load_cover(args.cover)
    kernel, kinfo = covering_group(g)
    if not kinfo["abelian_cover"]:
        print("cover is not abelian; no line system", file=sys.stderr)
        return EXIT_FAIL
    chars = all_characters(kernel)
    if not 0 < args.char < len(chars):
        print(f"--char must be in 1..{len(chars) - 1} (0 is trivial)",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        s = character_matrix(g, chars[args.char], kernel=kernel)
    except SpectrumCertificateError as exc:
        print(f"certificate failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    lines = extract_lines(s, args.side, tol=args.tol)
    ok = (lines.certificates["equiangular"] and lines.certificates["tight"]
          and lines.certificates["relative_bound_equality"])
    payload = lines.to_json()
    payload["base_vertices"] = list(s.base_vertices)
    payload["signature_eigenvalues"] = [
        {"value": val, "multiplicity": mult} for val, mult in s.eigenvalues]
    _emit(payload, args)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_lemma_check(args) -> int:
    payload = {}
    failures = 0
    zs = numtheory.zsigmondy_corollary_solve(args.zsigmondy_bound)
    uncls = [s for s in zs if s.case == "unclassified"]
    failures += len(uncls)
    payload["zsigmondy"] = {
        "bound": args.zsigmondy_bound,
        "solutions": [{"p": s.p, "m": s.m, "q": s.q, "n": s.n,
                       "case": s.case} for s in zs],
        "unclassified": len(uncls),
    }
    nl = numtheory.nagell_ljunggren_search(200, 20)
    payload["nagell_ljunggren"] = {"solutions": [list(s) for s in nl],
                                   "expected": [[7, 4, 20], [3, 5, 11]]}
    failures += 0 if sorted(nl) == [(3, 5, 11), (7, 4, 20)] else 1

    if args.sweep:
        bad_lift = []
        for q in range(2, 51):
            for e in (1, -1):
                for m in range(1, 31):
                    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                              41, 43, 47):
                        chk = numtheory.lifting_identity_check(q, e, m, p)
                        if chk.applicable and not chk.equal:
                            bad_lift.append((q, e, m, p))
        bad_gcd = [(q, k, m)
                   for q in range(2, 21) for k in range(1, 41)
                   for m in range(1, 41)
                   if not numtheory.gcd_qpow(q, k, m).equal]
        payload["lifting_sweep"] = {"counterexamples": bad_lift}
        payload["gcd_sweep"] = {"counterexamples": bad_gcd}
        failures += len(bad_lift) + len(bad_gcd)
    _emit(payload, args)
    return EXIT_OK if failures == 0 else EXIT_FAIL


def cmd_cases(args) -> int:
    reports = casecheck.all_cases()
    if args.case_id != "all":
        wanted = {r for r in reports if r.startswith(args.case_id)}
        if not wanted:
            print(f"unknown case id {args.case_id!r}; known: "
                  f"{sorted(reports)} or 'all'", file=sys.stderr)
            return EXIT_USAGE
        reports = {k: reports[k] for k in wanted}
    payload = {"cases": {k: r.to_json() for k, r in reports.items()}}
    _emit(payload, args)
    return EXIT_OK if all(r.match for r in reports.values()) else EXIT_FAIL


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process; parsing leaves it as it
    was, so every main call can share it."""
    ap = argparse.ArgumentParser(
        prog="coverlab",
        description="antipodal covers of complete graphs: build, verify, "
                    "analyze, and extract equiangular line systems")
    ap.add_argument("--output", choices=("json", "text"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="parameter tables")
    p.add_argument("table", choices=("derive", "family-b", "feasible-b",
                                     "feasible-a"))
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--mu", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--t-max", type=int, default=20)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("build", help="emit a named cover as canonical JSON")
    p.add_argument("name", help="hexagon | icosahedron | cube | thas-somma "
                                "| taylor-from-seidel")
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--seidel", help="JSON file with the Seidel matrix")
    p.add_argument("--convention", type=int, choices=(-1, 1), default=-1)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="check the cover axioms")
    p.add_argument("cover", help="cover JSON path, or - for stdin")
    p.add_argument("--max-violations", type=int, default=10)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="groups, rank, arc orbits, audits")
    p.add_argument("cover")
    p.add_argument("--audits", action="store_true")
    p.add_argument("--max-involutions", type=int, default=50,
                   help="audit at most this many involution types, the "
                        "least first (at least 1)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("quotient", help="quotient by a covering subgroup")
    p.add_argument("cover")
    p.add_argument("--subgroup-order", type=int, required=True)
    p.add_argument("--subgroup-index", type=int, default=0)
    p.set_defaults(func=cmd_quotient)

    p = sub.add_parser("etf", help="equiangular lines from an abelian cover")
    p.add_argument("cover")
    p.add_argument("--char", type=int, default=1)
    p.add_argument("--side", choices=("theta", "tau"), default="tau")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_etf)

    p = sub.add_parser("lemma-check", help="number-theoretic identity suites")
    p.add_argument("family", choices=("nt",))
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--zsigmondy-bound", type=int, default=10_000)
    p.set_defaults(func=cmd_lemma_check)

    p = sub.add_parser("cases", help="finite case enumerations")
    p.add_argument("case_id", help="sp2d | linear31 | claim4 | twin-powers "
                                   "| sporadic | wreathed-congruence | all")
    p.set_defaults(func=cmd_cases)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
