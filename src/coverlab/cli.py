"""Command-line front end for reproducible batch runs.

Subcommands: params, build, verify, analyze, quotient, etf, lemma-check,
cases.  Each params table and each build construction has a parser of its
own that takes only the flags it reads and dispatches straight to its
handler or constructor, and cases takes its ids as choices, so argparse
refuses a missing, foreign or misspelt argument (exit 2) and every flag a
payload records was read.  Output is canonical JSON: json.dumps with
sorted keys and compact separators, so golden-file comparisons are stable;
no payload holds a float.  The rows of the two feasibility tables are the
one exception to a single json.dumps: each is written as that same text
straight from its FamilyBParams or FamilyAEntry record, by a format whose
keys are in sorted order (tests/test_cli.py::test_table_rows_match_dict_tree
holds them to the json.dumps of the dict tree), and the text view reads
that text back.  Every report embeds its run configuration under config;
build and quotient print a bare cover instead, so that their output loads
as the input of verify, analyze, quotient and etf.  Exit codes: 0
success/verified, 1 verification, certificate or case-match failure, 2 bad
input or path (a usage error, a ValueError or an OSError), 3 an input past
one of the library's size bounds (SizeBoundExceeded: a vertex bound, the
bound past which a BLAS product's float type no longer holds every integer,
or ZSIGMONDY_BOUND_MAX, the Zsigmondy sieve's memory cap), 141 a reader
that closed stdout early (128 + SIGPIPE, as a shell reports `yes | head
-1`; nothing is written to stderr).  Any other exception is a bug in the
program and propagates.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import casecheck, constructions, numtheory
from .exact import quad_json
from .frames import SpectrumCertificateError, lines_from_cover
from .graphcore import CoverGraph, SizeBoundExceeded, verify_cover
from .groupops import (arc_orbit_count, covering_group, fibre_action,
                       involution_audit, involution_types, quotient_cover,
                       structure_audit, subdegree_identity_check)
from .autgroup import automorphism_group
from .params import (CoverParams, derive_params, family_B, feasible_A,
                     feasible_B, hoffman_bounds)
from .perms import subgroups_of

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_LIMIT = 0, 1, 2, 3
EXIT_PIPE = 141  # 128 + SIGPIPE


def _canonical(obj) -> str:
    # every payload is a tree built fresh for this call, so no cycle check
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      check_circular=False)


def _config(args) -> dict:
    return {
        "subcommand": args.command,
        "args": {k: v for k, v in sorted(vars(args).items())
                 if k not in ("func", "command") and v is not None
                 and not callable(v)},
    }


def _emit(payload: dict, args) -> None:
    payload["config"] = _config(args)
    if args.output == "text":
        _print_text(payload)
    else:
        print(_canonical(payload))


def _emit_table(key: str, rows: list[str], args) -> None:
    """_emit of {key: rows, "t_max": args.t_max} where each row is already
    its canonical JSON text: the list is spliced in at its sorted key."""
    fields = {"config": _canonical(_config(args)),
              "t_max": _canonical(args.t_max), key: f"[{','.join(rows)}]"}
    text = "{%s}" % ",".join(f"{_canonical(k)}:{fields[k]}"
                             for k in sorted(fields))
    if args.output == "text":
        _print_text(json.loads(text))
    else:
        print(text)


# CoverParams.to_json() as canonical text when its four spectral fields
# are ints (quad_json writes an int x as {"D":1,"a":x,"b":0}), keys sorted
_INT_PARAMS = ('{"lambda":%d,"m_tau":%d,"m_theta":%d,"mu":%d,"n":%d,"r":%d,'
               '"tau":{"D":1,"a":%d,"b":0},"theta":{"D":1,"a":%d,"b":0},'
               '"v":%d}')


def _params_text(p: CoverParams) -> str:
    if type(p.theta) is type(p.tau) is type(p.m_theta) is type(p.m_tau) is int:
        return _INT_PARAMS % (p.lam, p.m_tau, p.m_theta, p.mu, p.n, p.r,
                              p.tau, p.theta, p.n * p.r)
    # the (9, 3, 3), (28, 4, 8) and t = sqrt(5) rows: QuadExt spectra
    return _canonical(p.to_json())


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
            if isinstance(v, list) and not any(
                    isinstance(x, (dict, list)) for x in v):
                print(f"{pad}- [{', '.join(map(str, v))}]")  # a matrix row
            elif isinstance(v, (dict, list)):
                print(f"{pad}-")  # one item: a record, or a list of them
                _print_text(v, indent + 1)
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

def cmd_derive(args) -> int:
    _emit({"params": derive_params(args.n, args.r, args.mu).to_json()}, args)
    return EXIT_OK


def cmd_family_b(args) -> int:
    fb = family_B(args.t, args.r)
    clique, coclique = hoffman_bounds(fb)
    _emit({"t": fb.t, "r": fb.r, "special": fb.special,
           "params": fb.params.to_json(),
           "hoffman": {"clique": str(clique), "coclique": str(coclique)}},
          args)
    return EXIT_OK


def cmd_feasible_b(args) -> int:
    rows = ['{"params":%s,"r":%d,"special":%s,"t":%d}'
            % (_params_text(fb.params), fb.r,
               "true" if fb.special else "false", fb.t)
            for fb in feasible_B(args.t_max)]
    _emit_table("feasible_b", rows, args)
    return EXIT_OK


def cmd_feasible_a(args) -> int:
    # a handful of branches, t values and conditions tuples: each is
    # encoded once (json.dumps writes a tuple as a list)
    enc = functools.cache(_canonical)
    rows = ['{"branch":%s,"conditions":%s,"params":%s,"r":%d,"t":%s}'
            % (enc(e.branch), enc(e.conditions), _params_text(e.params),
               e.r, enc(str(e.t)))
            for e in feasible_A(args.t_max)]
    _emit_table("feasible_a", rows, args)
    return EXIT_OK


def _taylor(args) -> CoverGraph:
    with open(args.seidel) as fh:
        seidel = json.load(fh)
    return constructions.taylor_from_seidel(seidel, args.convention)


def cmd_build(args) -> int:
    print(args.construct(args).to_json_str())
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _load_cover(args.cover)
    rep = verify_cover(g, max_violations=args.max_violations)
    _emit({"report": rep.to_json()}, args)
    return EXIT_OK if rep.is_cover else EXIT_FAIL


def cmd_analyze(args) -> int:
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
            for kind, x in types]
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
    _, kinfo = covering_group(g)
    if not kinfo["abelian_cover"]:  # a failed check (1), not bad input (2)
        print("cover is not abelian; no line system", file=sys.stderr)
        return EXIT_FAIL
    try:
        lines = lines_from_cover(g, args.char, args.side)
    except SpectrumCertificateError as exc:
        print(f"certificate failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    ok = (lines.certificates["equiangular"] and lines.certificates["tight"]
          and lines.certificates["relative_bound_equality"])
    payload = lines.to_json()
    payload["base_vertices"] = list(lines.signature.base_vertices)
    payload["signature_eigenvalues"] = [
        {"value": quad_json(val), "multiplicity": mult}
        for val, mult in lines.signature.eigenvalues]
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
        bad_lift = numtheory.lifting_sweep(
            50, 30, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47))
        bad_gcd = numtheory.gcd_sweep(20, 40)
        payload["lifting_sweep"] = {"counterexamples": bad_lift}
        payload["gcd_sweep"] = {"counterexamples": bad_gcd}
        failures += len(bad_lift) + len(bad_gcd)
    _emit(payload, args)
    return EXIT_OK if failures == 0 else EXIT_FAIL


def cmd_cases(args) -> int:
    reports = casecheck.all_cases()
    if args.case_id != "all":
        reports = {k: r for k, r in reports.items()
                   if k.startswith(args.case_id)}
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

    # each table and construction takes only the flags it reads; a table's
    # long flags are not abbreviated, so --t is not feasible-b's --t-max
    p = sub.add_parser("params", help="parameter tables")
    tables = p.add_subparsers(dest="table", required=True, metavar="table")
    t = tables.add_parser("derive", allow_abbrev=False,
                          help="the parameters of an (n, r, mu)-cover")
    for flag in ("--n", "--r", "--mu"):
        t.add_argument(flag, type=int, required=True)
    t.set_defaults(func=cmd_derive)
    t = tables.add_parser("family-b", allow_abbrev=False,
                          help="the family-B member (t, r)")
    for flag in ("--t", "--r"):
        t.add_argument(flag, type=int, required=True)
    t.set_defaults(func=cmd_family_b)
    for table, func in (("feasible-b", cmd_feasible_b),
                        ("feasible-a", cmd_feasible_a)):
        t = tables.add_parser(table, allow_abbrev=False,
                              help=f"the {table} table up to --t-max")
        t.add_argument("--t-max", type=int, default=20)
        t.set_defaults(func=func)

    p = sub.add_parser("build", help="emit a named cover as canonical JSON")
    p.set_defaults(func=cmd_build)
    names = p.add_subparsers(dest="name", required=True, metavar="name")
    for name in ("hexagon", "icosahedron", "cube"):
        names.add_parser(name).set_defaults(
            construct=lambda a, name=name: getattr(constructions, name)())
    c = names.add_parser("thas-somma",
                         help="the symplectic-form cover TS(q, m)")
    c.add_argument("--q", type=int, default=3)
    c.add_argument("--m", type=int, default=1)
    c.set_defaults(construct=lambda a: constructions.thas_somma(a.q, a.m))
    c = names.add_parser("taylor-from-seidel",
                         help="the double cover of a Seidel matrix")
    c.add_argument("--seidel", required=True,
                   help="JSON file with the Seidel matrix")
    c.add_argument("--convention", type=int, choices=(-1, 1), default=-1)
    c.set_defaults(construct=_taylor)

    p = sub.add_parser("verify", help="check the cover axioms")
    p.add_argument("cover", help="cover JSON path, or - for stdin")
    p.add_argument("--max-violations", type=int, default=10)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="groups, rank, arc orbits, audits")
    p.add_argument("cover")
    p.add_argument("--audits", action="store_true")
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
    p.set_defaults(func=cmd_etf)

    p = sub.add_parser("lemma-check", help="number-theoretic identity suites")
    p.add_argument("family", choices=("nt",))
    p.add_argument("--sweep", action="store_true")
    p.add_argument("--zsigmondy-bound", type=int, default=10_000)
    p.set_defaults(func=cmd_lemma_check)

    p = sub.add_parser("cases", help="finite case enumerations")
    p.add_argument("case_id", choices=("sp2d", "linear31", "claim4",
                                       "twin-powers", "sporadic",
                                       "wreathed-congruence", "all"))
    p.set_defaults(func=cmd_cases)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): not bad input.  Point stdout
        # at devnull so the interpreter's flush at exit finds no pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except SizeBoundExceeded as exc:  # a limit of the program, not bad input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
