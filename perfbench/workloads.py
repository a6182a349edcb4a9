"""The three workloads: their inputs, their requests and the checks.

A workload is set up once per run (inputs made from the seed and written
as cover JSON) and then yields requests pass after pass.  A request is one
call into coverlab; its check runs after the pass, outside the timed
region, and compares the output with a reference coverlab does not compute
(see corpus.py).  Each request also gives a digest, so a traced pass can be
compared with an untraced pass of the same inputs.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Callable

import corpus

ETF_COVERS = ("hexagon", "cube", "icosahedron", "TS(3,1)", "TS(2,2)",
              "TS(4,1)", "TS(5,1)", "TS(7,1)", "TS(3,2)", "TS(8,1)")
ANALYZE_COVERS = ("hexagon", "cube", "icosahedron", "TS(3,1)", "TS(4,1)")
# --full only: analyze --audits on TS(3,2) searches for about 30 s and then
# exits 2 (|Aut| = 25194240 exceeds the element-iteration limit).
ANALYZE_FULL_COVERS = ANALYZE_COVERS + ("TS(3,2)",)

# relabelled copies of the corpus made per run; pass i runs copy i % VARIANTS.
# One labelling can be far from typical; more than two would make an etf run
# on a slow machine last over a minute.
VARIANTS = 2


@dataclass
class Request:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    digest: Callable[[object], object]
    cli: bool = False  # output is (exit code, stdout, stderr) of cli.main


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _cli(cl, argv: list[str]):
    """coverlab.cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cl.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_problems(res, want_rc: int = 0) -> list[str]:
    rc, _, err = res
    return [] if rc == want_rc else [f"exit {rc}: {err.strip()[:200]}"]


class Workload:
    name = ""
    seeded = True
    variants = VARIANTS
    # seconds per pass assumed when --seconds is turned into a pass count.
    # A constant, not a measurement, so that every commit and every machine
    # state gives each request the same number of samples.
    nominal_pass_s = 1.0

    def __init__(self, cl, root: Path, seed: int, full: bool = False):
        self.cl = cl
        self.root = root
        self.seed = seed
        self.full = full
        self.inputs: list[dict] = []

    def setup(self) -> None:
        """Build, relabel, perturb and write the inputs; timed as setup_s."""

    def validate(self) -> list[str]:
        """Reference checks on the inputs themselves; run once, untimed."""
        return []

    def requests(self, variant: int):
        raise NotImplementedError

    # -- shared input generation ---------------------------------------------

    def _write_corpus(self, names) -> None:
        out_dir = (self.root / "perfbench" / "out" / "inputs"
                   / f"{self.name}-seed{self.seed}")
        self.inputs = [dict() for _ in range(self.variants)]
        for name in names:
            spec = corpus.SPECS[name]
            base = corpus.build(self.cl.constructions, spec)
            for k in range(self.variants):
                rng = random.Random(f"{self.seed}/{name}/{k}")
                g = base.relabelled(corpus.relabelling(rng, base.v))
                fibres = [list(f) for f in g.fibres]
                swapped = {"v": g.v, "fibres": fibres,
                           "edges": corpus.matching_swap(rng, fibres, g.edges)}
                text = g.to_json_str()
                path = out_dir / f"v{k}" / f"{name}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text)
                self.inputs[k][name] = {
                    "spec": spec, "text": text, "graph": g,
                    "path": str(path.relative_to(self.root)),
                    "swapped": json.dumps(swapped, separators=(",", ":"))}


class Etf(Workload):
    """Line-system pipeline on the abelian covers, plus quotients."""

    name = "etf"
    nominal_pass_s = 15.0

    def setup(self) -> None:
        self._write_corpus(ETF_COVERS)

    def validate(self) -> list[str]:
        problems = []
        for k, variant in enumerate(self.inputs):
            for name, inp in variant.items():
                sw = json.loads(inp["swapped"])
                if corpus.cover_triple(sw["v"], sw["fibres"], sw["edges"]):
                    problems.append(f"v{k}/{name}: swapped copy is a cover")
        return problems

    def requests(self, variant: int):
        for name, inp in self.inputs[variant].items():
            yield from self._cover_requests(name, inp)

    def _cover_requests(self, name: str, inp: dict):
        cl, spec = self.cl, inp["spec"]
        gc, go, fr = cl.graphcore, cl.groupops, cl.frames
        ctx: dict = {}
        adj = {}

        def a_matrix():
            if "a" not in adj:
                g = ctx["g"]
                adj["a"] = corpus.adjacency(g.v, g.edges)
            return adj["a"]

        def load_verify():
            ctx["g"] = gc.CoverGraph.from_json(inp["text"])
            ctx["rep"] = gc.verify_cover(ctx["g"])
            return ctx["rep"]

        def verify_problems(rep):
            got = (rep.is_cover, rep.n, rep.r, rep.mu)
            want = (True, spec.n, spec.r, spec.mu)
            return [] if got == want else [f"verify gave {got}, want {want}"]

        yield Request(f"{name}/verify_cover", load_verify, verify_problems,
                      lambda rep: rep.to_json())

        def spectrum():
            rep = ctx["rep"]
            p = cl.params.derive_params(rep.n, rep.r, rep.mu)
            return gc.spectrum_check(ctx["g"], p)

        yield Request(f"{name}/spectrum_check", spectrum,
                      lambda s: [] if s.ok else [f"spectrum failed {s.failed}"],
                      lambda s: [s.ok, list(s.failed)])

        def kernel():
            ctx["K"], info = go.covering_group(ctx["g"])
            return ctx["K"], info

        def kernel_problems(res):
            k, info = res
            out = corpus.covering_group_problems(
                a_matrix(), ctx["g"].fibres, [p.img for p in k.generators],
                spec.r)
            if not info["abelian_cover"]:
                out.append(f"covering group info {info}")
            return out

        yield Request(f"{name}/covering_group", kernel, kernel_problems,
                      lambda res: [sorted(p.img for p in res[0].generators),
                                   res[1]])

        def characters():
            chars = fr.all_characters(ctx["K"])
            ctx["S"] = fr.character_matrix(ctx["g"], chars[1], kernel=ctx["K"])
            return len(chars), ctx["S"]

        def characters_problems(res):
            count, s = res
            return [] if count == spec.r else [f"{count} characters, want {spec.r}"]

        yield Request(f"{name}/character_matrix", characters,
                      characters_problems,
                      lambda res: [res[0], list(res[1].base_vertices),
                                   [list(e) for e in res[1].eigenvalues]])

        def lines():
            return (fr.extract_lines(ctx["S"], "tau"),
                    fr.extract_lines(ctx["S"], "theta"))

        def lines_problems(res):
            out = []
            dims = tuple(ls.dimension for ls in res)
            if dims != spec.dims:
                out.append(f"line dimensions {dims}, want {spec.dims}")
            for ls in res:
                # n lines in dimension 1 coincide (alpha = 1): the relative
                # bound needs d alpha^2 < 1, so it has nothing to certify
                certs = ("equiangular", "tight", "relative_bound_equality")
                for cert in certs if ls.dimension > 1 else certs[:2]:
                    if ls.certificates.get(cert) is not True:
                        out.append(f"{ls.side}: {cert} certificate not true")
            return out

        yield Request(f"{name}/extract_lines", lines, lines_problems,
                      lambda res: [ls.certificates for ls in res])

        def subgroups():
            ctx["subs"] = [u for u in cl.perms.subgroups_of(ctx["K"])
                           if 1 < u.order() < spec.r]
            return ctx["subs"]

        def subgroups_problems(subs):
            want = corpus.elementary_subgroup_count(*corpus.prime_power(spec.r))
            return [] if len(subs) == want else [f"{len(subs)} subgroups, want {want}"]

        yield Request(f"{name}/subgroups_of", subgroups, subgroups_problems,
                      lambda subs: [sorted(p.img for p in u.generators)
                                    for u in subs])

        for i, u in enumerate(ctx.get("subs", ())):
            yield self._quotient_request(name, i, u, ctx, spec)

        def swapped():
            return gc.verify_cover(gc.CoverGraph.from_json(inp["swapped"]))

        yield Request(f"{name}/verify_swapped", swapped,
                      lambda rep: ([] if not rep.is_cover and rep.failures
                                   else ["matching-swapped copy accepted"]),
                      lambda rep: rep.to_json())

    def _quotient_request(self, name, i, u, ctx, spec) -> Request:
        order = len(corpus.closure([p.img for p in u.generators],
                                   ctx["g"].v, spec.r))
        want = (spec.n, spec.r // order, spec.mu * order)

        def problems(q):
            got = corpus.cover_triple(q.v, q.fibres, q.edges)
            return [] if got == want else [f"quotient is {got}, want {want}"]

        return Request(f"{name}/quotient_cover[{i}]|U|={order}",
                       lambda: self.cl.groupops.quotient_cover(ctx["g"], u),
                       problems, lambda q: _sha(q.to_json_str()))


class Analyze(Workload):
    """coverlab analyze --audits through cli.main, one request per cover."""

    name = "analyze"

    @property
    def nominal_pass_s(self) -> float:
        return 43.0 if self.full else 12.0

    def setup(self) -> None:
        self._write_corpus(ANALYZE_FULL_COVERS if self.full else ANALYZE_COVERS)

    def requests(self, variant: int):
        for name, inp in self.inputs[variant].items():
            yield Request(
                f"{name}/analyze_audits",
                lambda inp=inp: _cli(self.cl, ["analyze", "--audits",
                                               inp["path"]]),
                lambda res, inp=inp: self._problems(res, inp),
                lambda res: [res[0], _sha(res[1])], cli=True)

    @staticmethod
    def _problems(res, inp) -> list[str]:
        out = _cli_problems(res)
        if out:
            return out
        spec, g = inp["spec"], inp["graph"]
        payload = json.loads(res[1])
        aut = payload["automorphism_group"]
        if aut["order"] != spec.aut_order:
            out.append(f"|Aut| = {aut['order']}, want {spec.aut_order}")
        a = corpus.adjacency(g.v, g.edges)
        if not all(corpus.is_automorphism(a, p) for p in aut["generators"]):
            out.append("an Aut generator is not an automorphism")
        kern = payload["covering_group"]
        out += corpus.covering_group_problems(a, g.fibres, kern["generators"],
                                              spec.r)
        rep = payload["report"]
        if (rep["is_cover"], rep["n"], rep["r"], rep["mu"]) != (
                True, spec.n, spec.r, spec.mu):
            out.append(f"report {rep}")
        if not payload["rank_identity_holds"]:
            out.append("rank identity does not hold")
        if any(item["status"] == "fail" for item in payload["structure_audit"]):
            out.append("a structure audit item failed")
        if any(inv["failures"] for inv in payload["involution_audits"]):
            out.append("an involution audit failed")
        sub = payload["subdegree_identities"]
        if sub.get("applicable") and (
                not sub["eq_lambda_holds"]
                or any(c["status"] == "fail" for c in sub["mu_checks"])):
            out.append("a subdegree identity failed")
        return out


def feasible_b_count(t_max: int) -> int:
    """Rows of the odd-fibre table: the (9,3,3) member plus every (t, r)
    with 2 <= t <= t_max, r >= 2, r | t-1 and gcd(6, r) = 1, counted by r."""
    return 1 + sum((t_max - 1) // r for r in range(2, t_max)
                   if gcd(6, r) == 1)


def wreathed_congruence_count(t_sweep: int) -> int:
    """Congruences the wreathed case checks: 4 per admissible (odd t, r)."""
    pairs = 0
    for r in range(5, t_sweep, 2):
        if gcd(6, r) == 1:
            # odd t = 1 + k r with 7 <= t <= t_sweep needs k even (r is odd)
            pairs += sum(1 for k in range(2, (t_sweep - 1) // r + 1, 2)
                         if 1 + k * r >= 7)
    return 4 * pairs


# p^m = q^n + 1 in primes, p^m <= 10^6: Fermat primes 2^(2^k)+1, the
# Mersenne cases 2^m = q + 1, and 9 = 2^3 + 1 (Mihailescu)
ZSIGMONDY_VALUES = sorted({3, 5, 17, 257, 65537,
                           4, 8, 32, 128, 8192, 131072, 524288, 9})


class Tables(Workload):
    """Graph-free requests: parameter tables, case enumerations, lemmas."""

    name = "tables"
    seeded = False
    variants = 1
    nominal_pass_s = 5.0

    def requests(self, variant: int):
        cl = self.cl

        def feasible_b(res):
            out = _cli_problems(res)
            rows = json.loads(res[1])["feasible_b"] if not out else []
            want = feasible_b_count(3000)
            return out or ([] if len(rows) == want
                           else [f"{len(rows)} feasible-b rows, want {want}"])

        def feasible_a(res):
            out = _cli_problems(res)
            if out:
                return out
            triples = {(r["params"]["n"], r["params"]["r"], r["params"]["mu"])
                       for r in json.loads(res[1])["feasible_a"]}
            # the sporadic (28,4,8) and the icosahedron (6,2,2) are members
            return [] if {(28, 4, 8), (6, 2, 2)} <= triples else [
                "feasible-a misses (28,4,8) or (6,2,2)"]

        def cases(res):
            out = _cli_problems(res)
            if out:
                return out
            reports = json.loads(res[1])["cases"]
            out = [f"case {k} does not match" for k, r in reports.items()
                   if not r["match"]]
            if reports["twin-powers"]["solutions"] != [6, 8, 12, 18]:
                out.append("twin-power centres differ from [6, 8, 12, 18]")
            return out

        def lemmas(res):
            out = _cli_problems(res)
            if out:
                return out
            payload = json.loads(res[1])
            zs = sorted(s["p"] ** s["m"] for s in payload["zsigmondy"]["solutions"])
            if zs != ZSIGMONDY_VALUES:
                out.append(f"zsigmondy solutions {zs}")
            if payload["nagell_ljunggren"]["solutions"] != [[3, 5, 11], [7, 4, 20]]:
                out.append("nagell-ljunggren solutions differ")
            if (payload["lifting_sweep"]["counterexamples"]
                    or payload["gcd_sweep"]["counterexamples"]):
                out.append("a sweep found counterexamples")
            return out

        def wreathed(rep):
            want = f"{wreathed_congruence_count(10000)} congruences checked"
            out = [] if rep.match and rep.solutions == [] else ["case mismatch"]
            return out + ([] if rep.notes == [want] else [f"notes {rep.notes}"])

        digest = lambda res: [res[0], _sha(res[1])]  # noqa: E731
        for argv, check in (
                (["params", "feasible-b", "--t-max", "3000"], feasible_b),
                (["params", "feasible-a", "--t-max", "100"], feasible_a),
                (["cases", "all"], cases),
                (["lemma-check", "nt", "--sweep", "--zsigmondy-bound",
                  "1000000"], lemmas)):
            yield Request(" ".join(argv[:2]), lambda argv=argv: _cli(cl, argv),
                          check, digest, cli=True)
        yield Request("wreathed_congruence_case(10000)",
                      lambda: cl.casecheck.wreathed_congruence_case(10000),
                      wreathed, lambda rep: rep.to_json())


WORKLOADS = {w.name: w for w in (Etf, Analyze, Tables)}
