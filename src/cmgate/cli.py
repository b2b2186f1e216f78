"""Command-line front end.

Every command emits either a human-readable text summary or a JSON document
with the fixed top-level schema

    {command, config, verdict, witnesses, exceptions, bounds, timings, result}

The timings field carries deterministic work counters rather than wall-clock
numbers, so the whole JSON byte stream is reproducible across runs and
processes, which the selftest checks.  Exit codes: 0 pass/success, 1 gate
fail (witnesses in the report), 2 usage error, 3 internal consistency
sentinel, 141 stdout closed by its reader.  The commands only compute; run()
alone writes their output and maps their verdict to the exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import classpoly, endoring
from .errors import (
    CmgateError,
    InternalInvariant,
    ParseError,
    ProviderDisagreement,
    WrongVariables,
    _require,
)
from .ffield import FieldElement, make_field
from .polyring import BiPoly, UniPoly

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_SENTINEL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


# ---------------------------------------------------------------------------
# polynomial parsing
# ---------------------------------------------------------------------------

class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take(self):
        ch = self.peek()
        if ch is not None:
            self.pos += 1
        return ch

    def take_int(self) -> int:
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError(f"expected an integer at position {start}", start)
        return int(self.text[start:self.pos])


def parse_curve(text: str, ctx, variables=("X", "Y")) -> BiPoly:
    """Parse '+ - * ^ ( )' polynomial text over the given field context.

    variables names the allowed indeterminates in slot order; exponent
    vectors are built against that order.  No implicit multiplication.
    """
    tok = _Tokenizer(text)
    poly = _parse_expr(tok, ctx, variables)
    if tok.peek() is not None:
        raise ParseError(f"unexpected character {tok.peek()!r} at position {tok.pos}", tok.pos)
    return poly


def _parse_expr(tok, ctx, variables) -> BiPoly:
    first = True
    acc = BiPoly(ctx, {})
    while True:
        ch = tok.peek()
        if first:
            sign = 1
            if ch == "-":
                tok.take()
                sign = -1
            elif ch == "+":
                tok.take()
            acc = acc + _parse_term(tok, ctx, variables).scale(ctx.from_int(sign))
            first = False
            continue
        if ch == "+":
            tok.take()
            acc = acc + _parse_term(tok, ctx, variables)
        elif ch == "-":
            tok.take()
            acc = acc - _parse_term(tok, ctx, variables)
        else:
            return acc


def _parse_term(tok, ctx, variables) -> BiPoly:
    acc = _parse_factor(tok, ctx, variables)
    while tok.peek() == "*":
        tok.take()
        acc = acc * _parse_factor(tok, ctx, variables)
    return acc


def _parse_factor(tok, ctx, variables) -> BiPoly:
    base = _parse_atom(tok, ctx, variables)
    if tok.peek() == "^":
        tok.take()
        e = tok.take_int()
        out = BiPoly(ctx, {(0, 0): 1})
        power = base
        while e:
            if e & 1:
                out = out * power
            e >>= 1
            if e:
                power = power * power
        return out
    return base


def _parse_atom(tok, ctx, variables) -> BiPoly:
    ch = tok.peek()
    if ch is None:
        raise ParseError("unexpected end of input", tok.pos)
    if ch.isdigit():
        return BiPoly(ctx, {(0, 0): tok.take_int()})
    if ch == "(":
        tok.take()
        inner = _parse_expr(tok, ctx, variables)
        if tok.peek() != ")":
            raise ParseError(f"expected ')' at position {tok.pos}", tok.pos)
        tok.take()
        return inner
    if ch.isalpha():
        pos = tok.pos
        tok.take()
        if ch not in variables:
            raise WrongVariables(
                f"variable {ch!r} at position {pos} not among {variables}", pos
            )
        exp = (1, 0) if ch == variables[0] else (0, 1)
        return BiPoly(ctx, {exp: 1})
    raise ParseError(f"unexpected character {ch!r} at position {tok.pos}", tok.pos)


def parse_ring_element(text: str, ctx) -> UniPoly:
    bi = parse_curve(text, ctx, variables=("t",))
    coeffs = [ctx.zero()] * (bi.degree_x() + 1)
    for (i, j), c in bi.terms.items():
        _require(j == 0, "a ring element has no Y terms")
        coeffs[i] = c
    return UniPoly(ctx, coeffs)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _elt(x: FieldElement) -> dict:
    """The JSON form of a field element."""
    return {"deg": x.ctx.k, "enc": x.encoding()}


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _payload(args, verdict: str, result: dict, report=None) -> dict:
    """The fixed-schema document; a gate report fills witnesses, exceptions,
    bounds and the work counters."""
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    d = report.as_dict() if report is not None else {
        "witnesses": [], "exceptions": [], "bounds": {}, "counters": {}}
    return {
        "command": args.command,
        "config": config,
        "verdict": verdict,
        "witnesses": d["witnesses"],
        "exceptions": d["exceptions"],
        "bounds": d["bounds"],
        "timings": {"work": d["counters"]},
        "result": result,
    }


def _report(report):
    """A gates.GateReport as a command's (verdict, result, text lines)."""
    result = {"conclusion": report.conclusion, "notes": report.notes,
              "sentinel": report.sentinel}
    lines = [f"{report.gate}: {report.verdict}"]
    if report.conclusion:
        lines.append(f"conclusion: {report.conclusion}")
    lines += [f"witness: {w}" for w in report.witnesses[:10]]
    lines += [f"note: {note}" for note in report.notes]
    lines.append(f"counters: {dict(sorted(report.counters.items()))}")
    return report.verdict, result, lines


def _curve(args):
    """The lazily imported gates module and the plane curve --curve over F_p."""
    from . import gates

    return gates, gates.PlaneCurve(parse_curve(args.curve, make_field(args.p, 1)))


def _pair(args):
    """The lazily imported gates module and the ring elements --A, --B over F_p."""
    from . import gates

    ctx = make_field(args.p, 1)
    return gates, gates.RingElementPair(
        parse_ring_element(args.A, ctx), parse_ring_element(args.B, ctx))


# ---------------------------------------------------------------------------
# commands: each returns (verdict, result, text lines) or a gates.GateReport;
# run() writes the output and picks the exit code
# ---------------------------------------------------------------------------

def _cmd_kronecker(args):
    value = classpoly.kronecker(args.a, args.n)
    return "pass", {"value": value}, [str(value)]


def _cmd_class_number(args):
    h = classpoly.class_number(args.D)
    return "pass", {"h": h}, [str(h)]


def _cmd_hilbert(args):
    H = classpoly.hilbert_mod_p(args.D, args.p)
    coeffs = [c.coeffs[0] for c in H.poly.coeffs]
    result = {
        "D": args.D, "p": args.p, "degree": H.poly.degree(), "coeffs": coeffs,
        "root_field_degree": H.root_ctx.k,
        "roots": [_elt(r) for r in H.roots],
    }
    return "pass", result, [f"H_{args.D} mod {args.p}: coeffs (constant first) {coeffs}"]


def _cmd_endo_disc(args):
    j = make_field(args.p, args.k).from_encoding(args.j)
    order = endoring.endo_discriminant(j, hilbert_check=args.hilbert_check)
    result = {"D": order.D, "d_K": order.d_K, "f": order.f}
    return "pass", result, [f"D = {order.D} (d_K = {order.d_K}, conductor {order.f})"]


def _cmd_find_disc(args):
    D = classpoly.find_test_discriminant(args.ell, args.p, args.dmin)
    return "pass", {"D": D}, [str(D)]


def _cmd_inert_check(args):
    ok = classpoly.inert_obstruction_check(args.D, args.ell, args.p)
    return ("pass" if ok else "fail"), {"no_edges": ok}, [
        f"{'no' if ok else 'FOUND'} Phi_{args.ell} edge among H_{args.D} mod {args.p} roots"]


def _cmd_volcano(args):
    j = make_field(args.p, args.k).from_encoding(args.j)
    level, depth = endoring.volcano_level(j, args.ell)
    return "pass", {"level": level, "depth": depth}, [f"level {level}, depth {depth}"]


def _cmd_neighbors(args):
    j = make_field(args.p, args.k).from_encoding(args.j)
    beyond = []
    nbs = endoring.isogenous_neighbors(j, args.ell, beyond=beyond)
    result = {"neighbors": [{"j": _elt(w), "multiplicity": m} for w, m in nbs]}
    lines = [f"deg {w.ctx.k} enc {w.encoding()} (x{m})" for w, m in nbs]
    if not beyond:
        return "pass", result, lines
    result["beyond_size_bound"] = [
        {"factor_degree": d, "root_field_degree": k, "multiplicity": m} for d, k, m in beyond]
    lines += [f"factor of degree {d} (x{m}): roots in F_{args.p}^{k}, beyond the size bound"
              for d, k, m in beyond]
    return "inconclusive", result, lines


def _cmd_isogeny_path(args):
    ctx = make_field(args.p, args.k)
    levels = tuple(int(tok) for tok in args.levels.split(","))
    path = endoring.isogeny_path(
        ctx.from_encoding(args.j1), ctx.from_encoding(args.j2), levels)
    if path is None:
        return "fail", {"found": False, "path": None}, ["no path found"]
    result = {"found": True, "path": [{"level": lv, "j": _elt(w)} for lv, w in path]}
    return "pass", result, [
        " -> ".join([f"{args.j1}"] + [f"[{lv}] {w.encoding()}" for lv, w in path])]


def _cmd_cyclotomic(args):
    from . import ordertools

    psi = ordertools.cyclotomic_polynomial(args.n, make_field(args.p, 1))
    coeffs = [c.coeffs[0] for c in psi.coeffs]
    return "pass", {"coeffs": coeffs}, [
        f"Psi_{args.n} mod {args.p}: coeffs (constant first) {coeffs}"]


def _cmd_galois_threshold(args):
    from . import ordertools

    report = ordertools.stabilization_threshold(args.ell, args.p, args.mmax)
    result = report.as_dict()
    result["note"] = (
        "single exponents are verifiable; the infinitude of suitable "
        "Galois elements is outside computational reach"
    )
    return "pass", result, [f"degrees {report.degrees}", f"threshold {report.threshold}"]


def _cmd_curve_points(args):
    gates, curve = _curve(args)
    pts = list(gates.enumerate_curve_points(curve, args.k))
    result = {"count": len(pts),
              "points": [{"x": _elt(x), "y": _elt(y)} for x, y in pts]}
    return "pass", result, [f"{len(pts)} points over F_{args.p}^{args.k}"] + [
        f"({x.encoding()}, {y.encoding()})" for x, y in pts
    ]


def _cmd_ao_gate(args):
    gates, curve = _curve(args)
    return gates.andre_oort_gate(curve, args.kmax, witness_limit=args.witness_limit)


def _cmd_mult_gate(args):
    gates, curve = _curve(args)
    return gates.check_mult_hypothesis(
        curve, args.kmax, mode=args.mode, witness_limit=args.witness_limit)


def _cmd_subgroup_detect(args):
    gates, curve = _curve(args)
    form = gates.detect_subgroup_form(curve)
    if form is None:
        return "pass", {"form": None}, ["no monomial subgroup form"]
    a, b, zeta = form
    return "pass", {"form": {"a": a, "b": b, "zeta": _elt(zeta)}}, [
        f"X^{a} * Y^{b} = element enc {zeta.encoding()}"]


def _cmd_support_modular(args):
    gates, pair = _pair(args)
    D_set = [D for D in range(-3, -args.dmax - 1, -1) if D % 4 in (0, 1)]
    return gates.modular_support_check(pair, D_set)


def _cmd_support_mult(args):
    gates, pair = _pair(args)
    return gates.mult_support_check(pair, args.nmax, n_floor=args.n0)


def _cmd_support_cyclo(args):
    gates, pair = _pair(args)
    return gates.cyclo_support_check(pair, args.nmax, n_floor=args.n0)


def _cmd_construct_points(args):
    gates, curve = _curve(args)
    witnesses = gates.construct_frobenius_points(curve, args.nmax, args.count)
    text = [
        f"n={w.n} y_enc={w.y.encoding()} (deg {w.y.ctx.k}) order={w.shared_order} "
        f"cm={'-' if w.shared_cm is None else w.shared_cm.D} [{w.cm_status}]"
        for w in witnesses
    ] or ["no witness within the bound"]
    return ("pass" if witnesses else "fail"), {"witnesses": [w.as_dict() for w in witnesses]}, text


def _cmd_selftest(args):
    from . import acceptance

    chosen = [int(tok) for tok in args.criteria.split(",")] if args.criteria else None
    unknown, known = sorted(set(chosen or ()) - set(acceptance.REGISTRY)), acceptance.REGISTRY
    if unknown:
        raise ValueError(f"no criterion {unknown}: the criteria are {min(known)}-{max(known)}")
    results = acceptance.run_all(chosen)
    verdict = "pass" if all(r.passed for r in results) else "fail"
    return verdict, {"criteria": [r.as_dict() for r in results]}, [r.line() for r in results]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _sweep_bound(least: int):
    """The argparse type of a sweep bound: below `least`, nothing is swept."""
    def bound(text: str) -> int:
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"{text} leaves nothing to sweep; the least is {least}")
        return int(text)
    return bound


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmgate",
        description="CM orders, class polynomials mod p, isogeny volcanoes, "
                    "and desk-scale theorem gates over finite fields.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(func=fn)
        return sp

    sp = cmd("kronecker", _cmd_kronecker, help="Kronecker symbol (a | n)")
    sp.add_argument("a", type=int)
    sp.add_argument("n", type=int)

    sp = cmd("class-number", _cmd_class_number, help="class number h(D)")
    sp.add_argument("D", type=int)

    sp = cmd("hilbert", _cmd_hilbert, help="Hilbert class polynomial mod p")
    sp.add_argument("--D", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)

    sp = cmd("endo-disc", _cmd_endo_disc, help="endomorphism discriminant of j")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--j", type=int, required=True, help="element encoding")
    sp.add_argument("--hilbert-check", default="auto",
                    type=lambda s: {"auto": "auto", "on": True, "off": False}[s],
                    help="auto | on | off")

    sp = cmd("find-disc", _cmd_find_disc, help="Dirichlet-style discriminant search")
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--dmin", type=int, default=1)

    sp = cmd("inert-check", _cmd_inert_check, help="inert-prime obstruction check")
    sp.add_argument("--D", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)

    sp = cmd("volcano", _cmd_volcano, help="volcano level and depth of j")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)

    sp = cmd("neighbors", _cmd_neighbors, help="Phi_l neighbours of j")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)

    sp = cmd("isogeny-path", _cmd_isogeny_path, help="horizontal isogeny path")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--j1", type=int, required=True)
    sp.add_argument("--j2", type=int, required=True)
    sp.add_argument("--levels", default="2,3,5,7,11,13")

    sp = cmd("cyclotomic", _cmd_cyclotomic, help="cyclotomic polynomial mod p")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)

    sp = cmd("galois-threshold", _cmd_galois_threshold,
             help="cyclotomic tower degrees and stabilization index")
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--mmax", type=int, default=5)

    sp = cmd("curve-points", _cmd_curve_points, help="curve points over F_p^k")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--curve", required=True)
    sp.add_argument("--k", type=int, default=1)

    sp = cmd("ao-gate", _cmd_ao_gate, help="Andre-Oort gate (CM hypothesis sweep)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--curve", required=True)
    sp.add_argument("--kmax", type=_sweep_bound(1), required=True)
    sp.add_argument("--witness-limit", type=int, default=None)

    sp = cmd("mult-gate", _cmd_mult_gate, help="multiplicative-order gate")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--curve", required=True)
    sp.add_argument("--kmax", type=_sweep_bound(1), required=True)
    sp.add_argument("--mode", choices=("divides", "equal"), default="divides")
    sp.add_argument("--witness-limit", type=int, default=None)

    sp = cmd("subgroup-detect", _cmd_subgroup_detect,
             help="monomial subgroup-form detection")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--curve", required=True)

    sp = cmd("support-modular", _cmd_support_modular, help="modular support gate")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    sp.add_argument("--dmax", type=_sweep_bound(3), default=100)

    sp = cmd("support-mult", _cmd_support_mult, help="multiplicative support gate")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    sp.add_argument("--nmax", type=_sweep_bound(1), default=8)
    sp.add_argument("--n0", type=int, default=0)

    sp = cmd("support-cyclo", _cmd_support_cyclo, help="cyclotomic support gate")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    sp.add_argument("--nmax", type=_sweep_bound(1), default=8)
    sp.add_argument("--n0", type=int, default=0)

    sp = cmd("construct-points", _cmd_construct_points,
             help="Frobenius-point constructor")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--curve", required=True)
    sp.add_argument("--nmax", type=_sweep_bound(1), default=3)
    sp.add_argument("--count", type=_sweep_bound(1), default=3)

    sp = cmd("selftest", _cmd_selftest, help="run the acceptance criteria")
    sp.add_argument("--criteria", default=None,
                    help="comma-separated criterion numbers (default: all)")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "n0" in vars(args) and args.n0 >= args.nmax:
            parser.error(f"--n0 {args.n0} leaves nothing to sweep below --nmax {args.nmax}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        out = args.func(args)
    except (ProviderDisagreement, InternalInvariant, AssertionError) as exc:
        return _fail(args, exc, EXIT_SENTINEL,
                     f"internal sentinel: {type(exc).__name__}: {exc}")
    except ParseError as exc:
        return _fail(args, exc, EXIT_USAGE, f"parse error: {exc}")
    except CmgateError as exc:
        return _fail(args, exc, EXIT_USAGE, f"error: {type(exc).__name__}: {exc}")
    except ValueError as exc:
        return _fail(args, exc, EXIT_USAGE, f"error: {exc}")
    except Exception as exc:  # any other fault is a broken invariant too
        return _fail(args, exc, EXIT_SENTINEL,
                     f"internal sentinel: {type(exc).__name__}: {exc}")
    report = None if isinstance(out, tuple) else out
    verdict, result, text = out if report is None else _report(report)
    _emit(args, _payload(args, verdict, result, report), text)
    if report is not None and report.sentinel:
        return EXIT_SENTINEL
    return EXIT_FAIL if verdict == "fail" else EXIT_PASS


def _fail(args, exc: Exception, code: int, line: str) -> int:
    """Report a failed command: the line on stderr and, in JSON mode, the
    fixed-schema document with verdict "error" on stdout."""
    if args.format == "json":
        result = {"error": type(exc).__name__, "message": str(exc)}
        _emit(args, _payload(args, "error", result), [])
    print(line, file=sys.stderr)
    return code


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: exit as a writer that SIGPIPE ended, and
        # point fd 1 at the null device so shutdown's flush prints nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
