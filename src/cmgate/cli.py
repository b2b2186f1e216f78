"""Command-line front end.

Every command emits either a human-readable text summary or a JSON document
with the fixed top-level schema

    {command, config, verdict, witnesses, exceptions, bounds, timings, result}

The timings field carries deterministic work counters rather than wall-clock
numbers, so the whole JSON byte stream is reproducible across runs and
processes, which the selftest checks.  Exit codes: 0 pass/success, 1 gate
fail (witnesses in the report), 2 usage error, 3 internal consistency
sentinel.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    from .gates import GateReport, PlaneCurve, RingElementPair

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_SENTINEL = 3


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


def _payload(args, command: str, verdict: str, result: dict,
             witnesses=None, exceptions=None, bounds=None, counters=None) -> dict:
    config = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return {
        "command": command,
        "config": config,
        "verdict": verdict,
        "witnesses": witnesses or [],
        "exceptions": exceptions or [],
        "bounds": bounds or {},
        "timings": {"work": dict(sorted((counters or {}).items()))},
        "result": result,
    }


def _report_payload(args, command: str, report: GateReport) -> dict:
    d = report.as_dict()
    result = {"conclusion": d["conclusion"], "notes": d["notes"], "sentinel": d["sentinel"]}
    return _payload(
        args, command, d["verdict"], result,
        witnesses=d["witnesses"], exceptions=d["exceptions"],
        bounds=d["bounds"], counters=d["counters"],
    )


def _report_exit(report: GateReport) -> int:
    if report.sentinel:
        return EXIT_SENTINEL
    return EXIT_FAIL if report.verdict == "fail" else EXIT_PASS


def _field_element(args, ctx):
    return ctx.from_encoding(args.j)


def _discriminant_range(d_max: int):
    return [D for D in range(-3, -d_max - 1, -1) if D % 4 in (0, 1)]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_kronecker(args) -> int:
    value = classpoly.kronecker(args.a, args.n)
    _emit(args, _payload(args, "kronecker", "pass", {"value": value}), [str(value)])
    return EXIT_PASS


def _cmd_class_number(args) -> int:
    h = classpoly.class_number(args.D)
    _emit(args, _payload(args, "class-number", "pass", {"h": h}), [str(h)])
    return EXIT_PASS


def _cmd_hilbert(args) -> int:
    H = classpoly.hilbert_mod_p(args.D, args.p)
    coeffs = [c.coeffs[0] for c in H.poly.coeffs]
    result = {
        "D": args.D, "p": args.p, "degree": H.poly.degree(), "coeffs": coeffs,
        "root_field_degree": H.root_ctx.k,
        "roots": [_elt(r) for r in H.roots],
    }
    text = [f"H_{args.D} mod {args.p}: coeffs (constant first) {coeffs}"]
    _emit(args, _payload(args, "hilbert", "pass", result), text)
    return EXIT_PASS


def _cmd_endo_disc(args) -> int:
    ctx = make_field(args.p, args.k)
    j = _field_element(args, ctx)
    order = endoring.endo_discriminant(j, hilbert_check=args.hilbert_check)
    result = {"D": order.D, "d_K": order.d_K, "f": order.f}
    _emit(args, _payload(args, "endo-disc", "pass", result),
          [f"D = {order.D} (d_K = {order.d_K}, conductor {order.f})"])
    return EXIT_PASS


def _cmd_find_disc(args) -> int:
    D = classpoly.find_test_discriminant(args.ell, args.p, args.dmin)
    _emit(args, _payload(args, "find-disc", "pass", {"D": D}), [str(D)])
    return EXIT_PASS


def _cmd_inert_check(args) -> int:
    ok = classpoly.inert_obstruction_check(args.D, args.ell, args.p)
    verdict = "pass" if ok else "fail"
    _emit(args, _payload(args, "inert-check", verdict, {"no_edges": ok}),
          [f"{'no' if ok else 'FOUND'} Phi_{args.ell} edge among H_{args.D} mod {args.p} roots"])
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_volcano(args) -> int:
    ctx = make_field(args.p, args.k)
    level, depth = endoring.volcano_level(_field_element(args, ctx), args.ell)
    _emit(args, _payload(args, "volcano", "pass", {"level": level, "depth": depth}),
          [f"level {level}, depth {depth}"])
    return EXIT_PASS


def _cmd_neighbors(args) -> int:
    ctx = make_field(args.p, args.k)
    nbs = endoring.isogenous_neighbors(_field_element(args, ctx), args.ell)
    result = {"neighbors": [{"j": _elt(w), "multiplicity": m} for w, m in nbs]}
    text = [f"deg {w.ctx.k} enc {w.encoding()} (x{m})" for w, m in nbs]
    _emit(args, _payload(args, "neighbors", "pass", result), text)
    return EXIT_PASS


def _cmd_isogeny_path(args) -> int:
    ctx = make_field(args.p, args.k)
    j1 = ctx.from_encoding(args.j1)
    j2 = ctx.from_encoding(args.j2)
    levels = tuple(int(tok) for tok in args.levels.split(","))
    path = endoring.isogeny_path(j1, j2, levels)
    found = path is not None
    result = {
        "found": found,
        "path": None if path is None else [
            {"level": lv, "j": _elt(w)} for lv, w in path
        ],
    }
    text = ["no path found" if not found else
            " -> ".join([f"{args.j1}"] + [f"[{lv}] {w.encoding()}" for lv, w in path])]
    _emit(args, _payload(args, "isogeny-path", "pass" if found else "fail", result), text)
    return EXIT_PASS if found else EXIT_FAIL


def _cmd_cyclotomic(args) -> int:
    from . import ordertools

    ctx = make_field(args.p, 1)
    psi = ordertools.cyclotomic_polynomial(args.n, ctx)
    coeffs = [c.coeffs[0] for c in psi.coeffs]
    _emit(args, _payload(args, "cyclotomic", "pass", {"coeffs": coeffs}),
          [f"Psi_{args.n} mod {args.p}: coeffs (constant first) {coeffs}"])
    return EXIT_PASS


def _cmd_galois_threshold(args) -> int:
    from . import ordertools

    report = ordertools.stabilization_threshold(args.ell, args.p, args.mmax)
    result = report.as_dict()
    result["note"] = (
        "single exponents are verifiable; the infinitude of suitable "
        "Galois elements is outside computational reach"
    )
    _emit(args, _payload(args, "galois-threshold", "pass", result),
          [f"degrees {report.degrees}", f"threshold {report.threshold}"])
    return EXIT_PASS


def _cmd_curve_points(args) -> int:
    from . import gates

    ctx = make_field(args.p, 1)
    curve = gates.PlaneCurve(parse_curve(args.curve, ctx))
    pts = list(gates.enumerate_curve_points(curve, args.k))
    result = {"count": len(pts),
              "points": [{"x": _elt(x), "y": _elt(y)} for x, y in pts]}
    text = [f"{len(pts)} points over F_{args.p}^{args.k}"] + [
        f"({x.encoding()}, {y.encoding()})" for x, y in pts
    ]
    _emit(args, _payload(args, "curve-points", "pass", result), text)
    return EXIT_PASS


def _curve_from_args(args) -> PlaneCurve:
    from . import gates

    ctx = make_field(args.p, 1)
    return gates.PlaneCurve(parse_curve(args.curve, ctx))


def _cmd_ao_gate(args) -> int:
    from . import gates

    curve = _curve_from_args(args)
    report = gates.andre_oort_gate(
        curve, args.kmax, witness_limit=args.witness_limit
    )
    _emit(args, _report_payload(args, "ao-gate", report),
          _gate_text(report))
    return _report_exit(report)


def _cmd_mult_gate(args) -> int:
    from . import gates

    curve = _curve_from_args(args)
    report = gates.check_mult_hypothesis(
        curve, args.kmax, mode=args.mode, witness_limit=args.witness_limit
    )
    _emit(args, _report_payload(args, "mult-gate", report), _gate_text(report))
    return _report_exit(report)


def _cmd_subgroup_detect(args) -> int:
    from . import gates

    curve = _curve_from_args(args)
    form = gates.detect_subgroup_form(curve)
    if form is None:
        result = {"form": None}
        text = ["no monomial subgroup form"]
    else:
        a, b, zeta = form
        result = {"form": {"a": a, "b": b, "zeta": _elt(zeta)}}
        text = [f"X^{a} * Y^{b} = element enc {zeta.encoding()}"]
    _emit(args, _payload(args, "subgroup-detect", "pass", result), text)
    return EXIT_PASS


def _pair_from_args(args) -> RingElementPair:
    from . import gates

    ctx = make_field(args.p, 1)
    return gates.RingElementPair(
        parse_ring_element(args.A, ctx), parse_ring_element(args.B, ctx)
    )


def _cmd_support_modular(args) -> int:
    from . import gates

    pair = _pair_from_args(args)
    report = gates.modular_support_check(pair, _discriminant_range(args.dmax))
    _emit(args, _report_payload(args, "support-modular", report), _gate_text(report))
    return _report_exit(report)


def _cmd_support_mult(args) -> int:
    from . import gates

    pair = _pair_from_args(args)
    report = gates.mult_support_check(pair, args.nmax, n_floor=args.n0)
    _emit(args, _report_payload(args, "support-mult", report), _gate_text(report))
    return _report_exit(report)


def _cmd_support_cyclo(args) -> int:
    from . import gates

    pair = _pair_from_args(args)
    report = gates.cyclo_support_check(pair, args.nmax, n_floor=args.n0)
    _emit(args, _report_payload(args, "support-cyclo", report), _gate_text(report))
    return _report_exit(report)


def _cmd_construct_points(args) -> int:
    from . import gates

    curve = _curve_from_args(args)
    witnesses = gates.construct_frobenius_points(curve, args.nmax, args.count)
    result = {"witnesses": [w.as_dict() for w in witnesses]}
    verdict = "pass" if witnesses else "fail"
    text = [
        f"n={w.n} y_enc={w.y.encoding()} (deg {w.y.ctx.k}) order={w.shared_order} "
        f"cm={'-' if w.shared_cm is None else w.shared_cm.D} [{w.cm_status}]"
        for w in witnesses
    ] or ["no witness within the bound"]
    _emit(args, _payload(args, "construct-points", verdict, result), text)
    return EXIT_PASS if witnesses else EXIT_FAIL


def _cmd_selftest(args) -> int:
    from . import acceptance

    chosen = None
    if args.criteria:
        chosen = [int(tok) for tok in args.criteria.split(",")]
    results = acceptance.run_all(chosen)
    payload = _payload(
        args, "selftest",
        "pass" if all(r.passed for r in results) else "fail",
        {"criteria": [r.as_dict() for r in results]},
    )
    _emit(args, payload, [r.line() for r in results])
    return EXIT_PASS if all(r.passed for r in results) else EXIT_FAIL


def _gate_text(report: GateReport):
    lines = [f"{report.gate}: {report.verdict}"]
    if report.conclusion:
        lines.append(f"conclusion: {report.conclusion}")
    for w in report.witnesses[:10]:
        lines.append(f"witness: {w}")
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append(f"counters: {dict(sorted(report.counters.items()))}")
    return lines


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

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
    sp.add_argument("--kmax", type=int, required=True)
    sp.add_argument("--witness-limit", type=int, default=None)

    sp = cmd("mult-gate", _cmd_mult_gate, help="multiplicative-order gate")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--curve", required=True)
    sp.add_argument("--kmax", type=int, required=True)
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
    sp.add_argument("--dmax", type=int, default=100)

    sp = cmd("support-mult", _cmd_support_mult, help="multiplicative support gate")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    sp.add_argument("--nmax", type=int, default=8)
    sp.add_argument("--n0", type=int, default=0)

    sp = cmd("support-cyclo", _cmd_support_cyclo, help="cyclotomic support gate")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    sp.add_argument("--nmax", type=int, default=8)
    sp.add_argument("--n0", type=int, default=0)

    sp = cmd("construct-points", _cmd_construct_points,
             help="Frobenius-point constructor")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--curve", required=True)
    sp.add_argument("--nmax", type=int, default=3)
    sp.add_argument("--count", type=int, default=3)

    sp = cmd("selftest", _cmd_selftest, help="run the acceptance criteria")
    sp.add_argument("--criteria", default=None,
                    help="comma-separated criterion numbers (default: all)")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS
    try:
        return args.func(args)
    except (ProviderDisagreement, InternalInvariant, AssertionError) as exc:
        return _fail(args, exc, EXIT_SENTINEL,
                     f"internal sentinel: {type(exc).__name__}: {exc}")
    except ParseError as exc:
        return _fail(args, exc, EXIT_USAGE, f"parse error: {exc}")
    except CmgateError as exc:
        return _fail(args, exc, EXIT_USAGE, f"error: {type(exc).__name__}: {exc}")
    except ValueError as exc:
        return _fail(args, exc, EXIT_USAGE, f"error: {exc}")


def _fail(args, exc: Exception, code: int, line: str) -> int:
    """Report a failed command: the line on stderr and, in JSON mode, the
    fixed-schema document with verdict "error" on stdout."""
    if args.format == "json":
        result = {"error": type(exc).__name__, "message": str(exc)}
        _emit(args, _payload(args, args.command, "error", result), [])
    print(line, file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
