"""Command-line front end: lattice utilities, oracle evaluation, experiments.

All commands are pure functions of (arguments, seed); reports print as JSON
with --json and as short human tables otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from .lattice import Lattice, reciprocal_basis, saturation
from .lll import lll
from .matrix import format_matrix, parse_int_matrix, parse_matrix, parse_rational, hnf, snf
from .oracles import BrickOracle, RationalOracle, ShiftPairOracle, SparseSimonOracle, SparseVec
from .rationals import partial_fractions
from .experiments import run_hsp_experiment, run_shift_experiment


def _read_matrix(path: str):
    return parse_matrix(Path(path).read_text())


def cmd_lattice(args) -> int:
    M = _read_matrix(args.file)
    sub = args.subcommand
    if sub == "hnf":
        H, _ = hnf(M.to_integer())
        out = format_matrix(H)
    elif sub == "snf":
        D, _, _ = snf(M.to_integer())
        out = format_matrix(D)
    elif sub == "lll":
        out = format_matrix(lll(M))
    elif sub == "reciprocal":
        out = format_matrix(reciprocal_basis(Lattice.from_generators(M.to_integer())))
    elif sub == "saturate":
        out = format_matrix(saturation(Lattice.from_generators(M.to_integer())).basis)
    else:  # pragma: no cover
        raise ValueError(sub)
    sys.stdout.write(out)
    return 0


def cmd_pf(args) -> int:
    form = partial_fractions(parse_rational(args.rational))
    if args.json:
        n, abbrev = form.abbreviated()
        print(json.dumps({
            "integer_part": form.integer_part,
            "terms": [list(t) for t in form.terms],
            "abbreviated": {"integer_part": n, "terms": [list(t) for t in abbrev]},
        }, sort_keys=True))
        return 0
    if args.abbrev:
        n, terms = form.abbreviated()
        parts = [str(n)] if (n or not terms) else []
        parts += [str(Fraction(r, p ** k)) for p, k, r in terms]
        print(" + ".join(parts))
    else:
        print(str(form))
    return 0


def _parse_vector(text: str):
    return [int(tok) for tok in text.split()]


def cmd_oracle(args) -> int:
    kind = args.kind
    if kind in ("brick", "shift-pair") and not args.basis:
        raise ValueError(f"{kind} oracle needs --basis")
    if kind == "brick":
        lattice = Lattice.from_generators(parse_int_matrix(Path(args.basis).read_text()))
        oracle = BrickOracle(lattice)
        token = oracle.token(_parse_vector(args.element)).decode()
        if args.check:
            _check_brick(oracle)
    elif kind == "rational":
        oracle = RationalOracle([int(p) for p in args.accepted.split(",") if p])
        token = oracle.token(parse_rational(args.element)).decode()
        if args.check:
            _check_rational(oracle)
    elif kind == "sparse-simon":
        accepted = [int(p) for p in args.accepted.split(",") if p]
        oracle = SparseSimonOracle(accepted)
        token = oracle.token(SparseVec.parse(args.element)).decode()
        if args.check:
            _check_sparse(oracle, accepted)
    elif kind == "shift-pair":
        if not args.shift:
            raise ValueError("shift-pair oracle needs --shift")
        lattice = Lattice.from_generators(parse_int_matrix(Path(args.basis).read_text()))
        shift = _parse_vector(args.shift)
        oracle = ShiftPairOracle(lattice, shift)
        parts = _parse_vector(args.element)
        token = oracle.token(parts[:-1], parts[-1]).decode()
        if args.check:
            _check_shift_pair(oracle)
    else:  # pragma: no cover
        raise ValueError(kind)
    print(token)
    return 0


def _check_brick(oracle) -> None:
    """Exhaustive hiding-property check on a small box; raises on failure."""
    from itertools import product

    k = oracle.lattice.k
    pts = list(product(range(-4, 5), repeat=k))
    tokens = {x: oracle.token(x) for x in pts}
    for x in pts:
        for y in pts:
            same = tokens[x] == tokens[y]
            member = oracle.lattice.contains([a - b for a, b in zip(x, y)])
            if same != member:
                raise AssertionError(f"hiding property fails at {x}, {y}")
    print("hiding property verified on the box", file=sys.stderr)


def _check_rational(oracle) -> None:
    probes = [Fraction(n, d) for d in range(1, 40) for n in range(-10, 11)]
    for x in probes:
        if oracle.evaluate(oracle.evaluate(x)) != oracle.evaluate(x):
            raise AssertionError(f"canonical map not idempotent at {x}")
    print("idempotence verified on probe set", file=sys.stderr)


def _check_sparse(oracle, accepted) -> None:
    universe = [SparseVec.make([i for i in range(6) if mask >> i & 1])
                for mask in range(64)]
    acc = set(accepted)
    for x in universe:
        for y in universe:
            member = all(i in acc for i in (x + y).indices)
            if (oracle.token(x) == oracle.token(y)) != member:
                raise AssertionError(f"hiding property fails at {x}, {y}")
    print("hiding property verified on the index box", file=sys.stderr)


def _check_shift_pair(oracle) -> None:
    from itertools import product

    k = oracle.lattice.k
    for x in product(range(-4, 5), repeat=k):
        shifted = [a - b for a, b in zip(x, oracle.shift)]
        if oracle.token(x, 1) != oracle.token(shifted, 0):
            raise AssertionError(f"shift relation fails at {x}")
    print("shift relation verified on the box", file=sys.stderr)


def _emit_report(report: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True))
        return
    print(f"{report['command']}: seed={report['seed']} "
          f"trials={len(report['trials'])} success_rate={report['success_rate']:.3f}")
    for rec in report["trials"][:20]:
        extras = ""
        if "qubits" in rec:
            extras = f" qubits={rec['qubits']}"
        if "samples" in rec:
            extras = f" samples={rec['samples']}"
        print(f"  trial {rec['trial']}: {'ok' if rec['success'] else 'FAIL'}{extras}")
    if len(report["trials"]) > 20:
        print(f"  ... {len(report['trials']) - 20} more")


def cmd_hsp_recover(args) -> int:
    descriptor = json.loads(Path(args.descriptor).read_text())
    report = run_hsp_experiment(descriptor, seed=args.seed, trials=args.trials,
                                debug_trace=args.debug_trace, timing=args.timing)
    _emit_report(report, args.json)
    return 0


def cmd_shift_recover(args) -> int:
    descriptor = json.loads(Path(args.descriptor).read_text())
    report = run_shift_experiment(descriptor, seed=args.seed, trials=args.trials,
                                  noise=args.noise, timing=args.timing)
    _emit_report(report, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hslattice",
                                 description="exact lattice toolkit and hidden-structure recovery harness")
    sub = ap.add_subparsers(dest="command", required=True)

    lat = sub.add_parser("lattice", help="matrix canonical forms and reductions")
    lat.add_argument("subcommand", choices=["hnf", "snf", "lll", "reciprocal", "saturate"])
    lat.add_argument("file", help="matrix in text format: 'rows cols' then entries")
    lat.set_defaults(func=cmd_lattice)

    pf = sub.add_parser("pf", help="partial-fraction decomposition of a rational")
    pf.add_argument("rational")
    pf.add_argument("--abbrev", action="store_true", help="print the per-prime form")
    pf.add_argument("--json", action="store_true")
    pf.set_defaults(func=cmd_pf)

    orc = sub.add_parser("oracle", help="evaluate a hiding oracle")
    orc.add_argument("kind", choices=["brick", "rational", "sparse-simon", "shift-pair"])
    orc.add_argument("element", help="group element (vector, rational, or e-sum)")
    orc.add_argument("--basis", help="lattice basis file (brick, shift-pair)")
    orc.add_argument("--accepted", default="", help="comma-separated accepted set")
    orc.add_argument("--shift", help="shift vector, space-separated (shift-pair)")
    orc.add_argument("--check", action="store_true",
                     help="exhaustively verify the hiding property on a small box")
    orc.set_defaults(func=cmd_oracle)

    for name, fn in (("hsp-recover", cmd_hsp_recover), ("shift-recover", cmd_shift_recover)):
        p = sub.add_parser(name, help=f"run seeded {name} trials from a JSON descriptor")
        p.add_argument("descriptor")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--trials", type=int, default=1)
        p.add_argument("--json", action="store_true")
        p.add_argument("--timing", action="store_true",
                       help="attach wall times (sacrifices byte-reproducibility)")
        if name == "hsp-recover":
            p.add_argument("--debug-trace", action="store_true",
                           help="dump the recovery trace of trial 0")
        else:
            p.add_argument("--noise", choices=["exact", "gaussian"], default="exact")
        p.set_defaults(func=fn)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
