"""Command line front end: compute R-matrices, run verification suites,
export crystal graphs and canonical bases, and manage golden files.

Exit codes: 0 success, 1 failing check or golden mismatch, 2 usage or
configuration error, an output path that cannot be written included, 3
internal consistency error (message verbatim on stderr).  All emitted
files and stdout reports are byte-deterministic.
"""

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .bases import (compute_global_basis, cross_validate_tensor_crystal,
                    crystal_graph, tensor_crystal)
from .cartan import CartanDatum, make_cartan
from .rmatrix import (FAULTS, BasedModule, CheckReport, based_irreducible,
                      based_tensor, check_gamma_lemma, check_hexagon,
                      check_lemma_identities, check_method_agreement,
                      check_scaling, check_ybe, r_matrix)
from .sysmorph import make_Tw0, transport, tw0_spec
from .uqmod import (InternalConsistencyError, Module,
                    ModuleConstructionError, make_irreducible, verify_module)

WeightT = Tuple[int, ...]

CARTAN_TYPES = ("A1", "A2", "B2", "G2")
METHODS = ("theta", "krls", "oracle")
SUITES = ("method-agreement", "hexagon", "ybe", "lemma-identities",
          "gamma-lemma", "scaling", "crystal-crossval", "module-relations")


class CliError(Exception):
    """A configuration problem the user can fix; reported with exit 2."""


def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _wtext(wt: WeightT) -> str:
    return ",".join(str(x) for x in wt)


def _parse_weight(text: str, cd: CartanDatum) -> WeightT:
    try:
        coords = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise CliError(f"cannot parse weight {text!r}") from None
    if len(coords) != cd.n:
        raise CliError(
            f"weight {text!r} wants {cd.n} comma-separated coordinates")
    if any(c < 0 for c in coords):
        raise CliError("weight not dominant")
    return coords


def _dominant_weights(cd: CartanDatum, max_sum: int) -> List[WeightT]:
    """Nonzero dominant weights with coordinate sum at most max_sum."""
    out: List[WeightT] = []

    def rec(prefix: List[int], remaining: int):
        if len(prefix) == cd.n:
            if any(prefix):
                out.append(tuple(prefix))
            return
        for c in range(remaining + 1):
            rec(prefix + [c], remaining - c)

    rec([], max_sum)
    return sorted(out)


# One Cartan datum per type label for the life of the process; the datum
# owns the irreducibles built on it (uqmod.make_irreducible), and each of
# them its based irreducible (rmatrix.based_irreducible).
_cartans: Dict[str, CartanDatum] = {}


def _cartan_of(label: str) -> CartanDatum:
    if label not in _cartans:
        _cartans[label] = make_cartan(label)
    return _cartans[label]


def _module_of(label: str, hw: WeightT) -> Module:
    return make_irreducible(_cartan_of(label), hw)


def _based_of(label: str, hw: WeightT) -> BasedModule:
    return based_irreducible(_module_of(label, hw))


def _emit(payload: str, out: Optional[str], golden: Optional[str]) -> int:
    if golden is not None:
        if not os.path.exists(golden):
            with open(golden, "w") as f:
                f.write(payload)
            print(f"wrote golden {golden}")
            return 0
        with open(golden) as f:
            frozen = f.read()
        if frozen == payload:
            print(f"golden match {golden}")
            return 0
        print(f"golden mismatch {golden}", file=sys.stderr)
        return 1
    if out is not None:
        with open(out, "w") as f:
            f.write(payload)
        print(f"wrote {out}")
    else:
        print(payload, end="")
    return 0


# ---------------------------------------------------------------------------
# compute-r
# ---------------------------------------------------------------------------

def cmd_compute(args) -> int:
    cd = _cartan_of(args.type)
    if len(args.hw) != 2:
        raise CliError("compute-r wants exactly two --hw weights")
    lam, mu = (_parse_weight(t, cd) for t in args.hw)
    bl, br = _based_of(args.type, lam), _based_of(args.type, mu)
    if args.method == "all":
        results = {m: r_matrix(bl, br, m) for m in METHODS}
        mats = [results[m].matrix for m in METHODS]
        obj = {m: results[m].to_json_obj() for m in METHODS}
        obj["agree"] = all(mat == mats[0] for mat in mats[1:])
    else:
        obj = r_matrix(bl, br, args.method).to_json_obj()
    code = _emit(_canon(obj), args.out, args.golden)
    if obj.get("agree") is False:
        print("R-matrix routes disagree", file=sys.stderr)
        return 1
    return code


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _pair_list(args, cd: CartanDatum) -> List[Tuple[WeightT, WeightT]]:
    if args.hw:
        if len(args.hw) == 1:
            w = _parse_weight(args.hw[0], cd)
            return [(w, w)]
        if len(args.hw) == 2:
            return [(_parse_weight(args.hw[0], cd),
                     _parse_weight(args.hw[1], cd))]
        raise CliError("at most two --hw weights make a pair")
    weights = _dominant_weights(cd, args.max_hw)
    return [(a, b) for a in weights for b in weights]


def _module_list(args, cd: CartanDatum) -> List[WeightT]:
    if args.hw:
        return [_parse_weight(t, cd) for t in args.hw]
    return _dominant_weights(cd, args.max_hw)


def _hexagon_triples(args, cd: CartanDatum
                     ) -> List[Tuple[WeightT, WeightT, WeightT]]:
    if args.triple:
        u, v, w = (_parse_weight(t, cd) for t in args.triple)
        return [(u, v, w)]
    # factors follow the acceptance sets: fundamental weights, and for
    # rank one additionally 2*omega (capped by --max-hw)
    cap = min(args.max_hw, 2 if cd.n == 1 else 1)
    factors = _dominant_weights(cd, max(cap, 1))
    return [(u, v, w) for u in factors for v in factors for w in factors]


def _ybe_modules(args, cd: CartanDatum) -> List[WeightT]:
    if args.hw:
        return [_parse_weight(t, cd) for t in args.hw]
    defaults = {
        "A1": [(1,), (2,)],
        "A2": [(1, 0)],
        "B2": [(0, 1)],
        "G2": [(1, 0)],
    }
    return defaults[args.type]


def _crossval_report(label: str, lam: WeightT, mu: WeightT) -> CheckReport:
    ces: List[dict] = []
    try:
        cross_validate_tensor_crystal(crystal_graph(_module_of(label, lam)),
                                      crystal_graph(_module_of(label, mu)))
        based_tensor(_based_of(label, lam), _based_of(label, mu))
    except InternalConsistencyError as exc:
        ces.append({"check": "crystal cross-validation", "detail": str(exc)})
    return CheckReport("crystal-crossval", ces)


def _module_relations_report(label: str, hw: WeightT) -> CheckReport:
    m = _module_of(label, hw)
    ces: List[dict] = []
    try:
        verify_module(m)
        braid = make_Tw0(m)
        gb = compute_global_basis(m)
        transported = transport(m, tw0_spec(), gb.elements[gb.low_vertex],
                                m.hw_vector())
        if braid.matrix != transported.matrix:
            ces.append({"check": "T_w0 braid-product vs transport",
                        "detail": "matrices differ"})
    except InternalConsistencyError as exc:
        ces.append({"check": "module relations", "detail": str(exc)})
    return CheckReport("module-relations", ces)


def _run_suite(suite: str, args, cd: CartanDatum, fault: Optional[str]
               ) -> List[Tuple[str, CheckReport]]:
    rows: List[Tuple[str, CheckReport]] = []
    if suite == "method-agreement":
        for lam, mu in _pair_list(args, cd):
            rep = check_method_agreement(
                _based_of(args.type, lam), _based_of(args.type, mu), fault)
            rows.append((f"{_wtext(lam)}x{_wtext(mu)}", rep))
    elif suite == "hexagon":
        for u, v, w in _hexagon_triples(args, cd):
            rep = check_hexagon(
                _based_of(args.type, u), _based_of(args.type, v),
                _based_of(args.type, w), fault)
            rows.append((f"{_wtext(u)}x{_wtext(v)}x{_wtext(w)}", rep))
    elif suite == "ybe":
        for hw in _ybe_modules(args, cd):
            rep = check_ybe(_based_of(args.type, hw), fault)
            rows.append((_wtext(hw), rep))
    elif suite == "lemma-identities":
        for hw in _module_list(args, cd):
            rows.append((_wtext(hw),
                         check_lemma_identities(_based_of(args.type, hw))))
    elif suite == "gamma-lemma":
        for lam, mu in _pair_list(args, cd):
            rep = check_gamma_lemma(_based_of(args.type, lam),
                                    _based_of(args.type, mu))
            rows.append((f"{_wtext(lam)}x{_wtext(mu)}", rep))
    elif suite == "scaling":
        for lam, mu in _pair_list(args, cd):
            rep = check_scaling(_based_of(args.type, lam),
                                _based_of(args.type, mu))
            rows.append((f"{_wtext(lam)}x{_wtext(mu)}", rep))
    elif suite == "crystal-crossval":
        for lam, mu in _pair_list(args, cd):
            rows.append((f"{_wtext(lam)}x{_wtext(mu)}",
                         _crossval_report(args.type, lam, mu)))
    elif suite == "module-relations":
        for hw in _module_list(args, cd):
            rows.append((_wtext(hw),
                         _module_relations_report(args.type, hw)))
    else:
        raise CliError(f"unknown suite {suite!r}")
    return rows


def cmd_verify(args) -> int:
    if args.max_hw < 1:
        raise CliError(f"--max-hw must be at least 1, got {args.max_hw}")
    cd = _cartan_of(args.type)
    if args.suite == "hexagon" and args.hw:
        raise CliError("--suite hexagon reads --triple, not --hw")
    if args.triple and args.suite not in ("hexagon", "all"):
        raise CliError(f"--triple is read only by --suite hexagon, not "
                       f"{args.suite!r}")
    fault = args.inject_fault
    if args.suite == "all":
        if fault is not None:
            raise CliError("--inject-fault wants a specific --suite")
        suites: Sequence[str] = SUITES
    else:
        suites = (args.suite,)
        if fault is not None and fault not in FAULTS.get(args.suite, ()):
            raise CliError(
                f"fault {fault!r} is not supported for suite {args.suite!r}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    any_failed = False
    for suite in suites:
        for label, rep in _run_suite(suite, args, cd, fault):
            state = "PASS" if rep.passed else "FAIL"
            line = f"{state} {suite} {args.type} {label}"
            if not rep.passed:
                any_failed = True
                line += " counterexample: " + json.dumps(
                    rep.counterexamples[0], sort_keys=True,
                    separators=(",", ":"))
            print(line)
            if args.out:
                path = os.path.join(args.out, f"{suite}-{label}.json")
                with open(path, "w") as f:
                    f.write(_canon(rep.to_json_obj()))
    return 1 if any_failed else 0


# ---------------------------------------------------------------------------
# crystal / canonical-basis
# ---------------------------------------------------------------------------

def _list_hw_text(label: str, lam: WeightT, mu: WeightT) -> str:
    ml, mr = _module_of(label, lam), _module_of(label, mu)
    pair = tensor_crystal(crystal_graph(ml), crystal_graph(mr))
    by_nu: Dict[WeightT, List[int]] = {}
    for h in pair.highest():
        a, b = pair.labels[h]
        by_nu.setdefault(pair.weight(h), []).append(b)
    lines = []
    for nu in sorted(by_nu, reverse=True):
        inner = ", ".join(f"b{b}" for b in sorted(by_nu[nu]))
        lines.append(f"S^({_wtext(nu)}) = [{inner}]")
    return "\n".join(lines) + "\n"


def cmd_crystal(args) -> int:
    cd = _cartan_of(args.type)
    if args.tensor:
        if args.hw:
            raise CliError("--hw and --tensor exclude each other")
        lam = _parse_weight(args.tensor[0], cd)
        mu = _parse_weight(args.tensor[1], cd)
        if args.list_hw:
            payload = _list_hw_text(args.type, lam, mu)
        else:
            pair = tensor_crystal(crystal_graph(_module_of(args.type, lam)),
                                  crystal_graph(_module_of(args.type, mu)))
            payload = pair.to_dot()
    else:
        if not args.hw:
            raise CliError("crystal wants --hw or --tensor")
        if len(args.hw) != 1:
            raise CliError("crystal wants exactly one --hw")
        if args.list_hw:
            raise CliError("--list-hw wants --tensor")
        hw = _parse_weight(args.hw[0], cd)
        payload = crystal_graph(_module_of(args.type, hw)).to_dot()
    return _emit(payload, args.out, args.golden)


def cmd_canonical_basis(args) -> int:
    cd = _cartan_of(args.type)
    if len(args.hw) != 1:
        raise CliError("canonical-basis wants exactly one --hw")
    hw = _parse_weight(args.hw[0], cd)
    gb = compute_global_basis(_module_of(args.type, hw))
    return _emit(_canon(gb.to_json_obj()), args.out, args.golden)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrmat",
        description="Exact R-matrices, crystal and canonical bases for "
                    "quantized enveloping algebra modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, golden=True):
        p.add_argument("--type", required=True, choices=CARTAN_TYPES)
        p.add_argument("--hw", action="append", default=[],
                       help="dominant weight as comma-separated fundamental "
                            "coordinates; repeatable")
        if not golden:
            p.add_argument("--out", help="directory for one report per check")
            return
        dest = p.add_mutually_exclusive_group()
        dest.add_argument("--out", help="output file")
        dest.add_argument("--golden",
                          help="golden file: write if missing, else compare")

    p = sub.add_parser("compute-r", help="compute an R-matrix")
    common(p)
    p.add_argument("--method", default="all", choices=METHODS + ("all",))
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("verify", help="run verification suites")
    common(p, golden=False)
    p.add_argument("--suite", default="all", choices=SUITES + ("all",))
    p.add_argument("--max-hw", type=int, default=1, dest="max_hw",
                   help="enumerate dominant weights with coordinate sum up "
                        "to this bound when --hw is not given")
    p.add_argument("--triple", nargs=3, metavar="W",
                   help="three weights for one hexagon instance")
    p.add_argument("--inject-fault", dest="inject_fault",
                   choices=tuple(dict.fromkeys(sum(FAULTS.values(), ()))))
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("crystal", help="emit crystal graphs")
    common(p)
    p.add_argument("--tensor", nargs=2, metavar="W",
                   help="two weights: emit the pair crystal")
    p.add_argument("--list-hw", action="store_true", dest="list_hw",
                   help="list the S^nu sets of a pair crystal")
    p.set_defaults(fn=cmd_crystal)

    p = sub.add_parser("canonical-basis", help="emit a global basis")
    common(p)
    p.set_defaults(fn=cmd_canonical_basis)
    return parser


# one parser per process: parse_args starts a fresh namespace on every call
_PARSER = _build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except (CliError, ModuleConstructionError, OSError) as exc:
        # OSError: an output path that cannot be written
        print(str(exc), file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(str(exc), file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
