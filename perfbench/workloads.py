"""Workload catalogs, seeded request streams, and request execution.

Every workload serves a *deck*: a fixed multiset of requests whose order,
and the choice among interchangeable variants of a slot, come from the
seed.  A worker process serves exactly one deck, so every deck does the
same kind and amount of work and the per-deck figures (wall time, peak
RSS) compare like for like across seeds and commits.  README.md explains
the choice of each catalog entry and its weight.
"""

import contextlib
import hashlib
import io
import json
import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

WORKLOADS = ("rmatrix_cold", "verify_mixed", "basis_cold")

# Cartan types whose braid variant is calibrated during set-up.
SETUP_TYPES = {
    "rmatrix_cold": ("A1", "A2", "B2"),
    "verify_mixed": ("A1", "A2", "B2"),
    "basis_cold": ("A1", "A2", "B2", "G2"),
}

METHODS = ("theta", "krls", "oracle")
FAULTS = ("theta-sign", "scale-block", "wrong-flip")


# ---------------------------------------------------------------------------
# Catalogs: (count per deck, variants).  Variants of one slot cost about the
# same; the seed picks one per occurrence.
# ---------------------------------------------------------------------------

# rmatrix_cold: compute-r --method all on a fresh Cartan datum and fresh
# modules.  Seconds are single-request costs at the seed commit.  With
# these counts a deck's median request lies inside the A1 six-dimensional
# block and its p90 inside the B2 twenty-dimensional block, not on a step
# between two request kinds of different cost.
RMATRIX_SLOTS: Sequence[Tuple[int, Sequence[Tuple[str, tuple, tuple]]]] = (
    (16, [("A1", (1,), (1,))]),                                  # 0.07 s
    (4, [("A1", (1,), (2,)), ("A1", (2,), (1,))]),               # 0.14 s
    (4, [("A2", (1, 0), (1, 0)), ("A2", (0, 1), (0, 1)),
         ("A2", (1, 0), (0, 1)), ("A2", (0, 1), (1, 0))]),       # 0.2 s
    (2, [("A1", (2,), (2,)), ("A1", (1,), (3,)),
         ("A1", (3,), (1,))]),                                   # 0.28 s
    (2, [("B2", (0, 1), (0, 1))]),                               # 0.35 s
    (1, [("A1", (1,), (4,)), ("A1", (4,), (1,))]),               # 0.45 s
    (3, [("B2", (1, 0), (0, 1)), ("B2", (0, 1), (1, 0))]),       # 0.7 s
    (1, [("A2", (1, 0), (2, 0)), ("A2", (2, 0), (1, 0)),
         ("A2", (1, 0), (0, 2)), ("A2", (0, 2), (1, 0))]),       # 0.85 s
    (1, [("B2", (1, 0), (1, 0))]),                               # 1.35 s
)
RMATRIX_TINY = (("A1", (1,), (1,)), ("A2", (1, 0), (0, 1)))

# verify_mixed: qrmat verify argument vectors with a skewed popularity.
# The fault entries are negative controls: they must exit 1 with a
# counterexample.  Scaling rebuilds its based modules on every call, and
# each call leaves new entries in the id()-keyed caches, so the twenty
# scaling requests are what the cache growth in peak_rss_mb comes from.
# The ten A2 scaling requests cost about the same each time and hold p90
# inside their block; the 23 warm A1 lemma-identities requests hold p50
# inside theirs.
_VERIFY: Sequence[Tuple[int, str, Optional[str]]] = (
    (10, "--suite ybe --type A1 --hw 1", None),
    (8, "--suite hexagon --type A1 --triple 1 1 1", None),
    (6, "--suite gamma-lemma --type A1 --hw 1 --hw 2", None),
    (24, "--suite lemma-identities --type A1 --hw 2", None),
    (4, "--suite ybe --type A2 --hw 1,0", None),
    (4, "--suite gamma-lemma --type A2 --hw 1,0 --hw 0,1", None),
    (3, "--suite lemma-identities --type A2 --hw 1,1", None),
    (3, "--suite ybe --type A1 --hw 2", None),
    (2, "--suite lemma-identities --type B2 --hw 1,0", None),
    (10, "--suite scaling --type A1 --hw 1 --hw 1", None),
    (2, "--suite ybe --type B2 --hw 0,1", None),
    (2, "--suite hexagon --type A1 --triple 1 2 1", None),
    (1, "--suite gamma-lemma --type B2 --hw 0,1 --hw 1,0", None),
    (1, "--suite method-agreement --type A1 --hw 1 --hw 2", None),
    (10, "--suite scaling --type A2 --hw 1,0 --hw 0,1", None),
    (1, "--suite method-agreement --type A2 --hw 1,0 --hw 0,1", None),
    (1, "--suite hexagon --type A2 --triple 1,0 1,0 0,1", None),
    (2, "--suite method-agreement --type A1 --hw 1 --hw 1 "
        "--inject-fault theta-sign", "theta-sign"),
    (1, "--suite hexagon --type A1 --triple 1 1 1 "
        "--inject-fault scale-block", "scale-block"),
    (1, "--suite ybe --type A1 --hw 1 --inject-fault wrong-flip",
     "wrong-flip"),
)
VERIFY_TINY = (0, 0, 17, 18, 19)   # indices into _VERIFY

# basis_cold: crystal graph, global basis, canonical JSON and DOT of a
# fresh irreducible, each module once per deck.  The three costliest
# (A2 (3,1), A2 (2,2), G2 (0,2)) are more than a tenth of the deck, so
# p90 falls among them.
BASIS_MODULES: Sequence[Tuple[str, tuple]] = tuple(
    [("A1", (a,)) for a in (1, 2, 3, 4, 5, 6, 8, 10)]
    + [("A2", w) for w in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (3, 0),
                           (2, 1), (1, 2), (3, 1), (2, 2))]
    + [("B2", w) for w in ((1, 0), (0, 1), (1, 1), (2, 0), (0, 2))]
    + [("G2", w) for w in ((0, 1), (1, 0), (0, 2))]
)
BASIS_TINY = (("A1", (2,)), ("A2", (1, 0)), ("B2", (0, 1)), ("G2", (0, 1)))


def _wtext(wt: tuple) -> str:
    return ",".join(str(x) for x in wt)


def rmatrix_key(label: str, lam: tuple, mu: tuple) -> str:
    return f"{label} {_wtext(lam)} x {_wtext(mu)}"


def basis_key(label: str, hw: tuple) -> str:
    return f"{label} {_wtext(hw)}"


class Request(NamedTuple):
    key: str          # catalog identity, also the reference-digest key
    args: tuple       # workload-specific arguments
    fault: Optional[str] = None


def _rng(workload: str, seed: int, deck: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{deck}")


def make_deck(workload: str, seed: int, deck: int,
              tiny: bool = False) -> List[Request]:
    """The requests of one deck, in serving order."""
    rng = _rng(workload, seed, deck)
    reqs: List[Request] = []
    if workload == "rmatrix_cold":
        picks = RMATRIX_TINY if tiny else [
            rng.choice(variants)
            for count, variants in RMATRIX_SLOTS for _ in range(count)]
        reqs = [Request(rmatrix_key(*p), p) for p in picks]
    elif workload == "verify_mixed":
        rows = ([_VERIFY[i] for i in VERIFY_TINY] if tiny else
                [row for row in _VERIFY for _ in range(row[0])])
        reqs = [Request(text, tuple(["verify"] + text.split()), fault)
                for _, text, fault in rows]
    elif workload == "basis_cold":
        picks = BASIS_TINY if tiny else BASIS_MODULES
        reqs = [Request(basis_key(*p), p) for p in picks]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(reqs)
    return reqs


def rmatrix_catalog() -> List[Tuple[str, tuple, tuple]]:
    """Every distinct rmatrix_cold request, for recording references."""
    seen = {p for _, variants in RMATRIX_SLOTS for p in variants}
    return sorted(seen | set(RMATRIX_TINY))


def basis_catalog() -> List[Tuple[str, tuple]]:
    return sorted(set(BASIS_MODULES) | set(BASIS_TINY))


# ---------------------------------------------------------------------------
# Serving one request.  Each serve_* call is the timed region; it returns
# the program's output for check_* to judge outside the timing.
# ---------------------------------------------------------------------------

def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_json(obj) -> str:
    """The byte format `qrmat canonical-basis` prints."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def serve_rmatrix(q, label: str, lam: tuple, mu: tuple):
    """compute-r --method all on fresh Cartan data and fresh modules."""
    cd = q.cartan.make_cartan(label)
    bl = q.rmatrix.based_irreducible(q.uqmod.make_irreducible(cd, lam))
    br = q.rmatrix.based_irreducible(q.uqmod.make_irreducible(cd, mu))
    results = [q.rmatrix.r_matrix(bl, br, m) for m in METHODS]
    agree = all(r.matrix == results[0].matrix for r in results[1:])
    return agree, [r.serialize() for r in results]


def check_rmatrix(out, ref: Optional[dict]) -> Optional[str]:
    agree, texts = out
    if not agree:
        return "the three routes disagree"
    if ref is None:
        return "no reference digest"
    for m, text in zip(METHODS, texts):
        if sha256(text) != ref[m]:
            return f"{m} serialization differs from the reference"
    return None


def serve_basis(q, label: str, hw: tuple):
    cd = q.cartan.make_cartan(label)
    m = q.uqmod.make_irreducible(cd, hw)
    crystal = q.bases.crystal_graph(m)
    gb = q.bases.compute_global_basis(m)
    return canonical_json(gb.to_json_obj()), crystal.to_dot()


def check_basis(out, ref: Optional[dict]) -> Optional[str]:
    js, dot = out
    if ref is None:
        return "no reference digest"
    if sha256(js) != ref["json"]:
        return "canonical JSON differs from the reference"
    if sha256(dot) != ref["dot"]:
        return "DOT differs from the reference"
    return None


def serve_verify(q, argv: Sequence[str]):
    """One in-process `qrmat verify` call; returns (exit code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = q.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def check_verify(out, fault: Optional[str]) -> Optional[str]:
    code, text, err = out
    lines = text.splitlines()
    if fault is None:
        if code != 0 or err or not lines:
            return f"exit {code}, stderr {err.strip()!r}"
        if not all(line.startswith("PASS ") for line in lines):
            return "a check did not pass"
        return None
    if code != 1:
        return f"fault {fault} not caught: exit {code}"
    if not any(line.startswith("FAIL ") and " counterexample: " in line
               for line in lines):
        return f"fault {fault} reported no counterexample"
    return None


def serve(q, workload: str, req: Request):
    if workload == "rmatrix_cold":
        return serve_rmatrix(q, *req.args)
    if workload == "basis_cold":
        return serve_basis(q, *req.args)
    return serve_verify(q, req.args)


def check(workload: str, req: Request, out, reference: Dict[str, dict]
          ) -> Optional[str]:
    """None when the output is right, else what is wrong with it."""
    if workload == "rmatrix_cold":
        return check_rmatrix(out, reference["rmatrix"].get(req.key))
    if workload == "basis_cold":
        return check_basis(out, reference["basis"].get(req.key))
    return check_verify(out, req.fault)
