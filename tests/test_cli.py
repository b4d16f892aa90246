"""Command line interface: exit codes, outputs, determinism, faults."""

import contextlib
import gc
import io
import json
import os
import sys
import tracemalloc

import pytest

from qrmat import cli, rmatrix
from qrmat.cli import main
from qrmat.qscalar import FieldElement
from qrmat.rmatrix import RMatrixResult
from qrmat.sysmorph import TransportedMap
from qrmat.uqmod import InternalConsistencyError

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench")


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# -- compute-r ----------------------------------------------------------------


def test_compute_all_methods_agree_and_write_file(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, stdout, stderr = run(
        capsys, "compute-r", "--type", "A1", "--hw", "1", "--hw", "1",
        "--method", "all", "--out", str(out))
    assert code == 0
    assert stderr == ""
    assert stdout == f"wrote {out}\n"
    obj = json.loads(out.read_text())
    assert obj["agree"] is True
    assert set(obj) == {"agree", "theta", "krls", "oracle"}
    assert obj["theta"]["entries"] == obj["krls"]["entries"]


def test_compute_all_exits_1_when_routes_disagree(capsys, monkeypatch):
    real = cli.r_matrix

    def doubled_oracle(bl, br, method):
        res = real(bl, br, method)
        if method != "oracle":
            return res
        return RMatrixResult(res.matrix.scale(FieldElement.from_int(2)),
                             method, bl, br)

    monkeypatch.setattr(cli, "r_matrix", doubled_oracle)
    code, stdout, stderr = run(
        capsys, "compute-r", "--type", "A1", "--hw", "1", "--hw", "1",
        "--method", "all")
    assert code == 1
    assert json.loads(stdout)["agree"] is False
    assert "disagree" in stderr


def test_compute_single_method_nine_by_nine(capsys):
    code, stdout, stderr = run(
        capsys, "compute-r", "--type", "A2", "--hw", "1,0", "--hw", "0,1",
        "--method", "theta")
    assert code == 0
    assert stderr == ""
    obj = json.loads(stdout)
    assert obj["method"] == "theta"
    assert len(obj["basis_order"]) == 9
    assert obj["lambda"] == [1, 0] and obj["mu"] == [0, 1]


def test_compute_rejects_non_dominant_weight(capsys):
    code, _, stderr = run(
        capsys, "compute-r", "--type", "A1", "--hw", "-1", "--hw", "1")
    assert code == 2
    assert "weight not dominant" in stderr


def test_compute_wants_exactly_two_weights(capsys):
    code, _, stderr = run(capsys, "compute-r", "--type", "A1", "--hw", "1")
    assert code == 2
    assert "two --hw" in stderr


def test_compute_rejects_unknown_type(capsys):
    code, _, stderr = run(
        capsys, "compute-r", "--type", "E8", "--hw", "1", "--hw", "1")
    assert code == 2
    assert stderr


def test_compute_rejects_wrong_coordinate_count(capsys):
    code, _, stderr = run(
        capsys, "compute-r", "--type", "A2", "--hw", "1", "--hw", "1")
    assert code == 2
    assert "coordinates" in stderr


def test_compute_output_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "compute-r", "--type", "A1", "--hw", "2",
                         "--hw", "1", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_compute_golden_write_match_mismatch(tmp_path, capsys):
    golden = tmp_path / "r.golden.json"
    code, stdout, _ = run(capsys, "compute-r", "--type", "A1", "--hw", "1",
                          "--hw", "1", "--golden", str(golden))
    assert code == 0 and stdout.startswith("wrote golden")
    code, stdout, _ = run(capsys, "compute-r", "--type", "A1", "--hw", "1",
                          "--hw", "1", "--golden", str(golden))
    assert code == 0 and stdout.startswith("golden match")
    code, _, stderr = run(capsys, "compute-r", "--type", "A1", "--hw", "1",
                          "--hw", "2", "--golden", str(golden))
    assert code == 1 and "golden mismatch" in stderr


# -- verify -------------------------------------------------------------------


def test_verify_pass_writes_reports(tmp_path, capsys):
    out = tmp_path / "reports"
    code, stdout, stderr = run(
        capsys, "verify", "--suite", "method-agreement", "--type", "A1",
        "--hw", "1", "--hw", "2", "--out", str(out))
    assert code == 0
    assert stderr == ""
    assert stdout == "PASS method-agreement A1 1x2\n"
    rep = json.loads((out / "method-agreement-1x2.json").read_text())
    assert rep == {"name": "method-agreement", "pass": True,
                   "counterexamples": []}


def test_verify_all_suites_smallest_a1(capsys):
    code, stdout, stderr = run(
        capsys, "verify", "--suite", "all", "--type", "A1", "--max-hw", "1")
    assert code == 0
    assert stderr == ""
    lines = stdout.strip().split("\n")
    assert all(line.startswith("PASS") for line in lines)
    suites = {line.split()[1] for line in lines}
    assert suites == set(cli.SUITES)


def test_verify_module_relations_one_line_per_module(capsys):
    code, stdout, stderr = run(
        capsys, "verify", "--suite", "module-relations", "--type", "A2",
        "--max-hw", "1")
    assert code == 0
    assert stderr == ""
    assert stdout == ("PASS module-relations A2 0,1\n"
                      "PASS module-relations A2 1,0\n")


def test_verify_module_relations_flags_tw0_route_disagreement(
        capsys, monkeypatch):
    real = cli.transport

    def doubled(m, spec, v0, w0):
        t = real(m, spec, v0, w0)
        return TransportedMap(m, t.matrix.scale(FieldElement.from_int(2)),
                              t.bar_linear, t.provenance)

    monkeypatch.setattr(cli, "transport", doubled)
    code, stdout, _ = run(
        capsys, "verify", "--suite", "module-relations", "--type", "A1",
        "--hw", "2")
    assert code == 1
    assert stdout.startswith("FAIL module-relations A1 2 counterexample:")
    assert "braid-product vs transport" in stdout


def test_verify_crystal_crossval_one_line_per_pair(capsys):
    code, stdout, stderr = run(
        capsys, "verify", "--suite", "crystal-crossval", "--type", "A2",
        "--max-hw", "1")
    assert code == 0
    assert stderr == ""
    assert stdout.split("\n") == [
        f"PASS crystal-crossval A2 {pair}"
        for pair in ("0,1x0,1", "0,1x1,0", "1,0x0,1", "1,0x1,0")] + [""]


def test_verify_hexagon_triple_flag(capsys):
    code, stdout, _ = run(
        capsys, "verify", "--suite", "hexagon", "--type", "A2",
        "--triple", "1,0", "1,0", "0,1")
    assert code == 0
    assert stdout == "PASS hexagon A2 1,0x1,0x0,1\n"


@pytest.mark.parametrize("suite,fault", [
    ("ybe", "scale-block"),
    ("ybe", "wrong-flip"),
    ("method-agreement", "theta-sign"),
    ("hexagon", "scale-block"),
])
def test_verify_injected_faults_are_detected(tmp_path, capsys, suite, fault):
    out = tmp_path / "reports"
    argv = ["verify", "--suite", suite, "--type", "A1", "--inject-fault",
            fault, "--out", str(out)]
    if suite in ("ybe", "lemma-identities"):
        argv += ["--hw", "1"]
    elif suite == "method-agreement":
        argv += ["--hw", "1", "--hw", "1"]
    code, stdout, _ = run(capsys, *argv)
    assert code == 1
    assert "FAIL" in stdout and "counterexample" in stdout
    failing = [json.loads(p.read_text()) for p in out.iterdir()]
    assert any(not rep["pass"] and rep["counterexamples"]
               for rep in failing)


def test_verify_fault_wants_specific_suite(capsys):
    code, _, stderr = run(
        capsys, "verify", "--suite", "all", "--type", "A1",
        "--inject-fault", "scale-block")
    assert code == 2
    assert "specific --suite" in stderr


@pytest.mark.parametrize("bound", ["-3", "0"])
def test_verify_rejects_max_hw_below_one(capsys, bound):
    # a bound below 1 used to verify nothing (or fall back to defaults)
    # and still exit 0
    code, out, stderr = run(
        capsys, "verify", "--suite", "method-agreement", "--type", "A1",
        "--max-hw", bound)
    assert code == 2
    assert "--max-hw" in stderr and out == ""


def test_verify_fault_unsupported_for_suite(capsys):
    code, _, stderr = run(
        capsys, "verify", "--suite", "scaling", "--type", "A1",
        "--hw", "1", "--inject-fault", "theta-sign")
    assert code == 2
    assert "not supported" in stderr


def test_verify_has_no_golden_flag(tmp_path, capsys):
    # verify writes reports with --out; a --golden it never read used to
    # exit 0 and write nothing
    golden = tmp_path / "g.json"
    code, stdout, stderr = run(
        capsys, "verify", "--suite", "module-relations", "--type", "A1",
        "--hw", "1", "--golden", str(golden))
    assert code == 2 and stdout == ""
    assert "--golden" in stderr and not golden.exists()


@pytest.mark.parametrize("argv,flag", [
    (("--type", "A1", "--suite", "hexagon", "--hw", "3"), "--hw"),
    (("--type", "A1", "--suite", "ybe", "--triple", "1", "1", "1"),
     "--triple"),
    (("--type", "A1", "--suite", "method-agreement", "--triple", "1", "1",
      "1"), "--triple"),
    (("--type", "A1", "--suite", "ybe", "--max-hw", "3"), "--max-hw"),
    (("--type", "A1", "--suite", "method-agreement", "--hw", "1",
      "--max-hw", "5"), "--max-hw"),
    (("--type", "A2", "--suite", "hexagon", "--max-hw", "4"), "--max-hw"),
    (("--type", "A1", "--suite", "hexagon", "--triple", "1", "1", "1",
      "--max-hw", "2"), "--max-hw"),
])
def test_verify_refuses_a_flag_its_suite_does_not_read(capsys, argv, flag):
    # each used to run the suite's default or given weights and exit 0
    code, stdout, stderr = run(capsys, "verify", *argv)
    assert code == 2 and stdout == ""
    assert flag in stderr


def test_every_benchmark_verify_request_passes_the_flag_checks(
        capsys, monkeypatch):
    sys.path.insert(0, BENCH)
    try:
        import workloads
    finally:
        sys.path.remove(BENCH)
    monkeypatch.setattr(cli, "_run_suite", lambda *args: [])
    argvs = {req.args for req in workloads.make_deck("verify_mixed", 1, 0)}
    assert len(argvs) > 10
    for argv in sorted(argvs):
        assert run(capsys, *argv) == (0, "", ""), argv


VERIFY_GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                             "verify_outputs.txt")
VERIFY_GOLDEN_ARGVS = [
    ("--suite", "all", "--type", "A1", "--max-hw", "2"),
    ("--suite", "all", "--type", "A2"),
    ("--suite", "method-agreement", "--type", "A1",
     "--inject-fault", "theta-sign"),
    ("--suite", "hexagon", "--type", "A1", "--inject-fault", "scale-block"),
    ("--suite", "ybe", "--type", "A1", "--inject-fault", "scale-block"),
    ("--suite", "ybe", "--type", "A1", "--inject-fault", "wrong-flip"),
]


def verify_golden_payload() -> str:
    """Exit code and stdout of each VERIFY_GOLDEN_ARGVS request."""
    parts = []
    for argv in VERIFY_GOLDEN_ARGVS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(["verify", *argv])
        parts.append(f"$ qrmat verify {' '.join(argv)}\n{buf.getvalue()}"
                     f"exit {code}\n")
    return "".join(parts)


def test_verify_output_matches_golden_bytes():
    with open(VERIFY_GOLDEN) as f:
        assert verify_golden_payload() == f.read()


SUITE_CHECKS = {
    "method-agreement": "check_method_agreement",
    "hexagon": "check_hexagon",
    "ybe": "check_ybe",
    "lemma-identities": "check_lemma_identities",
    "gamma-lemma": "check_gamma_lemma",
    "scaling": "check_scaling",
    "crystal-crossval": "_crossval_report",
    "module-relations": "_module_relations_report",
}


def test_suite_table_names_every_suite_and_faulted_check():
    assert list(cli.SUITES) == list(SUITE_CHECKS)
    assert set(rmatrix.FAULTS) <= set(cli.SUITES)


@pytest.mark.parametrize("suite", list(SUITE_CHECKS))
def test_verify_internal_error_exits_3_with_verbatim_message(
        capsys, monkeypatch, suite):
    # each suite must reach its check through the check's cli name
    def boom(*a, **k):
        raise InternalConsistencyError("boom: conventions bug")
    monkeypatch.setattr(cli, SUITE_CHECKS[suite], boom)
    code, _, stderr = run(capsys, "verify", "--suite", suite, "--type", "A1")
    assert code == 3
    assert stderr == "boom: conventions bug\n"


# -- crystal / canonical-basis --------------------------------------------------


def test_crystal_dot_path_graph(capsys):
    code, stdout, stderr = run(capsys, "crystal", "--type", "A1", "--hw", "2")
    assert code == 0
    assert stderr == ""
    assert stdout.startswith("digraph crystal")
    assert stdout.count("label=") == 5  # 3 vertices + 2 edges
    assert stdout.count("->") == 2


def test_crystal_a2_fundamental_edge_nodes(capsys):
    code, stdout, _ = run(capsys, "crystal", "--type", "A2", "--hw", "1,0")
    assert code == 0
    assert stdout.count("->") == 2
    assert 'label="1"' in stdout and 'label="2"' in stdout


def test_crystal_pair_highest_weight_listing(capsys):
    code, stdout, stderr = run(
        capsys, "crystal", "--type", "A1", "--tensor", "1", "1", "--list-hw")
    assert code == 0
    assert stderr == ""
    assert stdout == "S^(2) = [b0]\nS^(0) = [b1]\n"


def test_crystal_listing_wants_tensor(capsys):
    code, _, stderr = run(
        capsys, "crystal", "--type", "A1", "--hw", "1", "--list-hw")
    assert code == 2
    assert "--tensor" in stderr


def test_crystal_wants_some_input(capsys):
    code, _, stderr = run(capsys, "crystal", "--type", "A1")
    assert code == 2
    assert "--hw or --tensor" in stderr


@pytest.mark.parametrize("command,weights", [
    ("canonical-basis", ("1", "2")),
    ("crystal", ("1", "3")),
])
def test_single_module_commands_refuse_extra_weights(capsys, command,
                                                     weights):
    argv = [command, "--type", "A1"]
    for w in weights:
        argv += ["--hw", w]
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert f"{command} wants exactly one --hw" in stderr


def test_canonical_basis_golden_roundtrip(tmp_path, capsys):
    golden = tmp_path / "gb.json"
    code, _, _ = run(capsys, "canonical-basis", "--type", "A1", "--hw", "2",
                     "--golden", str(golden))
    assert code == 0
    code, stdout, _ = run(capsys, "canonical-basis", "--type", "A1", "--hw",
                          "2", "--golden", str(golden))
    assert code == 0 and stdout.startswith("golden match")
    obj = json.loads(golden.read_text())
    assert len(obj["elements"]) == 3


@pytest.mark.parametrize("command", [
    ("canonical-basis", "--hw", "1"),
    ("compute-r", "--hw", "1", "--hw", "1"),
])
def test_out_and_golden_exclude_each_other(tmp_path, capsys, command):
    # --golden used to win and --out was dropped without a word
    out, golden = tmp_path / "o.json", tmp_path / "g.json"
    code, stdout, stderr = run(capsys, command[0], "--type", "A1",
                               *command[1:], "--out", str(out),
                               "--golden", str(golden))
    assert code == 2 and stdout == ""
    assert "--golden: not allowed with argument --out" in stderr
    assert not out.exists() and not golden.exists()


@pytest.mark.parametrize("argv", [
    ("canonical-basis", "--hw", "1", "--out", "{missing}"),
    ("canonical-basis", "--hw", "1", "--golden", "{missing}"),
    ("canonical-basis", "--hw", "1", "--out", "{dir}"),
    ("verify", "--hw", "1", "--hw", "1", "--suite", "method-agreement",
     "--out", "{below_file}"),
])
def test_unwritable_output_path_exits_2_naming_it(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    paths = {"missing": str(tmp_path / "no" / "x.json"),
             "dir": str(tmp_path),
             "below_file": str(tmp_path / "file" / "reports")}
    argv = [a.format(**paths) for a in argv]
    code, _, stderr = run(capsys, argv[0], "--type", "A1", *argv[1:])
    assert code == 2
    assert argv[-1] in stderr


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def _warm_growth(argvs, rounds=15):
    """Bytes the process keeps after rounds of argvs, each run after five
    warm-up rounds."""
    with contextlib.redirect_stdout(io.StringIO()):
        for _ in range(5):
            for argv in argvs:
                assert main(argv) == 0
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for _ in range(rounds):
                for argv in argvs:
                    assert main(argv) == 0
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()


def test_repeated_scaling_requests_keep_memory_bounded():
    # every scaling request rebuilds fresh based modules; what they derive
    # must die with them, not pile up in the process
    grown = _warm_growth([["verify", "--suite", "scaling", "--type", "A1",
                           "--hw", "1", "--hw", "1"]])
    assert grown < 500_000, f"15 scaling requests grew {grown} bytes"


def test_warm_scaling_requests_keep_one_rescaled_factor_per_coefficient():
    # each module keeps one rescaled factor per coefficient, built on the
    # first request; later requests reuse them, so the process stops
    # growing (one factor set a request would add about 150 kB)
    grown = _warm_growth([
        ["verify", "--suite", "scaling", "--type", "A1", "--hw", "1",
         "--hw", "2"],
        ["verify", "--suite", "scaling", "--type", "A2", "--hw", "1,0",
         "--hw", "0,1"]])
    assert grown < 100_000, f"15 warm scaling rounds grew {grown} bytes"
    build = rmatrix._rescaled_factor.__wrapped__
    for label, hw in [("A1", (1,)), ("A1", (2,)), ("A2", (1, 0)),
                      ("A2", (0, 1))]:
        store = cli._module_of(label, hw)._derived
        assert sum(1 for b, _ in store if b is build) \
            == len(rmatrix.RESCALE_COEFFS)


def test_parser_keeps_no_values_between_calls(capsys):
    # the parser is built once per process; what one call appends or sets
    # must not reach the next
    code, stdout, _ = run(capsys, "verify", "--suite", "ybe", "--type", "A1",
                          "--hw", "1", "--inject-fault", "wrong-flip")
    assert code == 1 and stdout.startswith("FAIL ybe A1 1 ")
    code, stdout, _ = run(capsys, "verify", "--suite", "ybe", "--type", "A1",
                          "--hw", "1")
    assert code == 0 and stdout == "PASS ybe A1 1\n"


def test_crystal_tensor_refuses_hw(capsys):
    code, stdout, stderr = run(capsys, "crystal", "--type", "A1", "--tensor",
                               "1", "1", "--hw", "2", "--list-hw")
    assert code == 2 and stdout == ""
    assert "--hw and --tensor exclude each other" in stderr
