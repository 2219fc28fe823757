from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lidecomp import cli
from lidecomp.cli import main
from lidecomp.constants import REFERENCE_PROFILE
from lidecomp.graphs import Graph, generate_circulant, generate_regular, read_graph, write_graph
from oracles import edge_index


def run(args: list[str], capsys) -> tuple[int, str, str]:
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constants_check_reference_degree(capsys) -> None:
    code, out, _ = run(["constants", "check", "--d", "54000"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["version"]
    assert data["manifest"]["command"] == "constants check"
    assert all(rec["pass"] for rec in data["constraints"])


def test_constants_check_failing_degree(capsys) -> None:
    code, out, _ = run(["constants", "check", "--d", "100"], capsys)
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_constants_check_rejects_small_degree(capsys) -> None:
    code, _, err = run(["constants", "check", "--d", "5"], capsys)
    assert code == 2
    assert "error" in err


def test_constants_min_d(capsys) -> None:
    code, out, _ = run(["constants", "min-d"], capsys)
    assert code == 0
    assert json.loads(out)["min_d"] <= 54000


def test_constants_optimize_budget_one(capsys) -> None:
    code, out, _ = run(["constants", "optimize", "--seed", "1", "--budget", "1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["min_d"] <= 54000
    assert set(data["profile"]) == {"k", "s", "r", "u", "s1", "r1", "u1"}


def test_gen_and_round_pipeline(tmp_path, capsys) -> None:
    gpath = tmp_path / "g.txt"
    code, out, _ = run(
        ["gen-regular", "--n", "16", "--d", "4", "--seed", "3", "--out", str(gpath)], capsys
    )
    assert code == 0
    g = read_graph(gpath)
    assert set(g.degrees) == {4}

    code, out, _ = run(["round", "--in", str(gpath), "--z", "1/2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert len(data["x"]) == g.m


def test_round_z_file_and_input_validation(tmp_path, capsys) -> None:
    gpath = tmp_path / "g.txt"
    run(["gen-circulant", "--n", "6", "--offsets", "1", "--out", str(gpath)], capsys)
    zfile = tmp_path / "z.txt"
    zfile.write_text("\n".join(["0.25"] * 6) + "\n")
    code, out, _ = run(["round", "--in", str(gpath), "--z-file", str(zfile)], capsys)
    assert code == 0
    code, _, err = run(["round", "--in", str(gpath)], capsys)
    assert code == 2
    code, _, err = run(
        ["round", "--in", str(gpath), "--z", "0.5", "--z-file", str(zfile)], capsys
    )
    assert code == 2


WEIGHT_TEXTS = ["1/0", "½", "²/4", "+1/2", "1/-2", " 3/64 ", "0.5", "1e-1", "3/64", "04/8"]


@pytest.mark.parametrize("text", WEIGHT_TEXTS)
def test_weight_parser_matches_fraction(text) -> None:
    try:
        expected = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            cli._weight(text)
    else:
        got = cli._weight(text)
        assert (type(got), got) == (Fraction, expected)


def test_round_z_file_bad_weight_messages(tmp_path, capsys) -> None:
    gpath = tmp_path / "g.txt"
    write_graph(Graph(3, [(0, 1), (1, 2)]), gpath)
    zfile = tmp_path / "z.txt"
    for text in WEIGHT_TEXTS:
        zfile.write_text(f"1/2\n{text}\n")
        code, out, err = run(["round", "--in", str(gpath), "--z-file", str(zfile)], capsys)
        try:
            Fraction(text)
        except (ValueError, ZeroDivisionError):
            assert (code, out) == (2, "")
            assert err == f"error: {zfile}: line 2: bad weight {text.strip()!r}\n"
        else:
            assert code in (0, 1) and err == ""


def test_exact_cli_k2_not_decomposable(tmp_path, capsys) -> None:
    gpath = tmp_path / "k2.txt"
    write_graph(Graph(2, [(0, 1)]), gpath)
    code, out, _ = run(["exact", "--in", str(gpath), "--k", "4"], capsys)
    assert code == 1
    assert json.loads(out)["decomposable"] is False


def test_exact_cli_witness_and_min_parts(tmp_path, capsys) -> None:
    gpath = tmp_path / "p3.txt"
    write_graph(Graph(3, [(0, 1), (1, 2)]), gpath)
    code, out, _ = run(["exact", "--in", str(gpath), "--k", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["decomposable"] is True
    assert sorted(i for part in data["parts"] for i in part) == [0, 1]
    code, out, _ = run(["exact", "--in", str(gpath), "--k", "4", "--min-parts"], capsys)
    assert code == 0
    assert json.loads(out)["min_parts"] == 1


def test_decompose_verify_and_tamper(tmp_path, capsys) -> None:
    gpath = tmp_path / "g.txt"
    write_graph(generate_circulant(20, [1, 2, 3]), gpath)
    profile = {"k": 0.45, "s": 0.2, "r": 0.3, "u": 0.4, "s1": 0.1, "r1": 0.2, "u1": 0.2}
    ppath = tmp_path / "profile.json"
    ppath.write_text(json.dumps(profile))
    dpath = tmp_path / "decomp.json"
    code, out, _ = run(
        [
            "decompose",
            "--in",
            str(gpath),
            "--profile",
            str(ppath),
            "--mode",
            "best-effort",
            "--seed",
            "5",
            "--max-rounds",
            "10",
            "--out",
            str(dpath),
        ],
        capsys,
    )
    assert code in (0, 1)
    data = json.loads(dpath.read_text())
    assert len(data["parts"]) == 4
    assert sorted(i for part in data["parts"] for i in part) == list(range(60))

    code, vout, _ = run(["verify", "--graph", str(gpath), "--decomp", str(dpath)], capsys)
    verdict_data = json.loads(vout)
    assert verdict_data["cover_ok"] is True
    assert (code == 0) == data["success"]

def test_verify_tampered_decomposition_names_conflict(tmp_path, capsys) -> None:
    # C6 partitions into three 2-edge paths (degrees 1,2,1) plus an empty
    # part; moving one edge between parts leaves a bare edge, whose equal
    # endpoint degrees the verifier must name.
    g = generate_circulant(6, [1])
    gpath = tmp_path / "c6.txt"
    write_graph(g, gpath)
    ids = edge_index(g)
    parts = [
        sorted([ids[0, 1], ids[1, 2]]),
        sorted([ids[2, 3], ids[3, 4]]),
        sorted([ids[4, 5], ids[0, 5]]),
        [],
    ]
    dpath = tmp_path / "good.json"
    dpath.write_text(json.dumps({"parts": parts}))
    code, out, _ = run(["verify", "--graph", str(gpath), "--decomp", str(dpath)], capsys)
    assert code == 0
    assert all(json.loads(out)["verdicts"])

    moved = parts[0][1]
    tampered = [sorted(set(parts[0]) - {moved}), sorted(parts[1] + [moved]), parts[2], []]
    tpath = tmp_path / "tampered.json"
    tpath.write_text(json.dumps({"parts": tampered}))
    code, out, err = run(["verify", "--graph", str(gpath), "--decomp", str(tpath)], capsys)
    tdata = json.loads(out)
    assert code == 1
    assert tdata["cover_ok"] is True  # still a partition; a verdict flips
    assert not all(tdata["verdicts"])
    assert "conflicting edge" in err


def test_verify_prints_conflicts_without_the_edge_tuple_view(tmp_path, capsys) -> None:
    # Two bare edges in part 0, the middle edge of a 4-vertex path in part 2,
    # a bare edge in part 3; the stderr lines were recorded before the edge
    # endpoints came from the endpoint arrays.
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3), (1, 4)])
    gpath = tmp_path / "g.txt"
    write_graph(g, gpath)
    dpath = tmp_path / "d.json"
    dpath.write_text(json.dumps({"parts": [[0, 7], [1, 2], [3, 5, 6], [4]]}))
    code, out, err = run(["verify", "--graph", str(gpath), "--decomp", str(dpath)], capsys)
    assert code == 1
    assert json.loads(out)["conflicts"] == [[0, 7], [], [5], [4]]
    assert err == (
        "part 0: conflicting edge 0 = (0,1)\n"
        "part 0: conflicting edge 7 = (4,5)\n"
        "part 2: conflicting edge 5 = (2,3)\n"
        "part 3: conflicting edge 4 = (1,4)\n"
    )


def test_verify_rejects_broken_partition(tmp_path, capsys) -> None:
    gpath = tmp_path / "g.txt"
    write_graph(Graph(3, [(0, 1), (1, 2)]), gpath)
    dpath = tmp_path / "d.json"
    # An edge in two parts, and an edge twice in one part.
    for parts in ([[0], [0, 1]], [[0, 0, 1]]):
        dpath.write_text(json.dumps({"parts": parts}))
        code, out, err = run(["verify", "--graph", str(gpath), "--decomp", str(dpath)], capsys)
        assert code == 1
        assert json.loads(out)["cover_ok"] is False
        assert "partition" in err
    # A repeated edge is judged once: on P3 edge 1 is one conflict, not two.
    dpath.write_text(json.dumps({"parts": [[1, 1], [0]]}))
    code, out, err = run(["verify", "--graph", str(gpath), "--decomp", str(dpath)], capsys)
    assert code == 1 and json.loads(out)["conflicts"] == [[1], [0]]
    assert err.count("conflicting edge 1 ") == 1
    # On P4 the set {0, 1, 2} has conflict edge 1, which the multigraph hides.
    write_graph(Graph(4, [(0, 1), (1, 2), (2, 3)]), gpath)
    dpath.write_text(json.dumps({"parts": [[0, 0, 1, 2]]}))
    code, out, err = run(["verify", "--graph", str(gpath), "--decomp", str(dpath)], capsys)
    data = json.loads(out)
    assert code == 1 and data["cover_ok"] is False
    assert data["verdicts"] == [False] and data["conflicts"] == [[1]]


def test_verify_rejects_overlap_that_leaves_top_edges_uncovered(tmp_path, capsys) -> None:
    # K_{1,4}: two copies of {0, 1} have total size m = 4 but miss edges 2 and 3.
    gpath = tmp_path / "g.txt"
    write_graph(Graph(5, [(0, i) for i in range(1, 5)]), gpath)
    dpath = tmp_path / "d.json"
    dpath.write_text(json.dumps({"parts": [[0, 1], [0, 1]]}))
    code, out, err = run(["verify", "--graph", str(gpath), "--decomp", str(dpath)], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["cover_ok"] is False
    assert data["verdicts"] == [True, True] and data["passed"] is False
    assert "partition" in err


def test_verify_rejects_non_integer_edge_indices(tmp_path, capsys) -> None:
    # JSON 0.5 and true are not edge indices; int() would read them as 0 and 1.
    gpath = tmp_path / "g.txt"
    write_graph(Graph(5, [(0, i) for i in range(1, 5)]), gpath)
    dpath = tmp_path / "d.json"
    for parts, bad in (([[0.5, 1.2, 2.9, 3.1]], "0.5"), ([[True, 0, 2, 3]], "True")):
        dpath.write_text(json.dumps({"parts": parts}))
        code, out, err = run(["verify", "--graph", str(gpath), "--decomp", str(dpath)], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {dpath}: malformed parts: expected an integer, got {bad}\n"


def test_verify_rejects_out_of_range_edge_index(tmp_path, capsys) -> None:
    gpath = tmp_path / "g.txt"
    write_graph(Graph(3, [(0, 1), (1, 2)]), gpath)
    dpath = tmp_path / "d.json"
    for parts, bad in (([[0], [1, 2]], 2), ([[0, 2**70], [1]], 2**70), ([[-1, 0], [1]], -1)):
        dpath.write_text(json.dumps({"parts": parts}))
        code, out, err = run(["verify", "--graph", str(gpath), "--decomp", str(dpath)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: edge index {bad} out of range for m=2\n"


def test_dcs_cli(tmp_path, capsys) -> None:
    gpath = tmp_path / "g.txt"
    write_graph(Graph(13, [(i, j) for i in range(13) for j in range(i + 1, 13)]), gpath)
    tfile = tmp_path / "t.json"
    tfile.write_text(json.dumps([0] * 13))
    code, out, _ = run(
        ["dcs", "--in", str(gpath), "--lambda", "2", "--t-file", str(tfile), "--seed", "1"],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert all(4 <= x <= 8 for x in data["degrees"])


def test_dcs_cli_empty_graph_certifies(tmp_path, capsys) -> None:
    # No vertex, no edge: the empty subgraph meets every (absent) constraint.
    gpath = tmp_path / "g.txt"
    gpath.write_text("0 0\n")
    tfile = tmp_path / "t.json"
    tfile.write_text("[]")
    code, out, err = run(["dcs", "--in", str(gpath), "--lambda", "2", "--t-file", str(tfile)], capsys)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert [data[k] for k in ("edges", "degrees", "window_ok", "residue_ok", "passed")] == [
        [], [], [], [], True
    ]


def test_dcs_cli_huge_lambda_is_input_error(tmp_path, capsys) -> None:
    gpath = tmp_path / "g.txt"
    write_graph(Graph(13, [(i, j) for i in range(13) for j in range(i + 1, 13)]), gpath)
    tfile = tmp_path / "t.json"
    tfile.write_text(json.dumps([0] * 13))
    for lam in (2**62, 2**63, 2**70):
        args = ["dcs", "--in", str(gpath), "--lambda", str(lam), "--t-file", str(tfile)]
        code, out, err = run(args, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: vertex 0: 6*lambda={6 * lam} exceeds degree 12\n"
        # Relaxed, the modulus is taken as given; targets 0 leave K13's
        # window [4, 8] without a certifiable degree.
        code, out, err = run([*args, "--relaxed"], capsys)
        assert (code, out) == (3, "")
        assert err == f"budget exhausted: vertex 0: no degree from 4 to 8 is 0 or 1 mod {lam}\n"


def test_dcs_cli_instance_object(tmp_path, capsys) -> None:
    gpath = tmp_path / "g.txt"
    write_graph(Graph(13, [(i, j) for i in range(13) for j in range(i + 1, 13)]), gpath)
    tfile = tmp_path / "inst.json"
    tfile.write_text(json.dumps({"lambda": [2] * 13, "t": [1] * 13}))
    code, out, _ = run(["dcs", "--in", str(gpath), "--t-file", str(tfile)], capsys)
    assert code == 0
    code, _, _ = run(
        ["dcs", "--in", str(gpath), "--t-file", str(tfile), "--lambda", "2"], capsys
    )
    assert code == 2  # lambda fixed twice


def test_round_missing_z_file_is_input_error(tmp_path, capsys) -> None:
    gpath = tmp_path / "g.txt"
    write_graph(generate_circulant(6, [1]), gpath)
    missing = tmp_path / "absent.txt"
    code, out, err = run(["round", "--in", str(gpath), "--z-file", str(missing)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {missing}: ")


def test_dcs_target_object_without_t_is_input_error(tmp_path, capsys) -> None:
    gpath = tmp_path / "g.txt"
    write_graph(Graph(13, [(i, j) for i in range(13) for j in range(i + 1, 13)]), gpath)
    tfile = tmp_path / "t.json"
    tfile.write_text(json.dumps({"targets": [0] * 13}))
    code, _, err = run(["dcs", "--in", str(gpath), "--lambda", "2", "--t-file", str(tfile)], capsys)
    assert code == 2
    assert err == f"error: {tfile}: instance object has no 't' field\n"


def test_dcs_non_integer_target_is_input_error(tmp_path, capsys) -> None:
    gpath = tmp_path / "g.txt"
    write_graph(Graph(13, [(i, j) for i in range(13) for j in range(i + 1, 13)]), gpath)
    tfile = tmp_path / "t.json"
    for data in ([0] * 12 + ["x"], {"t": [0] * 12 + ["x"]}, {"t": 5}):
        tfile.write_text(json.dumps(data))
        code, _, err = run(
            ["dcs", "--in", str(gpath), "--lambda", "2", "--t-file", str(tfile)], capsys
        )
        assert code == 2
        assert err.startswith(f"error: {tfile}: malformed targets: ")

def test_dcs_fractional_or_boolean_targets_are_input_errors(tmp_path, capsys) -> None:
    # JSON 1.5 and true are not residue targets; int() would read them as 1.
    gpath = tmp_path / "g.txt"
    write_graph(Graph(13, [(i, j) for i in range(13) for j in range(i + 1, 13)]), gpath)
    tfile = tmp_path / "t.json"
    for data in ([1.5] + [0] * 12, {"t": [True] + [0] * 12}):
        tfile.write_text(json.dumps(data))
        code, _, err = run(
            ["dcs", "--in", str(gpath), "--lambda", "2", "--t-file", str(tfile)], capsys
        )
        assert code == 2
        assert err.startswith(f"error: {tfile}: malformed targets: expected an integer, got ")
    for data in ({"lambda": [2.0] * 13, "t": [1] * 13}, {"lambda": [2] * 13, "t": [1.5] * 13}):
        tfile.write_text(json.dumps(data))
        code, _, err = run(["dcs", "--in", str(gpath), "--t-file", str(tfile)], capsys)
        assert code == 2
        assert err.startswith("error: malformed instance JSON: expected an integer, got ")


def test_manifest_reproducibility(tmp_path, capsys) -> None:
    gpath = tmp_path / "g.txt"
    write_graph(generate_circulant(12, [1, 2]), gpath)
    args = ["round", "--in", str(gpath), "--z", "1/2"]
    _, out1, _ = run(args, capsys)
    _, out2, _ = run(args, capsys)
    assert out1 == out2


def test_missing_input_file_is_input_error(capsys) -> None:
    code, _, err = run(["decompose", "--in", "/nonexistent/file.txt"], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--graph", "{graph}", "--decomp", "{decomp}"],
        ["round", "--in", "{graph}"],
        ["gen-regular", "--n", "100000000000000", "--d", "2", "--out", "{out}"],
        ["constants", "check", "--d", str(10**103)],
    ],
    ids=["verify", "round", "gen-regular", "constants-check"],
)
def test_out_of_range_sizes_are_input_errors(argv, tmp_path, capsys) -> None:
    # Exit 1 is a false verdict, so a size that cannot be held must exit 2.
    # 10^14 vertices ask for 728 TiB, past the 128 TiB user address space,
    # so the request fails at once and allocates nothing; 3d^3 at d = 10^103
    # is past the largest float.
    graph = tmp_path / "huge.txt"
    graph.write_text("100000000000000 0\n")
    decomp = tmp_path / "decomp.json"
    decomp.write_text(json.dumps({"parts": [[], [], [], []]}))
    paths = {"graph": graph, "decomp": decomp, "out": tmp_path / "out.txt"}
    code, out, err = run([arg.format(**paths) for arg in argv], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert out == ""


_REFERENCE_JSON = REFERENCE_PROFILE.to_json()


@pytest.mark.parametrize(
    "profile, message",
    [
        ({**_REFERENCE_JSON, "k": "abc"}, "profile field k must be a number, got 'abc'"),
        ({**_REFERENCE_JSON, "k": None}, "profile field k must be a number, got None"),
        ({**_REFERENCE_JSON, "r1": True}, "profile field r1 must be a number, got True"),
        ({**_REFERENCE_JSON, "u": [0.1]}, "profile field u must be a number, got [0.1]"),
        ({**_REFERENCE_JSON, "s": 10**400}, "profile field s is too large for a float"),
        ("k s r u s1 r1 u1", "profile JSON must be an object, got str"),
        (list(_REFERENCE_JSON), "profile JSON must be an object, got list"),
        ({"k": 0.025}, "profile JSON missing fields ['s', 'r', 'u', 's1', 'r1', 'u1']"),
    ],
)
@pytest.mark.parametrize("command", ["constants-check", "decompose"])
def test_malformed_profile_file_is_input_error(command, profile, message, tmp_path, capsys) -> None:
    # Exit 1 is a false verdict, so a profile file that is not an object of
    # numbers must exit 2 with one error line, like any other bad input.
    ppath = tmp_path / "profile.json"
    ppath.write_text(json.dumps(profile))
    gpath = tmp_path / "c6.txt"
    write_graph(generate_circulant(6, [1]), gpath)
    argv = {
        "constants-check": ["constants", "check", "--d", "54000"],
        "decompose": ["decompose", "--in", str(gpath)],
    }[command]
    code, out, err = run([*argv, "--profile", str(ppath)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("bad", ["graph", "z-file", "t-file", "decomp", "profile"])
def test_non_utf8_input_file_is_input_error(bad, tmp_path, capsys) -> None:
    # UnicodeDecodeError is a ValueError, not a JSONDecodeError, so each
    # reader must turn it into an input error itself: exit 1 is a false verdict.
    good = {
        "graph": tmp_path / "c6.txt",
        "z-file": tmp_path / "z.txt",
        "t-file": tmp_path / "t.json",
        "decomp": tmp_path / "decomp.json",
        "profile": tmp_path / "profile.json",
    }
    write_graph(generate_circulant(6, [1]), good["graph"])
    good["z-file"].write_text("1/2\n" * 6)
    good["t-file"].write_text(json.dumps([0] * 6))
    good["decomp"].write_text(json.dumps({"parts": [[0, 1, 2, 3, 4, 5], [], [], []]}))
    good["profile"].write_text(json.dumps(_REFERENCE_JSON))
    paths = {**good, bad: tmp_path / f"bad-{bad}"}
    paths[bad].write_bytes(good[bad].read_bytes() + b"\xff\n")
    argv = {
        "graph": ["round", "--in", str(paths["graph"]), "--z", "1/2"],
        "z-file": ["round", "--in", str(paths["graph"]), "--z-file", str(paths["z-file"])],
        "t-file": ["dcs", "--in", str(paths["graph"]), "--lambda", "4", "--relaxed",
                   "--t-file", str(paths["t-file"])],
        "decomp": ["verify", "--graph", str(paths["graph"]), "--decomp", str(paths["decomp"])],
        "profile": ["constants", "check", "--d", "54000", "--profile", str(paths["profile"])],
    }[bad]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {paths[bad]}: not UTF-8 text: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, what",
    [
        (["gen-regular", "--n", "10", "--d", "3", "--out", "{missing}"], "graph"),
        (["gen-circulant", "--n", "6", "--offsets", "1", "--out", "{missing}"], "graph"),
        (["round", "--in", "{graph}", "--z", "1/2", "--out", "{dir}"], "payload"),
    ],
    ids=["gen-regular", "gen-circulant", "round"],
)
def test_unwritable_output_is_input_error(argv, what, tmp_path, capsys) -> None:
    graph = tmp_path / "c6.txt"
    write_graph(generate_circulant(6, [1]), graph)
    paths = {"missing": tmp_path / "missing" / "g.txt", "graph": graph, "dir": tmp_path}
    code, out, err = run([arg.format(**paths) for arg in argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {what} file: ")
    assert err.count("\n") == 1


def test_exact_cli_runs_deep_searches_without_recursion(tmp_path, capsys) -> None:
    # 600 disjoint 2-edge paths: locally irregular, and the search labels
    # all 1200 edges one level deeper each.
    gpath = tmp_path / "paths.txt"
    paths = [(3 * i + j, 3 * i + j + 1) for i in range(600) for j in (0, 1)]
    write_graph(Graph(1800, paths), gpath)
    for extra in (["--k", "1"], ["--k", "2", "--force"]):
        code, out, _ = run(["exact", "--in", str(gpath), *extra], capsys)
        assert code == 0
        assert json.loads(out)["decomposable"] is True
    code, out, _ = run(["exact", "--in", str(gpath), "--k", "3", "--min-parts"], capsys)
    assert code == 0
    assert json.loads(out)["min_parts"] == 1


def test_decompose_strict_rejects_infeasible_scale(tmp_path, capsys) -> None:
    gpath = tmp_path / "c4.txt"
    write_graph(generate_circulant(4, [1]), gpath)
    code, _, err = run(["decompose", "--in", str(gpath), "--mode", "strict"], capsys)
    assert code == 2
    assert "error" in err


def test_round_rejects_out_of_range_weight(tmp_path, capsys) -> None:
    gpath = tmp_path / "g.txt"
    write_graph(generate_circulant(6, [1]), gpath)
    code, _, _ = run(["round", "--in", str(gpath), "--z", "1.5"], capsys)
    assert code == 2
    code, _, _ = run(["round", "--in", str(gpath), "--z", "alpha"], capsys)
    assert code == 2


def test_gen_circulant_rejects_bad_offsets(tmp_path, capsys) -> None:
    out = tmp_path / "g.txt"
    code, _, _ = run(["gen-circulant", "--n", "8", "--offsets", "5", "--out", str(out)], capsys)
    assert code == 2
    code, _, _ = run(["gen-circulant", "--n", "8", "--offsets", "1;2", "--out", str(out)], capsys)
    assert code == 2


def test_exact_budget_refusal_exit_code(tmp_path, capsys) -> None:
    gpath = tmp_path / "g.txt"
    write_graph(generate_circulant(12, [1, 2]), gpath)  # 24 edges
    code, _, err = run(
        ["exact", "--in", str(gpath), "--k", "4", "--node-budget", "1000"], capsys
    )
    assert code == 3
    assert "budget" in err.lower()


def test_dcs_solver_failure_exit_code(tmp_path, capsys) -> None:
    # K13's window [4, 8] covers only the residues {4, 5, 6, 0, 1} mod 7, so
    # targets 2 (residues 2 and 3) leave no certifiable degree.
    gpath = tmp_path / "g.txt"
    write_graph(Graph(13, [(i, j) for i in range(13) for j in range(i + 1, 13)]), gpath)
    tfile = tmp_path / "t.json"
    tfile.write_text(json.dumps([2] * 13))
    code, out, err = run(
        ["dcs", "--in", str(gpath), "--lambda", "7", "--relaxed", "--t-file", str(tfile)], capsys
    )
    assert (code, out) == (3, "")
    assert err == "budget exhausted: vertex 0: no degree from 4 to 8 is 2 or 3 mod 7\n"


# ---------------------------------------------------------------------------
# Payload bytes: goldens for the commands tests/test_golden.py leaves out, and
# the indent=2 encoder against json.dumps
# ---------------------------------------------------------------------------


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Recorded before the payload encoder sent scalar lists through the C encoder.
def test_golden_gen_regular(tmp_path, monkeypatch, capsys) -> None:
    monkeypatch.chdir(tmp_path)
    argv = ["gen-regular", "--n", "30", "--d", "4", "--seed", "3", "--out", "g.txt"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert _sha256(out.encode()) == (
        "39f13538970d41b42585cb8b022aefc38d47721e18966fd77866e0c35ade6abf"
    )


def test_golden_verify(tmp_path, monkeypatch, capsys) -> None:
    # Parts by edge index mod 4 on a 6-regular graph: every part has conflicts.
    monkeypatch.chdir(tmp_path)
    g = generate_regular(40, 6, seed=5)
    write_graph(g, "g.txt")
    parts = [[i for i in range(g.m) if i % 4 == p] for p in range(4)]
    Path("d.json").write_text(json.dumps({"parts": parts}))
    argv = ["verify", "--graph", "g.txt", "--decomp", "d.json", "--out", "out.json"]
    assert run(argv, capsys)[0] == 1
    assert _sha256(Path("out.json").read_bytes()) == (
        "e8666326ce492b5f40502631aaecdd5a6678938ca05e19bf1b0bfbec856be213"
    )


@pytest.mark.parametrize(
    ("extra", "expected"),
    [
        (["--k", "2"], "98fbad43f18c0b7fa110f618c9c08b45ec159def8875390fd808d271d5434cb1"),
        (["--k", "4", "--min-parts"],
         "446707dce2561368367c59358beff01d18dbdbc98546da9a32dca319ab4502cd"),
    ],
    ids=["witness", "min-parts"],
)
def test_golden_exact(tmp_path, monkeypatch, capsys, extra: list[str], expected: str) -> None:
    monkeypatch.chdir(tmp_path)
    write_graph(generate_circulant(9, [1, 3]), "g.txt")
    assert run(["exact", "--in", "g.txt", *extra, "--out", "out.json"], capsys)[0] == 0
    assert _sha256(Path("out.json").read_bytes()) == expected


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**80),
    st.floats(),
    st.sampled_from([-0.0, 1e16, math.nan, math.inf, -math.inf]),
    st.text(),
    st.sampled_from(["é", "☃ snow", 'quote " and \\ slash', "line\nbreak\ttab", "\x00\x1f"]),
)


def _json_trees(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=6),
        st.dictionaries(st.text(max_size=4), children, max_size=5),
        st.dictionaries(st.integers(), children, max_size=3),
        st.dictionaries(st.floats(allow_nan=False), children, max_size=3),
        st.dictionaries(st.one_of(st.integers(), st.booleans()), children, max_size=3),
        st.dictionaries(st.none(), children, max_size=1),
    )


@settings(max_examples=400, deadline=None)
@given(st.recursive(_json_scalars, _json_trees, max_leaves=40))
@example({"parts": [[0, 2, 5], [], [1, 3], [4]], "success": False, "verdicts": [True, False]})
@example([[], {}, (), [[]], [{}], {"a": []}])
def test_payload_encoder_matches_json_dumps(tree) -> None:
    assert cli._dumps(tree) == json.dumps(tree, indent=2, sort_keys=True)


#: Where the decimal width of an entry changes, and the ends of int64.
_WIDTH_EDGES = sorted(
    {0, 1, 2**62, 2**63 - 1} | {10**k + e for k in range(1, 19) for e in (-1, 0, 1)}
)

_ascending_arrays = st.lists(
    st.one_of(st.integers(0, 2**62), st.sampled_from(_WIDTH_EDGES)), max_size=30
).map(lambda values: np.array(sorted(values), dtype=np.int64))

# Repeated small values in any order, and anything int64 holds: mostly
# unsorted, often negative.
_other_arrays = st.one_of(
    st.lists(st.integers(0, 12), min_size=2, max_size=30),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=30),
).map(lambda values: np.array(values, dtype=np.int64))


def _as_lists(tree):
    if isinstance(tree, np.ndarray):
        return tree.tolist()
    if isinstance(tree, dict):
        return {key: _as_lists(value) for key, value in tree.items()}
    if isinstance(tree, (list, tuple)):
        return type(tree)(map(_as_lists, tree))
    return tree


@settings(max_examples=400, deadline=None)
@given(st.recursive(
    st.one_of(_ascending_arrays, _other_arrays, st.integers(), st.none(), st.text(max_size=3)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=4), children, max_size=5),
    ),
    max_leaves=20,
))
@example({"parts": [np.arange(0, 30, 3), np.zeros(0, dtype=np.int64), np.array([7])]})
def test_payload_encoder_writes_int_arrays_as_lists(tree) -> None:
    assert cli._dumps(tree) == json.dumps(_as_lists(tree), indent=2, sort_keys=True)


def test_only_ascending_non_negative_arrays_take_the_digit_kernel(monkeypatch) -> None:
    # Every non-empty, non-negative array that int64 holds takes the digit
    # grid, ascending or not. The rest go through tolist(): an empty array,
    # one with a negative entry, and a uint64 array, which int64 may not
    # hold. Boolean and float arrays are not integer lists: json.dumps
    # rejects them and so does the encoder.
    taken: list[list[int]] = []
    kernel = cli._decimal_rows

    def spy(columns, seps) -> bytes:
        taken.append([col.tolist() for col in columns])
        return kernel(columns, seps)

    monkeypatch.setattr(cli, "_decimal_rows", spy)
    arrays = [
        np.array([0, 9, 10, 10, 99, 100]), np.array([5], dtype=np.uint8),
        np.array([3, 3, 3], dtype=np.int32), np.zeros(0, dtype=np.int64),
        np.array([2, 1]), np.array([-1, 0]), np.array([2**64 - 1], dtype=np.uint64),
    ]
    for a in arrays:
        assert cli._dumps([a]) == json.dumps([a.tolist()], indent=2)
    assert taken == [[[0, 9, 10, 10, 99, 100]], [[5]], [[3, 3, 3]], [[2, 1]]]
    for bad in (np.array([True]), np.array([1.0]), np.array([[1, 2]])):
        with pytest.raises(TypeError):
            cli._dumps({"x": bad})


def test_payload_encoder_rejects_what_json_rejects() -> None:
    for bad in ([np.int64(1)], {"x": [Fraction(1, 2)]}, {"a": 1, 2: 3}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli._dumps(bad)


def test_main_repeats_every_subcommand_byte_for_byte(tmp_path, monkeypatch, capsys) -> None:
    # main() reuses one parser per process: a second call of each subcommand,
    # after all the others (and an argparse error) have run, gives the same
    # exit code, streams and output file bytes as the first.
    monkeypatch.chdir(tmp_path)
    write_graph(generate_regular(24, 4, seed=1), "g.txt")
    write_graph(Graph(13, [(i, j) for i in range(13) for j in range(i + 1, 13)]), "k13.txt")
    write_graph(generate_circulant(9, [1, 3]), "c9.txt")
    Path("z.txt").write_text("1/3\n2/5\n" * 24)
    Path("t.json").write_text(json.dumps([0, 1] * 6 + [1]))
    Path("d.json").write_text(json.dumps({"parts": [list(range(p, 48, 4)) for p in range(4)]}))
    Path("profile.json").write_text(json.dumps(
        {"k": 0.45, "s": 0.2, "r": 0.3, "u": 0.4, "s1": 0.1, "r1": 0.2, "u1": 0.2}
    ))
    commands = [
        ["gen-regular", "--n", "16", "--d", "3", "--seed", "2", "--out", "gen.txt"],
        ["gen-circulant", "--n", "10", "--offsets", "1,2", "--out", "circ.txt"],
        ["decompose", "--in", "g.txt", "--profile", "profile.json", "--mode", "best-effort",
         "--max-rounds", "4", "--out", "out.json"],
        ["verify", "--graph", "g.txt", "--decomp", "d.json"],
        ["exact", "--in", "c9.txt", "--k", "2"],
        ["round", "--in", "g.txt", "--z", "1/2"],
        ["round", "--in", "g.txt", "--z-file", "z.txt"],
        ["dcs", "--in", "k13.txt", "--lambda", "2", "--t-file", "t.json", "--seed", "3"],
        ["dcs", "--in", "k13.txt", "--lambda", "3", "--t-file", "t.json"],
        ["constants", "check", "--d", "100"],
        ["constants", "min-d"],
        ["constants", "optimize", "--seed", "1", "--budget", "1"],
        ["dcs", "--in", "k13.txt"],
    ]

    def call(argv: list[str]) -> tuple:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        out = argv[argv.index("--out") + 1] if "--out" in argv else None
        return code, captured.out, captured.err, Path(out).read_bytes() if out else None

    first = [call(argv) for argv in commands]
    second = [call(argv) for argv in reversed(commands)][::-1]
    assert first == second
    codes = [r[0] for r in first]
    assert codes == [0, 0, 1, 1, 0, 0, 0, 0, 2, 1, 0, 0, ("exit", 2)]


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["gen-regular", "--n", "16", "--d", "3", "--seed", "-1", "--out", "gen.txt"], "non-negative"),
        (["decompose", "--in", "g.txt", "--seed", "-1"], "non-negative"),
        (["dcs", "--in", "k13.txt", "--lambda", "2", "--t-file", "t.json", "--seed", "-1"],
         "non-negative"),
        (["constants", "optimize", "--seed", "-1", "--budget", "1"], "non-negative"),
        (["decompose", "--in", "g.txt", "--profile", "profile.json", "--mode", "best-effort",
          "--max-rounds", "4", "--restarts", "0"], "restarts must be >= 1, got 0"),
        (["decompose", "--in", "empty.txt", "--mode", "best-effort", "--max-rounds", "0"],
         "max_rounds must be >= 1, got 0"),
    ],
    ids=["gen-regular-seed", "decompose-seed", "dcs-seed", "optimize-seed", "decompose-restarts",
         "edgeless-max-rounds"],
)
def test_negative_seed_and_zero_restarts_are_rejected_input(
    argv, message, tmp_path, monkeypatch, capsys
) -> None:
    # Exit 1 means "verified false", so a bad option must exit 2 with a
    # message rather than escape as a generator's ValueError.
    monkeypatch.chdir(tmp_path)
    write_graph(generate_regular(24, 4, seed=1), "g.txt")
    write_graph(Graph(13, [(i, j) for i in range(13) for j in range(i + 1, 13)]), "k13.txt")
    write_graph(Graph(3, []), "empty.txt")
    Path("t.json").write_text(json.dumps([0] * 13))
    Path("profile.json").write_text(json.dumps(
        {"k": 0.45, "s": 0.2, "r": 0.3, "u": 0.4, "s1": 0.1, "r1": 0.2, "u1": 0.2}
    ))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err
    assert not Path("gen.txt").exists()
