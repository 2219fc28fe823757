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
from lidecomp.graphs import Graph, generate_circulant, generate_regular, read_graph, write_graph


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
    parts = [
        sorted([g.edge_id(0, 1), g.edge_id(1, 2)]),
        sorted([g.edge_id(2, 3), g.edge_id(3, 4)]),
        sorted([g.edge_id(4, 5), g.edge_id(0, 5)]),
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


def test_verify_prints_conflicts_without_the_edge_tuple_view(tmp_path, capsys, monkeypatch) -> None:
    # Two bare edges in part 0, the middle edge of a 4-vertex path in part 2,
    # a bare edge in part 3; the stderr lines were recorded before the edge
    # endpoints came from the endpoint arrays.
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3), (1, 4)])
    gpath = tmp_path / "g.txt"
    write_graph(g, gpath)
    dpath = tmp_path / "d.json"
    dpath.write_text(json.dumps({"parts": [[0, 7], [1, 2], [3, 5, 6], [4]]}))
    read = []

    def recording_read_graph(path):
        read.append(read_graph(path))
        return read[-1]

    monkeypatch.setattr(cli, "read_graph", recording_read_graph)
    code, out, err = run(["verify", "--graph", str(gpath), "--decomp", str(dpath)], capsys)
    assert code == 1
    assert json.loads(out)["conflicts"] == [[0, 7], [], [5], [4]]
    assert err == (
        "part 0: conflicting edge 0 = (0,1)\n"
        "part 0: conflicting edge 7 = (4,5)\n"
        "part 2: conflicting edge 5 = (2,3)\n"
        "part 3: conflicting edge 4 = (1,4)\n"
    )
    assert len(read) == 1 and "edges" not in vars(read[0])


def test_verify_rejects_broken_partition(tmp_path, capsys) -> None:
    gpath = tmp_path / "g.txt"
    write_graph(Graph(3, [(0, 1), (1, 2)]), gpath)
    dpath = tmp_path / "d.json"
    dpath.write_text(json.dumps({"parts": [[0], [0, 1]]}))
    code, out, err = run(["verify", "--graph", str(gpath), "--decomp", str(dpath)], capsys)
    assert code == 1
    assert json.loads(out)["cover_ok"] is False
    assert "partition" in err


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
    dpath.write_text(json.dumps({"parts": [[0], [1, 2]]}))
    code, _, err = run(["verify", "--graph", str(gpath), "--decomp", str(dpath)], capsys)
    assert code == 2
    assert err == "error: edge index 2 out of range for m=2\n"


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
    args = ["round", "--in", str(gpath), "--z", "1/2", "--seed", "7"]
    _, out1, _ = run(args, capsys)
    _, out2, _ = run(args, capsys)
    assert out1 == out2


def test_missing_input_file_is_input_error(capsys) -> None:
    code, _, err = run(["decompose", "--in", "/nonexistent/file.txt"], capsys)
    assert code == 2


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
    # Degree-12 host with an impossible residue load under a single restart
    # either solves or exits 3; with restarts=1 and adversarial targets the
    # budget path is reachable, and both outcomes are legal here. What must
    # hold: exit 0 implies a passing certificate in the payload.
    gpath = tmp_path / "g.txt"
    write_graph(Graph(13, [(i, j) for i in range(13) for j in range(i + 1, 13)]), gpath)
    tfile = tmp_path / "t.json"
    tfile.write_text(json.dumps([1] * 13))
    code, out, _ = run(
        ["dcs", "--in", str(gpath), "--lambda", "2", "--t-file", str(tfile), "--restarts", "1"],
        capsys,
    )
    assert code in (0, 3)
    if code == 0:
        assert json.loads(out)["passed"] is True


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


def test_payload_encoder_rejects_what_json_rejects() -> None:
    for bad in ([np.int64(1)], {"x": [Fraction(1, 2)]}, {"a": 1, 2: 3}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli._dumps(bad)
