"""Byte-identity of CLI payloads for fixed manifests.

The CLI promises that an identical manifest reproduces byte-identical output.
These hashes were recorded before the array-native colouring and integer
rounding rewrites (the ``constants`` ones before the feasibility system
became one constraint table); any change to them is a change of behaviour,
not of speed. The two round payloads on general weights (dyadic and
non-dyadic) were re-pinned when the general engine moved to a breadth-first
search from the last settled edge, which shifts different walks. The
best-effort decompose payload and the four round payloads were re-pinned when
the report dropped ``split.balance_ok`` (always ``[True] * 4``, since
``split_edges`` raises on an unbalanced group) and ``round`` dropped its
``--seed`` option, which only the manifest recorded; a put-back test shows
that restoring either key gives the bytes pinned before.
Every path is relative, because the manifest embeds the ``--in``/``--out``
arguments verbatim.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from lidecomp.cli import _dumps, main
from lidecomp.graphs import Graph, generate_regular, write_graph

DEMO = {"k": 0.1, "s": 0.05, "r": 0.3, "u": 0.2, "s1": 0.024, "r1": 0.279, "u1": 0.09}


def _digest(argv: list[str], expected_rc: int) -> str:
    assert main(argv) == expected_rc
    return hashlib.sha256(Path("out.json").read_bytes()).hexdigest()


@pytest.fixture
def workdir(tmp_path, monkeypatch) -> Path:
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _decompose_best_effort() -> list[str]:
    write_graph(generate_regular(200, 16, seed=1), "g.txt")
    Path("profile.json").write_text(json.dumps(DEMO, sort_keys=True) + "\n")
    return ["decompose", "--in", "g.txt", "--profile", "profile.json",
            "--mode", "best-effort", "--seed", "0", "--out", "out.json"]


def _round_all_half() -> list[str]:
    write_graph(generate_regular(40, 7, seed=2), "g.txt")
    return ["round", "--in", "g.txt", "--z", "1/2", "--out", "out.json"]


def _round_all_half_disconnected() -> list[str]:
    # Components with odd degrees (K4, a star, a 5-regular graph), an even
    # path and triangle, and isolated vertices: the auxiliary vertex joins
    # several components and some starts see no edge.
    shifted = [(u + 17, v + 17) for u, v in generate_regular(16, 5, seed=6).edges]
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5), (5, 6), (6, 7),
             (8, 9), (8, 10), (8, 11), (13, 14), (14, 15), (13, 15), *shifted]
    write_graph(Graph(35, edges), "g.txt")
    return ["round", "--in", "g.txt", "--z", "1/2", "--out", "out.json"]


def _round_non_dyadic() -> list[str]:
    g = generate_regular(30, 6, seed=3)
    write_graph(g, "g.txt")
    cycle = ("1/3", "2/7", "5/6")
    Path("z.txt").write_text("".join(cycle[i % 3] + "\n" for i in range(g.m)))
    return ["round", "--in", "g.txt", "--z-file", "z.txt", "--out", "out.json"]


def _round_dyadic() -> list[str]:
    # The round-general benchmark's weight shape: k/64 numerators on d = 10.
    g = generate_regular(100, 10, seed=1)
    write_graph(g, "g.txt")
    numerators = np.random.default_rng(0).integers(1, 64, size=g.m).tolist()
    Path("z.txt").write_text("".join(f"{k}/64\n" for k in numerators))
    return ["round", "--in", "g.txt", "--z-file", "z.txt", "--out", "out.json"]


def test_golden_decompose_best_effort(workdir) -> None:
    assert _digest(_decompose_best_effort(), 1) == (
        "a834cc208c14d415a3a1fa457301bd792b721519ad96ff1b6a6201ab869d7a06"
    )


def test_golden_round_all_half(workdir) -> None:
    assert _digest(_round_all_half(), 0) == (
        "aeaeeb070a12e650b4bd83cf5edcf0d1075cdf89221a242a4914e57429e1dab2"
    )


def test_golden_round_all_half_disconnected(workdir) -> None:
    assert _digest(_round_all_half_disconnected(), 0) == (
        "561bdbef0fa30a948c3fadc1046f643afdf6cb193bde9c880b058b6882155dd9"
    )


def test_golden_round_non_dyadic(workdir) -> None:
    assert _digest(_round_non_dyadic(), 0) == (
        "7eeab7fd81ec7244378153ffdcc5e463b1326c7ce69e4cb41eb1c45e92ee8318"
    )


def test_golden_round_dyadic(workdir) -> None:
    assert _digest(_round_dyadic(), 0) == (
        "cd1b45465805f2ff021e369af4e469f7bf553fb7282740e0611709df738abae1"
    )


def _put_back_balance_ok(payload: dict) -> None:
    payload["report"]["split"]["balance_ok"] = [True] * 4


def _put_back_round_seed(payload: dict) -> None:
    payload["manifest"]["seed"] = 0


@pytest.mark.parametrize(
    ("setup", "rc", "put_back", "old"),
    [
        (_decompose_best_effort, 1, _put_back_balance_ok,
         "add957a1b4f07e14d05f1110306ca65318713edd2530381305b0615929627dc4"),
        (_round_all_half, 0, _put_back_round_seed,
         "75597e7e52e74506002ea81edb5a9acf30ff353b58935d21cbf94fe8d016c5d3"),
        (_round_all_half_disconnected, 0, _put_back_round_seed,
         "c0f8a89e43079f61529166121fee681f103ba48b257043f977d982626ffe1d64"),
        (_round_non_dyadic, 0, _put_back_round_seed,
         "320dc7066f472fcb0ed7a384a95a1a8a40ad2c24037b009d5f8c9571431c746d"),
        (_round_dyadic, 0, _put_back_round_seed,
         "8d47e16ff36cf165bcb412850dd6e237d911c09231f8528487e1502f84b19e45"),
    ],
    ids=["decompose", "round-all-half", "round-all-half-disconnected",
         "round-non-dyadic", "round-dyadic"],
)
def test_golden_put_back_reproduces_old_hash(workdir, setup, rc, put_back, old) -> None:
    # The re-pinned payloads differ from the old ones only by the keys the
    # change removed: with them put back, they hash to the old goldens.
    assert main(setup()) == rc
    payload = json.loads(Path("out.json").read_text())
    put_back(payload)
    assert hashlib.sha256((_dumps(payload) + "\n").encode()).hexdigest() == old


def test_golden_dcs(workdir) -> None:
    write_graph(generate_regular(40, 12, seed=4), "g.txt")
    Path("t.json").write_text(json.dumps([v % 3 for v in range(40)]) + "\n")
    argv = ["dcs", "--in", "g.txt", "--lambda", "2", "--t-file", "t.json",
            "--seed", "5", "--out", "out.json"]
    assert _digest(argv, 0) == (
        "551490216cf54f04b7223a8d3a14376f6af8c37b45ccc9c42c388187cca3946d"
    )


@pytest.mark.parametrize(
    ("argv", "rc", "expected"),
    [
        (["check", "--d", "54000"], 0,
         "cbf55d44055dba580b9c1b4b4cb768c7825c29bc65cf2fbbc121231831dc53bb"),
        (["check", "--d", "100"], 1,
         "26949b1ea3e9ce7c58efb71f1f336a08267225d8ba43aecd134c4babcae8ee6f"),
        (["min-d"], 0,
         "89eec5bc451416b36fbdd093ef4c8c5f41cbc63739d434cdc1a600b8cd14072f"),
        # The optimizer's path runs through the float pre-filter: every
        # candidate's scan is capped at the incumbent's minimal degree.
        (["optimize", "--seed", "0", "--budget", "60"], 0,
         "9697ac2f3676fe5c2a826203e8033eb16b18b3c16e969b7283ad51dbcadffbe6"),
    ],
    ids=["check-54000", "check-100", "min-d", "optimize"],
)
def test_golden_constants(workdir, argv: list[str], rc: int, expected: str) -> None:
    assert _digest(["constants", *argv, "--out", "out.json"], rc) == expected
