"""Byte-identity of CLI payloads for fixed manifests.

The CLI promises that an identical manifest reproduces byte-identical output.
These hashes were recorded before the array-native colouring and integer
rounding rewrites (the dyadic one before the general rounding engine moved to
integer numerators and an early-exit search); any change to them is a change
of behaviour, not of speed.
Every path is relative, because the manifest embeds the ``--in``/``--out``
arguments verbatim.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from lidecomp.cli import main
from lidecomp.graphs import generate_regular, write_graph

DEMO = {"k": 0.1, "s": 0.05, "r": 0.3, "u": 0.2, "s1": 0.024, "r1": 0.279, "u1": 0.09}


def _digest(argv: list[str], expected_rc: int) -> str:
    assert main(argv) == expected_rc
    return hashlib.sha256(Path("out.json").read_bytes()).hexdigest()


@pytest.fixture
def workdir(tmp_path, monkeypatch) -> Path:
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_golden_decompose_best_effort(workdir) -> None:
    write_graph(generate_regular(200, 16, seed=1), "g.txt")
    Path("profile.json").write_text(json.dumps(DEMO, sort_keys=True) + "\n")
    argv = ["decompose", "--in", "g.txt", "--profile", "profile.json",
            "--mode", "best-effort", "--seed", "0", "--out", "out.json"]
    assert _digest(argv, 1) == (
        "add957a1b4f07e14d05f1110306ca65318713edd2530381305b0615929627dc4"
    )


def test_golden_round_all_half(workdir) -> None:
    write_graph(generate_regular(40, 7, seed=2), "g.txt")
    argv = ["round", "--in", "g.txt", "--z", "1/2", "--out", "out.json"]
    assert _digest(argv, 0) == (
        "75597e7e52e74506002ea81edb5a9acf30ff353b58935d21cbf94fe8d016c5d3"
    )


def test_golden_round_non_dyadic(workdir) -> None:
    g = generate_regular(30, 6, seed=3)
    write_graph(g, "g.txt")
    cycle = ("1/3", "2/7", "5/6")
    Path("z.txt").write_text("".join(cycle[i % 3] + "\n" for i in range(g.m)))
    argv = ["round", "--in", "g.txt", "--z-file", "z.txt", "--out", "out.json"]
    assert _digest(argv, 0) == (
        "a1c85fdefd972b565a538c63ee447bc22996c3b6892cc8fb9f895b2e41ec44cf"
    )


def test_golden_round_dyadic(workdir) -> None:
    # The round-general benchmark's weight shape: k/64 numerators on d = 10.
    g = generate_regular(100, 10, seed=1)
    write_graph(g, "g.txt")
    numerators = np.random.default_rng(0).integers(1, 64, size=g.m).tolist()
    Path("z.txt").write_text("".join(f"{k}/64\n" for k in numerators))
    argv = ["round", "--in", "g.txt", "--z-file", "z.txt", "--out", "out.json"]
    assert _digest(argv, 0) == (
        "2bf19e7930732518248c769fc58692b7ab7ba453be09b3f65f0e2f56bf98b2b0"
    )


def test_golden_dcs(workdir) -> None:
    write_graph(generate_regular(40, 12, seed=4), "g.txt")
    Path("t.json").write_text(json.dumps([v % 3 for v in range(40)]) + "\n")
    argv = ["dcs", "--in", "g.txt", "--lambda", "2", "--t-file", "t.json",
            "--seed", "5", "--out", "out.json"]
    assert _digest(argv, 0) == (
        "551490216cf54f04b7223a8d3a14376f6af8c37b45ccc9c42c388187cca3946d"
    )
