"""Every deterministic artifact, byte for byte: the sha256 of each file
`analyze` writes for the `verify --all` types and E8, of the `theorems`
report on E6, E7, E8, F4, H4, D7, G2 (I2(6) on the dihedral model), I2(8)
and B4, and of the `verify.json` of `verify --all --large`, against
digests recorded in `golden_artifacts.json`."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from coxcent import cli

GOLDEN = json.loads((Path(__file__).parent / "golden_artifacts.json").read_text())


def _type_args(family: str, n: int) -> list[str]:
    if family in cli.FAMILY_TYPES:
        return ["--type", family, "--rank", str(n)]
    if family == "I":
        return ["--type", "I2", "--m", str(n)]
    return ["--type", f"{family}{n}"]


def test_artifacts_match_recorded_digests(tmp_path):
    for family, n in cli.ALL_SMALL:
        argv = ["analyze", *_type_args(family, n), "--out", str(tmp_path / "analyze")]
        assert cli.main(argv) == cli.EXIT_OK
    e8 = ["--type", "E8", "--large"]
    assert cli.main(["analyze", *e8, "--out", str(tmp_path / "analyze")]) == cli.EXIT_OK
    for family, n in [
        ("E", 6), ("E", 7), ("F", 4), ("H", 4), ("D", 7), ("I", 6), ("I", 8), ("B", 4)
    ]:
        argv = ["theorems", *_type_args(family, n), "--out", str(tmp_path / "theorems")]
        assert cli.main(argv) == cli.EXIT_OK
    assert cli.main(["theorems", *e8, "--out", str(tmp_path / "theorems")]) == cli.EXIT_OK
    verify = ["verify", "--all", "--large", "--out", str(tmp_path / "verify")]
    assert cli.main(verify) == cli.EXIT_OK
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.rglob("*")
        if path.is_file()
    }
    assert digests == GOLDEN
