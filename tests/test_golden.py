"""Golden outputs: SHA-256 of every default-config export, of three
non-default precisions and of two non-default grids.

A refactor of the scenario, measurement, dynamics or export code must leave
these bytes unchanged. A change that alters an output on purpose updates the
hash here and says why in CHANGES.md.
"""

import hashlib

import pytest

from spinpair.cli import main

# verify-linear and `run sec3 --format json` resolve to the same scenario and
# the same defaults, so they must write the same bytes.
LINEAR_SHA256 = "d4f5f92ea08b8541e0160540f3f3100d8b1b7dcaf4227a308c940259f3941d63"

GOLDEN = {
    "sec5-csv": (["run", "sec5", "--format", "csv"], "f6fdfb858c6ac1a9167db2383f09c8277a59af4ab03a324ca552c10c608ab90d"),
    "sec5-json": (["run", "sec5", "--format", "json"], "14aafa56f30a0137f46bb763d075e7be48395465be80816370e7fc825e222c64"),
    "sec6-csv": (["run", "sec6", "--format", "csv"], "0783f4283b2648ddbefe4cd63225677181b64d6d7d82c2be669b4e0e8b45f21e"),
    "sec6-json": (["run", "sec6", "--format", "json"], "41a0a918e44a0e6c123ef9e700c0e406042bc3b97bad8787ea790d1e309096d6"),
    "sec7-csv": (["run", "sec7", "--format", "csv"], "a4b1b33f6db71a1fd605e3aaf39e34054571ce1c7309c8a2f7b4bd084ed14cc7"),
    "sec7-json": (["run", "sec7", "--format", "json"], "b8403578b7525084d0c1adb613d548f35034b90349bb4e94fda05eb843d0c89f"),
    "sec8-csv": (["run", "sec8", "--format", "csv"], "1cf5b6764ac0384f28c757fbc5eebd3ac31cf628eeeaccf5d22c9f4b0dcae374"),
    "sec8-json": (["run", "sec8", "--format", "json"], "8911fdc8251b0cf5352ceb2a3982258c92c7c516b2ecc15e31ed8ca18ccedc57"),
    "sec8-diag-json": (
        ["run", "sec8", "--basis", "diag", "--format", "json"],
        "1905f2a349b74f430b222aa36c7ae6ee2af2700d5767a6cd5018002ed6f7f5a7",
    ),
    # non-default precisions: 17 takes the repr spelling of every float in
    # JSON, 6 the shortest texts, 16 the longest CSV texts
    "sec8-json-p17": (
        ["run", "sec8", "--format", "json", "--precision", "17"],
        "3ce2d685815e84af54c4b1a986171f428f6c5196ad6efa5d76b0342dc39c1daa",
    ),
    "sec5-json-p6": (
        ["run", "sec5", "--format", "json", "--precision", "6"],
        "4531b421bbdcbd936ddece3420abbca3945d3ef2e72bece25b8e31161d7382c7",
    ),
    "sec7-csv-p16": (
        ["run", "sec7", "--format", "csv", "--precision", "16"],
        "fac96cd5c599fad548afff79f53511e8c014959757699839d0754eafd0eb1f5c",
    ),
    # non-default grids whose last chunk of rows is a short one: 40,001 and
    # 35,716 points per trajectory
    "sec8-json-t40": (
        ["run", "sec8", "--format", "json", "--t-max", "40"],
        "c2a16432a3ab50e3197c3e2e7411423c5c0759669e014f0d65f23b2e54da5a0f",
    ),
    "sec7-csv-t25-dt7e-4": (
        ["run", "sec7", "--format", "csv", "--t-max", "25", "--dt", "0.0007"],
        "20b07e7b816e485a6cad442ee1dcf43f5b25fffd3305a5419d756d84e42b9970",
    ),
    "verify-linear": (["verify-linear"], LINEAR_SHA256),
    "sec3-json": (["run", "sec3", "--format", "json"], LINEAR_SHA256),
}

LIST_SHA256 = "57408e4172ab96f30e9cb83990c5df1beefbe746d536c2ecc5720a7f6e1a145d"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_default_export_bytes(name, tmp_path):
    argv, expected = GOLDEN[name]
    out = tmp_path / "report"
    assert main(argv + ["--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == expected


def test_list_text(capsys):
    assert main(["list"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == LIST_SHA256
