"""Golden outputs: SHA-256 of every default-config export.

A refactor of the scenario, measurement, dynamics or export code must leave
these bytes unchanged. A change that alters an output on purpose updates the
hash here and says why in CHANGES.md.
"""

import hashlib

import pytest

from spinpair.cli import main

# verify-linear and `run sec3 --format json` resolve to the same scenario and
# the same defaults, so they must write the same bytes.
LINEAR_SHA256 = "1dae6a19cb0629b4c93db8265a1ad3ba2204d5cedd46f44f5edbec5cf33eea01"

GOLDEN = {
    "sec5-csv": (["run", "sec5", "--format", "csv"], "f6fdfb858c6ac1a9167db2383f09c8277a59af4ab03a324ca552c10c608ab90d"),
    "sec5-json": (["run", "sec5", "--format", "json"], "2f6b549a422d3714cf21395d68387dab55130f0d5ce66657e544857e2afceb62"),
    "sec6-csv": (["run", "sec6", "--format", "csv"], "0783f4283b2648ddbefe4cd63225677181b64d6d7d82c2be669b4e0e8b45f21e"),
    "sec6-json": (["run", "sec6", "--format", "json"], "1f84ae117c798ec2ffcf5818ef087cdf26217632ea30253c41566fb0c9eda92c"),
    "sec7-csv": (["run", "sec7", "--format", "csv"], "a4b1b33f6db71a1fd605e3aaf39e34054571ce1c7309c8a2f7b4bd084ed14cc7"),
    "sec7-json": (["run", "sec7", "--format", "json"], "cee91869272a27151c9281903e83968c01a4cd6f4fd710e227f312597a2ad4ad"),
    "sec8-csv": (["run", "sec8", "--format", "csv"], "1cf5b6764ac0384f28c757fbc5eebd3ac31cf628eeeaccf5d22c9f4b0dcae374"),
    "sec8-json": (["run", "sec8", "--format", "json"], "9521dc9832cff6c90bcb1f1c8b2e68c601745e8c91a519dd2c168716f182694e"),
    "sec8-diag-json": (
        ["run", "sec8", "--basis", "diag", "--format", "json"],
        "3a844d59be4437163bad8bdd5e6ff92882b1654c765207b1b497a8b1a6b1cad9",
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
