"""Golden outputs: SHA-256 of every default-config export, of three
non-default precisions, of two non-default grids and of every contrast at the
size of one benchmark parameter sweep command.

A refactor of the scenario, measurement, dynamics or export code must leave
these bytes unchanged. A change that alters an output on purpose updates the
hash here and says why in CHANGES.md.
"""

import hashlib

import pytest

from spinpair.cli import main

# verify-linear and `run sec3 --format json` resolve to the same scenario and
# the same defaults, so they must write the same bytes.
LINEAR_SHA256 = "c8895b4be90e63727463400e2f7674017ad1a15f674ad6bf3de9b5a5db80c4d5"

SWEEP = ["--t-max", "10", "--dt", "0.1", "--p", "0.637218", "--epsilon", "1.481537"]

GOLDEN = {
    "sec5-csv": (["run", "sec5", "--format", "csv"], "f6fdfb858c6ac1a9167db2383f09c8277a59af4ab03a324ca552c10c608ab90d"),
    "sec5-json": (["run", "sec5", "--format", "json"], "8a073373d5eb24677c4b5e25049872c79ffcb878f61badda067a1d123c1fdb6d"),
    "sec6-csv": (["run", "sec6", "--format", "csv"], "0783f4283b2648ddbefe4cd63225677181b64d6d7d82c2be669b4e0e8b45f21e"),
    "sec6-json": (["run", "sec6", "--format", "json"], "bbe89a47cd26f5682c6ff2c36f1fc04a8dc164007475b141b0c7b7544b4e6f61"),
    "sec7-csv": (["run", "sec7", "--format", "csv"], "a4b1b33f6db71a1fd605e3aaf39e34054571ce1c7309c8a2f7b4bd084ed14cc7"),
    "sec7-json": (["run", "sec7", "--format", "json"], "72cd029a4fa7123342b69b23464698b254435d9826d3ce419aa4494efb79fc73"),
    "sec8-csv": (["run", "sec8", "--format", "csv"], "1cf5b6764ac0384f28c757fbc5eebd3ac31cf628eeeaccf5d22c9f4b0dcae374"),
    "sec8-json": (["run", "sec8", "--format", "json"], "b2b84af6a153a5b8af1dd2ef9d07fe90235f15efd3498b917dc6810359385422"),
    "sec8-diag-json": (
        ["run", "sec8", "--basis", "diag", "--format", "json"],
        "386ebcb17a7a76eca77224dfe08063fa7953e6965d079e3e54bc37692199efb3",
    ),
    # non-default precisions: 17 takes the repr spelling of every float in
    # JSON, 6 the shortest texts, 16 the longest CSV texts
    "sec8-json-p17": (
        ["run", "sec8", "--format", "json", "--precision", "17"],
        "3926fa57e23eba7a0cad0f9956f5d187f06a0446c818792ec9e9d0dcc4892411",
    ),
    "sec5-json-p6": (
        ["run", "sec5", "--format", "json", "--precision", "6"],
        "4aae31b0c791a1ff5be5e20ca1a17c97e34d169f2ce3b6211ca4352f2018df24",
    ),
    "sec7-csv-p16": (
        ["run", "sec7", "--format", "csv", "--precision", "16"],
        "fac96cd5c599fad548afff79f53511e8c014959757699839d0754eafd0eb1f5c",
    ),
    # non-default grids whose last chunk of rows is a short one: 40,001 and
    # 35,716 points per trajectory
    "sec8-json-t40": (
        ["run", "sec8", "--format", "json", "--t-max", "40"],
        "1127f78864f2f832d7fdb07c74816f1b9db867b50c37bfb094c633639ee8d9f1",
    ),
    "sec7-csv-t25-dt7e-4": (
        ["run", "sec7", "--format", "csv", "--t-max", "25", "--dt", "0.0007"],
        "20b07e7b816e485a6cad442ee1dcf43f5b25fffd3305a5419d756d84e42b9970",
    ),
    # one command of a parameter sweep: a 101-point grid at a p and an epsilon
    # drawn like the sweep's, so that 2p - 1 is not a power of two
    **{
        name: (["run", *argv, *SWEEP], digest)
        for name, argv, digest in (
            ("sec5-csv-sweep", ["sec5"], "04107069ffde4053b430ca21161956df4dd40190af7d40373eb844d3909a4293"),
            ("sec6-csv-sweep", ["sec6"], "9905b039efc7021ea5cb918c0bba400f9a7941f10b1e153b5c07539376b2dfc0"),
            ("sec7-csv-sweep", ["sec7"], "77f24ee8e0a75cce414bd18859b79238f2451e143804ef6d67883726e69b2af8"),
            (
                "sec8-updown-csv-sweep",
                ["sec8", "--basis", "updown"],
                "1cfb5d601a09eb8202aa6f6c2fdc463c1e39c72828fa49d732c4aa132db9dba9",
            ),
            (
                "sec8-diag-csv-sweep",
                ["sec8", "--basis", "diag"],
                "1cfb5d601a09eb8202aa6f6c2fdc463c1e39c72828fa49d732c4aa132db9dba9",
            ),
            (
                "sec7-json-sweep",
                ["sec7", "--format", "json"],
                "9be163eff9ec6dc87a5cb38b91d0d01353d041ba057db9bc4dcacc0b79958b2a",
            ),
            (
                "sec8-diag-json-sweep",
                ["sec8", "--basis", "diag", "--format", "json"],
                "d9ab02afde5b8e171c47addbac7f9197803c039140aff7a55165736fe40c4138",
            ),
        )
    },
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
