import json

from spbench import checks
from spbench.workloads import Command

CSV_CMD = Command(("run", "sec5"), "csv", 2, 0)
JSON_CMD = Command(("run", "sec5", "--format", "json"), "json", 2, 0)
LINEAR_CMD = Command(("verify-linear", "--trials", "5"), "json", 0, 5)

GOOD_CSV = (
    "t,arm,sigma1,sigma2,sigma3\n"
    "0,armA,0.1,0.2,0.3\n1,armA,0.1,0.2,0.3\n0,armB,0.1,0.2,0.3\n1,armB,0.1,0.2,0.3\n"
)


def arms(times=True):
    arm = {"points": [[0, 0, 1], [0, 0, 1]]}
    if times:
        arm["times"] = [0, 1]
    return {"armA": dict(arm), "armB": dict(arm)}


def encode(doc):
    return json.dumps(doc).encode()


def test_good_outputs_pass():
    assert checks.check_output(CSV_CMD, GOOD_CSV.encode()) == []
    assert checks.check_output(JSON_CMD, encode({"contracts_ok": True, "arms": arms()})) == []
    linear = {"contracts_ok": True, "divergence": 1e-15, "config": {"trials": 5}}
    assert checks.check_output(LINEAR_CMD, encode(linear)) == []


def test_a_schema_that_writes_the_time_grid_once_still_passes():
    doc = {"contracts_ok": True, "schema_version": 2, "times": [0, 1], "arms": arms(times=False)}
    assert checks.check_output(JSON_CMD, encode(doc)) == []


def test_csv_with_a_missing_row_fails():
    assert checks.check_output(CSV_CMD, GOOD_CSV.rsplit("\n", 2)[0].encode() + b"\n")


def test_csv_with_a_bad_value_fails():
    assert checks.check_output(CSV_CMD, GOOD_CSV.replace("0.2", "nan", 1).encode())
    assert checks.check_output(CSV_CMD, GOOD_CSV.replace("armB", "armC").encode())


def test_json_failures():
    assert checks.check_output(JSON_CMD, b"{not json")
    assert checks.check_output(JSON_CMD, encode({"contracts_ok": False, "arms": arms()}))
    short = arms()
    short["armB"]["points"] = short["armB"]["points"][:1]
    assert checks.check_output(JSON_CMD, encode({"contracts_ok": True, "arms": short}))


def test_linear_suite_failures():
    too_far = {"contracts_ok": True, "divergence": 1e-9, "config": {"trials": 5}}
    assert checks.check_output(LINEAR_CMD, encode(too_far))
    too_few = {"contracts_ok": True, "divergence": 0.0, "config": {"trials": 4}}
    assert checks.check_output(LINEAR_CMD, encode(too_few))
