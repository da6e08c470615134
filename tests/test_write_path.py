"""The write contract as one table: where a report goes, and what is left.

A row gives a command's argv, its --out target and how that is set up, and
the state of stdout, stderr or fd 3 (`how`, in shell terms; two pipes if
empty). It gives the exit code, the exact stderr, what stdout got, every
entry of the row's directory after, with its bytes, so no temporary file is
left, and a target's permission bits and whether its inode is new. "{ref}"
stands for what a plain --out to a fresh file gets.

A runner child imports spinpair once and forks per row; the fork calls
cli.entry() in the row's directory, under umask 022 with stdin read-only,
and ends as the interpreter does, flushing stdout. States set as Python
starts (fd 1 closed, `-u`, a buffered /dev/full) exec `python -m spinpair`
from the fork; an in-process stdout runs main() in this process.
"""

import contextlib
import io
import json
import os
import stat
import subprocess
import sys
from typing import NamedTuple
from unittest import mock

import pytest

from oracles import assert_same_document
from spinpair import cli
from spinpair.cli import main

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="the rows name /dev/fd, /proc and /dev/full")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src")


Link = type("Link", (str,), {})  # a symlink to the path it holds
Hard = type("Hard", (str,), {})  # a hard link of the entry it names
DIR, FIFO, DEVICE = stat.S_IFDIR, stat.S_IFIFO, stat.S_IFCHR  # an entry of that kind
OLD, REF = "old\n", "{ref}"
PLAIN = {"code": 0, "stdout": "", "err": ""}  # how a run with a plain --out ends
IN_PROCESS = ("StringIO", "capsys, ROWS = 7")  # capsys with 7-row chunks: several per trajectory
AT_START = {">&-": [], "> /dev/full": [], "-u > /dev/full": ["-u"]}  # how: the flags of `python -m spinpair`


class Row(NamedTuple):
    id: str
    argv: list
    out: str | None = None
    how: str = ""
    before: dict = {}  # name: bytes of a file, Link, Hard, DIR or FIFO
    code: int = 0
    err: str = ""
    stdout: str = ""
    after: dict = {}  # name: bytes (a FIFO's: what its reader got), Link, DIR, or for a device DEVICE
    mode: int | None = None  # the target's permission bits, before where it exists, and after
    new_inode: bool | None = None
    ran: bool = True  # whether the scenario ran; checked on forked rows


SEC5 = ["run", "sec5", "--t-max", "1", "--dt", "0.1"]
SUITE = ["verify-linear", "--trials", "3"]
GRID = ["run", "sec8", "--t-max", "1", "--dt", "0.001", "--format"]  # 1,001 points: the byte matrix; 279 KB of JSON
EFBIG, ENOSPC = "error: [Errno 27] File too large\n", "error: [Errno 28] No space left on device\n"
ROWS = [
    # a file: written next to itself, then moved into place, keeping its mode
    Row("new", SEC5, "out.csv", after={"out.csv": REF}, mode=0o644),
    *(Row(f"file-{mode:o}", SEC5, "out.csv", before={"out.csv": OLD}, after={"out.csv": REF}, mode=mode, new_inode=True)
      for mode in (0o644, 0o600, 0o640, 0o754)),
    # As the atomic replace gives, and intended: a 0444 file is replaced and
    # keeps 0444, and a hard link `a` of `b` keeps the old bytes. A user who may
    # not write `k` gets the replacement too, through the directory's write bit,
    # where `> k` fails with EACCES; run as root, the row cannot show that case.
    Row("read-only", SEC5, "k", before={"k": OLD}, after={"k": REF}, mode=0o444, new_inode=True),
    Row("hard-link", SEC5, "b", before={"a": OLD, "b": Hard("a")}, after={"a": OLD, "b": REF}, new_inode=True),
    Row("symlink", SEC5, "link", before={"link": Link("f"), "f": OLD}, after={"link": Link("f"), "f": REF}, new_inode=True),
    Row("long-name", SEC5, "a" * 250, after={"a" * 250: REF}),  # ".{name}.{pid}.tmp" is cut to 255 bytes
    Row("dash", SEC5, "-", after={"-": REF}),
    # a killed run's temporary file, of the pid the fork gets: removed, a symlink never followed
    *(Row(f"stale-{kind}", SEC5, "r.csv", before={".r.csv.PID.tmp": stale, "v": OLD}, after={"r.csv": REF, "v": OLD}, mode=0o644)
      for kind, stale in (("file", "partial"), ("symlink", Link("v")))),
    # failures: the old bytes or no file, one error line naming --out; `ulimit -f` breaks the stream mid-render
    Row("write-fails", [*GRID, "json"], "out.json", "ulimit -f", code=1, err=EFBIG),
    Row("write-fails-old", [*GRID, "json"], "out.json", "ulimit -f", before={"out.json": OLD}, code=1, err=EFBIG,
        after={"out.json": OLD}, new_inode=False),
    Row("no-dir", SEC5, "nodir/x", code=1, err="error: [Errno 2] No such file or directory: 'nodir/x'\n"),
    Row("dangling", SEC5, "dang", before={"dang": Link("nowhere/x")}, code=1,
        err="error: [Errno 2] No such file or directory: 'dang'\n", after={"dang": Link("nowhere/x")}),
    Row("under-a-file", SEC5, "f/x", before={"f": OLD}, code=1, err="error: [Errno 20] Not a directory: 'f/x'\n", after={"f": OLD}),
    Row("dir", SEC5, "d", before={"d": DIR}, code=1, err="error: [Errno 21] Is a directory: 'd'\n", after={"d": DIR}),
    Row("proc", SEC5, "/proc/out", code=1, err="error: [Errno 2] No such file or directory: '/proc/out'\n"),
    # a directory by its name alone, refused before the run
    *(Row(f"dir-name-{out}", SEC5, out, before={"res.csv": OLD}, code=1, err="error: --out must name a file\n",
          after={"res.csv": OLD}, ran=False) for out in ("", "res.csv/", "res.csv/.", "new/", "new/.")),
    # not a regular file: written in place
    Row("dev-null", SEC5, os.devnull, after={os.devnull: DEVICE}),
    Row("dev-full", SEC5, "/dev/full", code=1, err="error: [Errno 28] No space left on device: '/dev/full'\n",
        after={"/dev/full": DEVICE}),
    Row("fifo", SEC5, "fifo", before={"fifo": FIFO}, after={"fifo": REF}),
    # a descriptor, named or as the file open on fd 1 or 2: written through it
    *(Row(f"pipe-{out}", SUITE, out, stdout=REF) for out in ("/dev/stdout", "/dev/fd/1")),
    Row("pipe-/dev/stderr", SEC5, "/dev/stderr", err=REF),
    *(Row(f"log-{out}", SEC5, out, how, {"log": OLD}, after={"log": OLD + REF})
      for out, how in (("/dev/stdout", ">> log"), ("/dev/stderr", "2>> log"), ("/dev/fd/3", "3>> log"),
                       ("/proc/self/fd/3", "3>> log"), ("log", "2>> log"))),
    Row("stdin", SEC5, "/dev/stdin", code=1, err="error: [Errno 9] Bad file descriptor: '/dev/stdin'\n"),
    Row("closed-fd", SEC5, "/dev/fd/900", code=1, err="error: /dev/fd/900: descriptor 900 is not open\n"),
    Row("huge-fd", SEC5, "/dev/fd/" + "9" * 20, code=1, err=f"error: /dev/fd/{'9' * 20}: descriptor {'9' * 20} is not open\n"),
    # no --out: stdout's binary buffer, or the text of a stdout without one
    *(Row(f"{how or 'pipe'}-{fmt}", [*GRID, fmt], how=how, stdout=REF) for how in ("", "StringIO") for fmt in ("csv", "json")),
    *(Row(f"capsys-{fmt}", ["run", "sec8", "--t-max", "2", "--dt", "0.01", "--format", fmt], how=IN_PROCESS[1], stdout=REF)
      for fmt in ("csv", "json")),
    Row("head", [*GRID, "json"], how="| head -c 20", code=1, err="error: [Errno 32] Broken pipe\n", stdout="{ref:.20}"),
    # set as Python starts: a closed stdout, and /dev/full buffered or not
    Row("closed-stdout", SEC5, how=">&-", code=1, err="error: stdout is closed; use --out\n"),
    Row("closed-stdout-list", ["list"], how=">&-", code=1, err="error: stdout is closed\n"),
    Row("closed-stdout-out", SEC5, "/dev/stdout", ">&-", code=1, err="error: /dev/stdout: descriptor 1 is not open\n"),
    *(Row(f"{name}-{argv[0]}", argv, how=how, code=1, err=ENOSPC)
      for argv in (["list"], SEC5) for name, how in (("full", "> /dev/full"), ("full-u", "-u > /dev/full"))),
]

# Runs in the child: forks once per job and prints each fork's exit code
# and what its stdout, stderr and FIFO readers got.
RUNNER = r"""
import json, os, resource, select, signal, sys

jobs, ran = json.loads(sys.argv[1]), sys.argv[2]
os.dup2(os.open(os.devnull, os.O_RDONLY), 0)  # as `< /dev/null` opens it
from spinpair import cli


def fork_child(job, pipes):
    os.chdir(job["dir"])
    os.umask(0o022)
    for name in os.listdir():  # a killed run's temporary file, of this fork's pid
        if ".PID." in name:
            os.rename(name, name.replace(".PID.", f".{os.getpid()}."))
    for fd, (read, write) in enumerate(pipes, 1):  # with no reader left here, `head` can close the pipe
        os.dup2(write, fd)
        os.close(read)
    how = job.get("how", "")
    if how.endswith(">> log"):
        os.dup2(os.open("log", os.O_WRONLY | os.O_APPEND), int(how[0]) if how[0].isdigit() else 1)
    elif how.endswith("> /dev/full"):
        os.dup2(os.open("/dev/full", os.O_WRONLY), 1)
    elif how == ">&-":
        os.close(1)
    elif how == "ulimit -f":  # writes past 1 KiB fail with EFBIG, and SIGXFSZ does not kill
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (1024, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
    if job.get("python") is not None:
        os.execv(sys.executable, [sys.executable, *job["python"], "-m", "spinpair", *job["argv"]])
    cli.run_scenario = lambda *args, run=cli.run_scenario: (open(os.path.join(ran, job["id"]), "x").close(), run(*args))[1]
    sys.argv = ["spinpair", *job["argv"]]
    cli.entry()  # its SystemExit ends the fork as it ends spinpair


def run(job):
    (out, out_w), (err, err_w) = pipes = os.pipe(), os.pipe()
    pid = os.fork()
    if pid == 0:
        fork_child(job, pipes)
    os.close(out_w)
    os.close(err_w)
    # a FIFO's open returns once the fork opens it to write
    names = {out: "stdout", err: "err", **{os.open(os.path.join(job["dir"], name), os.O_RDONLY): "fifo"
                                           for name in job.get("fifos", ())}}
    got, live, head = dict.fromkeys(names, b""), set(names), job.get("how") == "| head -c 20"
    while live:
        for fd in select.select(list(live), [], [])[0]:
            data = os.read(fd, 20 - len(got[fd]) if head and fd == out else 1 << 16)
            got[fd] += data
            if not data or head and fd == out and len(got[fd]) == 20:
                os.close(fd)
                live.remove(fd)
    return {"code": os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]),
            **{names[fd]: data.decode("latin-1") for fd, data in got.items()}}


print(json.dumps({job["id"]: run(job) for job in jobs}))
"""


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    """Sets up a directory per row, named by its index; runs the forked rows and the references."""
    root = tmp_path_factory.mktemp("rows")
    for sub in ("ran", "refs"):
        (root / sub).mkdir()
    jobs, inodes = [], {}
    for k, row in enumerate(ROWS):
        where = root / str(k)
        where.mkdir()
        for name, what in row.before.items():
            if isinstance(what, (Link, Hard)):
                os.symlink(what, where / name) if isinstance(what, Link) else os.link(where / what, where / name)
            elif what in (DIR, FIFO):
                (os.mkdir if what == DIR else os.mkfifo)(where / name)
            else:
                (where / name).write_bytes(what.encode("ascii"))
        if row.mode is not None and row.out in row.before:
            os.chmod(where / row.out, row.mode)
        if row.new_inode is not None:
            inodes[str(k)] = os.stat(where / row.out).st_ino
        if row.how not in IN_PROCESS:
            argv = [*row.argv, *([] if row.out is None else ["--out", row.out])]
            jobs.append({"id": str(k), "dir": str(where), "argv": argv, "how": row.how, "python": AT_START.get(row.how),
                         "fifos": [name for name, what in row.before.items() if what == FIFO]})
    argvs = list(dict.fromkeys(tuple(row.argv) for row in ROWS if row.argv != ["list"]))
    jobs += [{"id": f"ref-{k}", "dir": str(root / "refs"), "argv": [*argv, "--out", str(k)]} for k, argv in enumerate(argvs)]
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("PYTHONUNBUFFERED", None)  # it would hide what a buffered stdout does at exit
    child = subprocess.run([sys.executable, "-c", RUNNER, json.dumps(jobs), str(root / "ran")],
                           env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    results = json.loads(child.stdout)
    paths = {argv: root / "refs" / str(k) for k, argv in enumerate(argvs)}
    refs = {argv: (results[f"ref-{k}"], paths[argv].exists() and paths[argv].read_text("ascii")) for k, argv in enumerate(argvs)}
    return root, results, refs, inodes


def in_process(row, capsys):
    if row.how == "StringIO":  # no binary buffer, as contextlib.redirect_stdout often installs
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(row.argv)
        return {"code": code, "stdout": out.getvalue(), "err": err.getvalue()}
    with mock.patch.object(cli, "ROWS", 7):
        code = main(row.argv)
    out, err = capsys.readouterr()
    return {"code": code, "stdout": out, "err": err}


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_the_write_contract(row, outcomes, capsys):
    root, results, refs, inodes = outcomes
    k = str(ROWS.index(row))
    ref_run, ref = refs.get(tuple(row.argv), (PLAIN, None))
    assert ref_run == PLAIN, "the reference run"
    got = in_process(row, capsys) if row.how in IN_PROCESS else results[k]
    expect = lambda text: text.format(ref=ref)
    assert (got["code"], got["err"]) == (row.code, expect(row.err))
    assert_same_document(got["stdout"], expect(row.stdout))
    where = root / k
    assert sorted(os.listdir(where)) == sorted(name for name in row.after if not os.path.isabs(name))
    assert sorted(os.listdir(root)) == sorted([*map(str, range(len(ROWS))), "ran", "refs"])
    for name, want in row.after.items():
        path = where / name
        if isinstance(want, Link):
            assert os.readlink(path) == want
        elif isinstance(want, int):  # DIR or DEVICE
            assert stat.S_IFMT(path.lstat().st_mode) == want
        else:  # a regular file, or what a FIFO's reader got
            fifo = row.before.get(name) == FIFO
            assert stat.S_IFMT(path.lstat().st_mode) == (FIFO if fifo else stat.S_IFREG)
            assert_same_document(got["fifo"] if fifo else path.read_bytes().decode("latin-1"), expect(want))
    if row.mode is not None:
        assert stat.S_IMODE(os.stat(where / row.out).st_mode) == row.mode
    if row.new_inode is not None:
        assert (os.stat(where / row.out).st_ino != inodes[k]) == row.new_inode
    if row.how not in (*IN_PROCESS, *AT_START):
        assert (root / "ran" / k).exists() == row.ran
