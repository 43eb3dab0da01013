"""CLI runners (child process and in-process), hashing and the result stamp."""

import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Set explicitly for every child and for the traced in-process run, so a
# change in the caller's environment cannot shift the numbers silently.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def child_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    env["MH_PHONE_LOG"] = "warning"
    return env


@dataclass
class CliRun:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stderr: str

    @property
    def ok(self):
        return self.returncode == 0


def run_cli(argv, cwd, env):
    """Run `python -m mh_phone.cli argv` in cwd; wall time is spawn to exit
    and peak RSS comes from the child's own rusage."""
    err_path = Path(cwd) / ".stderr"
    with open(err_path, "w+", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "mh_phone.cli", *argv],
                                cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()[-4000:]
    err_path.unlink()
    return CliRun(wall, usage.ru_maxrss / 1024.0, proc.returncode, stderr)


def run_inprocess(argv, cwd, tracer=None):
    """Run mh_phone.cli.main(argv) in this process with cwd as the working
    directory, in a `cli.<command>` span when a tracer is given. Returns the
    exit code; an uncaught exception gives -1 and its traceback on stderr."""
    from mh_phone import cli

    here = os.getcwd()
    os.chdir(cwd)
    span = tracer.open(f"cli.{argv[0]}") if tracer else None
    try:
        with redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except (Exception, SystemExit):  # noqa: BLE001 -- reported as a failed command
        traceback.print_exc()
        return -1
    finally:
        if span:
            tracer.close(span)
        os.chdir(here)


def single_thread(argv):
    """argv with `--threads N` replaced by `--threads 1`."""
    if "--threads" not in argv:
        return argv
    at = argv.index("--threads")
    return argv[:at] + ["--threads", "1"] + argv[at + 2:]


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def source_digest():
    """SHA-256 over src/ (paths and contents), which names the code under
    test even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


_VERSIONS = """
import json, sys, numpy
blas = {}
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except Exception:
    pass
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "blas": blas.get("name"), "blas_version": blas.get("version")}))
"""


def stamp(env):
    """What the numbers depend on besides the code: versions, cores, threads."""
    out = subprocess.run([sys.executable, "-c", _VERSIONS], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    versions = json.loads(out.stdout)
    return {
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        **versions,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "thread_env": dict(THREAD_ENV),
    }
