"""Repository benchmark: host speed of the simulator on its production path.

Run from the repository root:

    python3 perfbench/run.py --workload observed --seed 1 --seconds 40 --trace 0

Each run measures one workload in a fresh Python process
(``perfbench/workload.py``) with a clean environment and a private
temporary directory inside the checkout, checks every operation's
results, and prints one JSON object as its last line of stdout:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See ``perfbench/README.md`` for the workloads, the
metrics and how they relate.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
WORKLOADS = ("suite-warm", "observed")

#: Set-up samples per run: this many probe processes plus the measured one.
SETUP_PROBES = 6
#: A run that is not done by then is killed; a run must end within 180 s.
RUN_DEADLINE_S = 170.0



def clean_env(root: Path, tmp: Path) -> Dict[str, str]:
    """The child's environment: nothing a developer's shell sets may
    change the measured path."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith(("REPRO_", "PYTHON"))
    }
    env.update({
        "PYTHONPATH": str(root / "src"),
        "PYTHONHASHSEED": "0",
        "TMPDIR": str(tmp),
        # The artifact store lives in the run's own directory; every
        # other program knob is cleared so its default applies.
        "REPRO_ARTIFACT_DIR": str(tmp / "artifacts"),
        "REPRO_ARTIFACT_CACHE": "1",
        # The simulator does no linear algebra; one BLAS thread keeps
        # numpy's import steady.
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


class Child:
    """One ``workload.py`` process in its own session.

    A timer kills the whole session (the child and any pool workers it
    forked) at the run's deadline; :meth:`kill` reaps it in any case.
    """

    def __init__(self, args: List[str], env: Dict[str, str], root: Path,
                 deadline: float) -> None:
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "workload.py"), *args],
            stdout=subprocess.PIPE, env=env, cwd=root, text=True,
            start_new_session=True,
        )
        self.timer = threading.Timer(
            max(0.0, deadline - self.started), self._killpg
        )
        self.timer.daemon = True
        self.timer.start()

    def _killpg(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def kill(self) -> int:
        self.timer.cancel()
        if self.proc.poll() is None:
            self._killpg()
        code = self.proc.wait()
        self.proc.stdout.close()
        return code


def run_child(args: List[str], env, root: Path, deadline: float):
    """Start ``workload.py``; return (set-up seconds, result dict or None)."""
    child = Child(args, env, root, deadline)
    ready: Optional[float] = None
    result = None
    try:
        for line in child.proc.stdout:
            line = line.rstrip("\n")
            if line.startswith("ready "):
                ready = float(line.split()[1]) - child.started
            elif line.startswith("result "):
                result = json.loads(line[len("result "):])
            else:
                print(line)
        child.proc.wait()
    finally:
        code = child.kill()
    if code != 0 or ready is None:
        raise RuntimeError(f"workload process failed (exit {code})")
    return ready, result


def declared_units(root: Path, trace: int) -> Dict[str, str]:
    """Metric name -> unit, in the order ``BENCHMARK.json`` declares them."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    units = declared_units(root, args.trace)

    # A terminated run still reaps its processes and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    deadline = time.monotonic() + RUN_DEADLINE_S
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    env = clean_env(root, tmp)
    try:
        setup = []
        for _ in range(SETUP_PROBES):
            secs, _ = run_child(
                ["--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", "0", "--tmp", str(tmp), "--probe"],
                env, root, deadline,
            )
            setup.append(secs)
        secs, res = run_child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--tmp", str(tmp)],
            env, root, deadline,
        )
        setup.append(secs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    if res is None:
        print("perfbench: workload process printed no result", file=sys.stderr)
        return 1

    walls = res["iterations"]
    median = statistics.median(walls)
    if args.trace:
        values = res["layers"]
    else:
        values = {
            "raw_req_per_s": res["raw_requests"] / median,
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setup) + res["setup_extra_s"],
        }
    if set(values) != set(units):
        print(f"perfbench: measured {sorted(values)}, declared {sorted(units)}",
              file=sys.stderr)
        return 1
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }
    q = statistics.quantiles(walls, n=4)
    print(
        f"{args.workload} seed={args.seed}: {len(walls)} timed operations, "
        f"wall p25/p50/p75 {q[0]:.3f}/{median:.3f}/{q[2]:.3f}s; "
        f"set-up samples {', '.join(f'{s:.3f}' for s in setup)}s "
        f"+ {res['setup_extra_s']:.3f}s"
    )
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}")
    failed = len(res["failures"])
    out = {
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
