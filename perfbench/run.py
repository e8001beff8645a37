"""Benchmark of the zsumfree CLI, driven in process through `zsumfree.cli.main`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree; the package is loaded from its `src/`.
One closed-loop client (one process, no threads) issues the workload's deck
of ops (see `workloads.py`), each op after the previous one finished, in
identical passes until at least S seconds of op time are measured.  Every
op's output is checked outside the timed region (see `checks.py`).

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` the layer functions are wrapped
(see `tracing.py`) and it carries the per-layer metrics (the counts of one
pass, each time at its fastest pass) and the traced run's throughput.
`--workload all` runs every workload in turn, each in its own process.

All cache state lives in fresh `ZSF_CACHE_DIR`s under `.perfbench_tmp/` in
the source tree, removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads
from checks import Checker, load_digests, op_key

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 7     # set-ups timed per run, spread over it; setup_s is their median
DEADLINE_S = 150.0    # no op starts after this much wall time, so a run ends within 180 s
TAIL_PERCENTILE = 95  # with 10+ measured latencies above it on every workload

PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import zsumfree.cli\n"
    "t = time.perf_counter() - t\n"
    "print(zsumfree.cli.__file__)\n"
    "print(repr(t))\n"
)


def import_seconds(env: dict) -> float:
    """Time for a fresh interpreter to import `zsumfree.cli` from `src/`."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    origin, seconds = proc.stdout.split()
    if not Path(origin).resolve().is_relative_to(SRC):
        raise RuntimeError(f"zsumfree was imported from {origin}, not from {SRC}")
    return float(seconds)


class Client:
    """Issues ops through `zsumfree.cli.main` and captures what they print."""

    def __init__(self, cli, checker: Checker, tracer=None):
        self.cli = cli
        self.checker = checker
        self.tracer = tracer
        self.ops = 0

    def call(self, argv: list[str], traced: bool = True):
        """(exit code or exception, stdout, stderr, seconds) of one op."""
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None and traced:
            self.tracer.begin_op(self.ops)
        self.ops += 1
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a traceback is a failed op, not a failed run
                code = repr(exc)
            seconds = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.end_op()
        return code, out.getvalue(), err.getvalue(), seconds


def set_cache_dir(path: Path) -> None:
    os.environ["ZSF_CACHE_DIR"] = str(path)


class SetUp:
    """The run's set-up, repeated SETUP_SAMPLES times over the run: a fresh
    interpreter imports `zsumfree.cli`, and warm-cache prefills an empty
    cache with its pairs.  Spreading the samples over the run makes their
    median follow the run's typical load rather than one moment of it.
    """

    def __init__(self, client: Client, workload: str, tmp: Path):
        self.client = client
        self.workload = workload
        self.tmp = tmp
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), self.env.get("PYTHONPATH")]))
        self.import_s: list[float] = []
        self.prefill_s: list[float] = []
        self.errors: list[str] = []
        self.snapshot: Path | None = None   # the first prefilled cache
        import_seconds(self.env)  # compiles the bytecode once, as an installed package has it

    def sample(self) -> None:
        self.import_s.append(import_seconds(self.env))
        if self.workload == "warm-cache":
            self.prefill_s.append(self._prefill())

    def _prefill(self) -> float:
        """Fill an empty cache with the warm-cache pairs; keep the first one
        as the pass snapshot, and its cold stdout as the warm ops' reference."""
        cache = self.tmp / f"prefill-{len(self.prefill_s)}"
        set_cache_dir(cache)
        outputs = []
        start = time.perf_counter()
        for n, ell in workloads.warm_pairs():
            argv = ["compute", str(n), str(ell)]
            outputs.append((argv, self.client.call(argv, traced=False)))
        seconds = time.perf_counter() - start
        if self.snapshot is not None:
            shutil.rmtree(cache)
            return seconds
        self.snapshot = cache
        reference = self.client.checker.reference
        for argv, (code, stdout, _, _) in outputs:
            if code != 0:
                self.errors.append(f"prefill {op_key(argv)}: exit code {code}")
            reference[op_key(argv)] = stdout
        for n, ell in workloads.warm_pairs():
            argv = ["compute", str(n), str(ell), "--arrangement"]
            code, stdout, _, _ = self.client.call(argv + ["--no-cache"], traced=False)
            if code != 0:
                self.errors.append(f"reference {op_key(argv)}: exit code {code}")
            reference[op_key(argv)] = stdout
        return seconds

    def seconds(self) -> tuple[float, float]:
        """Median import and prefill seconds."""
        return statistics.median(self.import_s), statistics.median(self.prefill_s or [0.0])


def run_passes(client: Client, setup: SetUp, workload: str, seed: int, seconds: float,
               tmp: Path, started: float):
    """Issue whole passes over the deck until `seconds` of op time are measured,
    taking the remaining set-up samples between passes.

    Every pass issues the same ops in the same order from the same cache
    state: a copy of the prefilled snapshot, or an empty cache.  Returns each
    deck position's latencies (one per pass), the failures, the measured
    seconds and, when tracing, each pass's per-layer metrics.
    """
    order = workloads.op_order(workload, seed)
    latencies: list[list[float]] = [[] for _ in order]
    failures: list[str] = []
    layers: list[dict] = []
    timed = 0.0
    while not latencies[0] or (timed < seconds and time.monotonic() - started < DEADLINE_S):
        cache = tmp / f"cache-pass-{len(latencies[0])}"
        if setup.snapshot is not None:
            shutil.copytree(setup.snapshot, cache)
        set_cache_dir(cache)
        for argv, position in zip(order, latencies):
            code, stdout, stderr, dt = client.call(argv)
            position.append(dt)
            timed += dt
            errors = client.checker.errors(argv, code, stdout)
            if errors:
                failures.append(f"{op_key(argv)}: {'; '.join(errors)} {stderr.strip()[-200:]}")
            if time.monotonic() - started > DEADLINE_S:
                break
        shutil.rmtree(cache, ignore_errors=True)
        if client.tracer is not None:
            layers.append(client.tracer.take())
        if len(setup.import_s) < SETUP_SAMPLES and timed >= len(setup.import_s) * seconds / SETUP_SAMPLES:
            setup.sample()
    return latencies, failures, timed, layers


def settle(layers: list[dict]) -> dict:
    """Per-layer metrics of a run: counts of the first pass (every pass does
    the same work), and each time at its fastest pass."""
    out = dict(layers[0])
    for name, (_, unit) in out.items():
        if unit == "s":
            out[name] = (min(p[name][0] for p in layers), unit)
    return out


def percentile(values: list[float], pct: float) -> float:
    """Linearly interpolated percentile of `values`."""
    ordered = sorted(values)
    pos = pct / 100 * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    started = time.monotonic()
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".perfbench_tmp"))
    try:
        sys.path.insert(0, str(SRC))
        import zsumfree.cli as cli
        if not Path(cli.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"zsumfree was imported from {cli.__file__}, not from {SRC}")
        tracer = None
        if trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        client = Client(cli, Checker(load_digests()), tracer)
        setup = SetUp(client, workload, tmp)
        setup.sample()
        latencies, failures, timed, layers = run_passes(
            client, setup, workload, seed, seconds, tmp, started
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # Each issued op counts at the fastest latency its deck position reached in
    # this run: the passes repeat identical work, so the spread between them is
    # contention from other tenants of the host, which the minimum filters out.
    settled = [min(position) for position in latencies for _ in position]
    passes = len(latencies[0])
    attempted, failed = len(settled), len(failures)
    ops_per_s = (attempted - failed) / sum(settled)
    p50_s = statistics.median(settled)
    tail_s = percentile(settled, TAIL_PERCENTILE)
    beyond = sum(dt > tail_s for position in latencies for dt in position if min(position) > tail_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    import_s, prefill_s = setup.seconds()
    setup_s = import_s + prefill_s
    for line in setup.errors + failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(
        f"{workload} seed={seed} trace={int(trace)}: {passes} passes, {attempted} ops in {timed:.2f} s; "
        f"ops_per_s={ops_per_s:.4f} 1/s, op_p50_ms={p50_s * 1e3:.3f} ms, "
        f"op_tail_ms={tail_s * 1e3:.3f} ms (p{TAIL_PERCENTILE} of {attempted} ops, {beyond} measured beyond), "
        f"peak_rss_mb={peak_rss_mb:.2f} MB, setup_s={setup_s:.4f} s "
        f"(median of {len(setup.import_s)}: import {import_s:.4f} s + prefill {prefill_s:.4f} s), "
        f"failed_frac={failed / attempted:.4f} ({failed}/{attempted})"
    )
    if trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in settle(layers).items()}
        metrics["setup.import_s"] = {"value": import_s, "unit": "s"}
        metrics["setup.prefill_s"] = {"value": prefill_s, "unit": "s"}
        metrics["trace.ops_per_s"] = {"value": ops_per_s, "unit": "1/s"}
    else:
        metrics = {
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": p50_s * 1e3, "unit": "ms"},
            "op_tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    result = {
        "correct": not failures and not setup.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zsumfree" / "cli.py").is_file():
        print(f"no zsumfree sources under {SRC}; run from the root of a source tree", file=sys.stderr)
        return 2
    if args.workload == "all":
        code = 0
        for workload in workloads.WORKLOADS:
            code |= subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, timeout=180,
            ).returncode
        return code
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
