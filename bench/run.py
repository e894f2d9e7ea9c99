"""rfekit benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {train,casework} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout. Inputs are generated by the program in a
separate process (bench/gen_inputs.py), cached under .bench_work/inputs by
(workload, seed, size, source hash). This process then repeats the workload's
pass until the next pass would end after ``--seconds``, at least once, and
times the workload's set-up 40 times at even intervals between the ops (set-up
time does not count toward ``--seconds``) and reports the median. Every time
is wall time; bench/rationale.json says what each workload and metric stands
for.

With ``--trace 0`` the last stdout line holds the end-to-end metrics of
BENCHMARK.json. With ``--trace 1`` the same untraced measurement runs first,
then one more pass with every public rfekit layer wrapped by bench/spans.py,
and the last line holds the per-layer metrics, the traced op median and the
tracing overhead against the untraced one. The line before the last records
the environment, input sizes, sample counts and the output fingerprint.

Every pass's outputs are checked (acceptance floors on every seed; the
fingerprints in bench/fingerprints.json and the golden RFE #3 draft on seed
42). A failed check marks every op of the run failed, prints
``"correct": false`` and exits 1. A checkout without ``src/rfekit`` exits 2
without a result line.
"""

from __future__ import annotations

import os

# Pin BLAS threads before anything imports numpy; the generator process
# inherits the same environment.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 40
CACHED_INPUTS = 4  # input sets kept under .bench_work/inputs
GENERATE_TIMEOUT_S = 150


class HarnessError(Exception):
    """The benchmark cannot run here (no program, inputs failed, ...)."""


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rfekit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    digest.update((BENCH / "gen_inputs.py").read_bytes())
    return digest.hexdigest()


def inputs_for(workload: str, seed: int, smoke: bool) -> Path:
    """Generated inputs for (workload, seed, size), made once per source tree."""
    cache = WORK / "inputs"
    key = hashlib.sha256(
        json.dumps([workload, seed, smoke, source_digest()]).encode()
    ).hexdigest()[:16]
    entry = cache / f"{workload}-{seed}{'-smoke' if smoke else ''}-{key}"
    if entry.is_dir():
        os.utime(entry)
        return entry
    tmp = cache / f".tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "gen_inputs.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(tmp)] + (["--smoke"] if smoke else [])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=GENERATE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(tmp, ignore_errors=True)
        raise HarnessError("input generation timed out") from None
    if done.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise HarnessError(f"input generation failed:\n{done.stderr.strip()}")
    os.replace(tmp, entry)
    entries = sorted((p for p in cache.iterdir() if not p.name.startswith(".")),
                     key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in entries[CACHED_INPUTS:]:
        shutil.rmtree(stale, ignore_errors=True)
    return entry


def import_program():
    if not (SRC / "rfekit" / "__init__.py").is_file():
        raise HarnessError(f"no program to measure: {SRC / 'rfekit'} is missing")
    sys.path.insert(0, str(SRC))
    import rfekit
    import rfekit.cli  # noqa: F401  (imports are not part of any metric)

    if Path(rfekit.__file__).resolve().parent != (SRC / "rfekit").resolve():
        raise HarnessError(f"imported rfekit from {rfekit.__file__}, not {SRC}")


def environment(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def run_pass(workload, index: int, samples, between=lambda: None) -> None:
    from workloads import run_cli

    for kind, block, argv in workload.ops(index):
        samples.record(kind, block, *run_cli(argv))
        between()


def measure(workload, seconds: float, samples) -> tuple[int, list[float]]:
    """Run passes until the next would end after ``seconds``, timing a set-up
    whenever the run is another 1/SETUP_REPEATS of ``seconds`` further.

    Returns the pass count and the set-up times. Set-up time does not count
    toward ``seconds``.
    """
    setups: list[float] = []
    start = time.perf_counter()

    def time_setup():
        begin = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - begin)

    def between():
        elapsed = time.perf_counter() - start - sum(setups)
        while len(setups) < min(SETUP_REPEATS, SETUP_REPEATS * elapsed / seconds):
            time_setup()

    time_setup()
    passes = 0
    while True:
        run_pass(workload, passes, samples, between)
        passes += 1
        elapsed = time.perf_counter() - start - sum(setups)
        if elapsed * (passes + 1) / passes > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        time_setup()
    return passes, setups


def check(workload, passes: range, seed: int, smoke: bool, fingerprints: dict):
    """(fingerprint, problems) over the outputs of every pass in ``passes``."""
    problems: list[str] = []
    fingerprint = None
    for index in passes:
        found, issues = workload.check_pass(index, floors=not smoke)
        problems += issues
        if fingerprint is None:
            fingerprint = found
        elif found != fingerprint:
            problems.append(f"pass {index} output differs from pass {passes[0]}")
    expected = fingerprints.get(str(seed), {}).get(
        "smoke" if smoke else "full", {}).get(workload.name)
    if expected is not None and expected != fingerprint:
        problems.append(f"fingerprint mismatch: expected {expected}, got {fingerprint}")
    problems += workload.extra_checks(ROOT)
    return fingerprint, problems


def main() -> int:
    parser = argparse.ArgumentParser(description="rfekit benchmark (one run)")
    parser.add_argument("--workload", required=True,
                        choices=("train", "casework"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the harness's own tests")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    fingerprints = json.loads((BENCH / "fingerprints.json").read_text("utf-8"))
    try:
        import_program()
        inputs = inputs_for(args.workload, args.seed, args.smoke)
    except HarnessError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    import spans
    from workloads import WORKLOADS, Samples

    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](inputs, work)
        samples = Samples()
        passes, setups = measure(workload, args.seconds, samples)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        end_to_end = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "op_p50_ms": workload.op_p50_ms(samples),
            "op_tail_ms": workload.op_tail_ms(samples),
            "items_per_s": workload.items_per_s(samples),
        }
        details = workload.details(samples)

        layers = None
        if args.trace:
            traced = Samples()
            tracer = spans.Tracer(workload.rfe_ids_by_case())
            tracer.install()
            try:
                run_pass(workload, passes, traced)
            finally:
                tracer.uninstall()
            traced_p50 = workload.op_p50_ms(traced)
            layers = tracer.layer_metrics()
            layers["trace.op_p50_ms"] = traced_p50
            layers["trace.overhead_pct"] = 100 * (traced_p50 / end_to_end["op_p50_ms"] - 1)
            tag = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
            tracer.write(WORK / "spans" / f"{tag}.jsonl")
            samples.ops += traced.ops
            samples.failures += traced.failures
            passes += 1

        fingerprint, problems = check(workload, range(passes), args.seed,
                                      args.smoke, fingerprints)
        problems += samples.failures
        attempted = len(samples.ops)
        correct = not problems
        failed = samples.count("failed") if correct else attempted
        details.update(error_rate=failed / attempted, attempted=attempted,
                       failed=failed, passes=passes, setup_repeats=SETUP_REPEATS)
        print(json.dumps({
            "environment": environment(args),
            "inputs": workload.sizes(),
            "details": details,
            "fingerprint": fingerprint,
        }, sort_keys=True))
        for problem in problems:
            print(f"bench: {problem}", file=sys.stderr)

        listed = spec["per_layer"] if args.trace else spec["end_to_end"]
        values = layers if args.trace else end_to_end
        if set(values) != {m["name"] for m in listed}:
            raise HarnessError(
                f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(m['name'] for m in listed)}"
            )
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in listed},
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
