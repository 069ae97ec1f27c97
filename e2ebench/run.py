#!/usr/bin/env python3
"""End-to-end served benchmark of the OREO engine.

Builds the benchmark binary from source (e2ebench/CMakeLists.txt, which also
builds the engine library from src/), runs one workload, and prints the
result as the last line of standard output:

    python3 e2ebench/run.py --workload tpch_scan --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload tpch_scan --seed 1 --seconds 20 --trace 1
    python3 e2ebench/run.py --selftest

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The build directory is $CARGO_TARGET_DIR/e2ebench when that
variable is set, else .bench_build/e2ebench under the repository root. Each
run also writes its full report, with the run metadata (seed, source
revision, build type, nproc, kernel dispatch tier, thread counts), to
<build dir>/reports/. See e2ebench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "e2e_bench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[e2ebench] {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def run_process(cmd, timeout, capture, env=None):
    """Runs cmd in its own process group; on timeout the whole group is
    killed and reaped. Returns (exit code, captured stdout or None)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, start_new_session=True, env=env)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    """Configures and builds the binary (both no-ops once up to date);
    returns its path or None."""
    out = build_dir()
    generator = []
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "Makefile")):
        generator = ["-G", "Ninja"]
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release", *generator],
             ["cmake", "--build", out, "--target", BINARY,
              "--parallel", str(os.cpu_count() or 1)]]
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            code, _ = run_process(cmd, BUILD_TIMEOUT_S, capture=False, env=env)
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"build failed: {exc}")
            return None
        if code != 0:
            log(f"build failed: {' '.join(cmd)} exited with {code}")
            return None
    return os.path.join(out, BINARY)


def run_binary(binary, args):
    """Runs the binary; returns (report dict or None, exit code)."""
    try:
        code, out = run_process([binary, *args], RUN_TIMEOUT_S, capture=True)
    except subprocess.TimeoutExpired:
        log(f"benchmark binary timed out after {RUN_TIMEOUT_S} s")
        return None, 124
    lines = [line for line in out.decode(errors="replace").splitlines() if line.strip()]
    try:
        return json.loads(lines[-1]), code
    except (IndexError, ValueError):
        log(f"benchmark binary exited with {code} and printed no report")
        return None, code or 1


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def expected_units(trace):
    spec = benchmark_spec()
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def source_revision():
    """The git commit when the checkout is a repository, plus a digest of the
    engine and benchmark sources (a checkout may not be a repository)."""
    sha = None
    if shutil.which("git"):
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if proc.returncode == 0:
                sha = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def run_workload(binary, args):
    binary_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    report, code = run_binary(binary, binary_args)
    if report is None:
        return code or 1
    want = expected_units(args.trace)
    got = {name: m.get("unit") for name, m in report["metrics"].items()}
    if got != want:
        log(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}")
        report["correct"] = False
    sha, digest = source_revision()
    meta = dict(report.get("meta", {}), git_sha=sha, source_digest=digest)
    report["meta"] = meta
    reports = os.path.join(build_dir(), "reports")
    os.makedirs(reports, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(reports, name), "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    log("run metadata: " + json.dumps(meta, sort_keys=True))
    result = {key: report[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), flush=True)
    return 0 if code == 0 and result["correct"] else 1


def selftest(binary):
    """Tiny-scale smoke test of the benchmark itself."""
    failures = []

    def check(ok, what):
        log(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    workloads = [w["name"] for w in benchmark_spec()["workloads"]]
    for workload in workloads:
        for trace in (0, 1):
            report, code = run_binary(binary, [
                "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny"])
            label = f"{workload} --trace {trace}"
            check(report is not None and code == 0 and report["correct"],
                  f"{label}: runs, and every output check passes")
            if report is None:
                continue
            units = {name: m.get("unit") for name, m in report["metrics"].items()}
            check(units == expected_units(trace),
                  f"{label}: emits every BENCHMARK.json metric with its unit")
            if not trace:
                continue
            m = {name: v["value"] for name, v in report["metrics"].items()}
            # The replay's spans are disjoint on one thread: their sum (the
            # layers' self time) cannot exceed the replay's wall time.
            check(0.0 < m["trace.attributed_frac"] <= 1.0,
                  f"{label}: per-layer self-times sum to at most the traced wall time")
            check(m["server.batch_exec_s"] <= m["trace.served_wall_s"],
                  f"{label}: batch execution fits in the served wall time")
            if report["meta"]["shards"] == 1:
                # One shard generates on the deciding thread: nested. (Shards
                # generate in parallel, so their summed time can exceed it.)
                check(m["layout.generate_s"] <= m["core.decide_s"],
                      f"{label}: layout generation nests inside decide time")
    for workload in ("tpch_scan", "telemetry_ingest"):
        report, code = run_binary(binary, [
            "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0",
            "--scale", "tiny", "--corrupt-expected"])
        check(code != 0 and report is not None and not report["correct"],
              f"{workload}: a wrong expected count fails the run")
    log(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the tiny-scale self-test instead")
    args = parser.parse_args(argv)
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    binary = build()
    if binary is None:
        return 2
    if args.selftest:
        return selftest(binary)
    return run_workload(binary, args)


if __name__ == "__main__":
    sys.exit(main())
