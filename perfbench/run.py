#!/usr/bin/env python3
"""Humboldt benchmark: one seeded closed-loop workload against the program.

    python3 perfbench/run.py --workload search|explore|extract \
        --seed N --seconds S --trace 0|1

Builds the program and the benchmark runner from this checkout's sources
(sbt, offline), then runs the runner in one JVM. The runner prints a line
with the run's environment and samples, and then, as the last line of
stdout, the result object: {"correct", "attempted", "failed", "metrics"}.
Build output, scratch data and span files stay under .bench_build/.
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
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("search", "explore", "extract")
RUN_TIMEOUT_S = 170  # a run must end within 180 s
BUILD_TIMEOUT_S = 700  # with one run, within the 900 s a first run may take

# Spark on JDK 17+ needs these modules opened (as spark-submit does).
ADD_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"),
             os.path.join(HERE, "src")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def build():
    """Compile with sbt when the sources changed; return the classpath."""
    stamp = hashlib.sha256()
    for f in source_files():
        stamp.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            stamp.update(fh.read())
    stamp = stamp.hexdigest()
    cp_file, stamp_file = os.path.join(BUILD, "classpath.txt"), os.path.join(BUILD, "stamp")
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                with open(cp_file) as cf:
                    return cf.read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "SBT_OPTS" not in env:
        opts = ["-Dsbt.offline=true", "-Xmx2g"]
        repos = os.path.expanduser("~/.sbt/repositories")
        if os.path.exists(repos):
            opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
        env["SBT_OPTS"] = " ".join(opts)
    out = run_child(["sbt", "--batch", "-Dsbt.log.noformat=true", "compile",
                     "export Runtime/fullClasspath"], HERE, env, BUILD_TIMEOUT_S)
    if out is None or out[0] != 0:
        sys.stderr.write(out[1] if out else "")
        fail("build failed")
    classpath = out[1].strip().splitlines()[-1].strip()
    if "repro-perfbench" not in classpath and ".bench_build" not in classpath:
        fail("could not read the classpath from sbt")
    with open(cp_file, "w") as fh:
        fh.write(classpath)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return classpath


def run_child(cmd, cwd, env, timeout):
    """Run a child in its own process group and wait for it; kill the group
    on timeout or when this script is terminated."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)

    def stop(*_):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(3)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    if proc.returncode != 0:
        return proc.returncode, out + err
    return 0, out


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    for needed in ("src/main/scala/repro", "jobs/JobSession.scala", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")
    os.makedirs(BUILD, exist_ok=True)
    classpath = build()

    cores = min(len(os.sched_getaffinity(0)), 4)
    tag = f"{a.workload}-{a.seed}-{a.trace}-{os.getpid()}"
    work = os.path.join(BUILD, "work", tag)
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    spans = os.path.join(BUILD, "spans", f"{a.workload}-seed{a.seed}.jsonl")
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(work, "spark-local"))
    cmd = (["java", "-Xms1g", "-Xmx2g"] + [f"--add-opens={m}=ALL-UNNAMED" for m in ADD_OPENS] +
           [f"-Dspark.master=local[{cores}]", "-Dspark.ui.enabled=false",
            "-Dspark.driver.host=127.0.0.1", f"-Djava.io.tmpdir={tmp}",
            "-cp", classpath, "repro.perfbench.Main",
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--work", work, "--spans", spans])
    try:
        out = run_child(cmd, ROOT, env, RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if out is None:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if out[0] != 0:
        log = os.path.join(BUILD, "logs", f"{tag}.log")
        os.makedirs(os.path.dirname(log), exist_ok=True)
        with open(log, "w") as fh:
            fh.write(out[1])
        sys.stderr.write("\n".join(out[1].splitlines()[-30:]) + "\n")
        fail(f"runner exited with {out[0]}; full output in {log}")
    lines = [l for l in out[1].splitlines() if l.startswith("{")]
    if len(lines) < 2:
        fail("runner printed no result")
    result = json.loads(lines[-1])
    want = declared_metrics(a.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    print(lines[-2])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
