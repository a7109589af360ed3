#!/usr/bin/env python3
"""Densest-subgraph benchmark: build, run one workload, print one JSON line.

    python3 dsbench/run.py --workload exact-search --seed 1 --seconds 10 --trace 0

Run from the repository root. Builds the program and the harness with
`dsbench/build.py`, then runs `dsbench.Main` in one JVM. Everything the run
writes stays under the build directory. The last line of standard output is
the result object; it is printed only when the run ends normally.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import build  # noqa: E402

WORKLOADS = ["exact-search", "exact-onecut", "approx-large"]
TIMEOUT_S = 170
# The serial collector and a fixed heap with fixed generation sizes. The
# program runs its queries on one thread, so with the serial collector the run
# keeps about one core busy and does not depend on how the shared host
# schedules the others. The large young generation keeps young collections
# few; fixed sizes make the collections that fall inside a pass repeat from
# run to run.
JVM_FLAGS = ["-XX:+UseSerialGC", "-Xms3g", "-Xmx3g", "-Xmn2g"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()

    classes = build.build()
    out = build.build_dir()
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    here = pathlib.Path(__file__).resolve().parent
    cmd = ["java"] + JVM_FLAGS + ["-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={here / 'log4j2.properties'}",
           "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
           "--add-opens=java.base/java.nio=ALL-UNNAMED",
           "--add-opens=java.base/java.lang=ALL-UNNAMED",
           "--add-opens=java.base/java.util=ALL-UNNAMED",
           "-cp", f"{classes}{os.pathsep}{build.spark_jars()}/*",
           "dsbench.Main", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace]
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(tmp / "spark"))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        stdout, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run: killed after {TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print(stdout, file=sys.stderr)
        print(f"run: JVM exited with {proc.returncode}", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
