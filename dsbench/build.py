"""Build file of the densest-subgraph benchmark.

Compiles the program (`src/main/scala`) together with the benchmark harness
(`dsbench/src`) with the Scala 2.13 compiler that ships in Spark's jar
directory, into `$CARGO_TARGET_DIR/classes` (default `.bench_build/classes`)
under the current directory. A stamp over the sources' contents skips the
compile when nothing changed.

    python3 dsbench/build.py        # prints the class directory
"""
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
COMPILER = "scala-compiler-2.13.17.jar"  # the scalaVersion of build.sbt


def spark_jars() -> pathlib.Path:
    """The first of `$SPARK_HOME/jars` and the `jars` beside each
    `spark-submit` on the PATH that holds the Scala 2.13.17 compiler."""
    homes = [os.environ.get("SPARK_HOME", "")]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        submit = pathlib.Path(d or ".") / "spark-submit"
        if submit.is_file():
            homes.append(str(submit.resolve().parent.parent))
    for home in filter(None, homes):
        jars = pathlib.Path(home) / "jars"
        if (jars / COMPILER).is_file():
            return jars
    raise SystemExit(f"build: no {COMPILER} under $SPARK_HOME or beside spark-submit on the PATH")


def build_dir() -> pathlib.Path:
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()


def sources(root: pathlib.Path) -> list:
    program = root / "src" / "main" / "scala"
    found = sorted(program.rglob("*.scala")) if program.is_dir() else []
    if not found:
        raise SystemExit(f"build: no program sources under {program}")
    return found + sorted((HERE / "src").rglob("*.scala"))


def build() -> pathlib.Path:
    """Compile if the sources changed; return the class directory."""
    root = pathlib.Path.cwd()
    srcs = sources(root)
    jars = spark_jars()
    digest = hashlib.sha256(str(jars).encode())
    for f in srcs:
        digest.update(str(f.relative_to(root)).encode())
        digest.update(f.read_bytes())
    stamp = digest.hexdigest()

    out = build_dir()
    classes = out / "classes"
    if (classes / ".stamp").is_file() and (classes / ".stamp").read_text() == stamp:
        return classes

    tmp = out / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    (out / "tmp").mkdir(exist_ok=True)
    cmd = ["java", "-Xss8m", "-Xmx1g", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={out / 'tmp'}",
           "-cp", f"{jars}/*", "scala.tools.nsc.Main",
           "-usejavacp", "-nowarn", "-d", str(tmp)] + [str(f) for f in srcs]
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise SystemExit(f"build: scalac exited with {done.returncode}")
    (tmp / ".stamp").write_text(stamp)
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    return classes


if __name__ == "__main__":
    print(build())
