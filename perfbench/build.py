"""Build file of the benchmark: compiles the library and the benchmark.

The library sources (src/main/scala) and the benchmark's own sources
(perfbench/src, perfbench/test) are compiled together, with the Scala
compiler that Spark ships in its jars directory, into
.bench_build/perfbench/<hash of the sources>/classes. A build whose sources
have not changed is reused.

    python3 perfbench/build.py     # build and print the classes directory
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ["src/main/scala", "perfbench/src", "perfbench/test"]
BUILD_DIR = ROOT / ".bench_build" / "perfbench"


class BuildError(Exception):
    pass


def spark_jars() -> Path:
    """$SPARK_HOME/jars, else the jars of the first Spark on PATH that has them."""
    homes = [os.environ["SPARK_HOME"]] if os.environ.get("SPARK_HOME") else [
        str(Path(d, "spark-submit").resolve().parent.parent)
        for d in os.environ.get("PATH", "").split(os.pathsep) if Path(d, "spark-submit").is_file()]
    for home in homes:
        jars = Path(home) / "jars"
        if any(jars.glob("scala-compiler-*.jar")):
            return jars
    raise BuildError(f"no Spark jars with a Scala compiler under {homes or 'PATH'}; set SPARK_HOME")


def sources() -> list:
    lib = ROOT / SOURCE_DIRS[0]
    if not lib.is_dir():
        raise BuildError(f"library sources not found: {lib}")
    return [p for d in SOURCE_DIRS for p in sorted((ROOT / d).rglob("*.scala"))]


def build() -> Path:
    """Compile if needed; return the classes directory."""
    jars = spark_jars()
    srcs = sources()
    h = hashlib.sha256()
    for p in srcs:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    for j in sorted(jars.glob("*.jar")):
        h.update(j.name.encode() + b"\0")
    out = BUILD_DIR / h.hexdigest()[:16]
    if (out / "ok").exists():
        return out / "classes"
    shutil.rmtree(out, ignore_errors=True)
    (out / "classes").mkdir(parents=True)
    cp = os.pathsep.join(str(j) for j in sorted(jars.glob("*.jar")))
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", cp, "scala.tools.nsc.Main", "-nowarn",
           "-d", str(out / "classes"), "-classpath", cp] + [str(p) for p in srcs]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=800)
    if res.returncode != 0:
        raise BuildError("scalac failed:\n" + res.stdout[-4000:])
    (out / "ok").write_text("\n")
    for old in BUILD_DIR.iterdir():
        if old != out:
            shutil.rmtree(old, ignore_errors=True)
    return out / "classes"


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(e, file=sys.stderr)
        sys.exit(2)
