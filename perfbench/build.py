"""Build file of the benchmark.

Compiles the program's main sources (src/main/scala) together with the
benchmark's own sources (perfbench/src) using the Scala compiler that ships
in Spark's jars, then runs the pipeline-fidelity self-test. The self-test
JVM also writes a class-data sharing archive of the classes it loaded, which
halves the JVM and Spark start of every benchmark run. Output goes to
.bench_build/perfbench/ in the checkout; a build is skipped when no source
changed since the last successful one.

Usage: python3 perfbench/build.py [--selftest]
"""
import hashlib
import os
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
JAR = BUILD / "perfbench.jar"
CDS_ARCHIVE = BUILD / "classes.jsa"
STAMP = BUILD / "stamp"
COMPILE_TIMEOUT_S = 500  # with the self-test and one run, within 900 s
SELFTEST_TIMEOUT_S = 200

# The JVM flags spark-submit adds for Java 17 (Spark's JavaModuleOptions).
JVM_MODULE_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    *(f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar")),
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]
# JVM messages go to stderr, errors only: stdout carries the result. No
# perf-data file in the system temp directory either.
JVM_LOG_OPTS = ["-Xlog:disable", "-Xlog:all=error:stderr", "-XX:-UsePerfData"]


class BuildError(Exception):
    pass


def spark_jars_dir():
    """$SPARK_HOME/jars, or else the jars beside the first spark-submit on
    PATH that has them."""
    if os.environ.get("SPARK_HOME"):
        return Path(os.environ["SPARK_HOME"]) / "jars"
    for d in os.environ.get("PATH", "").split(os.pathsep):
        submit = Path(d) / "spark-submit"
        if submit.is_file() and (submit.resolve().parent.parent / "jars").is_dir():
            return submit.resolve().parent.parent / "jars"
    raise BuildError("set SPARK_HOME or put Spark's bin directory on PATH")


def spark_jars():
    jars_dir = spark_jars_dir()
    jars = sorted(jars_dir.glob("*.jar"))
    if not jars:
        raise BuildError(f"no Spark jars in {jars_dir}; set SPARK_HOME")
    return jars


def sources():
    main = ROOT / "src" / "main" / "scala"
    if not main.is_dir():
        raise BuildError(f"{main} is missing: run the benchmark from a checkout of the repository")
    # DuckDB-backed reference code is not on Spark's classpath and is not
    # part of the pipeline the benchmark times.
    program = [p for p in sorted(main.rglob("*.scala")) if "duckdb" not in p.read_text()]
    bench = sorted((HERE / "src").rglob("*.scala"))
    if not program or not bench:
        raise BuildError("no Scala sources found")
    return program + bench


def java_cmd(main_class, args, cds_opt=None):
    """The command that runs `main_class` of the built benchmark, with the
    class-data archive when there is one."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    if cds_opt is None:
        cds_opt = f"-XX:SharedArchiveFile={CDS_ARCHIVE}" if CDS_ARCHIVE.is_file() else "-Xshare:auto"
    classpath = os.pathsep.join([str(JAR), str(spark_jars_dir() / "*")])
    return ["java", "-Xms2g", "-Xmx2g", cds_opt, *JVM_LOG_OPTS, *JVM_MODULE_OPTS,
            f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
            f"-Djava.io.tmpdir={tmp}", "-cp", classpath, main_class, *args]


def java_env():
    """Spark would put its scratch space in SPARK_LOCAL_DIRS, outside the
    checkout; without it, spark.local.dir (set by the benchmark) applies."""
    env = dict(os.environ)
    env.pop("SPARK_LOCAL_DIRS", None)
    return env


def _fingerprint(srcs, jars):
    h = hashlib.sha256()
    for p in [Path(__file__).resolve(), *srcs]:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    for j in jars:
        h.update(j.name.encode())
    return h.hexdigest()


def selftest(archive=False):
    """Run the pipeline-fidelity self-test; with `archive`, its JVM writes the
    class-data archive on exit."""
    cds_opt = None
    if archive:
        CDS_ARCHIVE.unlink(missing_ok=True)
        cds_opt = f"-XX:ArchiveClassesAtExit={CDS_ARCHIVE}"
    r = subprocess.run(java_cmd("repro.perfbench.SelfTest", ["--out-dir", str(BUILD)], cds_opt),
                       cwd=ROOT, env=java_env(), stdout=sys.stderr, timeout=SELFTEST_TIMEOUT_S)
    if r.returncode != 0:
        raise BuildError("pipeline-fidelity self-test failed")


def build():
    """Compile and self-test unless the last build saw the same sources.
    Returns True when it built."""
    srcs = sources()
    jars = spark_jars()
    fp = _fingerprint(srcs, jars)
    if JAR.is_file() and STAMP.is_file() and STAMP.read_text() == fp:
        return False
    BUILD.mkdir(parents=True, exist_ok=True)
    STAMP.unlink(missing_ok=True)
    classes = BUILD / "classes"
    shutil.rmtree(classes, ignore_errors=True)
    classes.mkdir()
    compiler = [str(j) for j in jars
                if j.name.startswith(("scala-compiler-", "scala-library-", "scala-reflect-"))]
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", os.pathsep.join(compiler),
           "scala.tools.nsc.Main", "-deprecation", "-d", str(classes),
           "-classpath", os.pathsep.join(str(j) for j in jars), *map(str, srcs)]
    print(f"perfbench: compiling {len(srcs)} sources", file=sys.stderr)
    r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=COMPILE_TIMEOUT_S)
    if r.returncode != 0:
        raise BuildError("compilation failed")
    with zipfile.ZipFile(JAR, "w") as jar:
        for f in sorted(classes.rglob("*.class")):
            jar.write(f, f.relative_to(classes).as_posix())
    shutil.rmtree(classes)
    selftest(archive=True)
    STAMP.write_text(fp)
    return True


if __name__ == "__main__":
    try:
        if not build() and "--selftest" in sys.argv[1:]:
            selftest()
    except (BuildError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
