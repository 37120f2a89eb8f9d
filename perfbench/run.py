#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py selftest
    python3 perfbench/run.py derive-refs --seconds <s>

Run from anywhere inside a source tree: the library and the benchmark are
configured and built from source (Release) into .bench_build/perfbench at
the root of the tree; later runs rebuild incrementally.  Build output goes
to .bench_build/perfbench/build.log.

A workload run forwards its arguments to the perfbench binary, whose last
line of standard output is the JSON result.  Traced runs (--trace 1) also
write their spans as Chrome trace-event JSON to
.bench_build/perfbench/traces/<workload>-seed<n>.json.

`selftest` builds and runs the benchmark's own tests.  `derive-refs` runs
several registry solvers for the given seconds each on every solver
workload's instance and lowers perfbench/references.json where one of them
beats the stored best-known energy.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REFS = os.path.join(HERE, "references.json")


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no library sources (CMakeLists.txt and src/) next to "
             "perfbench/ in " + ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                rc = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                    cwd=ROOT).returncode
            except OSError as e:
                fail("cannot run %s: %s" % (step[0], e), 1)
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build step failed: " + " ".join(step), 1)
    return os.path.join(BUILD, target)


def option(args, name):
    """Value following --name in args, or None."""
    flag = "--" + name
    return args[args.index(flag) + 1] if flag in args[:-1] else None


def main(argv):
    if argv[:1] == ["selftest"]:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    if argv[:1] == ["derive-refs"]:
        seconds = option(argv, "seconds") or "60"
        binary = build("perfbench")
        sys.exit(subprocess.run([binary, "derive-refs", "--refs", REFS,
                                 "--seconds", seconds]).returncode)

    for name in ("workload", "seed", "seconds", "trace"):
        if option(argv, name) is None:
            fail("missing --%s\n%s" % (name, __doc__.strip()))
    if not os.path.isfile(REFS):
        fail("missing " + REFS)
    binary = build("perfbench")
    command = [binary] + argv + ["--refs", REFS]
    if option(argv, "trace") == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%s.json" % (option(argv, "workload"),
                                        option(argv, "seed")))]
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
