#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload lookup|oltp|durable|reproduce \
        --seed N --seconds S --trace 0|1

The script builds the Go program in perfbench/ (its own module, which
imports the repository's module from the parent directory) into
.bench_build/, keeping the Go build cache, temporary files and every
other output under that directory, then runs it with the given flags.
The program's standard output is passed through; its last line is the
JSON result. The script exits non-zero, printing no result, when the
build or the run fails or overruns its time limit.

The benchmark's self-test runs every workload at a small size and
checks that it emits exactly the metrics BENCHMARK.json names and that
a planted wrong expectation fails: `cd perfbench && go test`.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    for d in (build, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
    })
    binary = os.path.join(build, "perfbench")
    try:
        res = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                             stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if res.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    commit = "unknown"
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                             timeout=10, env=dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(root)))
        if git.returncode == 0:
            commit = git.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass

    cmd = [binary, "--out", build, "--commit", commit] + sys.argv[1:]
    proc = subprocess.Popen(cmd, cwd=root, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
