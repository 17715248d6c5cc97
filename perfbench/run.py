#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload hotpotato-n32 --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --trace both

Everything the build and the runs write goes under .bench_build/ at the
root: the Go build cache, the binary, checkpoint directories and the spans
of traced runs. For a single workload and trace setting the last line of
standard output is the benchmark's JSON result. With --workload all or
--trace both, each combination runs in its own process (so peak memory is
never shared between workloads), its output is printed in turn, and the
last line merges their results with metrics named <workload>/<metric>.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["hotpotato-n32", "phold-kernel"]


def go_env():
    """Keep every file the go tool writes inside the checkout."""
    env = dict(os.environ)
    for key, sub in [("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("GOTMPDIR", "gotmp"),
                     ("XDG_CONFIG_HOME", "config")]:
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOFLAGS="", GOWORK="off", GOTOOLCHAIN="local", GOPROXY="off",
               CGO_ENABLED="0")
    return env


def source_digest():
    """SHA-256 over the module's Go sources and go.mod files. It names the
    code a result measured even where the commit cannot: in a tree with
    uncommitted changes, or in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames
                             if not d.startswith(".") and d != "testdata")
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git(*args):
    """Output of a git command at the root, or None where it fails."""
    try:
        out = subprocess.run(["git"] + list(args), cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_commit():
    """HEAD's commit, with "-dirty" appended when the work tree differs
    from it; "" where the root is not the top of a git repository."""
    top = git("rev-parse", "--show-toplevel")
    if not top or os.path.realpath(top) != os.path.realpath(ROOT):
        return ""
    head = git("rev-parse", "HEAD")
    if not head:
        return ""
    status = git("status", "--porcelain")
    return head + ("-dirty" if status is None or status else "")


def build():
    binary = os.path.join(BUILD, "perfbench")
    try:
        proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE,
                              env=go_env())
    except OSError as err:
        sys.exit("perfbench: cannot run the go tool: %s" % err)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed")
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="one of %s, or all" % ", ".join(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", default="0", choices=["0", "1", "both"])
    args = ap.parse_args()

    # The benchmark measures the repository's own packages; outside a full
    # checkout there is nothing to build.
    if not (os.path.isfile(os.path.join(ROOT, "go.mod")) and
            os.path.isdir(os.path.join(ROOT, "internal", "core"))):
        sys.exit("perfbench: %s is not a checkout of the repository "
                 "(no go.mod or internal/core)" % ROOT)

    binary = build()
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    commit, digest = git_commit(), source_digest()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    traces = ["0", "1"] if args.trace == "both" else [args.trace]
    single = len(names) == 1 and len(traces) == 1

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in traces:
            cmd = [binary, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", trace,
                   "--tmp", tmp, "--spans", os.path.join(BUILD, "spans"),
                   "--commit", commit, "--source-sha256", digest]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            sys.stdout.write(proc.stdout)
            sys.stdout.flush()
            if proc.returncode != 0:
                sys.exit(proc.returncode)
            if single:
                return
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            merged["correct"] = merged["correct"] and res["correct"]
            merged["attempted"] += res["attempted"]
            merged["failed"] += res["failed"]
            for metric, value in res["metrics"].items():
                merged["metrics"][name + "/" + metric] = value
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
