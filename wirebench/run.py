#!/usr/bin/env python3
"""Build and run the over-the-wire WipDB benchmark.

    python3 wirebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 wirebench/run.py --smoke

Run from the root of a source tree. The first form builds
wirebench/main.exe with dune, runs one workload and passes its output
through; the last line of standard output is the run's JSON result and the
exit code is the program's (1 on a wrong read or a lost acknowledged
write). --smoke runs every workload at tiny size, traced and untraced,
and checks that each metric BENCHMARK.json names is printed with its unit.

Everything the run writes stays in the tree: dune's _build/ and the
benchmark's scratch directory .wirebench/ (temporary stores, span files,
the Runtime_events ring). The dune cache is disabled for the build.
"""

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".wirebench")
EXE = os.path.join(ROOT, "_build", "default", "wirebench", "main.exe")
RUN_TIMEOUT_S = 170
# Every workload main.exe runs; BENCHMARK.json gates a subset of them.
WORKLOADS = ("put_uniform", "get_zipf_hot", "scan_zipf_cold")


def fail(msg):
    print("wirebench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "lib", "wirebench/dune"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s under %s: run from a full source tree" % (needed, ROOT))
    if shutil.which("dune") is None:
        fail("dune not found")
    tmp = os.path.join(SCRATCH, "build-tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "-j", "2", "./wirebench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        fail("build failed")


def clean_stores():
    """Remove what a run that died early may leave: its temporary stores
    and its Runtime_events ring file."""
    for d in glob.glob(os.path.join(SCRATCH, "tmp-*")):
        shutil.rmtree(d, ignore_errors=True)
    for f in glob.glob(os.path.join(SCRATCH, "*.events")):
        os.remove(f)


def run(args, capture=False):
    """Run main.exe with [args]; return (exit code, stdout or None)."""
    os.makedirs(SCRATCH, exist_ok=True)
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=SCRATCH)
    cmd = [EXE, "--out", SCRATCH] + args
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env,
        stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        clean_stores()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    clean_stores()
    return proc.returncode, out


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bad = []
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run(["--workload", name, "--seed", "1",
                             "--seconds", "1", "--trace", str(trace),
                             "--smoke"], capture=True)
            lines = out.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                bad.append("%s trace=%d: no JSON result" % (name, trace))
                continue
            if code != 0 or not result["correct"]:
                bad.append("%s trace=%d: run incorrect (exit %d)"
                           % (name, trace, code))
            got = result["metrics"]
            for m in spec[key]:
                g = got.get(m["name"])
                if g is None:
                    bad.append("%s trace=%d: missing %s"
                               % (name, trace, m["name"]))
                elif g["unit"] != m["unit"]:
                    bad.append("%s trace=%d: %s unit %s, expected %s"
                               % (name, trace, m["name"], g["unit"],
                                  m["unit"]))
            extra = set(got) - {m["name"] for m in spec[key]}
            if extra:
                bad.append("%s trace=%d: unlisted metrics %s"
                           % (name, trace, sorted(extra)))
            print("smoke %-16s trace=%d: %d metrics, attempted %d"
                  % (name, trace, len(got), result["attempted"]))
    for b in bad:
        print("smoke: " + b, file=sys.stderr)
    return 1 if bad else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    build()
    if a.smoke:
        sys.exit(smoke())
    if not a.workload:
        fail("--workload is required")
    code, _ = run(["--workload", a.workload, "--seed", str(a.seed),
                   "--seconds", str(a.seconds), "--trace", str(a.trace)])
    sys.exit(code)


if __name__ == "__main__":
    main()
