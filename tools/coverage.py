#!/usr/bin/env python3
"""Line coverage of src/ by the product binaries alone.

Builds a Debug tree with `--coverage` (plain CMake flags, no project
option), runs only what a user runs -- every bench figure/table binary
at --quick, the pmodv-trace subcommands, pmodv-fuzz at K = 1 and 3 and
the examples -- and merges the counts of every translation unit with
gcov. It prints executed/executable src/ lines per directory, then
every src/ function that never ran. Tests, gbench binaries and
perfbench are not run, so code that only they reach shows up as never
run. This is a report for finding such code, not a gate.

Usage:
    python3 tools/coverage.py [--build-dir build-cov] [--jobs N]
                              [--gcov gcov-12]
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def targets(cmake_file, function):
    """Names passed to @p function in @p cmake_file (one per call)."""
    with open(os.path.join(ROOT, cmake_file)) as f:
        return re.findall(r"^%s\((\S+)\)" % function, f.read(), re.M)


def run(cmd, cwd, expect_ok=True):
    """Run @p cmd in @p cwd; report a failure without stopping."""
    print("+", " ".join(cmd), flush=True)
    r = subprocess.run(cmd, cwd=cwd, stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, text=True)
    if (r.returncode == 0) != expect_ok:
        print("  exit %d: %s" % (r.returncode, r.stderr.strip()[-300:]),
              flush=True)


def run_products(build, work, jobs):
    b = lambda *p: os.path.join(build, *p)
    for name in targets("bench/CMakeLists.txt", "pmodv_add_bench"):
        # fig_tail's report is the input of `pmodv-trace explain` below.
        json_out = ["--json", "tail.json"] if name == "fig_tail" else []
        run([b("bench", name), "--quick", "--jobs", str(jobs)] + json_out,
            work)

    trace = b("tools", "pmodv-trace")
    run([trace, "capture", "avl.trc", "avl", "--pmos", "16", "--ops",
         "2000"], work)
    run([trace, "capture", "kv.trc", "kv", "--pmos", "64", "--ops",
         "2000"], work)
    run([trace, "info", "avl.trc"], work)
    run([trace, "dump", "avl.trc", "--limit", "20"], work)
    run([trace, "convert", os.path.join(ROOT, "tests", "data",
                                        "micro_v1.trace"), "v2.trc"], work)
    run([trace, "replay", "avl.trc", "--jobs", str(jobs), "--trace-out",
         "replay_trace.json"], work)
    run([trace, "explain", "tail.json"], work)
    run([trace, "explain", "--replay", "kv.trc", "--scheme", "libmpk",
         "--scheme", "domain_virt", "--k", "8"], work)

    fuzz = b("tools", "pmodv-fuzz")
    for cores in ("1", "3"):
        run([fuzz, "--iters", "20", "--seed", "1", "--cores", cores,
             "--quiet"], work)
    # A planted bug must be caught, so these exit non-zero.
    for bug in ("mpk-drop-revoke", "batch-reset-stat"):
        run([fuzz, "--iters", "20", "--seed", "1", "--quiet",
             "--inject-bug", bug], work, expect_ok=False)

    for name in targets("examples/CMakeLists.txt", "pmodv_add_example"):
        run([b("examples", name)], work)


def gcov_reports(build, gcov):
    """One parsed gcov JSON document per translation unit."""
    gcdas = [os.path.join(d, f) for d, _, fs in os.walk(build)
             for f in fs if f.endswith(".gcda")]
    for i in range(0, len(gcdas), 64):
        out = subprocess.run([gcov, "--json-format", "--stdout"] +
                             gcdas[i:i + 64], cwd=build, check=True,
                             capture_output=True, text=True).stdout
        for doc in out.splitlines():
            if doc.strip():
                yield json.loads(doc)


def merge(build, gcov):
    """Merge every TU's counts for the files under src/.

    A line is executable if any TU compiled it and executed if any ran
    it; a function (keyed by file and first line, so all template
    instantiations count as one) ran if any instantiation ran.
    """
    src = os.path.join(ROOT, "src") + os.sep
    lines = defaultdict(int)
    funcs = {}
    for doc in gcov_reports(build, gcov):
        cwd = doc.get("current_working_directory", build)
        for f in doc["files"]:
            path = os.path.normpath(os.path.join(cwd, f["file"]))
            if not path.startswith(src):
                continue
            rel = os.path.relpath(path, ROOT)
            for ln in f["lines"]:
                lines[(rel, ln["line_number"])] += ln["count"]
            for fn in f["functions"]:
                key = (rel, fn["start_line"])
                name, ran = funcs.get(key, (fn["demangled_name"], 0))
                funcs[key] = (name, ran + fn["execution_count"])
    return lines, funcs


def report(lines, funcs):
    per_dir = defaultdict(lambda: [0, 0])
    for (rel, _), count in lines.items():
        d = "/".join(rel.split("/")[:2])
        per_dir[d][1] += 1
        per_dir[d][0] += count > 0
    total = [0, 0]
    print("\nsrc/ lines run by the product binaries "
          "(merged across translation units)")
    print("%-16s %9s %11s %7s" % ("directory", "executed", "executable",
                                  "pct"))
    for d in sorted(per_dir):
        hit, all_ = per_dir[d]
        total[0] += hit
        total[1] += all_
        print("%-16s %9d %11d %6.1f%%" % (d, hit, all_, 100.0 * hit / all_))
    print("%-16s %9d %11d %6.1f%%" % ("total", total[0], total[1],
                                      100.0 * total[0] / max(total[1], 1)))
    never = sorted((k, n) for k, (n, ran) in funcs.items() if ran == 0)
    print("\nsrc/ functions that never ran (%d):" % len(never))
    for (rel, line), name in never:
        print("  %s:%d  %s" % (rel, line, name))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build-dir", default=os.path.join(ROOT, "build-cov"))
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--gcov", default="gcov-12")
    args = ap.parse_args()
    build = os.path.abspath(args.build_dir)

    subprocess.run(["cmake", "-B", build, "-S", ROOT,
                    "-DCMAKE_BUILD_TYPE=Debug",
                    "-DCMAKE_CXX_FLAGS=--coverage"], check=True)
    products = (targets("bench/CMakeLists.txt", "pmodv_add_bench") +
                targets("examples/CMakeLists.txt", "pmodv_add_example") +
                ["pmodv-trace", "pmodv-fuzz"])
    subprocess.run(["cmake", "--build", build, "-j", str(args.jobs),
                    "--target"] + products, check=True)

    # Count this run only.
    for d, _, fs in os.walk(build):
        for f in fs:
            if f.endswith(".gcda"):
                os.remove(os.path.join(d, f))
    work = os.path.join(build, "coverage-run")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run_products(build, work, args.jobs)
    report(*merge(build, args.gcov))
    return 0


if __name__ == "__main__":
    sys.exit(main())
