#!/usr/bin/env python3
"""Runs the benchmark: builds perfbench, generates a seed's inputs, runs one
workload and prints its metrics.

    python3 perfbench/run.py --workload feed|explore|ingest --seed N \
        --seconds S --trace 0|1 [--tiny]

Run it from the repository root. Everything it builds and writes lives in
the build directory ($CARGO_TARGET_DIR, default .bench_build): the CMake
tree, one input set per seed (generated once by perfbench_gen, outside the
measured process), a private copy of the KB per run and, for traced runs,
the span file. The last stdout line is the JSON result of perfbench_run;
the exit code is non-zero when the build, the generator, the run or an
output check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the two perfbench binaries (incremental)."""
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "-j3",
                "--target", "perfbench_gen", "perfbench_run"]
    for cmd in (configure, compile_):
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def inputs_for(build_dir, seed, tiny):
    """The seed's input directory, generating it on first use."""
    gen = os.path.join(build_dir, "perfbench_gen")
    stamp_text = f"{os.path.getsize(gen)} {os.stat(gen).st_mtime_ns}\n"
    name = f"seed-{seed}" + ("-tiny" if tiny else "")
    path = os.path.join(build_dir, "inputs", name)
    stamp = os.path.join(path, "generator.stamp")
    if os.path.exists(stamp):
        with open(stamp) as f:
            if f.read() == stamp_text:
                return path
    shutil.rmtree(path, ignore_errors=True)
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [gen, "--seed", str(seed), "--out", tmp] + (["--tiny"] if tiny else [])
    if subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode != 0:
        log("input generation failed")
        return None
    with open(os.path.join(tmp, "generator.stamp"), "w") as f:
        f.write(stamp_text)
    os.rename(tmp, path)
    return path


def fresh_kb_copy(inputs, path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    for name in ("kb.snap", "kb.log"):
        shutil.copyfile(os.path.join(inputs, name), os.path.join(path, name))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["feed", "explore", "ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny deployment (self-test only)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="perturb reference lists (self-test only)")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    if not build(build_dir):
        return 1
    inputs = inputs_for(build_dir, args.seed, args.tiny)
    if inputs is None:
        return 1

    tag = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work = os.path.join(build_dir, "work", tag)
    fresh_kb_copy(inputs, os.path.join(work, "untraced"))
    cmd = [os.path.join(build_dir, "perfbench_run"),
           "--workload", args.workload, "--inputs", inputs,
           "--work", os.path.join(work, "untraced"),
           "--seconds", str(args.seconds)]
    if args.trace:
        fresh_kb_copy(inputs, os.path.join(work, "traced"))
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--trace", "--trace-work", os.path.join(work, "traced"),
                "--spans", os.path.join(spans_dir, tag + ".jsonl")]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S}s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        log(f"perfbench_run exited with {done.returncode}")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
