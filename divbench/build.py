"""Builds the benchmark's binaries from the checkout and records provenance.

The build is divbench/CMakeLists.txt: the repo's library and `divsim` from
src/ and tools/, plus the traced harness, Release with generic codegen,
into .bench_build/divbench.  Re-running is an incremental no-op.
"""

import hashlib
import os
import subprocess

BUILD_TYPE = "Release"
CODEGEN = "generic"  # no -march=native: numbers carry over between hosts


class BuildError(RuntimeError):
    pass


def build(root, jobs):
    source = os.path.join(root, "divbench")
    build_dir = os.path.join(root, ".bench_build", "divbench")
    for needed in ("src/CMakeLists.txt", "tools/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            raise BuildError("cannot build: %s is missing from the checkout"
                             % needed)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        for argv in (["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                     ["cmake", "--build", build_dir, "-j", str(jobs)]):
            code = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT,
                                  cwd=root).returncode
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-2000:]
                raise BuildError("%s failed (exit %d):\n%s"
                                 % (" ".join(argv[:2]), code, tail))
    return {
        "divsim": os.path.join(build_dir, "divsim", "divsim"),
        "layer_trace": os.path.join(build_dir, "layer_trace"),
    }


def source_digest(root):
    """SHA-256 over src/ and tools/, which stands in for the commit when the
    checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "tools"):
        for folder, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(root, seed, threads, load_before):
    load_after = os.getloadavg()
    nproc = len(os.sched_getaffinity(0))
    return {
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "build_type": BUILD_TYPE,
        "codegen": CODEGEN,
        "nproc": nproc,
        "load_avg_before": list(load_before),
        "load_avg_after": list(load_after),
        # The guard perf_smoke.cmake applies before archiving a baseline.
        "baseline_fit": max(load_before[0], load_after[0]) <= nproc,
        "seed": seed,
        "threads": threads,
    }
