#!/usr/bin/env python3
"""LDPLFS end-to-end benchmark: the shipped LD_PRELOAD library on a real file system.

Run from the root of the repository:

    python3 perfbench/run.py --workload stream_tools --seed 1 --seconds 10 --trace 0

It builds the release `ldplfs-preload` cdylib and the benchmark's own
binaries, then runs one workload. The load comes from `perfbench-loadgen`,
which makes plain libc calls: one round is one pass of the workload's op
stream in a fresh process, run under LD_PRELOAD against the preload mount
(the preload side) or without it against a plain directory (the kernel
side). The two sides alternate, round by round.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics, adding traced rounds and the in-process `perfbench-replay` of the
same op stream through `plfs` and `ldplfs`. The last line of stdout is one
JSON object; the lines before it are a human-readable report with the
machine fingerprint. See perfbench/README.md for every metric.

    python3 perfbench/run.py --selftest

runs all three workloads at a tiny size, traced and untraced, in seconds.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["stream_tools", "ckpt_nto1", "small_files"]
# Each side runs at least this many rounds, whatever --seconds says. The
# tail percentiles are chosen from this many rounds' samples, so the
# reported percentile stays the same from run to run.
MIN_ROUNDS = {"stream_tools": 12, "ckpt_nto1": 8, "small_files": 4}
# Set-up is repeated after every round of each side, and at least this
# many times; setup_s is the median. Spread over the whole run, the set-ups
# sample the machine's speed where the rounds do, not only its first second.
SETUPS = 11
# Percentiles a tail may be reported at; the highest one with at least ten
# samples beyond it is used.
LADDER = [50.0, 90.0, 99.0, 99.9, 99.99, 99.999]
MIB = 1024 * 1024


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# No child may run longer than this; a hung child fails the run instead of
# outliving it.
CHILD_TIMEOUT_S = 120


def run_child(cmd, **kw):
    """Run a benchmark child to completion (killed at CHILD_TIMEOUT_S).

    The wait blocks in waitpid. `subprocess.run(timeout=...)` would poll
    instead, sleeping up to 50 ms between polls, which rounds the time of a
    timed child (set-up) up to the next poll."""
    expired = threading.Event()
    with subprocess.Popen(cmd, **kw) as proc:

        def kill():
            expired.set()
            proc.kill()

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            out, err = proc.communicate()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
    if expired.is_set():
        raise BenchError(f"{cmd[0]} {cmd[1]} ran longer than {CHILD_TIMEOUT_S} s")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def run_checked(cmd, **kw):
    """Run a command to completion; its stdout goes to our stderr."""
    proc = subprocess.run(cmd, stdout=sys.stderr, **kw)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}")


def build(root):
    """Build the preload library and the benchmark; return their paths."""
    target = os.path.abspath(os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        raise BenchError("no Cargo.toml here: run from the root of the repository")
    run_checked(["cargo", "build", "--release", "--offline", "-p", "ldplfs-preload"], cwd=root, env=env)
    run_checked(
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
        cwd=root,
        env=env,
    )
    rel = os.path.join(target, "release")
    paths = {
        "so": os.path.join(rel, "libldplfs_preload.so"),
        "loadgen": os.path.join(rel, "perfbench-loadgen"),
        "replay": os.path.join(rel, "perfbench-replay"),
        "noflush": os.path.join(rel, "libperfbench_noflush.so"),
    }
    for p in paths.values():
        if not os.path.isfile(p):
            raise BenchError(f"build did not produce {p}")
    return paths


def parse_lines(text):
    """Parse `key value...` lines: scalars to int, lists to lists of int."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        key, vals = parts[0], parts[1:]
        if key in ("meta_ns", "io_ns"):
            out[key] = [int(v) for v in vals]
        elif len(vals) == 1:
            out[key] = int(vals[0]) if vals[0].lstrip("-").isdigit() else vals[0]
    return out


def wall_ns(r):
    return r["write_ns"] + r["read_ns"] + r["other_ns"]


def percentile(sorted_vals, p):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_vals:
        return 0.0
    k = max(0, min(len(sorted_vals) - 1, math.ceil(p / 100.0 * len(sorted_vals)) - 1))
    return float(sorted_vals[k])


def tail_pct(per_round, min_rounds):
    """The highest ladder percentile with at least ten samples beyond it in
    `min_rounds` rounds of `per_round` samples."""
    n = per_round * min_rounds
    best = LADDER[0]
    for p in LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            best = p
    return best


def latency(rounds, key, min_rounds):
    """(p50_us, tail_us, tail_pct, samples) of the pooled samples of `key`."""
    pooled = sorted(x for r in rounds for x in r[key])
    pct = tail_pct(min(len(r[key]) for r in rounds), min_rounds)
    return percentile(pooled, 50) / 1e3, percentile(pooled, pct) / 1e3, pct, len(pooled)


def med(vals):
    return float(statistics.median(vals))


class Bench:
    def __init__(self, root, paths, workload, seed, scale):
        self.root = root
        self.paths = paths
        self.workload = workload
        self.seed = seed
        self.scale = scale
        self.data = os.path.join(root, ".bench_data", f"{workload}-{os.getpid()}")
        self.plain = os.path.join(self.data, "plain")
        self.plain_mount = os.path.join(self.data, "pm")
        self.backend = os.path.join(self.data, "backend")
        self.mount = os.path.join(self.data, "mnt")
        base = {k: v for k, v in os.environ.items() if not k.startswith("LDPLFS_") and k != "LD_PRELOAD"}
        self.ldplfs_env = {"LDPLFS_MOUNT": self.mount, "LDPLFS_BACKEND": self.backend}
        # perfbench-noflush counts fsync/fdatasync and skips them, on every
        # side: see perfbench/README.md, "Flush policy".
        self.env = {
            "kernel": dict(base, LD_PRELOAD=paths["noflush"]),
            "preload": dict(base, LD_PRELOAD=f"{paths['noflush']}:{paths['so']}", **self.ldplfs_env),
        }

    def args(self):
        return ["--workload", self.workload, "--seed", str(self.seed), "--scale", self.scale]

    def setup(self):
        """Create the data directories, write the seeded inputs and start
        the first preloaded child (library load and shim init); return the
        seconds it took. Rounds leave nothing behind, so set-up may run
        again between them."""
        shutil.rmtree(self.data, ignore_errors=True)
        t0 = time.perf_counter()
        for d in (self.plain, self.plain_mount, self.backend):
            os.makedirs(d)
        cmd = [self.paths["loadgen"], "setup"] + self.args() + ["--mount", self.mount, "--plain", self.plain]
        proc = run_child(cmd, env=self.env["preload"], stdout=sys.stderr)
        if proc.returncode != 0:
            raise BenchError(f"setup exited with {proc.returncode}")
        return time.perf_counter() - t0

    def round(self, side, traced):
        if side == "preload":
            mount, probe = self.mount, self.backend
        else:
            mount, probe = self.plain_mount, self.plain_mount
        cmd = [self.paths["loadgen"], "round"] + self.args()
        cmd += ["--mount", mount, "--plain", self.plain, "--probe", probe]
        if traced:
            cmd.append("--trace")
        proc = run_child(cmd, env=self.env[side], stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise BenchError(f"{side} round exited with {proc.returncode}")
        return parse_lines(proc.stdout)

    def rounds(self, kinds, seconds, between=lambda: None):
        """Run `kinds` (a list of (side, traced)) in rotating order until
        `seconds` have passed and each kind ran MIN_ROUNDS times; call
        `between` after each rotation."""
        out = {k: [] for k in kinds}
        t0 = time.monotonic()
        i = 0
        while i < MIN_ROUNDS[self.workload] or time.monotonic() - t0 < seconds:
            order = kinds[i % len(kinds):] + kinds[: i % len(kinds)]
            for k in order:
                out[k].append(self.round(*k))
            between()
            i += 1
        return out

    def replay(self, seconds):
        cmd = [self.paths["replay"]] + self.args() + ["--data", self.data, "--seconds", str(seconds)]
        proc = run_child(cmd, env=self.env["kernel"], stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise BenchError(f"replay exited with {proc.returncode}")
        blocks = {"plfs": [], "ldplfs": []}
        for block in proc.stdout.split("end\n"):
            if block.strip():
                r = parse_lines(block)
                blocks[r["layer"]].append(r)
        return blocks


def check(all_rounds):
    """Return (correct, attempted, failed, problems)."""
    attempted = sum(r["attempted"] for r in all_rounds)
    failed = sum(r["failed"] + r["mismatches"] for r in all_rounds)
    problems = []
    if any(r["mismatches"] for r in all_rounds):
        problems.append("bytes or sizes differ from the seeded oracle")
    if any(r["failed"] for r in all_rounds):
        problems.append("calls failed")
    digests = {r["digest"] for r in all_rounds}
    if len(digests) != 1:
        problems.append("sides or layers read different ranges or bytes")
    writes = {r["write_bytes"] for r in all_rounds}
    if len(writes) != 1:
        problems.append("sides or layers wrote different byte counts")
    return not problems, attempted, failed, problems


def fingerprint(b):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fs = run_child([b.paths["loadgen"], "fstype", b.data], stdout=subprocess.PIPE, text=True).stdout.strip()
    rev = "none (not a git checkout)"
    if os.path.isdir(os.path.join(b.root, ".git")):
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=b.root, stdout=subprocess.PIPE, text=True)
        rev = p.stdout.strip() or rev
    with open(b.paths["so"], "rb") as f:
        so_hash = hashlib.sha256(f.read()).hexdigest()[:16]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "kernel": os.uname().release,
        "data_fs": fs,
        "git_rev": rev,
        "so": f"libldplfs_preload.so release sha256:{so_hash}",
        "env": " ".join(f"{k}={v}" for k, v in sorted(b.ldplfs_env.items())),
        "flush": "PLFS asks for a flush of each dropping on close, the kernel side for none; "
        "perfbench-noflush counts and skips every flush (kernel.flushes)",
    }


def end_to_end(b, seconds):
    setups = [b.setup()]
    kinds = [("kernel", False), ("preload", False)]
    rs = b.rounds(kinds, seconds, lambda: setups.append(b.setup()))
    while len(setups) < SETUPS:
        setups.append(b.setup())
    pre, ker = rs[kinds[1]], rs[kinds[0]]
    correct, attempted, failed, problems = check(pre + ker)
    mr = MIN_ROUNDS[b.workload]
    meta, io = latency(pre, "meta_ns", mr), latency(pre, "io_ns", mr)

    def paired(f):
        """Median over round pairs of preload ÷ kernel: adjacent rounds
        share the machine's state, so the ratio cancels its drift."""
        return med([f(p) / f(k) for p, k in zip(pre, ker)])

    # Bounded (BENCHMARK.json): ratios to the paired kernel side, which hold
    # across machines and machine drift, plus footprint and set-up.
    m = {
        "overhead_x": (paired(wall_ns), "ratio"),
        "write_x": (paired(lambda r: r["write_ns"]), "ratio"),
        "read_x": (paired(lambda r: r["read_ns"]), "ratio"),
        "io_p50_x": (paired(lambda r: med(r["io_ns"])), "ratio"),
        "space_amp": (med([r["space_total"] / r["space_logical"] for r in pre]), "ratio"),
        "peak_rss_mib": (med([r["rss_kib"] for r in pre]) / 1024, "MiB"),
        "setup_s": (med(setups), "s"),
    }
    # Reported with the fingerprint, not bounded: absolute times follow the
    # host's speed, which drifts between runs.
    absolute = {
        "wall_s": (med([wall_ns(r) for r in pre]) / 1e9, "s"),
        "write_mibs": (med([r["write_bytes"] / MIB / (r["write_ns"] / 1e9) for r in pre]), "MiB/s"),
        "read_mibs": (med([r["read_bytes"] / MIB / (r["read_ns"] / 1e9) for r in pre]), "MiB/s"),
        "meta_p50_us": (meta[0], "us"),
        "meta_tail_us": (meta[1], "us"),
        "io_p50_us": (io[0], "us"),
        "io_tail_us": (io[1], "us"),
    }
    notes = [
        f"rounds: {len(pre)} preload, {len(ker)} kernel",
        f"meta_tail_us is p{meta[2]:g} of {meta[3]} samples; io_tail_us is p{io[2]:g} of {io[3]} samples",
        f"error_rate {failed / attempted:.6f} ({failed} of {attempted} calls failed or mismatched)",
        f"flushes asked for per preload round: {med([r['flushes'] for r in pre]):g} (counted, skipped)",
    ]
    notes += [f"{k} = {v:.6g} {u} (not bounded)" for k, (v, u) in absolute.items()]
    return m, correct, attempted, failed, problems, notes


def per_layer(b, seconds):
    b.setup()
    kinds = [("kernel", False), ("preload", False), ("preload", True)]
    rs = b.rounds(kinds, seconds / 2)
    ker, pre, tr = rs[kinds[0]], rs[kinds[1]], rs[kinds[2]]
    rp = b.replay(seconds / 2)
    pl, sh = rp["plfs"], rp["ldplfs"]
    correct, attempted, failed, problems = check(ker + pre + tr + pl + sh)

    def mt(rounds, key, scale=1e-9):
        return med([r[key] for r in rounds]) * scale

    def ratio(rounds, num, den):
        return med([r[num] / r[den] if r[den] else 0.0 for r in rounds])

    preload_busy = mt(tr, "mount_busy_ns")
    plfs_busy = mt(pl, "plfs_busy_ns")
    backing_busy = mt(pl, "backing_busy_ns")
    ldplfs_busy = mt(sh, "ldplfs_busy_ns")
    traced_wall = med([wall_ns(r) for r in tr]) / 1e9
    closure = med([(r["mount_busy_ns"] + r["passthrough_ns"] + r["driver_ns"]) / wall_ns(r) for r in tr])
    kmeta = latency(ker, "meta_ns", MIN_ROUNDS[b.workload])
    kio = latency(ker, "io_ns", MIN_ROUNDS[b.workload])
    m = {
        "preload.calls": (mt(tr, "mount_calls", 1), "count"),
        "preload.busy_s": (preload_busy, "s"),
        "preload.self_s": (preload_busy - plfs_busy, "s"),
        "preload.failed_calls": (float(sum(r["failed"] for r in pre + tr)), "count"),
        "preload.snapshot_mib": (mt(tr, "snapshot_bytes", 1) / MIB, "MiB"),
        "preload.snapshot_useful_ratio": (ratio(tr, "snapshot_read_bytes", "snapshot_bytes"), "ratio"),
        "plfs.busy_s": (plfs_busy, "s"),
        "plfs.self_s": (plfs_busy - backing_busy, "s"),
        "plfs.open_s": (mt(pl, "plfs_open_ns"), "s"),
        "plfs.close_s": (mt(pl, "plfs_close_ns"), "s"),
        "plfs.getattr_s": (mt(pl, "plfs_getattr_ns"), "s"),
        "plfs.unlink_s": (mt(pl, "plfs_unlink_ns"), "s"),
        "plfs.read_s": (mt(pl, "plfs_read_ns"), "s"),
        "plfs.write_s": (mt(pl, "plfs_write_ns"), "s"),
        "plfs.meta_hit_ratio": (
            med([r["meta_hits"] / max(1, r["meta_hits"] + r["meta_misses"]) for r in pl]),
            "ratio",
        ),
        "plfs.droppings_per_container": (ratio(pl, "space_droppings", "space_containers"), "count"),
        "plfs.index_bytes_per_data_byte": (ratio(pl, "space_index", "space_data"), "ratio"),
        "backing.meta_ops": (mt(pl, "backing_meta_ops", 1), "count"),
        "backing.data_ops": (mt(pl, "backing_data_ops", 1), "count"),
        "backing.syncs": (mt(pl, "backing_syncs", 1), "count"),
        "backing.ops_per_call": (
            med([(r["backing_meta_ops"] + r["backing_data_ops"]) / r["plfs_calls"] for r in pl]),
            "ratio",
        ),
        "backing.busy_s": (backing_busy, "s"),
        "backing.write_amp": (ratio(pl, "backing_write_bytes", "write_bytes"), "ratio"),
        "ldplfs.busy_s": (ldplfs_busy, "s"),
        "ldplfs.self_s": (ldplfs_busy - plfs_busy, "s"),
        "ldplfs.posix_calls_per_op": (ratio(sh, "posix_calls", "ldplfs_calls"), "ratio"),
        "kernel.wall_s": (med([wall_ns(r) for r in ker]) / 1e9, "s"),
        "kernel.meta_p50_us": (kmeta[0], "us"),
        "kernel.io_p50_us": (kio[0], "us"),
        "kernel.passthrough_s": (mt(tr, "passthrough_ns"), "s"),
        "kernel.launch_s": (mt(ker, "launch_ns"), "s"),
        "preload.launch_s": (mt(tr, "launch_ns"), "s"),
        "kernel.flushes": (mt(pre, "flushes", 1), "count"),
        "driver.busy_s": (mt(tr, "driver_ns"), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.closure_frac": (closure, "fraction"),
        "trace.unattributed_frac": (1.0 - closure, "fraction"),
        "trace.overhead_x": (traced_wall / (med([wall_ns(r) for r in pre]) / 1e9), "ratio"),
    }
    notes = [
        f"rounds: {len(tr)} traced preload, {len(pre)} untraced preload, {len(ker)} kernel, "
        f"{len(pl)} plfs replay, {len(sh)} ldplfs replay",
        "self times are cross-run subtractions: preload.self_s = preload.busy_s - plfs.busy_s (replay), "
        "plfs.self_s = plfs.busy_s - backing.busy_s, ldplfs.self_s = ldplfs.busy_s - plfs.busy_s",
        "rank-process launch (exec, loader, library init, exit) is outside the phase times: *.launch_s",
        f"error_rate {failed / attempted:.6f} ({failed} of {attempted} calls failed or mismatched)",
    ]
    return m, correct, attempted, failed, problems, notes


def run_one(root, paths, workload, seed, seconds, trace, scale):
    b = Bench(root, paths, workload, seed, scale)
    try:
        fn = per_layer if trace else end_to_end
        m, correct, attempted, failed, problems, notes = fn(b, seconds)
        info = fingerprint(b)
    finally:
        shutil.rmtree(b.data, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, ".bench_data"))
        except OSError:
            pass
    report = [f"# workload {workload} seed {seed} scale {scale} trace {trace}"]
    report += [f"# {k}: {v}" for k, v in info.items()]
    report += [f"# {n}" for n in notes]
    report += [f"{k} = {v:.6g} {u}" for k, (v, u) in m.items()]
    report += [f"# PROBLEM: {p}" for p in problems]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()},
    }
    return report, result


def selftest(root, paths):
    """Tiny pass of every workload, traced and untraced; each must be
    correct and print exactly the metrics BENCHMARK.json declares."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            t0 = time.monotonic()
            _, res = run_one(root, paths, w, 1, 0.2, trace, "tiny")
            good = res["correct"] and res["failed"] == 0 and set(res["metrics"]) == want[trace]
            log(f"selftest {w} trace {trace}: {'ok' if good else 'FAILED'} in {time.monotonic() - t0:.1f}s")
            ok &= good
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="tiny pass of every workload, traced and untraced")
    a = ap.parse_args()
    if not a.selftest and not a.workload:
        ap.error("--workload is required")
    root = os.getcwd()
    try:
        paths = build(root)
        if a.selftest:
            return 0 if selftest(root, paths) else 1
        report, result = run_one(root, paths, a.workload, a.seed, a.seconds, a.trace, "full")
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
