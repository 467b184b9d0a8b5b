//! The benchmark's load generator.
//!
//! It makes plain libc calls ([`LibcIo`]) and is run as a child process:
//! under `LD_PRELOAD` against the preload library's mount (the preload
//! side), or without it against a plain directory (the kernel side). It
//! links neither `plfs` nor `ldplfs`.
//!
//! ```text
//! perfbench-loadgen setup  --workload W --seed N --scale full|tiny --mount DIR --plain DIR
//! perfbench-loadgen round  ... --probe DIR [--trace]
//! perfbench-loadgen rank   ... --phase write|restart --rank R [--trace]
//! perfbench-loadgen fstype PATH
//! ```
//!
//! `setup` writes the seeded input files and makes one call on the mount,
//! which is where the preload library initialises. `round` runs one pass of
//! the workload's op stream and prints its [`Stats`] lines; checkpoint
//! ranks are this binary re-executed as `rank`, one at a time.
//! `--probe` names the directory whose footprint is taken after the write
//! phase: the PLFS backend on the preload side.

use perfbench_workload::data::{fill, generate};
use perfbench_workload::libc_io::{fs_type, peak_rss_kib};
use perfbench_workload::workloads::rank_body;
use perfbench_workload::{
    run_round, Io, LibcIo, Plan, RankPhase, Ranks, Rec, Scale, Space, Stats, Workload,
};
use std::io::Write;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

struct Args {
    cmd: String,
    workload: Workload,
    seed: u64,
    scale: Scale,
    mount: String,
    plain: String,
    probe: String,
    trace: bool,
    phase: RankPhase,
    rank: u32,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().ok_or("missing command")?;
    let mut a = Args {
        cmd,
        workload: Workload::StreamTools,
        seed: 0,
        scale: Scale::Full,
        mount: String::new(),
        plain: String::new(),
        probe: String::new(),
        trace: false,
        phase: RankPhase::Write,
        rank: 0,
    };
    if a.cmd == "fstype" {
        a.mount = it.next().ok_or("fstype needs a path")?;
        return Ok(a);
    }
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            a.trace = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {v}");
        match flag.as_str() {
            "--workload" => a.workload = Workload::parse(&v).ok_or(bad("workload"))?,
            "--seed" => a.seed = v.parse().map_err(|_| bad("seed"))?,
            "--scale" => a.scale = Scale::parse(&v).ok_or(bad("scale"))?,
            "--mount" => a.mount = v,
            "--plain" => a.plain = v,
            "--probe" => a.probe = v,
            "--phase" => a.phase = RankPhase::parse(&v).ok_or(bad("phase"))?,
            "--rank" => a.rank = v.parse().map_err(|_| bad("rank"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.mount.is_empty() || a.plain.is_empty() {
        return Err("--mount and --plain are required".into());
    }
    Ok(a)
}

/// Runs checkpoint ranks as child processes of this binary.
struct Spawn<'a> {
    args: &'a Args,
}

impl Spawn<'_> {
    fn child(&self, phase: RankPhase, rank: u32) -> std::io::Result<Child> {
        let a = self.args;
        let mut cmd = Command::new(std::env::current_exe()?);
        cmd.args(["rank", "--workload", a.workload.name()])
            .args(["--seed", &a.seed.to_string()])
            .args([
                "--scale",
                if a.scale == Scale::Tiny {
                    "tiny"
                } else {
                    "full"
                },
            ])
            .args(["--mount", &a.mount, "--plain", &a.plain])
            .args(["--phase", phase.name(), "--rank", &rank.to_string()])
            .stdout(Stdio::piped());
        if a.trace {
            cmd.arg("--trace");
        }
        cmd.spawn()
    }

    /// Wait for a rank and fold in its counters. `launched` is when it was
    /// spawned: the rank's time outside its own op stream (exec, loader,
    /// library init, exit) is launch time, not phase time. Phase times are
    /// I/O time, as in the paper's bandwidth figures; `setup_s` and the
    /// per-layer launch times report the launch cost.
    fn reap(child: Child, rec: &mut Rec, launched: Instant) {
        let parsed = child
            .wait_with_output()
            .map_err(|e| e.to_string())
            .and_then(|out| {
                if !out.status.success() {
                    return Err(format!("rank exited with {}", out.status));
                }
                Stats::from_lines(&String::from_utf8_lossy(&out.stdout))
            });
        match parsed {
            Ok(st) => {
                rec.launched((launched.elapsed().as_nanos() as u64).saturating_sub(st.wall_ns()));
                rec.stats.merge(&st);
            }
            Err(e) => {
                eprintln!("perfbench-loadgen: {e}");
                rec.stats.attempted += 1;
                rec.stats.failed += 1;
            }
        }
    }
}

impl Ranks for Spawn<'_> {
    /// Ranks run one at a time, so that per-call times add up to the wall
    /// time of the wave and each rank's launch time is its own.
    fn wave(&mut self, rec: &mut Rec, plan: &Plan, phase: RankPhase, _: &str) {
        for rank in 0..plan.ranks {
            let launched = Instant::now();
            match self.child(phase, rank) {
                Ok(c) => Spawn::reap(c, rec, launched),
                Err(e) => {
                    eprintln!("perfbench-loadgen: spawn rank {rank}: {e}");
                    rec.stats.attempted += 1;
                    rec.stats.failed += 1;
                }
            }
        }
    }
}

/// Write `len` bytes of stream `key` to a new file at `path`, one 1 MiB
/// block at a time, as `dd` would: the input never sits whole in memory.
fn write_seeded(path: &str, key: u64, len: u64) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    let mut buf = vec![0u8; 1 << 20];
    let mut off = 0;
    while off < len {
        let n = (len - off).min(buf.len() as u64) as usize;
        fill(&mut buf[..n], key, off);
        f.write_all(&buf[..n])?;
        off += n as u64;
    }
    Ok(())
}

fn run(a: &Args) -> Result<(), String> {
    if a.cmd == "fstype" {
        println!("{}", fs_type(&a.mount));
        return Ok(());
    }
    let plan = Plan::new(a.workload, a.seed, a.scale);
    let mut io = LibcIo;
    match a.cmd.as_str() {
        "setup" => {
            if a.workload == Workload::StreamTools {
                let src = Plan::stream_source(&a.plain);
                write_seeded(&src, plan.key, plan.stream_bytes)
                    .map_err(|e| format!("{src}: {e}"))?;
            }
            // The first call on the mount initialises the preload library.
            io.stat(&a.mount)
                .map_err(|e| format!("stat {}: errno {e}", a.mount))?;
        }
        "round" | "rank" => {
            let expected = if a.cmd == "round" {
                generate(plan.key, plan.total_bytes() as usize)
            } else {
                Vec::new()
            };
            let probe_dir = Path::new(&a.probe).to_path_buf();
            // Initialise the preload library before anything is timed.
            let _ = io.stat(&a.mount);
            let mut rec = Rec::new(
                &mut io,
                &a.mount,
                a.trace,
                Box::new(move || Space::of_dir(&probe_dir)),
            );
            if a.cmd == "round" {
                run_round(
                    &mut rec,
                    &plan,
                    &a.mount,
                    &a.plain,
                    &expected,
                    &mut Spawn { args: a },
                );
            } else {
                rank_body(&mut rec, &plan, a.phase, a.rank, &a.mount);
            }
            let mut stats = rec.finish();
            stats.rss_kib = peak_rss_kib();
            print!("{}", stats.to_lines());
        }
        other => return Err(format!("unknown command {other}")),
    }
    Ok(())
}

fn main() {
    if let Err(e) = parse_args().and_then(|a| run(&a)) {
        eprintln!("perfbench-loadgen: {e}");
        std::process::exit(2);
    }
}
