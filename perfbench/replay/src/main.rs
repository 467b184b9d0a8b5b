//! Replays a workload's op stream in process, alternating rounds through
//! `Plfs` directly and through the `LdPlfs` shim, for `--seconds` seconds.
//!
//! ```text
//! perfbench-replay --workload W --seed N --scale full|tiny --data DIR --seconds T
//! ```
//!
//! `DIR/plain` must hold the workload's plain-directory inputs (the
//! load generator's `setup` writes them). Each round gets a fresh backend
//! under `DIR/replay`, removed afterwards, and prints a block of
//! `key value` lines from `layer plfs|ldplfs` to `end`.

use ldplfs::{PosixLayer, RealPosix};
use perfbench_replay::{build_shim, CountingPosix, PlfsIo, Routed, ShimIo, TimedBacking};
use perfbench_workload::data::generate;
use perfbench_workload::{run_round, InProcess, Plan, Rec, Scale, Space, Stats, Workload};
use plfs::{Backing, MeterBacking, RealBacking};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    seed: u64,
    scale: Scale,
    data: PathBuf,
    seconds: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: Workload::StreamTools,
        seed: 0,
        scale: Scale::Full,
        data: PathBuf::new(),
        seconds: 1.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {v}");
        match flag.as_str() {
            "--workload" => a.workload = Workload::parse(&v).ok_or(bad("workload"))?,
            "--seed" => a.seed = v.parse().map_err(|_| bad("seed"))?,
            "--scale" => a.scale = Scale::parse(&v).ok_or(bad("scale"))?,
            "--data" => a.data = PathBuf::from(v),
            "--seconds" => a.seconds = v.parse().map_err(|_| bad("seconds"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.data.as_os_str().is_empty() {
        return Err("--data is required".into());
    }
    Ok(a)
}

/// One round through `layer`; returns its lines.
fn round(a: &Args, plan: &Plan, expected: &[u8], layer: &str, k: u32) -> Result<String, String> {
    let root = a.data.join("replay").join(format!("{layer}-{k}"));
    let backend = root.join("backend");
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", root.display());
    std::fs::create_dir_all(&backend).map_err(|e| err(&e))?;
    let real: Arc<dyn Backing> = Arc::new(RealBacking::new(&backend).map_err(|e| err(&e))?);
    let meter = Arc::new(MeterBacking::new(real));
    let timed = Arc::new(TimedBacking::new(meter.clone()));
    let times = timed.times();
    let backing: Arc<dyn Backing> = timed;

    let plain = a.data.join("plain").display().to_string();
    let mount = a.data.join("rmnt").display().to_string();
    let probe_dir = backend.clone();
    let probe = Box::new(move || Space::of_dir(&probe_dir));

    let mut extra = Vec::new();
    let stats: Stats = if layer == "plfs" {
        let mut io = Routed::new(PlfsIo::new(backing), &mount, true);
        let mut rec = Rec::new(&mut io, &mount, false, probe);
        run_round(&mut rec, plan, &mount, &plain, expected, &mut InProcess);
        let stats = rec.finish();
        let t = io.layer.times;
        let (hits, misses) = io.layer.meta_counters();
        extra.extend([
            ("plfs_open_ns", t.open),
            ("plfs_read_ns", t.read),
            ("plfs_write_ns", t.write),
            ("plfs_close_ns", t.close),
            ("plfs_getattr_ns", t.getattr),
            ("plfs_unlink_ns", t.unlink),
            ("plfs_busy_ns", t.busy()),
            ("plfs_calls", t.calls),
            ("meta_hits", hits),
            ("meta_misses", misses),
        ]);
        stats
    } else {
        let under = Arc::new(CountingPosix::new(Arc::new(
            RealPosix::rooted(root.join("under")).map_err(|e| err(&e))?,
        )));
        let posix_calls = under.calls();
        let shim_mount = mount.clone();
        let make = Box::new(move || {
            let under: Arc<dyn PosixLayer> = under.clone();
            build_shim(under, &shim_mount, Arc::clone(&backing))
        });
        let mut io = Routed::new(ShimIo::new(make, posix_calls), &mount, false);
        let mut rec = Rec::new(&mut io, &mount, false, probe);
        run_round(&mut rec, plan, &mount, &plain, expected, &mut InProcess);
        let stats = rec.finish();
        extra.extend([
            ("ldplfs_busy_ns", io.layer.busy_ns),
            ("ldplfs_calls", io.layer.calls),
            ("posix_calls", io.layer.posix_calls),
        ]);
        stats
    };
    let m = meter.snapshot();
    let (busy, wbytes) = times.get();
    extra.extend([
        ("backing_busy_ns", busy),
        ("backing_write_bytes", wbytes),
        ("backing_meta_ops", m.metadata_ops()),
        ("backing_data_ops", m.data_ops()),
        ("backing_syncs", m.sync),
    ]);
    let _ = std::fs::remove_dir_all(&root);

    let mut stats = stats;
    stats.meta_ns.clear();
    stats.io_ns.clear();
    let mut out = format!("layer {layer}\n");
    out.push_str(&stats.to_lines());
    for (k, v) in extra {
        out.push_str(&format!("{k} {v}\n"));
    }
    out.push_str("end\n");
    Ok(out)
}

fn run(a: &Args) -> Result<(), String> {
    let plan = Plan::new(a.workload, a.seed, a.scale);
    let expected = generate(plan.key, plan.total_bytes() as usize);
    let budget = Duration::from_secs_f64(a.seconds);
    let t0 = Instant::now();
    let mut k = 0;
    // Alternate the two layers; at least one round of each.
    while k == 0 || t0.elapsed() < budget {
        for layer in ["plfs", "ldplfs"] {
            print!("{}", round(a, &plan, &expected, layer, k)?);
        }
        k += 1;
    }
    let _ = std::fs::remove_dir_all(Path::new(&a.data).join("replay"));
    Ok(())
}

fn main() {
    if let Err(e) = parse_args().and_then(|a| run(&a)) {
        eprintln!("perfbench-replay: {e}");
        std::process::exit(2);
    }
}
