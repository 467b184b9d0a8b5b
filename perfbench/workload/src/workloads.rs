//! The three workloads, as op streams over a [`Rec`].

use crate::data::{fill, mix, Rng};
use crate::rec::{Phase, Rec};
use crate::{O_CREAT, O_RDONLY, O_RDWR, O_TRUNC, O_WRONLY};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table II's serial tools on one file: dd in, cat, cp out, fstat.
    StreamTools,
    /// An N-to-1 strided checkpoint from rank processes, then an N-to-N
    /// restart and a whole-file verification read.
    CkptNto1,
    /// Thousands of small files: create, write, read back, stat, reopen
    /// read-only, read; then unlink them all.
    SmallFiles,
}

impl Workload {
    /// All workloads, in benchmark order.
    pub const ALL: [Workload; 3] = [
        Workload::StreamTools,
        Workload::CkptNto1,
        Workload::SmallFiles,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamTools => "stream_tools",
            Workload::CkptNto1 => "ckpt_nto1",
            Workload::SmallFiles => "small_files",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input size: `Full` is what the benchmark measures, `Tiny` a pass of
/// every code path that finishes in well under a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Benchmark size.
    Full,
    /// Smoke-test size.
    Tiny,
}

impl Scale {
    /// Parse `full` / `tiny`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }
}

/// Everything a round needs, drawn from the seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// Names the seeded byte stream of the workload's files.
    pub key: u64,
    /// `stream_tools`: file size.
    pub stream_bytes: u64,
    /// `ckpt_nto1`: rank processes.
    pub ranks: u32,
    /// `ckpt_nto1`: block size of each checkpoint step, a seeded order of
    /// the same multiset of 16, 32, 48 and 64 KiB blocks.
    pub steps: Vec<u64>,
    /// `small_files`: number of files.
    pub files: u64,
}

/// `small_files`: bytes per file, written as four 4 KiB writes.
pub const SMALL_FILE: u64 = 16 * KIB;
const SMALL_IO: u64 = 4 * KIB;
const DD_BLOCK: u64 = MIB;
const CAT_BLOCK: u64 = 128 * KIB;
const VERIFY_BLOCK: u64 = MIB;

impl Plan {
    /// The plan of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64, scale: Scale) -> Plan {
        let key = mix(seed ^ mix(workload as u64 + 1));
        let mut rng = Rng::new(key);
        let tiny = scale == Scale::Tiny;
        // Sizes hardly depend on the seed, so that runs with different seeds
        // measure the same amount of work: the seed picks the bytes, the
        // stream's partial last block and the order of checkpoint block
        // sizes.
        let stream_bytes = if tiny { 3 * MIB } else { 32 * MIB } + rng.below(64 * KIB);
        let (ranks, per_size) = if tiny { (4, 1) } else { (16, 6) };
        let mut steps: Vec<u64> = (1..=4)
            .flat_map(|k| std::iter::repeat_n(k * 16 * KIB, per_size))
            .collect();
        for i in (1..steps.len()).rev() {
            steps.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let files = if tiny { 24 } else { 1000 };
        Plan {
            workload,
            key,
            stream_bytes,
            ranks,
            steps,
            files,
        }
    }

    /// Logical bytes of the workload's files; also the length of the
    /// expected-bytes buffer the round checks reads against.
    pub fn total_bytes(&self) -> u64 {
        match self.workload {
            Workload::StreamTools => self.stream_bytes,
            Workload::CkptNto1 => self.ranks as u64 * self.steps.iter().sum::<u64>(),
            Workload::SmallFiles => self.files * SMALL_FILE,
        }
    }

    /// `ckpt_nto1`: `(offset, length)` of `rank`'s block in `step`. Each
    /// step lays the ranks' blocks side by side, so every rank writes a
    /// strided pattern whose stride changes with the step's block size.
    pub fn block(&self, step: usize, rank: u32) -> (u64, u64) {
        let base: u64 = self.steps[..step].iter().sum::<u64>() * self.ranks as u64;
        let len = self.steps[step];
        (base + rank as u64 * len, len)
    }

    /// Path of the `stream_tools` source file in the plain directory; the
    /// set-up step writes it.
    pub fn stream_source(plain: &str) -> String {
        format!("{plain}/stream.src")
    }
}

/// Which half of the checkpoint a rank wave runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankPhase {
    /// Open the shared file write-only and `pwrite` the rank's blocks.
    Write,
    /// Reopen read-only and `pread` the rank's blocks back.
    Restart,
}

impl RankPhase {
    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            RankPhase::Write => "write",
            RankPhase::Restart => "restart",
        }
    }

    /// Inverse of [`RankPhase::name`].
    pub fn parse(s: &str) -> Option<RankPhase> {
        [RankPhase::Write, RankPhase::Restart]
            .into_iter()
            .find(|p| p.name() == s)
    }
}

/// Runs a wave of checkpoint ranks and folds their counters into `rec`.
pub trait Ranks {
    /// Run every rank of `plan` through `phase`.
    fn wave(&mut self, rec: &mut Rec, plan: &Plan, phase: RankPhase, mount: &str);
}

/// Runs the ranks one after another in this process, switching the
/// layer's rank identity ([`crate::Io::set_rank`]) for each.
pub struct InProcess;

impl Ranks for InProcess {
    fn wave(&mut self, rec: &mut Rec, plan: &Plan, phase: RankPhase, mount: &str) {
        for rank in 0..plan.ranks {
            rec.io.set_rank(Some(rank));
            rank_body(rec, plan, phase, rank, mount);
        }
        rec.io.set_rank(None);
    }
}

fn ckpt_path(mount: &str) -> String {
    format!("{mount}/ckpt.dat")
}

/// One checkpoint rank's share of `phase`. A rank generates only its own
/// blocks' bytes, so a rank process costs the same whatever the file size.
pub fn rank_body(rec: &mut Rec, plan: &Plan, phase: RankPhase, rank: u32, mount: &str) {
    let path = ckpt_path(mount);
    let total = plan.total_bytes();
    let mut want = vec![0u8; *plan.steps.iter().max().unwrap_or(&0) as usize];
    let mut got = want.clone();
    let flags = match phase {
        RankPhase::Write => O_WRONLY,
        RankPhase::Restart => O_RDONLY,
    };
    let Some(fd) = rec.open(&path, flags, plan.key, total) else {
        return;
    };
    for step in 0..plan.steps.len() {
        let (off, len) = plan.block(step, rank);
        let want = &mut want[..len as usize];
        rec.driver(|| fill(want, plan.key, off));
        match phase {
            RankPhase::Write => rec.pwrite(fd, want, off),
            RankPhase::Restart => rec.pread_check(fd, &mut got[..len as usize], off, want),
        }
    }
    rec.close(fd);
}

/// Run one round of `plan`'s op stream on `mount` (the benchmark files)
/// and `plain` (plain-directory files). `expected` holds the seeded bytes
/// of [`Plan::total_bytes`].
pub fn run_round(
    rec: &mut Rec,
    plan: &Plan,
    mount: &str,
    plain: &str,
    expected: &[u8],
    ranks: &mut dyn Ranks,
) {
    match plan.workload {
        Workload::StreamTools => stream_tools(rec, plan, mount, plain, expected),
        Workload::CkptNto1 => ckpt_nto1(rec, plan, mount, expected, ranks),
        Workload::SmallFiles => small_files(rec, plan, mount, expected),
    }
}

/// Read `fd` to EOF in `block`-sized reads, checking every byte; with
/// `copy_to`, write each block there (cp). Returns the bytes read.
fn scan(rec: &mut Rec, fd: i32, block: u64, expected: &[u8], copy_to: Option<i32>) -> u64 {
    let mut buf = vec![0u8; block as usize];
    let mut off = 0u64;
    loop {
        let exp = expected.get(off as usize..).unwrap_or(&[]);
        let n = rec.read_check(fd, &mut buf, off, exp);
        if n == 0 {
            return off;
        }
        if let Some(out) = copy_to {
            rec.write(out, &buf[..n]);
        }
        off += n as u64;
    }
}

fn stream_tools(rec: &mut Rec, plan: &Plan, mount: &str, plain: &str, expected: &[u8]) {
    let size = plan.stream_bytes;
    let dst = format!("{mount}/stream.dat");
    let src = Plan::stream_source(plain);
    let copy = format!("{plain}/stream.copy");
    let wflags = O_WRONLY | O_CREAT | O_TRUNC;

    // dd if=src of=dst bs=1M
    rec.phase(Phase::Write);
    if let (Some(s), Some(d)) = (
        rec.open(&src, O_RDONLY, 0, 0),
        rec.open(&dst, wflags, plan.key, 0),
    ) {
        let mut buf = vec![0u8; DD_BLOCK as usize];
        loop {
            let n = rec.read(s, &mut buf);
            if n == 0 {
                break;
            }
            rec.write(d, &buf[..n]);
        }
        rec.close(s);
        rec.close(d);
    }
    rec.probe_space(size);

    // cat dst: 128 KiB reads to EOF, with cp's fstat size check.
    rec.phase(Phase::Read);
    if let Some(f) = rec.open(&dst, O_RDONLY, plan.key, size) {
        rec.fstat_check(f, size);
        if scan(rec, f, CAT_BLOCK, expected, None) != size {
            rec.stats.mismatches += 1;
        }
        rec.close(f);
    }
    // cp dst copy
    if let (Some(f), Some(c)) = (
        rec.open(&dst, O_RDONLY, plan.key, size),
        rec.open(&copy, wflags, 0, 0),
    ) {
        if scan(rec, f, CAT_BLOCK, expected, Some(c)) != size {
            rec.stats.mismatches += 1;
        }
        rec.close(f);
        rec.close(c);
    }

    rec.phase(Phase::Other);
    rec.stat_check(&dst, size);
    rec.unlink(&dst);
    rec.unlink(&copy);
}

fn ckpt_nto1(rec: &mut Rec, plan: &Plan, mount: &str, expected: &[u8], ranks: &mut dyn Ranks) {
    let path = ckpt_path(mount);
    let total = plan.total_bytes();

    // The coordinating process creates the shared file, as rank 0 of an
    // MPI job does, before the ranks open it write-only.
    rec.phase(Phase::Write);
    if let Some(fd) = rec.open(&path, O_WRONLY | O_CREAT | O_TRUNC, plan.key, 0) {
        rec.close(fd);
    }
    ranks.wave(rec, plan, RankPhase::Write, mount);
    rec.probe_space(total);

    rec.phase(Phase::Read);
    ranks.wave(rec, plan, RankPhase::Restart, mount);
    if let Some(fd) = rec.open(&path, O_RDONLY, plan.key, total) {
        rec.fstat_check(fd, total);
        if scan(rec, fd, VERIFY_BLOCK, expected, None) != total {
            rec.stats.mismatches += 1;
        }
        rec.close(fd);
    }

    rec.phase(Phase::Other);
    rec.unlink(&path);
}

fn small_files(rec: &mut Rec, plan: &Plan, mount: &str, expected: &[u8]) {
    let paths: Vec<String> = (0..plan.files)
        .map(|i| format!("{mount}/small.{i}"))
        .collect();
    let mut buf = vec![0u8; SMALL_FILE as usize];
    for (i, path) in paths.iter().enumerate() {
        let base = i * SMALL_FILE as usize;
        let exp = &expected[base..base + SMALL_FILE as usize];
        // The key is per file: the digest must tell files apart.
        let key = plan.key ^ mix(i as u64);

        rec.phase(Phase::Write);
        let Some(fd) = rec.open(path, O_RDWR | O_CREAT | O_TRUNC, key, 0) else {
            continue;
        };
        for k in 0..(SMALL_FILE / SMALL_IO) as usize {
            let at = k * SMALL_IO as usize;
            rec.write(fd, &exp[at..at + SMALL_IO as usize]);
        }

        rec.phase(Phase::Read);
        for k in 0..(SMALL_FILE / SMALL_IO) as usize {
            let at = k * SMALL_IO as usize;
            rec.pread_check(fd, &mut buf[..SMALL_IO as usize], at as u64, &exp[at..]);
        }
        rec.close(fd);
        rec.stat_check(path, SMALL_FILE);
        if let Some(fd) = rec.open(path, O_RDONLY, key, SMALL_FILE) {
            if rec.read_check(fd, &mut buf, 0, exp) != SMALL_FILE as usize {
                rec.stats.failed += 1;
            }
            rec.close(fd);
        }
    }
    rec.probe_space(plan.total_bytes());

    rec.phase(Phase::Other);
    for path in &paths {
        rec.unlink(path);
    }
}
