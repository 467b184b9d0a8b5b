//! [`Rec`]: times, classifies and checks every call of an op stream.

use crate::data::mix;
use crate::libc_io::flush_counter;
use crate::stats::{Space, Stats};
use crate::{Io, Res, O_CREAT, O_RDONLY, O_RDWR, O_WRONLY};
use std::collections::HashMap;
use std::time::Instant;

/// The phase a call's wall time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Writing the benchmark files.
    Write = 0,
    /// Reading them back.
    Read = 1,
    /// Everything else (size checks, unlinks).
    Other = 2,
}

struct FdInfo {
    mount: bool,
    key: u64,
    read_only: bool,
}

/// A recorder wrapped around an [`Io`].
///
/// Calls on paths under `mount` are the benchmark's own files: their
/// latencies are kept, split into path/descriptor calls and data calls.
/// Calls elsewhere (the dd source, the cp target) are plain-directory
/// traffic on every side and only count as attempted.
pub struct Rec<'a> {
    /// The layer under test.
    pub io: &'a mut dyn Io,
    mount: String,
    traced: bool,
    /// Counters of this round so far.
    pub stats: Stats,
    fds: HashMap<i32, FdInfo>,
    phase: Phase,
    phase_t0: Instant,
    /// Launch time of rank processes not yet taken out of the phase.
    launch_pending: u64,
    flushes: Option<extern "C" fn() -> u64>,
    flushes0: u64,
    probe: Box<dyn FnMut() -> Space + 'a>,
}

impl<'a> Rec<'a> {
    /// Record calls on `io`; `probe` measures the data directory when the
    /// op stream finishes writing. With `traced`, also time the calls
    /// outside the mount and the generator's own checking work.
    pub fn new(
        io: &'a mut dyn Io,
        mount: &str,
        traced: bool,
        probe: Box<dyn FnMut() -> Space + 'a>,
    ) -> Rec<'a> {
        let flushes = flush_counter();
        Rec {
            io,
            mount: format!("{}/", mount.trim_end_matches('/')),
            traced,
            stats: Stats::default(),
            fds: HashMap::new(),
            phase: Phase::Other,
            phase_t0: Instant::now(),
            launch_pending: 0,
            flushes,
            flushes0: flushes.map_or(0, |n| n()),
            probe,
        }
    }

    /// Charge wall time from now on to `p`.
    pub fn phase(&mut self, p: Phase) {
        let now = Instant::now();
        let ns = (now - self.phase_t0).as_nanos() as u64;
        self.stats.phase_ns[self.phase as usize] += ns.saturating_sub(self.launch_pending);
        self.launch_pending = 0;
        self.phase = p;
        self.phase_t0 = now;
    }

    /// Close the last phase and return the counters.
    pub fn finish(mut self) -> Stats {
        self.phase(Phase::Other);
        self.stats.flushes += self.flushes.map_or(0, |n| n()) - self.flushes0;
        self.stats
    }

    /// Take `ns` of rank-process launch out of the current phase and count
    /// it in [`Stats::launch_ns`] instead.
    pub fn launched(&mut self, ns: u64) {
        self.launch_pending += ns;
        self.stats.launch_ns += ns;
    }

    /// Measure the data directory; the probe's own time is charged to no
    /// phase.
    pub fn probe_space(&mut self, logical: u64) {
        let p = self.phase;
        self.phase(p);
        self.stats.space = (self.probe)();
        self.stats.space.logical = logical;
        self.phase_t0 = Instant::now();
    }

    /// Run generator work `f` (making or checking bytes); traced, its time
    /// is charged to the generator itself.
    pub fn driver<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = self.traced.then(Instant::now);
        let r = f();
        if let Some(t0) = t0 {
            self.stats.driver_ns += t0.elapsed().as_nanos() as u64;
        }
        r
    }

    fn call<T>(
        &mut self,
        mount: bool,
        meta: bool,
        f: impl FnOnce(&mut dyn Io) -> Res<T>,
    ) -> Res<T> {
        let t0 = Instant::now();
        let r = f(&mut *self.io);
        let ns = t0.elapsed().as_nanos() as u64;
        self.stats.attempted += 1;
        if r.is_err() {
            self.stats.failed += 1;
        }
        if mount {
            self.stats.mount_calls += 1;
            if meta {
                self.stats.meta_ns.push(ns);
            } else {
                self.stats.io_ns.push(ns);
            }
            if self.traced {
                self.stats.mount_busy_ns += ns;
            }
        } else if self.traced {
            self.stats.passthrough_ns += ns;
        }
        r
    }

    fn is_mount(&self, path: &str) -> bool {
        path.starts_with(&self.mount)
    }

    fn fd_mount(&self, fd: i32) -> bool {
        self.fds.get(&fd).is_some_and(|f| f.mount)
    }

    /// `open`; `key` names the seeded stream the file holds. A read-only
    /// open of a benchmark file of `size` bytes is what the preload turns
    /// into a snapshot, so its size is counted as snapshot bytes.
    pub fn open(&mut self, path: &str, flags: i32, key: u64, size: u64) -> Option<i32> {
        let mount = self.is_mount(path);
        let r = self.call(mount, true, |io| io.open(path, flags, 0o644));
        let fd = r.ok()?;
        let read_only = flags & (O_WRONLY | O_RDWR | O_CREAT) == O_RDONLY;
        if mount && read_only {
            self.stats.snapshot_bytes += size;
        }
        self.fds.insert(
            fd,
            FdInfo {
                mount,
                key,
                read_only,
            },
        );
        Some(fd)
    }

    /// `close`.
    pub fn close(&mut self, fd: i32) {
        let mount = self.fd_mount(fd);
        let _ = self.call(mount, true, |io| io.close(fd));
        self.fds.remove(&fd);
    }

    /// `unlink`.
    pub fn unlink(&mut self, path: &str) {
        let mount = self.is_mount(path);
        let _ = self.call(mount, true, |io| io.unlink(path));
    }

    fn check_size(&mut self, got: Res<u64>, want: u64) {
        if matches!(got, Ok(n) if n != want) {
            self.stats.mismatches += 1;
        }
    }

    /// `stat`, checking the size.
    pub fn stat_check(&mut self, path: &str, size: u64) {
        let mount = self.is_mount(path);
        let r = self.call(mount, true, |io| io.stat(path));
        self.check_size(r, size);
    }

    /// `fstat`, checking the size.
    pub fn fstat_check(&mut self, fd: i32, size: u64) {
        let mount = self.fd_mount(fd);
        let r = self.call(mount, true, |io| io.fstat(fd));
        self.check_size(r, size);
    }

    fn wrote(&mut self, fd: i32, r: Res<usize>, want: usize) {
        match r {
            Ok(n) if n == want => {
                if self.fd_mount(fd) {
                    self.stats.write_bytes += n as u64;
                }
            }
            Ok(_) => self.stats.failed += 1,
            Err(_) => {}
        }
    }

    /// `write` of all of `buf` at the cursor; a short write is a failure.
    pub fn write(&mut self, fd: i32, buf: &[u8]) {
        let mount = self.fd_mount(fd);
        let r = self.call(mount, false, |io| io.write(fd, buf));
        self.wrote(fd, r, buf.len());
    }

    /// `pwrite` of all of `buf` at `off`.
    pub fn pwrite(&mut self, fd: i32, buf: &[u8], off: u64) {
        let mount = self.fd_mount(fd);
        let r = self.call(mount, false, |io| io.pwrite(fd, buf, off));
        self.wrote(fd, r, buf.len());
    }

    /// `read` at the cursor into `buf`, without checking (the dd source).
    pub fn read(&mut self, fd: i32, buf: &mut [u8]) -> usize {
        let mount = self.fd_mount(fd);
        self.call(mount, false, |io| io.read(fd, buf)).unwrap_or(0)
    }

    /// `read` at the cursor, which stands at logical offset `off`; every
    /// byte returned must equal `expected` (the file's seeded bytes from
    /// `off` on). Returns the byte count (0 at EOF or on error).
    pub fn read_check(&mut self, fd: i32, buf: &mut [u8], off: u64, expected: &[u8]) -> usize {
        let mount = self.fd_mount(fd);
        let r = self.call(mount, false, |io| io.read(fd, buf));
        self.verify(fd, r, buf, off, expected)
    }

    /// `pread` at `off`, checked like [`Rec::read_check`]. Exactly
    /// `buf.len()` bytes must come back.
    pub fn pread_check(&mut self, fd: i32, buf: &mut [u8], off: u64, expected: &[u8]) {
        let mount = self.fd_mount(fd);
        let r = self.call(mount, false, |io| io.pread(fd, buf, off));
        if self.verify(fd, r, buf, off, expected) != buf.len() {
            self.stats.failed += 1;
        }
    }

    fn verify(&mut self, fd: i32, r: Res<usize>, buf: &[u8], off: u64, expected: &[u8]) -> usize {
        let Ok(n) = r else { return 0 };
        let t0 = self.traced.then(Instant::now);
        let (key, read_only) = self
            .fds
            .get(&fd)
            .map_or((0, false), |f| (f.key, f.read_only));
        if n > expected.len() || buf[..n] != expected[..n] {
            self.stats.mismatches += 1;
        } else if n > 0 {
            self.stats.digest = self
                .stats
                .digest
                .wrapping_add(mix(key ^ mix(off ^ mix(n as u64))));
        }
        if self.fd_mount(fd) {
            self.stats.read_bytes += n as u64;
            if read_only {
                self.stats.snapshot_read_bytes += n as u64;
            }
        }
        if let Some(t0) = t0 {
            self.stats.driver_ns += t0.elapsed().as_nanos() as u64;
        }
        n
    }
}
