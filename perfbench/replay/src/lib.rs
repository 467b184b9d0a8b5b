//! In-process replay of the benchmark op stream through the library
//! layers under the preload entry points.
//!
//! * [`PlfsIo`] calls `Plfs` and `PlfsFd` the way the preload library does
//!   per libc call, and times each call by API function.
//! * [`ShimIo`] sends the same calls through the trait-level shim
//!   `ldplfs::LdPlfs` over [`CountingPosix`].
//! * [`TimedBacking`] times every backing call; the replay stacks it on
//!   `plfs::MeterBacking` (op counts) over `plfs::RealBacking`.
//!
//! [`Routed`] sends calls on the mount to the layer and every other call
//! to plain libc, as the preload library does.

use ldplfs::{
    clear_virtual_pid, set_virtual_pid, Errno, Fd, LdPlfs, LdPlfsBuilder, PosixDirent, PosixLayer,
    PosixResult, PosixStat, Whence,
};
use perfbench_workload::{Io, LibcIo, Res};
use plfs::{BackStat, Backing, BackingFile, OpenFlags, Plfs, PlfsFd};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Flag bits the preload library passes on to PLFS.
const PASSED_FLAGS: i32 = 0o3 | 0o100 | 0o200 | 0o1000 | 0o2000;
/// Chunk size of a snapshot materialisation, as in the preload library.
const SNAPSHOT_CHUNK: usize = 1 << 20;

fn time<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let r = f();
    *acc += t0.elapsed().as_nanos() as u64;
    r
}

/// A `Plfs` configured as the preload library configures it when only
/// `LDPLFS_MOUNT` and `LDPLFS_BACKEND` are set.
pub fn preload_plfs(backing: Arc<dyn Backing>) -> Plfs {
    Plfs::new(backing)
        .with_backend_conf(plfs::BackendConf::default())
        .with_meta_conf(plfs::MetaConf::default())
}

// ---------------------------------------------------------------------------
// Backing decorator.
// ---------------------------------------------------------------------------

/// Counters of a [`TimedBacking`].
#[derive(Debug, Default)]
pub struct BackingTimes {
    /// Time inside backing and backing-file calls.
    pub busy_ns: AtomicU64,
    /// Bytes passed to `pwrite` and `append`.
    pub write_bytes: AtomicU64,
}

impl BackingTimes {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let r = f();
        // relaxed: statistics read after the round, no data published
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    /// `(busy_ns, write_bytes)` so far.
    pub fn get(&self) -> (u64, u64) {
        // relaxed: statistics read after the round, no data published
        (
            self.busy_ns.load(Ordering::Relaxed),
            self.write_bytes.load(Ordering::Relaxed),
        )
    }
}

/// A [`Backing`] decorator that times every call (see module docs).
pub struct TimedBacking {
    inner: Arc<dyn Backing>,
    times: Arc<BackingTimes>,
}

impl TimedBacking {
    /// Time every call on `inner`.
    pub fn new(inner: Arc<dyn Backing>) -> TimedBacking {
        TimedBacking {
            inner,
            times: Arc::default(),
        }
    }

    /// The shared counters.
    pub fn times(&self) -> Arc<BackingTimes> {
        Arc::clone(&self.times)
    }

    fn timed<T>(&self, f: impl FnOnce(&dyn Backing) -> T) -> T {
        self.times.timed(|| f(&*self.inner))
    }

    fn wrap(&self, r: plfs::Result<Box<dyn BackingFile>>) -> plfs::Result<Box<dyn BackingFile>> {
        r.map(|inner| {
            Box::new(TimedFile {
                inner,
                times: Arc::clone(&self.times),
            }) as Box<dyn BackingFile>
        })
    }
}

struct TimedFile {
    inner: Box<dyn BackingFile>,
    times: Arc<BackingTimes>,
}

impl TimedFile {
    fn timed<T>(&self, f: impl FnOnce(&dyn BackingFile) -> T) -> T {
        self.times.timed(|| f(&*self.inner))
    }

    fn wrote(&self, n: usize) {
        // relaxed: statistics read after the round, no data published
        self.times
            .write_bytes
            .fetch_add(n as u64, Ordering::Relaxed);
    }
}

impl BackingFile for TimedFile {
    fn pread(&self, buf: &mut [u8], off: u64) -> plfs::Result<usize> {
        self.timed(|f| f.pread(buf, off))
    }
    fn pwrite(&self, buf: &[u8], off: u64) -> plfs::Result<usize> {
        self.wrote(buf.len());
        self.timed(|f| f.pwrite(buf, off))
    }
    fn append(&self, buf: &[u8]) -> plfs::Result<u64> {
        self.wrote(buf.len());
        self.timed(|f| f.append(buf))
    }
    fn size(&self) -> plfs::Result<u64> {
        self.timed(|f| f.size())
    }
    fn sync(&self) -> plfs::Result<()> {
        self.timed(|f| f.sync())
    }
}

impl Backing for TimedBacking {
    fn create(&self, path: &str, excl: bool) -> plfs::Result<Box<dyn BackingFile>> {
        let r = self.timed(|b| b.create(path, excl));
        self.wrap(r)
    }
    fn open(&self, path: &str, write: bool) -> plfs::Result<Box<dyn BackingFile>> {
        let r = self.timed(|b| b.open(path, write));
        self.wrap(r)
    }
    fn mkdir(&self, path: &str) -> plfs::Result<()> {
        self.timed(|b| b.mkdir(path))
    }
    fn mkdir_all(&self, path: &str) -> plfs::Result<()> {
        self.timed(|b| b.mkdir_all(path))
    }
    fn readdir(&self, path: &str) -> plfs::Result<Vec<String>> {
        self.timed(|b| b.readdir(path))
    }
    fn unlink(&self, path: &str) -> plfs::Result<()> {
        self.timed(|b| b.unlink(path))
    }
    fn rmdir(&self, path: &str) -> plfs::Result<()> {
        self.timed(|b| b.rmdir(path))
    }
    fn rename(&self, from: &str, to: &str) -> plfs::Result<()> {
        self.timed(|b| b.rename(from, to))
    }
    fn stat(&self, path: &str) -> plfs::Result<BackStat> {
        self.timed(|b| b.stat(path))
    }
    fn exists(&self, path: &str) -> bool {
        self.timed(|b| b.exists(path))
    }
    fn truncate(&self, path: &str, len: u64) -> plfs::Result<()> {
        self.timed(|b| b.truncate(path, len))
    }
    fn seal(&self, path: &str) -> plfs::Result<()> {
        self.timed(|b| b.seal(path))
    }
}

// ---------------------------------------------------------------------------
// PosixLayer decorator.
// ---------------------------------------------------------------------------

/// A [`PosixLayer`] decorator that counts every call: under the shim,
/// these are its scratch-descriptor and cursor (`lseek`) calls.
pub struct CountingPosix {
    inner: Arc<dyn PosixLayer>,
    calls: Arc<AtomicU64>,
}

impl CountingPosix {
    /// Count every call on `inner`.
    pub fn new(inner: Arc<dyn PosixLayer>) -> CountingPosix {
        CountingPosix {
            inner,
            calls: Arc::default(),
        }
    }

    /// The shared call counter.
    pub fn calls(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.calls)
    }

    fn c(&self) -> &dyn PosixLayer {
        // relaxed: a statistic read after the round, no data published
        self.calls.fetch_add(1, Ordering::Relaxed);
        &*self.inner
    }
}

impl PosixLayer for CountingPosix {
    fn open(&self, path: &str, flags: OpenFlags, mode: u32) -> PosixResult<Fd> {
        self.c().open(path, flags, mode)
    }
    fn close(&self, fd: Fd) -> PosixResult<()> {
        self.c().close(fd)
    }
    fn read(&self, fd: Fd, buf: &mut [u8]) -> PosixResult<usize> {
        self.c().read(fd, buf)
    }
    fn write(&self, fd: Fd, buf: &[u8]) -> PosixResult<usize> {
        self.c().write(fd, buf)
    }
    fn pread(&self, fd: Fd, buf: &mut [u8], off: u64) -> PosixResult<usize> {
        self.c().pread(fd, buf, off)
    }
    fn pwrite(&self, fd: Fd, buf: &[u8], off: u64) -> PosixResult<usize> {
        self.c().pwrite(fd, buf, off)
    }
    fn lseek(&self, fd: Fd, offset: i64, whence: Whence) -> PosixResult<u64> {
        self.c().lseek(fd, offset, whence)
    }
    fn fsync(&self, fd: Fd) -> PosixResult<()> {
        self.c().fsync(fd)
    }
    fn dup(&self, fd: Fd) -> PosixResult<Fd> {
        self.c().dup(fd)
    }
    fn stat(&self, path: &str) -> PosixResult<PosixStat> {
        self.c().stat(path)
    }
    fn fstat(&self, fd: Fd) -> PosixResult<PosixStat> {
        self.c().fstat(fd)
    }
    fn unlink(&self, path: &str) -> PosixResult<()> {
        self.c().unlink(path)
    }
    fn mkdir(&self, path: &str, mode: u32) -> PosixResult<()> {
        self.c().mkdir(path, mode)
    }
    fn rmdir(&self, path: &str) -> PosixResult<()> {
        self.c().rmdir(path)
    }
    fn rename(&self, from: &str, to: &str) -> PosixResult<()> {
        self.c().rename(from, to)
    }
    fn access(&self, path: &str) -> PosixResult<()> {
        self.c().access(path)
    }
    fn truncate(&self, path: &str, len: u64) -> PosixResult<()> {
        self.c().truncate(path, len)
    }
    fn ftruncate(&self, fd: Fd, len: u64) -> PosixResult<()> {
        self.c().ftruncate(fd, len)
    }
    fn readdir(&self, path: &str) -> PosixResult<Vec<PosixDirent>> {
        self.c().readdir(path)
    }
}

// ---------------------------------------------------------------------------
// Layers as Io.
// ---------------------------------------------------------------------------

/// Time spent in each `Plfs`/`PlfsFd` function, nanoseconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct PlfsTimes {
    /// `Plfs::open`.
    pub open: u64,
    /// `PlfsFd::read`, snapshot materialisation included.
    pub read: u64,
    /// `PlfsFd::write`.
    pub write: u64,
    /// `PlfsFd::close`.
    pub close: u64,
    /// `Plfs::getattr` and `PlfsFd::size`.
    pub getattr: u64,
    /// `Plfs::unlink`.
    pub unlink: u64,
    /// Calls made.
    pub calls: u64,
}

impl PlfsTimes {
    /// Time in all functions.
    pub fn busy(&self) -> u64 {
        self.open + self.read + self.write + self.close + self.getattr + self.unlink
    }
}

enum Open {
    Plfs {
        fd: Arc<PlfsFd>,
        cursor: u64,
    },
    /// A read-only open, served from the snapshot the preload library
    /// would have copied into its memfd.
    Snapshot {
        data: Vec<u8>,
        cursor: u64,
    },
}

fn plfs_err(e: plfs::Error) -> i32 {
    e.errno()
}

/// Copy from `data[pos..]` into `buf`, as a read on a memfd would.
fn copy_out(data: &[u8], pos: &mut u64, buf: &mut [u8]) -> usize {
    let start = (*pos as usize).min(data.len());
    let n = buf.len().min(data.len() - start);
    buf[..n].copy_from_slice(&data[start..start + n]);
    *pos += n as u64;
    n
}

/// [`Io`] over `Plfs` and `PlfsFd`, mirroring the preload library (see
/// module docs). Paths are mount-relative.
pub struct PlfsIo {
    backing: Arc<dyn Backing>,
    plfs: Plfs,
    /// The coordinating process's instance while a rank runs.
    parent: Option<Plfs>,
    pid: u64,
    fds: HashMap<i32, Open>,
    next_fd: i32,
    /// Per-function times.
    pub times: PlfsTimes,
    /// Metadata-cache `(hits, misses)` of instances already retired.
    retired_meta: (u64, u64),
}

/// Process id the coordinating process presents to PLFS.
const PARENT_PID: u64 = 1;
/// Process id of rank `r` is `RANK_PID_BASE + r`.
const RANK_PID_BASE: u64 = 1000;

impl PlfsIo {
    /// A fresh `Plfs` over `backing`, configured like the preload library.
    pub fn new(backing: Arc<dyn Backing>) -> PlfsIo {
        PlfsIo {
            plfs: preload_plfs(Arc::clone(&backing)),
            backing,
            parent: None,
            pid: PARENT_PID,
            fds: HashMap::new(),
            next_fd: 0,
            times: PlfsTimes::default(),
            retired_meta: (0, 0),
        }
    }

    /// Metadata-cache `(hits, misses)` over every instance used.
    pub fn meta_counters(&self) -> (u64, u64) {
        let (h, m) = self.plfs.meta_cache_counters();
        let (ph, pm) = self
            .parent
            .as_ref()
            .map_or((0, 0), |p| p.meta_cache_counters());
        (self.retired_meta.0 + h + ph, self.retired_meta.1 + m + pm)
    }

    fn retire(&mut self, old: Plfs) {
        let (h, m) = old.meta_cache_counters();
        self.retired_meta.0 += h;
        self.retired_meta.1 += m;
    }

    fn install(&mut self, o: Open) -> i32 {
        let fd = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(fd, o);
        fd
    }

    fn snapshot(&mut self, path: &str) -> Res<Vec<u8>> {
        let t = &mut self.times;
        t.calls += 1;
        let pfd = time(&mut t.open, || {
            self.plfs.open(path, OpenFlags::RDONLY, self.pid)
        })
        .map_err(plfs_err)?;
        let mut data = Vec::new();
        let r = loop {
            let at = data.len();
            data.resize(at + SNAPSHOT_CHUNK, 0);
            t.calls += 1;
            match time(&mut t.read, || pfd.read(&mut data[at..], at as u64)) {
                Ok(n) => {
                    data.truncate(at + n);
                    if n == 0 {
                        break Ok(());
                    }
                }
                Err(e) => break Err(plfs_err(e)),
            }
        };
        t.calls += 1;
        let closed = time(&mut t.close, || pfd.close(self.pid));
        r?;
        closed.map_err(plfs_err)?;
        Ok(data)
    }

    fn open_mut(&mut self, fd: i32) -> Res<&mut Open> {
        self.fds.get_mut(&fd).ok_or(9)
    }
}

impl Io for PlfsIo {
    fn open(&mut self, path: &str, flags: i32, _mode: u32) -> Res<i32> {
        let oflags = OpenFlags((flags & PASSED_FLAGS) as u32);
        if !oflags.writable() && !oflags.create() {
            let data = self.snapshot(path)?;
            return Ok(self.install(Open::Snapshot { data, cursor: 0 }));
        }
        self.times.calls += 1;
        let fd = time(&mut self.times.open, || {
            self.plfs.open(path, oflags, self.pid)
        })
        .map_err(plfs_err)?;
        Ok(self.install(Open::Plfs { fd, cursor: 0 }))
    }

    fn close(&mut self, fd: i32) -> Res<()> {
        match self.fds.remove(&fd).ok_or(9)? {
            Open::Snapshot { .. } => Ok(()),
            Open::Plfs { fd, .. } => {
                let t = &mut self.times;
                t.calls += 1;
                time(&mut t.close, || fd.close(self.pid))
                    .map(|_| ())
                    .map_err(plfs_err)
            }
        }
    }

    fn read(&mut self, fd: i32, buf: &mut [u8]) -> Res<usize> {
        let mut t = self.times;
        let r = match self.open_mut(fd)? {
            Open::Snapshot { data, cursor } => Ok(copy_out(data, cursor, buf)),
            Open::Plfs { fd, cursor } => {
                t.calls += 1;
                let n = time(&mut t.read, || fd.read(buf, *cursor)).map_err(plfs_err)?;
                *cursor += n as u64;
                Ok(n)
            }
        };
        self.times = t;
        r
    }

    fn write(&mut self, fd: i32, buf: &[u8]) -> Res<usize> {
        let (mut t, pid) = (self.times, self.pid);
        let r = match self.open_mut(fd)? {
            Open::Snapshot { .. } => Err(9),
            Open::Plfs { fd, cursor } => {
                t.calls += 1;
                let n = time(&mut t.write, || fd.write(buf, *cursor, pid)).map_err(plfs_err)?;
                *cursor += n as u64;
                Ok(n)
            }
        };
        self.times = t;
        r
    }

    fn pread(&mut self, fd: i32, buf: &mut [u8], off: u64) -> Res<usize> {
        let mut t = self.times;
        let r = match self.open_mut(fd)? {
            Open::Snapshot { data, .. } => {
                let mut pos = off;
                Ok(copy_out(data, &mut pos, buf))
            }
            Open::Plfs { fd, .. } => {
                t.calls += 1;
                time(&mut t.read, || fd.read(buf, off)).map_err(plfs_err)
            }
        };
        self.times = t;
        r
    }

    fn pwrite(&mut self, fd: i32, buf: &[u8], off: u64) -> Res<usize> {
        let (mut t, pid) = (self.times, self.pid);
        let r = match self.open_mut(fd)? {
            Open::Snapshot { .. } => Err(9),
            Open::Plfs { fd, .. } => {
                t.calls += 1;
                time(&mut t.write, || fd.write(buf, off, pid)).map_err(plfs_err)
            }
        };
        self.times = t;
        r
    }

    fn stat(&mut self, path: &str) -> Res<u64> {
        let t = &mut self.times;
        t.calls += 1;
        time(&mut t.getattr, || self.plfs.getattr(path))
            .map(|s| s.size)
            .map_err(plfs_err)
    }

    fn fstat(&mut self, fd: i32) -> Res<u64> {
        let mut t = self.times;
        let r = match self.open_mut(fd)? {
            Open::Snapshot { data, .. } => Ok(data.len() as u64),
            Open::Plfs { fd, .. } => {
                t.calls += 1;
                time(&mut t.getattr, || fd.size()).map_err(plfs_err)
            }
        };
        self.times = t;
        r
    }

    fn unlink(&mut self, path: &str) -> Res<()> {
        let t = &mut self.times;
        t.calls += 1;
        time(&mut t.unlink, || self.plfs.unlink(path)).map_err(plfs_err)
    }

    /// Each rank is a process of its own under the preload library: a
    /// fresh `Plfs` (cold caches) and its own pid.
    fn set_rank(&mut self, rank: Option<u32>) {
        let fresh = preload_plfs(Arc::clone(&self.backing));
        let old = std::mem::replace(&mut self.plfs, fresh);
        match rank {
            Some(r) => {
                if self.parent.is_none() {
                    self.parent = Some(old);
                } else {
                    self.retire(old);
                }
                self.pid = RANK_PID_BASE + r as u64;
            }
            None => {
                self.retire(old);
                if let Some(p) = self.parent.take() {
                    let unused = std::mem::replace(&mut self.plfs, p);
                    self.retire(unused);
                }
                self.pid = PARENT_PID;
            }
        }
    }
}

/// [`Io`] through the trait-level shim `LdPlfs`. Read-only opens are
/// materialised through the shim, as the preload library materialises
/// them through PLFS, so both replays do the same PLFS work.
pub struct ShimIo {
    make: Box<dyn Fn() -> LdPlfs>,
    under_calls: Arc<AtomicU64>,
    shim: LdPlfs,
    parent: Option<LdPlfs>,
    snapshots: HashMap<i32, (Vec<u8>, u64)>,
    next_snapshot: i32,
    /// Time inside shim calls.
    pub busy_ns: u64,
    /// Shim calls made.
    pub calls: u64,
    /// Calls the shim made on its underlying layer during those calls.
    pub posix_calls: u64,
}

/// Snapshot descriptors of [`ShimIo`] start here, clear of the shim's own.
const SNAPSHOT_FD_BASE: i32 = 1 << 19;

impl ShimIo {
    /// A shim built by `make`, each rank getting a fresh one, over a
    /// layer whose calls `under_calls` counts ([`CountingPosix::calls`]).
    pub fn new(make: Box<dyn Fn() -> LdPlfs>, under_calls: Arc<AtomicU64>) -> ShimIo {
        ShimIo {
            shim: make(),
            make,
            under_calls,
            parent: None,
            snapshots: HashMap::new(),
            next_snapshot: SNAPSHOT_FD_BASE,
            busy_ns: 0,
            calls: 0,
            posix_calls: 0,
        }
    }

    fn call<T>(&mut self, f: impl FnOnce(&LdPlfs) -> PosixResult<T>) -> Res<T> {
        self.calls += 1;
        // relaxed: a statistic of this thread's own calls
        let before = self.under_calls.load(Ordering::Relaxed);
        let shim = &self.shim;
        let r = time(&mut self.busy_ns, || f(shim)).map_err(|Errno(e)| e);
        self.posix_calls += self.under_calls.load(Ordering::Relaxed) - before;
        r
    }

    fn snapshot(&mut self, path: &str) -> Res<Vec<u8>> {
        let fd = self.call(|s| s.open(path, OpenFlags::RDONLY, 0))?;
        let mut data = Vec::new();
        let r = loop {
            let at = data.len();
            data.resize(at + SNAPSHOT_CHUNK, 0);
            match self.call(|s| s.read(fd, &mut data[at..])) {
                Ok(n) => {
                    data.truncate(at + n);
                    if n == 0 {
                        break Ok(data);
                    }
                }
                Err(e) => break Err(e),
            }
        };
        self.call(|s| s.close(fd))?;
        r
    }
}

impl Io for ShimIo {
    fn open(&mut self, path: &str, flags: i32, mode: u32) -> Res<i32> {
        let oflags = OpenFlags((flags & PASSED_FLAGS) as u32);
        if !oflags.writable() && !oflags.create() {
            let data = self.snapshot(path)?;
            let fd = self.next_snapshot;
            self.next_snapshot += 1;
            self.snapshots.insert(fd, (data, 0));
            return Ok(fd);
        }
        self.call(|s| s.open(path, oflags, mode))
    }

    fn close(&mut self, fd: i32) -> Res<()> {
        if self.snapshots.remove(&fd).is_some() {
            return Ok(());
        }
        self.call(|s| s.close(fd))
    }

    fn read(&mut self, fd: i32, buf: &mut [u8]) -> Res<usize> {
        if let Some((data, cursor)) = self.snapshots.get_mut(&fd) {
            return Ok(copy_out(data, cursor, buf));
        }
        self.call(|s| s.read(fd, buf))
    }

    fn write(&mut self, fd: i32, buf: &[u8]) -> Res<usize> {
        self.call(|s| s.write(fd, buf))
    }

    fn pread(&mut self, fd: i32, buf: &mut [u8], off: u64) -> Res<usize> {
        if let Some((data, _)) = self.snapshots.get(&fd) {
            let mut pos = off;
            return Ok(copy_out(data, &mut pos, buf));
        }
        self.call(|s| s.pread(fd, buf, off))
    }

    fn pwrite(&mut self, fd: i32, buf: &[u8], off: u64) -> Res<usize> {
        self.call(|s| s.pwrite(fd, buf, off))
    }

    fn stat(&mut self, path: &str) -> Res<u64> {
        self.call(|s| s.stat(path)).map(|st| st.size)
    }

    fn fstat(&mut self, fd: i32) -> Res<u64> {
        if let Some((data, _)) = self.snapshots.get(&fd) {
            return Ok(data.len() as u64);
        }
        self.call(|s| s.fstat(fd)).map(|st| st.size)
    }

    fn unlink(&mut self, path: &str) -> Res<()> {
        self.call(|s| s.unlink(path))
    }

    /// Each rank gets a fresh shim and PLFS instance and its own pid.
    fn set_rank(&mut self, rank: Option<u32>) {
        match rank {
            Some(r) => {
                let old = std::mem::replace(&mut self.shim, (self.make)());
                if self.parent.is_none() {
                    self.parent = Some(old);
                }
                set_virtual_pid(RANK_PID_BASE + r as u64);
            }
            None => {
                if let Some(p) = self.parent.take() {
                    self.shim = p;
                }
                clear_virtual_pid();
            }
        }
    }
}

/// Build the shim the replay uses: `LdPlfs` over `under`, with one mount at
/// `mount` served by a preload-configured `Plfs` over `backing`.
pub fn build_shim(under: Arc<dyn PosixLayer>, mount: &str, backing: Arc<dyn Backing>) -> LdPlfs {
    LdPlfsBuilder::new(under)
        .mount(mount, preload_plfs(backing))
        .build()
        .expect("the shim's scratch directory is creatable under a fresh root")
}

// ---------------------------------------------------------------------------
// Routing.
// ---------------------------------------------------------------------------

/// Descriptors of the layer are offset by this, clear of kernel fds.
const LAYER_FD_BASE: i32 = 1 << 24;

/// Sends calls on `mount` to `layer` and everything else to plain libc.
/// `strip_mount` hands the layer mount-relative paths (as `Plfs` wants)
/// instead of full paths (as `LdPlfs` wants).
pub struct Routed<L> {
    /// The layer serving the mount.
    pub layer: L,
    plain: LibcIo,
    mount: String,
    strip_mount: bool,
}

impl<L: Io> Routed<L> {
    /// Route `mount`'s paths to `layer`.
    pub fn new(layer: L, mount: &str, strip_mount: bool) -> Routed<L> {
        Routed {
            layer,
            plain: LibcIo,
            mount: mount.trim_end_matches('/').to_string(),
            strip_mount,
        }
    }

    fn on_mount<'p>(&self, path: &'p str) -> Option<&'p str> {
        let rest = path.strip_prefix(self.mount.as_str())?;
        if !rest.starts_with('/') {
            return None;
        }
        Some(if self.strip_mount { rest } else { path })
    }
}

impl<L: Io> Io for Routed<L> {
    fn open(&mut self, path: &str, flags: i32, mode: u32) -> Res<i32> {
        match self.on_mount(path) {
            Some(p) => self.layer.open(p, flags, mode).map(|fd| fd + LAYER_FD_BASE),
            None => self.plain.open(path, flags, mode),
        }
    }
    fn close(&mut self, fd: i32) -> Res<()> {
        if fd >= LAYER_FD_BASE {
            self.layer.close(fd - LAYER_FD_BASE)
        } else {
            self.plain.close(fd)
        }
    }
    fn read(&mut self, fd: i32, buf: &mut [u8]) -> Res<usize> {
        if fd >= LAYER_FD_BASE {
            self.layer.read(fd - LAYER_FD_BASE, buf)
        } else {
            self.plain.read(fd, buf)
        }
    }
    fn write(&mut self, fd: i32, buf: &[u8]) -> Res<usize> {
        if fd >= LAYER_FD_BASE {
            self.layer.write(fd - LAYER_FD_BASE, buf)
        } else {
            self.plain.write(fd, buf)
        }
    }
    fn pread(&mut self, fd: i32, buf: &mut [u8], off: u64) -> Res<usize> {
        if fd >= LAYER_FD_BASE {
            self.layer.pread(fd - LAYER_FD_BASE, buf, off)
        } else {
            self.plain.pread(fd, buf, off)
        }
    }
    fn pwrite(&mut self, fd: i32, buf: &[u8], off: u64) -> Res<usize> {
        if fd >= LAYER_FD_BASE {
            self.layer.pwrite(fd - LAYER_FD_BASE, buf, off)
        } else {
            self.plain.pwrite(fd, buf, off)
        }
    }
    fn stat(&mut self, path: &str) -> Res<u64> {
        match self.on_mount(path) {
            Some(p) => self.layer.stat(p),
            None => self.plain.stat(path),
        }
    }
    fn fstat(&mut self, fd: i32) -> Res<u64> {
        if fd >= LAYER_FD_BASE {
            self.layer.fstat(fd - LAYER_FD_BASE)
        } else {
            self.plain.fstat(fd)
        }
    }
    fn unlink(&mut self, path: &str) -> Res<()> {
        match self.on_mount(path) {
            Some(p) => self.layer.unlink(p),
            None => self.plain.unlink(path),
        }
    }
    fn set_rank(&mut self, rank: Option<u32>) {
        self.layer.set_rank(rank);
    }
}
