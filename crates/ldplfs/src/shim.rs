//! The LDPLFS shim: POSIX calls retargeted to PLFS.
//!
//! [`LdPlfs`] wraps an underlying [`PosixLayer`] (the stand-in for libc) and
//! a set of PLFS mounts. Any path falling inside a mount point is retargeted
//! to the PLFS API; everything else forwards untouched. Applications
//! written against `PosixLayer` cannot tell the difference — that is the
//! paper's whole point.
//!
//! The bookkeeping — the table of PLFS opens and the cursor kept in each
//! one's reserved descriptor — is the shim core in [`crate::fdtable`], the
//! same code the `LD_PRELOAD` library runs. This front end reserves each
//! descriptor by opening a throwaway *scratch file* on the underlying layer
//! (the paper uses `/dev/random`), counts every call as intercepted or
//! passed through ([`ShimStats`]), and records shim-layer trace spans.

pub use crate::fdtable::{clear_virtual_pid, current_pid, set_virtual_pid, ShimMount};
use crate::fdtable::{Entry, Reserve, ShimCore};
use crate::posix::{Errno, Fd, OpenFlags, PosixDirent, PosixLayer, PosixResult, PosixStat, Whence};
use crate::stats::{OpClass, ShimStats};
use iotrace::{Layer, OpEvent, OpKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Reserves descriptors as scratch files on the underlying layer.
struct Scratch {
    under: Arc<dyn PosixLayer>,
    dir: String,
    seq: AtomicU64,
}

/// A scratch file, unlinked when the last descriptor sharing its open
/// closes.
struct ScratchFile {
    under: Arc<dyn PosixLayer>,
    path: String,
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = self.under.unlink(&self.path);
    }
}

impl Reserve for Scratch {
    type Extra = ScratchFile;

    fn reserve(&self, _logical: &str, _flags: OpenFlags) -> PosixResult<(Fd, ScratchFile)> {
        let path = format!(
            "{}/fd.{}.{}",
            self.dir,
            current_pid(),
            // relaxed: unique scratch-name suffix; only atomicity of the add matters
            self.seq.fetch_add(1, Ordering::Relaxed)
        );
        let fd = self
            .under
            .open(&path, OpenFlags::RDWR | OpenFlags::CREAT, 0o600)?;
        let under = Arc::clone(&self.under);
        Ok((fd, ScratchFile { under, path }))
    }

    fn seek(&self, fd: Fd, offset: i64, whence: Whence) -> PosixResult<u64> {
        self.under.lseek(fd, offset, whence)
    }
}

/// The interposing POSIX layer (the `libldplfs` analogue).
pub struct LdPlfs {
    under: Arc<dyn PosixLayer>,
    core: ShimCore<Scratch>,
    stats: Arc<ShimStats>,
}

fn bytes(r: &PosixResult<usize>) -> u64 {
    *r.as_ref().unwrap_or(&0) as u64
}

impl LdPlfs {
    /// Build a shim over `under` with the given mounts. Creates the scratch
    /// directory used for fd reservation.
    pub fn new(under: Arc<dyn PosixLayer>, mounts: Vec<ShimMount>) -> PosixResult<LdPlfs> {
        let dir = "/.ldplfs_scratch".to_string();
        match under.mkdir(&dir, 0o700) {
            Ok(()) | Err(Errno::EEXIST) => {}
            Err(e) => return Err(e),
        }
        let scratch = Scratch {
            under: Arc::clone(&under),
            dir,
            seq: AtomicU64::new(0),
        };
        Ok(LdPlfs {
            under,
            core: ShimCore::new(mounts, scratch),
            stats: Arc::new(ShimStats::default()),
        })
    }

    /// Interception counters.
    pub fn stats(&self) -> &ShimStats {
        &self.stats
    }

    /// The underlying POSIX layer.
    pub fn underlying(&self) -> &Arc<dyn PosixLayer> {
        &self.under
    }

    /// The configured mounts.
    pub fn mounts(&self) -> &[ShimMount] {
        self.core.mounts()
    }

    /// Finish one call: `hit` is the core's result when the call was
    /// intercepted, otherwise `pass` forwards it. The call is counted and —
    /// when tracing was on at span start — its span closed with the event
    /// `ev` builds, stamped with the hit flag and the span's latency, so hit
    /// AND miss latencies land in the shim-layer histograms.
    fn done<'a, T>(
        &self,
        op: OpClass,
        t0: Option<Instant>,
        hit: Option<PosixResult<T>>,
        pass: impl FnOnce() -> PosixResult<T>,
        ev: impl FnOnce(&PosixResult<T>) -> OpEvent<'a>,
    ) -> PosixResult<T> {
        let intercepted = hit.is_some();
        let r = hit.unwrap_or_else(pass);
        if intercepted {
            self.stats.hit(op);
        } else {
            self.stats.miss(op);
        }
        if let Some(t0) = t0 {
            iotrace::global().record(t0, ev(&r).hit(intercepted));
        }
        r
    }

    /// A metadata call on `fd`: through the core (`hit`) on a PLFS fd,
    /// else on the underlying layer (`pass`); traced as `kind` with the fd.
    fn fd_meta<T>(
        &self,
        kind: OpKind,
        fd: Fd,
        hit: impl FnOnce(&Entry<ScratchFile>) -> PosixResult<T>,
        pass: impl FnOnce() -> PosixResult<T>,
    ) -> PosixResult<T> {
        let t0 = iotrace::global().start();
        let hit = self.core.entry(fd).map(|e| hit(&e));
        self.done(OpClass::Meta, t0, hit, pass, |_| {
            OpEvent::new(Layer::Shim, kind).fd(fd as i64)
        })
    }

    /// A data call on `fd` of trace kind `kind`: through the core (`hit`)
    /// on a PLFS fd, else on the underlying layer (`pass`); `buf` goes to
    /// whichever runs. Its event carries the byte count, and the offset `at`
    /// of a positional call.
    fn data<B>(
        &self,
        kind: OpKind,
        fd: Fd,
        at: Option<u64>,
        buf: B,
        hit: impl FnOnce(&Entry<ScratchFile>, B) -> PosixResult<usize>,
        pass: impl FnOnce(B) -> PosixResult<usize>,
    ) -> PosixResult<usize> {
        let t0 = iotrace::global().start();
        let op = match kind {
            OpKind::Read | OpKind::ListRead => OpClass::Read,
            _ => OpClass::Write,
        };
        let (hit, buf) = match self.core.entry(fd) {
            Some(e) => (Some(hit(&e, buf)), None),
            None => (None, Some(buf)),
        };
        let pass = || buf.map_or(Err(Errno::EBADF), pass);
        self.done(op, t0, hit, pass, |r| {
            let ev = OpEvent::new(Layer::Shim, kind).fd(fd as i64);
            at.map_or(ev, |off| ev.offset(off)).bytes(bytes(r))
        })
    }

    fn path_meta<T>(
        &self,
        path: &str,
        plfs: impl FnOnce(crate::fdtable::At) -> PosixResult<T>,
        pass: impl FnOnce() -> PosixResult<T>,
    ) -> PosixResult<T> {
        let t0 = iotrace::global().start();
        let hit = self.core.route(path).map(plfs);
        self.done(OpClass::Meta, t0, hit, pass, |_| {
            OpEvent::new(Layer::Shim, OpKind::Meta).path(path)
        })
    }
}

impl PosixLayer for LdPlfs {
    fn open(&self, path: &str, flags: OpenFlags, mode: u32) -> PosixResult<Fd> {
        let t0 = iotrace::global().start();
        let hit = self.core.route(path).map(|at| self.core.open(at, flags));
        let pass = || self.under.open(path, flags, mode);
        self.done(OpClass::Open, t0, hit, pass, |r| {
            OpEvent::new(Layer::Shim, OpKind::Open)
                .path(path)
                .fd(*r.as_ref().unwrap_or(&-1) as i64)
        })
    }

    fn close(&self, fd: Fd) -> PosixResult<()> {
        let t0 = iotrace::global().start();
        // Release both halves unconditionally: a PLFS-side close error must
        // not leak the reserved descriptor or the scratch file (and vice
        // versa). The first error is reported.
        let hit = self.core.forget(fd).map(|r| {
            let under = self.under.close(fd);
            r.and(under)
        });
        let pass = || self.under.close(fd);
        self.done(OpClass::Close, t0, hit, pass, |_| {
            OpEvent::new(Layer::Shim, OpKind::Close).fd(fd as i64)
        })
    }

    fn read(&self, fd: Fd, buf: &mut [u8]) -> PosixResult<usize> {
        let hit = |e: &_, b| self.core.read(fd, e, b, None);
        self.data(OpKind::Read, fd, None, buf, hit, |b| self.under.read(fd, b))
    }

    fn write(&self, fd: Fd, buf: &[u8]) -> PosixResult<usize> {
        let hit = |e: &_, b| self.core.write(fd, e, b, None);
        self.data(OpKind::Write, fd, None, buf, hit, |b| {
            self.under.write(fd, b)
        })
    }

    fn pread(&self, fd: Fd, buf: &mut [u8], off: u64) -> PosixResult<usize> {
        let hit = |e: &_, b| self.core.read(fd, e, b, Some(off));
        let pass = |b| self.under.pread(fd, b, off);
        self.data(OpKind::Read, fd, Some(off), buf, hit, pass)
    }

    fn pwrite(&self, fd: Fd, buf: &[u8], off: u64) -> PosixResult<usize> {
        let hit = |e: &_, b| self.core.write(fd, e, b, Some(off));
        let pass = |b| self.under.pwrite(fd, b, off);
        self.data(OpKind::Write, fd, Some(off), buf, hit, pass)
    }

    fn readv(&self, fd: Fd, bufs: &mut [&mut [u8]]) -> PosixResult<usize> {
        let hit = |e: &_, b: &mut [&mut [u8]]| self.core.readv(fd, e, b, None);
        self.data(OpKind::ListRead, fd, None, bufs, hit, |b| {
            self.under.readv(fd, b)
        })
    }

    fn writev(&self, fd: Fd, bufs: &[&[u8]]) -> PosixResult<usize> {
        let hit = |e: &_, b: &[&[u8]]| self.core.writev(fd, e, b, None);
        self.data(OpKind::ListWrite, fd, None, bufs, hit, |b| {
            self.under.writev(fd, b)
        })
    }

    fn preadv(&self, fd: Fd, bufs: &mut [&mut [u8]], off: u64) -> PosixResult<usize> {
        let hit = |e: &_, b: &mut [&mut [u8]]| self.core.readv(fd, e, b, Some(off));
        let pass = |b| self.under.preadv(fd, b, off);
        self.data(OpKind::ListRead, fd, Some(off), bufs, hit, pass)
    }

    fn pwritev(&self, fd: Fd, bufs: &[&[u8]], off: u64) -> PosixResult<usize> {
        let hit = |e: &_, b: &[&[u8]]| self.core.writev(fd, e, b, Some(off));
        let pass = |b| self.under.pwritev(fd, b, off);
        self.data(OpKind::ListWrite, fd, Some(off), bufs, hit, pass)
    }

    fn lseek(&self, fd: Fd, offset: i64, whence: Whence) -> PosixResult<u64> {
        let t0 = iotrace::global().start();
        let hit = self
            .core
            .entry(fd)
            .map(|e| self.core.lseek(fd, &e, offset, whence));
        let pass = || self.under.lseek(fd, offset, whence);
        self.done(OpClass::Seek, t0, hit, pass, |r| {
            OpEvent::new(Layer::Shim, OpKind::Seek)
                .fd(fd as i64)
                .offset(*r.as_ref().unwrap_or(&0))
        })
    }

    fn fsync(&self, fd: Fd) -> PosixResult<()> {
        let pass = || self.under.fsync(fd);
        self.fd_meta(OpKind::Sync, fd, |e| self.core.fsync(e), pass)
    }

    fn dup(&self, fd: Fd) -> PosixResult<Fd> {
        // dup the reserved descriptor: the new fd shares the cursor.
        let hit = |_: &_| self.under.dup(fd).inspect(|&new| self.core.dup(fd, new));
        self.fd_meta(OpKind::Meta, fd, hit, || self.under.dup(fd))
    }

    fn stat(&self, path: &str) -> PosixResult<PosixStat> {
        self.path_meta(path, |at| self.core.stat(at), || self.under.stat(path))
    }

    fn fstat(&self, fd: Fd) -> PosixResult<PosixStat> {
        let pass = || self.under.fstat(fd);
        self.fd_meta(OpKind::Meta, fd, |e| self.core.fstat(e), pass)
    }

    fn unlink(&self, path: &str) -> PosixResult<()> {
        self.path_meta(path, |at| self.core.unlink(at), || self.under.unlink(path))
    }

    fn mkdir(&self, path: &str, mode: u32) -> PosixResult<()> {
        let pass = || self.under.mkdir(path, mode);
        self.path_meta(path, |at| self.core.mkdir(at), pass)
    }

    fn rmdir(&self, path: &str) -> PosixResult<()> {
        self.path_meta(path, |at| self.core.rmdir(at), || self.under.rmdir(path))
    }

    fn rename(&self, from: &str, to: &str) -> PosixResult<()> {
        let t0 = iotrace::global().start();
        let hit = match (self.core.route(from), self.core.route(to)) {
            (Some(f), Some(t)) => Some(self.core.rename(f, t)),
            (None, None) => None,
            // Crossing the mount boundary is a different "device".
            _ => Some(Err(Errno::EXDEV)),
        };
        let pass = || self.under.rename(from, to);
        self.done(OpClass::Meta, t0, hit, pass, |_| {
            OpEvent::new(Layer::Shim, OpKind::Meta).path(from)
        })
    }

    fn access(&self, path: &str) -> PosixResult<()> {
        self.path_meta(path, |at| self.core.access(at), || self.under.access(path))
    }

    fn truncate(&self, path: &str, len: u64) -> PosixResult<()> {
        let t0 = iotrace::global().start();
        let hit = self.core.route(path).map(|at| self.core.truncate(at, len));
        let pass = || self.under.truncate(path, len);
        self.done(OpClass::Meta, t0, hit, pass, |_| {
            OpEvent::new(Layer::Shim, OpKind::Trunc)
                .path(path)
                .bytes(len)
        })
    }

    fn ftruncate(&self, fd: Fd, len: u64) -> PosixResult<()> {
        let t0 = iotrace::global().start();
        let hit = self.core.entry(fd).map(|e| self.core.ftruncate(&e, len));
        let pass = || self.under.ftruncate(fd, len);
        self.done(OpClass::Meta, t0, hit, pass, |_| {
            OpEvent::new(Layer::Shim, OpKind::Trunc)
                .fd(fd as i64)
                .bytes(len)
        })
    }

    fn readdir(&self, path: &str) -> PosixResult<Vec<PosixDirent>> {
        self.path_meta(
            path,
            |at| self.core.readdir(at),
            || self.under.readdir(path),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realposix::RealPosix;
    use plfs::{MemBacking, Plfs};

    const CREATE_RW: OpenFlags = OpenFlags(0o2 | 0o100);

    fn shim() -> LdPlfs {
        let dir = std::env::temp_dir().join(format!(
            "ldplfs-shim-{}-{}",
            std::process::id(),
            plfs::index::next_timestamp()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let under = Arc::new(RealPosix::rooted(dir).unwrap());
        let plfs = Plfs::new(Arc::new(MemBacking::new()));
        LdPlfs::new(
            under,
            vec![ShimMount {
                mount_point: "/plfs".to_string(),
                plfs,
            }],
        )
        .unwrap()
    }

    #[test]
    fn open_inside_mount_is_intercepted() {
        let s = shim();
        let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
        assert_eq!(s.stats().intercepted(OpClass::Open), 1);
        s.write(fd, b"via shim").unwrap();
        s.close(fd).unwrap();
        // The container lives on the PLFS backing, not the real FS.
        assert!(s.mounts()[0].plfs.is_container("/f"));
        // And the logical file stats correctly through the shim.
        assert_eq!(s.stat("/plfs/f").unwrap().size, 8);
    }

    #[test]
    fn open_outside_mount_passes_through() {
        let s = shim();
        let fd = s.open("/normal.txt", CREATE_RW, 0o644).unwrap();
        assert_eq!(s.stats().passthrough(OpClass::Open), 1);
        s.write(fd, b"plain").unwrap();
        s.close(fd).unwrap();
        assert_eq!(s.underlying().stat("/normal.txt").unwrap().size, 5);
        assert!(!s.mounts()[0].plfs.is_container("/normal.txt"));
    }

    #[test]
    fn cursor_semantics_match_posix() {
        let s = shim();
        let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
        s.write(fd, b"0123456789").unwrap();
        assert_eq!(s.lseek(fd, 0, Whence::Cur).unwrap(), 10);
        s.lseek(fd, 2, Whence::Set).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(s.read(fd, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"2345");
        assert_eq!(s.lseek(fd, 0, Whence::Cur).unwrap(), 6);
        // SEEK_END uses the logical PLFS size.
        assert_eq!(s.lseek(fd, -3, Whence::End).unwrap(), 7);
        s.read(fd, &mut buf[..3]).unwrap();
        assert_eq!(&buf[..3], b"789");
        s.close(fd).unwrap();
    }

    #[test]
    fn interleaved_read_write_via_cursor() {
        let s = shim();
        let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
        s.write(fd, b"aaaa").unwrap();
        s.lseek(fd, 0, Whence::Set).unwrap();
        let mut b2 = [0u8; 2];
        s.read(fd, &mut b2).unwrap();
        s.write(fd, b"XX").unwrap(); // overwrite bytes 2..4
        s.lseek(fd, 0, Whence::Set).unwrap();
        let mut all = [0u8; 4];
        s.read(fd, &mut all).unwrap();
        assert_eq!(&all, b"aaXX");
        s.close(fd).unwrap();
    }

    #[test]
    fn pread_pwrite_do_not_move_cursor() {
        let s = shim();
        let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
        s.write(fd, b"base").unwrap();
        s.pwrite(fd, b"zz", 10).unwrap();
        let mut buf = [0u8; 2];
        s.pread(fd, &mut buf, 10).unwrap();
        assert_eq!(&buf, b"zz");
        assert_eq!(
            s.lseek(fd, 0, Whence::Cur).unwrap(),
            4,
            "cursor still after write"
        );
        s.close(fd).unwrap();
    }

    #[test]
    fn append_mode_writes_at_logical_eof() {
        let s = shim();
        let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
        s.write(fd, b"head").unwrap();
        s.close(fd).unwrap();
        let fd = s
            .open("/plfs/f", OpenFlags::WRONLY | OpenFlags::APPEND, 0o644)
            .unwrap();
        s.write(fd, b"+tail").unwrap();
        s.close(fd).unwrap();
        assert_eq!(s.stat("/plfs/f").unwrap().size, 9);
    }

    #[test]
    fn dup_shares_plfs_cursor() {
        let s = shim();
        let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
        s.write(fd, b"abcdef").unwrap();
        s.lseek(fd, 0, Whence::Set).unwrap();
        let fd2 = s.dup(fd).unwrap();
        let mut buf = [0u8; 2];
        s.read(fd, &mut buf).unwrap();
        assert_eq!(s.lseek(fd2, 0, Whence::Cur).unwrap(), 2, "shared cursor");
        s.close(fd).unwrap();
        s.read(fd2, &mut buf).unwrap();
        assert_eq!(&buf, b"cd", "fd2 alive after fd close");
        s.close(fd2).unwrap();
    }

    #[test]
    fn scratch_files_are_cleaned_up() {
        let s = shim();
        let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
        let fd2 = s.dup(fd).unwrap();
        assert_eq!(s.underlying().readdir("/.ldplfs_scratch").unwrap().len(), 1);
        s.close(fd).unwrap();
        assert_eq!(
            s.underlying().readdir("/.ldplfs_scratch").unwrap().len(),
            1,
            "scratch survives while a dup is open"
        );
        s.close(fd2).unwrap();
        assert_eq!(s.underlying().readdir("/.ldplfs_scratch").unwrap().len(), 0);
    }

    #[test]
    fn metadata_ops_route_by_mount() {
        let s = shim();
        s.mkdir("/plfs/dir", 0o755).unwrap();
        s.mkdir("/outside", 0o755).unwrap();
        assert!(s.mounts()[0].plfs.getattr("/dir").unwrap().is_dir);
        assert!(s.underlying().stat("/outside").unwrap().is_dir);
        assert!(
            s.underlying().stat("/plfs").is_err(),
            "mount dir not on real FS"
        );
        s.rmdir("/plfs/dir").unwrap();
        assert!(s.access("/plfs/dir").is_err());
    }

    #[test]
    fn rename_within_and_across_mounts() {
        let s = shim();
        let fd = s.open("/plfs/a", CREATE_RW, 0o644).unwrap();
        s.write(fd, b"x").unwrap();
        s.close(fd).unwrap();
        s.rename("/plfs/a", "/plfs/b").unwrap();
        assert_eq!(s.stat("/plfs/b").unwrap().size, 1);
        assert_eq!(s.rename("/plfs/b", "/outside"), Err(Errno::EXDEV));
    }

    #[test]
    fn unlink_removes_container() {
        let s = shim();
        let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
        s.close(fd).unwrap();
        s.unlink("/plfs/f").unwrap();
        assert_eq!(s.access("/plfs/f"), Err(Errno::ENOENT));
    }

    #[test]
    fn truncate_and_ftruncate() {
        let s = shim();
        let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
        s.write(fd, b"0123456789").unwrap();
        s.ftruncate(fd, 4).unwrap();
        assert_eq!(s.fstat(fd).unwrap().size, 4);
        // Writes after ftruncate land in fresh droppings.
        s.pwrite(fd, b"ZZ", 4).unwrap();
        assert_eq!(s.fstat(fd).unwrap().size, 6);
        s.close(fd).unwrap();
        s.truncate("/plfs/f", 2).unwrap();
        assert_eq!(s.stat("/plfs/f").unwrap().size, 2);
    }

    #[test]
    fn readdir_mixes_containers_and_dirs() {
        let s = shim();
        s.mkdir("/plfs/sub", 0o755).unwrap();
        let fd = s.open("/plfs/file", CREATE_RW, 0o644).unwrap();
        s.close(fd).unwrap();
        let ents = s.readdir("/plfs").unwrap();
        let names: Vec<_> = ents.iter().map(|e| (e.name.as_str(), e.is_dir)).collect();
        assert!(
            names.contains(&("file", false)),
            "container looks like a file"
        );
        assert!(names.contains(&("sub", true)));
    }

    #[test]
    fn virtual_pids_separate_writers() {
        let s = shim();
        let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
        set_virtual_pid(11);
        s.pwrite(fd, b"aa", 0).unwrap();
        set_virtual_pid(22);
        s.pwrite(fd, b"bb", 2).unwrap();
        clear_virtual_pid();
        let mut buf = [0u8; 4];
        s.pread(fd, &mut buf, 0).unwrap();
        assert_eq!(&buf, b"aabb");
        s.close(fd).unwrap();
        // Two pids → at least two data droppings.
        let b = s.mounts()[0].plfs.backing().clone();
        let d = plfs::container::list_droppings(b.as_ref(), "/f").unwrap();
        assert!(d.len() >= 2, "expected >=2 droppings, got {}", d.len());
    }

    #[test]
    fn vectored_io_round_trips_through_plfs() {
        let s = shim();
        let fd = s.open("/plfs/v", CREATE_RW, 0o644).unwrap();
        assert_eq!(s.writev(fd, &[b"abc", b"", b"defgh"]).unwrap(), 8);
        assert_eq!(s.lseek(fd, 0, Whence::Cur).unwrap(), 8, "cursor advanced");
        s.lseek(fd, 0, Whence::Set).unwrap();
        let mut a = [0u8; 2];
        let mut b = [0u8; 6];
        assert_eq!(s.readv(fd, &mut [&mut a[..], &mut b[..]]).unwrap(), 8);
        assert_eq!(&a, b"ab");
        assert_eq!(&b, b"cdefgh");
        // Positional variants leave the cursor alone.
        let mut c = [0u8; 3];
        assert_eq!(s.preadv(fd, &mut [&mut c[..]], 2).unwrap(), 3);
        assert_eq!(&c, b"cde");
        s.pwritev(fd, &[b"X", b"Y"], 0).unwrap();
        assert_eq!(s.lseek(fd, 0, Whence::Cur).unwrap(), 8, "cursor untouched");
        let mut d = [0u8; 2];
        s.pread(fd, &mut d, 0).unwrap();
        assert_eq!(&d, b"XY");
        s.close(fd).unwrap();
    }

    #[test]
    fn writev_costs_one_index_record() {
        let s = shim();
        let fd = s.open("/plfs/one", CREATE_RW, 0o644).unwrap();
        s.writev(fd, &[b"aaaa", b"bbbb", b"cccc"]).unwrap();
        s.close(fd).unwrap();
        let b = s.mounts()[0].plfs.backing().clone();
        let d = plfs::container::list_droppings(b.as_ref(), "/one").unwrap();
        let idx_bytes: u64 = d
            .iter()
            .filter_map(|dr| dr.index_path.as_deref())
            .map(|p| b.stat(p).map(|st| st.size).unwrap_or(0))
            .sum();
        assert_eq!(
            idx_bytes,
            plfs::index::RECORD_SIZE as u64,
            "three iovecs gathered into a single index record"
        );
    }

    #[test]
    fn writev_in_append_mode_lands_at_logical_eof() {
        let s = shim();
        let fd = s.open("/plfs/ap", CREATE_RW, 0o644).unwrap();
        s.write(fd, b"head").unwrap();
        s.close(fd).unwrap();
        let fd = s
            .open("/plfs/ap", OpenFlags::WRONLY | OpenFlags::APPEND, 0o644)
            .unwrap();
        assert_eq!(s.writev(fd, &[b"+t", b"ail"]).unwrap(), 5);
        s.close(fd).unwrap();
        assert_eq!(s.stat("/plfs/ap").unwrap().size, 9);
    }

    #[test]
    fn preadv2_pwritev2_follow_offset_convention() {
        let s = shim();
        let fd = s.open("/plfs/v2", CREATE_RW, 0o644).unwrap();
        // off = -1 means cursor semantics.
        assert_eq!(s.pwritev2(fd, &[b"01", b"23"], -1, 0).unwrap(), 4);
        assert_eq!(s.lseek(fd, 0, Whence::Cur).unwrap(), 4);
        // Explicit offset does not move the cursor.
        assert_eq!(s.pwritev2(fd, &[b"45"], 4, 0).unwrap(), 2);
        assert_eq!(s.lseek(fd, 0, Whence::Cur).unwrap(), 4);
        s.lseek(fd, 0, Whence::Set).unwrap();
        let mut a = [0u8; 6];
        assert_eq!(s.preadv2(fd, &mut [&mut a[..]], -1, 0).unwrap(), 6);
        assert_eq!(&a, b"012345");
        assert_eq!(s.lseek(fd, 0, Whence::Cur).unwrap(), 6);
        let mut b = [0u8; 2];
        assert_eq!(s.preadv2(fd, &mut [&mut b[..]], 2, 0).unwrap(), 2);
        assert_eq!(&b, b"23");
        assert_eq!(s.lseek(fd, 0, Whence::Cur).unwrap(), 6, "cursor untouched");
        // Other negative offsets are EINVAL.
        assert_eq!(s.preadv2(fd, &mut [&mut b[..]], -2, 0), Err(Errno::EINVAL));
        assert_eq!(s.pwritev2(fd, &[b"x"], -2, 0), Err(Errno::EINVAL));
        s.close(fd).unwrap();
    }

    #[test]
    fn ebadf_on_unknown_fd_passthrough() {
        let s = shim();
        let mut buf = [0u8; 1];
        assert_eq!(s.read(424242, &mut buf), Err(Errno::EBADF));
    }

    #[test]
    fn failed_plfs_close_still_releases_fd_and_scratch() {
        // Regression: a PLFS-side close error used to `?`-return before the
        // reserved descriptor was closed and the scratch file unlinked,
        // leaking both for the life of the process.
        let dir = std::env::temp_dir().join(format!(
            "ldplfs-shim-faulty-{}-{}",
            std::process::id(),
            plfs::index::next_timestamp()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let under = Arc::new(RealPosix::rooted(dir).unwrap());
        let faulty = Arc::new(plfs::Faulty::new(Arc::new(MemBacking::new())));
        let s = LdPlfs::new(
            under,
            vec![ShimMount {
                mount_point: "/plfs".to_string(),
                plfs: Plfs::new(faulty.clone()),
            }],
        )
        .unwrap();

        let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
        s.write(fd, b"payload").unwrap();
        assert_eq!(s.underlying().readdir("/.ldplfs_scratch").unwrap().len(), 1);

        // Fail the data-dropping sync that PlfsFd::close performs.
        faulty.arm(plfs::FaultRule {
            op: plfs::FaultOp::Meta,
            path_contains: "dropping.data".to_string(),
            after: 0,
            times: u64::MAX,
            errno_like: plfs::FaultKind::Io,
        });
        assert_eq!(s.close(fd), Err(Errno::EIO), "PLFS close error surfaces");

        // ...but nothing leaked: the reserved fd is gone from the table and
        // the underlying layer, and the scratch file was unlinked.
        let mut buf = [0u8; 1];
        assert_eq!(s.read(fd, &mut buf), Err(Errno::EBADF));
        assert_eq!(s.underlying().readdir("/.ldplfs_scratch").unwrap().len(), 0);
    }
}
