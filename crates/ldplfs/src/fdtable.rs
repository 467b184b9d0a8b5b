//! The shim core: the paper's bookkeeping (§III.A), shared by both front
//! ends — [`crate::LdPlfs`], a [`crate::PosixLayer`] over another one, and
//! the `LD_PRELOAD` library in `crates/preload`.
//!
//! * **Mount matching** — a path inside a mount point is served by that
//!   mount's [`Plfs`]; the longest matching mount point wins.
//! * **fd synthesis** — each PLFS open reserves a genuine descriptor from the
//!   front end ([`Reserve::reserve`]), and that descriptor keys the table of
//!   PLFS opens.
//! * **cursor maintenance** — the PLFS API is positional, POSIX is
//!   cursor-based. The cursor lives in the reserved descriptor itself: before
//!   an op the core reads it with `lseek(fd, 0, SEEK_CUR)`, after it stores
//!   the new one with `lseek(fd, new, SEEK_SET)`. Because `dup(2)` shares the
//!   open file description, dup'd descriptors share the PLFS cursor for free,
//!   exactly like real files.
//!
//! The front ends differ only in how they reserve and seek a descriptor —
//! the [`Reserve`] trait. Everything else is here, once: `O_APPEND`, dup
//! sharing and close, one-list-call vectored I/O, `lseek`, fsync, fstat,
//! ftruncate and the path operations.
//!
//! **The pid rule.** Every PLFS call runs under [`current_pid`]. An entry
//! remembers the pid holding its PLFS reference; open and dup bind it to the
//! calling pid. A write by another pid — a forked child writing through an
//! inherited fd, or a simulated rank on a shared fd — first takes a
//! reference of its own and rebinds the entry, so that pid's close is a full
//! one: sync, meta entry, open-marker removal. A close by a pid the entry is
//! not bound to — a child closing an inherited fd it never wrote — leaves
//! PLFS alone, so the parent's writer state copied into the child is never
//! flushed from it.

use crate::posix::{
    seek_target, Errno, Fd, OpenFlags, PosixDirent, PosixResult, PosixStat, Whence,
};
use parking_lot::RwLock;
use plfs::mount::path_has_prefix;
use plfs::{Plfs, PlfsFd};
use std::cell::Cell;
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

thread_local! {
    static VIRTUAL_PID: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Override the pid this thread presents to PLFS (real LDPLFS uses
/// `getpid()`; simulated ranks on threads each set their own).
pub fn set_virtual_pid(pid: u64) {
    VIRTUAL_PID.with(|c| c.set(Some(pid)));
}

/// Clear the thread's pid override.
pub fn clear_virtual_pid() {
    VIRTUAL_PID.with(|c| c.set(None));
}

/// The pid PLFS operations run under for this thread.
pub fn current_pid() -> u64 {
    VIRTUAL_PID
        .with(|c| c.get())
        .unwrap_or(std::process::id() as u64)
}

/// How a front end reserves the real descriptor behind a PLFS open and
/// moves the cursor kept in it.
pub trait Reserve: Send + Sync {
    /// Front-end data kept with each PLFS open, shared by its dups.
    type Extra: Send + Sync;
    /// Reserve a descriptor for an open of the mount-relative path
    /// `logical` with `flags`.
    fn reserve(&self, logical: &str, flags: OpenFlags) -> PosixResult<(Fd, Self::Extra)>;
    /// `lseek(2)` on a reserved descriptor.
    fn seek(&self, fd: Fd, offset: i64, whence: Whence) -> PosixResult<u64>;
}

/// One configured mount.
pub struct ShimMount {
    /// Logical mount-point prefix.
    pub mount_point: String,
    /// The PLFS file system serving it.
    pub plfs: Plfs,
}

/// A path inside a mount.
#[derive(Debug, Clone, Copy)]
pub struct At<'a> {
    mount: usize,
    /// Mount-relative path (`/` for the mount point itself).
    pub rel: &'a str,
}

/// One PLFS open, shared by every descriptor dup'd from it.
pub struct OpenFile<X> {
    mount: usize,
    /// The PLFS handle.
    pub plfs_fd: Arc<PlfsFd>,
    /// Mount-relative logical path.
    pub logical: String,
    /// The front end's data.
    pub extra: X,
}

/// A table entry: the open a descriptor refers to, and the pid holding its
/// PLFS reference.
pub struct Entry<X> {
    /// The shared open.
    pub file: Arc<OpenFile<X>>,
    pid: u64,
}

/// Open flags PLFS understands; the rest (`O_CLOEXEC`, …) are the front
/// end's business.
const PLFS_FLAGS: u32 = 0o3 | 0o100 | 0o200 | 0o1000 | 0o2000;

/// The table of PLFS opens over a set of mounts, keyed by reserved
/// descriptor.
pub struct ShimCore<R: Reserve> {
    mounts: Vec<ShimMount>,
    table: RwLock<HashMap<Fd, Entry<R::Extra>>>,
    reserve: R,
}

impl<R: Reserve> ShimCore<R> {
    /// A core over `mounts` that reserves descriptors through `reserve`.
    pub fn new(mounts: Vec<ShimMount>, reserve: R) -> ShimCore<R> {
        ShimCore {
            mounts,
            table: RwLock::new(HashMap::new()),
            reserve,
        }
    }

    /// The configured mounts.
    pub fn mounts(&self) -> &[ShimMount] {
        &self.mounts
    }

    /// The mount serving `path`, if any; the longest mount point wins.
    pub fn route<'a>(&self, path: &'a str) -> Option<At<'a>> {
        let (mount, m) = self
            .mounts
            .iter()
            .enumerate()
            .filter(|(_, m)| path_has_prefix(path, &m.mount_point))
            .max_by_key(|(_, m)| m.mount_point.len())?;
        let rel = path.get(m.mount_point.len()..).unwrap_or_default();
        let rel = if rel.is_empty() { "/" } else { rel };
        Some(At { mount, rel })
    }

    /// The entry of `fd`, if it is a PLFS open.
    pub fn entry(&self, fd: Fd) -> Option<Entry<R::Extra>> {
        self.table.read().get(&fd).map(|e| Entry {
            file: Arc::clone(&e.file),
            pid: e.pid,
        })
    }

    /// Open `at` in PLFS and reserve its descriptor.
    pub fn open(&self, at: At, flags: OpenFlags) -> PosixResult<Fd> {
        self.open_with(at, flags, || self.reserve.reserve(at.rel, flags))
    }

    /// Open `at` in PLFS and track it under the descriptor `reserve` hands
    /// back — a new one, or one the front end already holds.
    pub fn open_with(
        &self,
        at: At,
        flags: OpenFlags,
        reserve: impl FnOnce() -> PosixResult<(Fd, R::Extra)>,
    ) -> PosixResult<Fd> {
        let pid = current_pid();
        let plfs_fd = self
            .plfs(at)
            .open(at.rel, OpenFlags(flags.0 & PLFS_FLAGS), pid)?;
        let (fd, extra) = reserve().inspect_err(|_| {
            let _ = plfs_fd.close(pid);
        })?;
        let file = Arc::new(OpenFile {
            mount: at.mount,
            plfs_fd,
            logical: at.rel.to_string(),
            extra,
        });
        self.track(fd, Entry { file, pid });
        Ok(fd)
    }

    /// Track `fd` as `e`. An entry left for the number (its descriptor was
    /// closed where the front end could not see it) is released. It drops
    /// only after the table lock is released: the last reference to a PLFS
    /// open closes its droppings, which in the preload library re-enters
    /// `close`, which takes the lock.
    fn track(&self, fd: Fd, e: Entry<R::Extra>) {
        let stale = self.table.write().insert(fd, e);
        if let Some(old) = stale {
            let _ = release(old);
        }
    }

    /// Drop `fd`'s entry and release its PLFS reference: the bookkeeping
    /// half of `close` (the front end closes the descriptor). `None` if
    /// `fd` is not a PLFS open.
    pub fn forget(&self, fd: Fd) -> Option<PosixResult<()>> {
        // Most fds are not PLFS opens: the shared lock settles those.
        if !self.table.read().contains_key(&fd) {
            return None;
        }
        let e = self.table.write().remove(&fd)?;
        Some(release(e))
    }

    /// Bookkeeping after the front end duplicated `old` onto `new`: `new`
    /// drops any previous identity, then shares `old`'s open and cursor.
    /// `dup2(fd, fd)` changes nothing.
    pub fn dup(&self, old: Fd, new: Fd) {
        if old == new {
            return;
        }
        match self.entry(old) {
            Some(e) => {
                let pid = current_pid();
                e.file.plfs_fd.add_ref(pid);
                self.track(new, Entry { file: e.file, pid });
            }
            None => {
                let _ = self.forget(new);
            }
        }
    }

    fn cursor(&self, fd: Fd) -> PosixResult<u64> {
        self.reserve.seek(fd, 0, Whence::Cur)
    }

    fn set_cursor(&self, fd: Fd, off: u64) -> PosixResult<()> {
        let off = i64::try_from(off).map_err(|_| Errno::EINVAL)?;
        self.reserve.seek(fd, off, Whence::Set).map(drop)
    }

    /// Run `op` at `at`, or at the cursor, which then advances by the bytes
    /// `op` moved.
    fn at_cursor(
        &self,
        fd: Fd,
        at: Option<u64>,
        op: impl FnOnce(u64) -> plfs::Result<usize>,
    ) -> PosixResult<usize> {
        let off = match at {
            Some(off) => off,
            None => self.cursor(fd)?,
        };
        let n = op(off)?;
        if at.is_none() {
            self.set_cursor(fd, off + n as u64)?;
        }
        Ok(n)
    }

    /// The pid a write through `fd` runs under: the calling pid, which first
    /// takes a PLFS reference when the entry is bound to another (the pid
    /// rule).
    fn writer(&self, fd: Fd, e: &Entry<R::Extra>) -> u64 {
        let pid = current_pid();
        if pid != e.pid {
            let rebound = self
                .table
                .write()
                .get_mut(&fd)
                .filter(|t| t.pid != pid)
                .map(|t| t.pid = pid)
                .is_some();
            if rebound {
                e.file.plfs_fd.add_ref(pid);
            }
        }
        pid
    }

    /// `read`/`pread`: at `at`, or at the cursor, advancing it.
    pub fn read(
        &self,
        fd: Fd,
        e: &Entry<R::Extra>,
        buf: &mut [u8],
        at: Option<u64>,
    ) -> PosixResult<usize> {
        self.at_cursor(fd, at, |off| e.file.plfs_fd.read(buf, off))
    }

    /// `write`/`pwrite`: at `at`, or at the cursor, advancing it.
    pub fn write(
        &self,
        fd: Fd,
        e: &Entry<R::Extra>,
        buf: &[u8],
        at: Option<u64>,
    ) -> PosixResult<usize> {
        self.put(fd, e, buf, at, false)
    }

    /// The write path of `write` and `writev`; `list` writes `data` as one
    /// list-I/O extent.
    fn put(
        &self,
        fd: Fd,
        e: &Entry<R::Extra>,
        data: &[u8],
        at: Option<u64>,
        list: bool,
    ) -> PosixResult<usize> {
        let pid = self.writer(fd, e);
        let f = &e.file.plfs_fd;
        if at.is_none() && f.flags().append() {
            // O_APPEND: EOF resolution and the write happen atomically
            // inside PLFS, so concurrent appenders cannot clobber each other.
            let (off, n) = f.append(data, pid)?;
            self.set_cursor(fd, off + n as u64)?;
            return Ok(n);
        }
        self.at_cursor(fd, at, |off| match list {
            true => f.write_list(data, &[(off, data.len() as u64)], pid),
            false => f.write(data, off, pid),
        })
    }

    /// `readv`/`preadv`: one PLFS list read covers the whole vector (one
    /// index query), then the bytes are scattered over `bufs`.
    pub fn readv<B: DerefMut<Target = [u8]>>(
        &self,
        fd: Fd,
        e: &Entry<R::Extra>,
        bufs: &mut [B],
        at: Option<u64>,
    ) -> PosixResult<usize> {
        let total = total_len(bufs)?;
        if total == 0 {
            return Ok(0);
        }
        let mut gather = vec![0u8; total];
        let n = self.at_cursor(fd, at, |off| {
            e.file
                .plfs_fd
                .read_list(&mut gather, &[(off, total as u64)])
        })?;
        let mut rest = gather.get(..n).unwrap_or_default();
        for buf in bufs.iter_mut() {
            let (head, tail) = rest.split_at(buf.len().min(rest.len()));
            buf[..head.len()].copy_from_slice(head);
            rest = tail;
        }
        Ok(n)
    }

    /// `writev`/`pwritev`: the buffers are gathered into one extent, so the
    /// whole vector costs a single PLFS index record instead of one per
    /// buffer.
    pub fn writev<B: Deref<Target = [u8]>>(
        &self,
        fd: Fd,
        e: &Entry<R::Extra>,
        bufs: &[B],
        at: Option<u64>,
    ) -> PosixResult<usize> {
        let total = total_len(bufs)?;
        if total == 0 {
            return Ok(0);
        }
        let mut gather = Vec::with_capacity(total);
        for buf in bufs {
            gather.extend_from_slice(buf);
        }
        self.put(fd, e, &gather, at, true)
    }

    /// `lseek`: `SEEK_END` resolves against the logical PLFS size (the
    /// reserved descriptor holds no data), and only `SEEK_END` asks for it.
    pub fn lseek(
        &self,
        fd: Fd,
        e: &Entry<R::Extra>,
        offset: i64,
        whence: Whence,
    ) -> PosixResult<u64> {
        let cur = match whence {
            Whence::Cur => self.cursor(fd)?,
            _ => 0,
        };
        let size = match whence {
            Whence::End => e.file.plfs_fd.size()?,
            _ => 0,
        };
        let target = seek_target(cur, size, offset, whence)?;
        self.set_cursor(fd, target)?;
        Ok(target)
    }

    /// `fsync`: flush and sync the calling pid's droppings.
    pub fn fsync(&self, e: &Entry<R::Extra>) -> PosixResult<()> {
        Ok(e.file.plfs_fd.sync(current_pid())?)
    }

    /// `fstat`: the logical size as this open sees it.
    pub fn fstat(&self, e: &Entry<R::Extra>) -> PosixResult<PosixStat> {
        let size = e.file.plfs_fd.size()?;
        Ok(PosixStat {
            size,
            is_dir: false,
        })
    }

    /// `ftruncate`: quiesce the open's writers, then truncate its logical
    /// path.
    pub fn ftruncate(&self, e: &Entry<R::Extra>, len: u64) -> PosixResult<()> {
        e.file.plfs_fd.reset_writers()?;
        Ok(self.mounts[e.file.mount].plfs.trunc(&e.file.logical, len)?)
    }

    /// The [`Plfs`] serving `at`.
    fn plfs(&self, at: At) -> &Plfs {
        &self.mounts[at.mount].plfs
    }

    /// `stat`. The mount point itself is a directory as long as it is
    /// mounted, so PLFS is not asked about it (hosts stat it at start-up).
    pub fn stat(&self, at: At) -> PosixResult<PosixStat> {
        if at.rel == "/" {
            return Ok(PosixStat {
                size: 0,
                is_dir: true,
            });
        }
        let st = self.plfs(at).getattr(at.rel)?;
        Ok(PosixStat {
            size: st.size,
            is_dir: st.is_dir,
        })
    }

    /// `unlink`.
    pub fn unlink(&self, at: At) -> PosixResult<()> {
        Ok(self.plfs(at).unlink(at.rel)?)
    }

    /// `mkdir`.
    pub fn mkdir(&self, at: At) -> PosixResult<()> {
        Ok(self.plfs(at).mkdir(at.rel)?)
    }

    /// `rmdir`.
    pub fn rmdir(&self, at: At) -> PosixResult<()> {
        Ok(self.plfs(at).rmdir(at.rel)?)
    }

    /// `access` (existence check); the mount point always exists.
    pub fn access(&self, at: At) -> PosixResult<()> {
        if at.rel == "/" {
            return Ok(());
        }
        Ok(self.plfs(at).access(at.rel)?)
    }

    /// `truncate`: no descriptor's writers need quiescing; the container is
    /// rewritten directly, as the kernel truncates a file nobody has open.
    pub fn truncate(&self, at: At, len: u64) -> PosixResult<()> {
        Ok(self.plfs(at).trunc(at.rel, len)?)
    }

    /// `rename`; across mounts it is `EXDEV`.
    pub fn rename(&self, from: At, to: At) -> PosixResult<()> {
        if from.mount != to.mount {
            return Err(Errno::EXDEV);
        }
        Ok(self.plfs(from).rename(from.rel, to.rel)?)
    }

    /// Directory listing: containers list as files.
    pub fn readdir(&self, at: At) -> PosixResult<Vec<PosixDirent>> {
        let ents = self.plfs(at).readdir(at.rel)?;
        Ok(ents
            .into_iter()
            .map(|d| PosixDirent {
                name: d.name,
                is_dir: d.is_dir,
            })
            .collect())
    }
}

/// Release an entry's PLFS reference under the pid rule.
fn release<X>(e: Entry<X>) -> PosixResult<()> {
    if e.pid != current_pid() {
        return Ok(());
    }
    e.file.plfs_fd.close(e.pid)?;
    Ok(())
}

/// Total length of a vector; `EINVAL` past `SSIZE_MAX`, as `readv(2)` has it.
fn total_len<B: Deref<Target = [u8]>>(bufs: &[B]) -> PosixResult<usize> {
    bufs.iter()
        .try_fold(0usize, |t, b| t.checked_add(b.len()))
        .filter(|&t| t <= isize::MAX as usize)
        .ok_or(Errno::EINVAL)
}
