//! The POSIX layer abstraction that LDPLFS interposes.
//!
//! The real LDPLFS overloads libc symbols through the dynamic loader; the
//! portable equivalent is a trait capturing the slice of POSIX that matters
//! (paper Listing 1 plus the calls the UNIX-tools study needs). Applications
//! written against [`PosixLayer`] run unmodified over the raw OS
//! ([`crate::realposix::RealPosix`]), over the interposing shim
//! ([`crate::shim::LdPlfs`]) — which is the paper's experiment — or over a
//! simulated file system.
//!
//! Errors are raw `errno` values ([`Errno`]), exactly what an interposed C
//! caller would see.

pub use plfs::OpenFlags;
use std::fmt;
use std::ops::Deref;

/// A POSIX file descriptor.
pub type Fd = i32;

/// An errno-carrying error, as returned through the C ABI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Errno(pub i32);

/// Result type for POSIX operations.
pub type PosixResult<T> = Result<T, Errno>;

impl Errno {
    /// `ENOENT`
    pub const ENOENT: Errno = Errno(2);
    /// `EIO`
    pub const EIO: Errno = Errno(5);
    /// `EBADF`
    pub const EBADF: Errno = Errno(9);
    /// `EEXIST`
    pub const EEXIST: Errno = Errno(17);
    /// `EXDEV`
    pub const EXDEV: Errno = Errno(18);
    /// `ENOTDIR`
    pub const ENOTDIR: Errno = Errno(20);
    /// `EISDIR`
    pub const EISDIR: Errno = Errno(21);
    /// `EINVAL`
    pub const EINVAL: Errno = Errno(22);
    /// `ENOTEMPTY`
    pub const ENOTEMPTY: Errno = Errno(39);
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "errno {}", self.0)
    }
}

impl std::error::Error for Errno {}

impl From<plfs::Error> for Errno {
    fn from(e: plfs::Error) -> Errno {
        Errno(e.errno())
    }
}

impl From<std::io::Error> for Errno {
    fn from(e: std::io::Error) -> Errno {
        match e.raw_os_error() {
            Some(n) => Errno(n),
            None => match e.kind() {
                std::io::ErrorKind::NotFound => Errno::ENOENT,
                std::io::ErrorKind::AlreadyExists => Errno::EEXIST,
                _ => Errno::EIO,
            },
        }
    }
}

/// `lseek` origins, numbered as the C constants are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Whence {
    /// `SEEK_SET`
    Set = 0,
    /// `SEEK_CUR`
    Cur = 1,
    /// `SEEK_END`
    End = 2,
}

/// `stat(2)`-shaped metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PosixStat {
    /// File size in bytes.
    pub size: u64,
    /// True for directories.
    pub is_dir: bool,
}

/// One directory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PosixDirent {
    /// Entry name.
    pub name: String,
    /// True for directories.
    pub is_dir: bool,
}

/// The POSIX file API, fd- and cursor-based.
///
/// `read`/`write` advance an implicit per-description cursor; `dup` shares
/// that cursor between descriptors, as POSIX requires — the LDPLFS shim
/// leans on this by storing its PLFS cursor in a reserved descriptor of the
/// underlying layer.
pub trait PosixLayer: Send + Sync {
    /// `open(2)`.
    fn open(&self, path: &str, flags: OpenFlags, mode: u32) -> PosixResult<Fd>;
    /// `close(2)`.
    fn close(&self, fd: Fd) -> PosixResult<()>;
    /// `read(2)`: read at the cursor, advancing it.
    fn read(&self, fd: Fd, buf: &mut [u8]) -> PosixResult<usize>;
    /// `write(2)`: write at the cursor (or EOF with `O_APPEND`), advancing it.
    fn write(&self, fd: Fd, buf: &[u8]) -> PosixResult<usize>;
    /// `pread(2)`: positional read; does not move the cursor.
    fn pread(&self, fd: Fd, buf: &mut [u8], off: u64) -> PosixResult<usize>;
    /// `pwrite(2)`: positional write; does not move the cursor.
    fn pwrite(&self, fd: Fd, buf: &[u8], off: u64) -> PosixResult<usize>;
    /// `readv(2)`: scatter a cursor-positioned read over `bufs` in order.
    /// The default lowers to one [`PosixLayer::read`] per buffer, stopping
    /// at the first short read (EOF) — layers with a native vectored path
    /// override this to serve the whole vector in one operation.
    fn readv(&self, fd: Fd, bufs: &mut [&mut [u8]]) -> PosixResult<usize> {
        each(bufs.iter_mut().map(|b| &mut **b), |b| self.read(fd, b))
    }

    /// `writev(2)`: gather `bufs` into one cursor-positioned write. The
    /// default lowers to one [`PosixLayer::write`] per buffer, stopping at
    /// the first short write.
    fn writev(&self, fd: Fd, bufs: &[&[u8]]) -> PosixResult<usize> {
        each(bufs.iter().copied(), |b| self.write(fd, b))
    }

    /// `preadv(2)`: positional scatter read; does not move the cursor.
    /// Buffers fill from consecutive file offsets starting at `off`.
    fn preadv(&self, fd: Fd, bufs: &mut [&mut [u8]], off: u64) -> PosixResult<usize> {
        let mut pos = off;
        each(bufs.iter_mut().map(|b| &mut **b), |b| {
            let n = self.pread(fd, b, pos)?;
            pos += n as u64;
            Ok(n)
        })
    }

    /// `pwritev(2)`: positional gather write; does not move the cursor.
    fn pwritev(&self, fd: Fd, bufs: &[&[u8]], off: u64) -> PosixResult<usize> {
        let mut pos = off;
        each(bufs.iter().copied(), |b| {
            let n = self.pwrite(fd, b, pos)?;
            pos += n as u64;
            Ok(n)
        })
    }

    /// `preadv2(2)`: like [`PosixLayer::preadv`], but an offset of `-1`
    /// means "use (and advance) the cursor", i.e. `readv` semantics. Flags
    /// (`RWF_*`) are accepted and ignored, like a file system without
    /// per-call hints.
    fn preadv2(&self, fd: Fd, bufs: &mut [&mut [u8]], off: i64, _flags: u32) -> PosixResult<usize> {
        match v2_offset(off)? {
            None => self.readv(fd, bufs),
            Some(off) => self.preadv(fd, bufs, off),
        }
    }

    /// `pwritev2(2)`: like [`PosixLayer::pwritev`], with `-1` meaning
    /// `writev` semantics; flags accepted and ignored.
    fn pwritev2(&self, fd: Fd, bufs: &[&[u8]], off: i64, _flags: u32) -> PosixResult<usize> {
        match v2_offset(off)? {
            None => self.writev(fd, bufs),
            Some(off) => self.pwritev(fd, bufs, off),
        }
    }

    /// `lseek(2)`: move the cursor; returns the new offset.
    fn lseek(&self, fd: Fd, offset: i64, whence: Whence) -> PosixResult<u64>;
    /// `fsync(2)`.
    fn fsync(&self, fd: Fd) -> PosixResult<()>;
    /// `dup(2)`: new descriptor sharing the open file description (cursor).
    fn dup(&self, fd: Fd) -> PosixResult<Fd>;
    /// `stat(2)`.
    fn stat(&self, path: &str) -> PosixResult<PosixStat>;
    /// `fstat(2)`.
    fn fstat(&self, fd: Fd) -> PosixResult<PosixStat>;
    /// `unlink(2)`.
    fn unlink(&self, path: &str) -> PosixResult<()>;
    /// `mkdir(2)`.
    fn mkdir(&self, path: &str, mode: u32) -> PosixResult<()>;
    /// `rmdir(2)`.
    fn rmdir(&self, path: &str) -> PosixResult<()>;
    /// `rename(2)`.
    fn rename(&self, from: &str, to: &str) -> PosixResult<()>;
    /// `access(2)` (existence check).
    fn access(&self, path: &str) -> PosixResult<()>;
    /// `truncate(2)`.
    fn truncate(&self, path: &str, len: u64) -> PosixResult<()>;
    /// `ftruncate(2)`.
    fn ftruncate(&self, fd: Fd, len: u64) -> PosixResult<()>;
    /// Directory listing (`opendir`/`readdir` collapsed into one call).
    fn readdir(&self, path: &str) -> PosixResult<Vec<PosixDirent>>;
}

/// Move a vector one buffer at a time with `op`, skipping empty buffers and
/// stopping at the first short transfer, as `readv(2)`/`writev(2)` do.
pub(crate) fn each<B: Deref<Target = [u8]>>(
    bufs: impl Iterator<Item = B>,
    mut op: impl FnMut(&mut B) -> PosixResult<usize>,
) -> PosixResult<usize> {
    let mut total = 0;
    for mut buf in bufs.filter(|b| !b.is_empty()) {
        let n = op(&mut buf)?;
        total += n;
        if n < buf.len() {
            break;
        }
    }
    Ok(total)
}

/// The offset rule of `preadv2(2)`/`pwritev2(2)`: `-1` means the cursor
/// (`None`), any other negative offset is `EINVAL`.
pub fn v2_offset(off: i64) -> PosixResult<Option<u64>> {
    match off {
        -1 => Ok(None),
        _ => u64::try_from(off).map(Some).map_err(|_| Errno::EINVAL),
    }
}

/// Resolve `lseek` arithmetic against a current offset and file size,
/// enforcing the POSIX rules that the result must not be negative and must
/// be representable as an `off_t` (i64) — `lseek(2)` returns the offset in
/// an `off_t`, so anything above `i64::MAX` is `EINVAL`, not a success the
/// cursor store then rejects.
pub fn seek_target(cur: u64, size: u64, offset: i64, whence: Whence) -> PosixResult<u64> {
    let base = match whence {
        Whence::Set => 0i128,
        Whence::Cur => cur as i128,
        Whence::End => size as i128,
    };
    let target = base + offset as i128;
    if target < 0 || target > i64::MAX as i128 {
        return Err(Errno::EINVAL);
    }
    Ok(target as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seek_target_arithmetic() {
        assert_eq!(seek_target(10, 100, 5, Whence::Set).unwrap(), 5);
        assert_eq!(seek_target(10, 100, 5, Whence::Cur).unwrap(), 15);
        assert_eq!(seek_target(10, 100, -5, Whence::Cur).unwrap(), 5);
        assert_eq!(seek_target(10, 100, -10, Whence::End).unwrap(), 90);
        assert_eq!(
            seek_target(10, 100, 10, Whence::End).unwrap(),
            110,
            "past EOF is legal"
        );
    }

    #[test]
    fn seek_target_rejects_negative() {
        assert_eq!(seek_target(0, 0, -1, Whence::Cur), Err(Errno::EINVAL));
        assert_eq!(seek_target(5, 10, -11, Whence::End), Err(Errno::EINVAL));
    }

    #[test]
    fn seek_target_bounded_by_off_t() {
        // The largest representable offset is fine...
        assert_eq!(
            seek_target(0, 0, i64::MAX, Whence::Set).unwrap(),
            i64::MAX as u64
        );
        assert_eq!(
            seek_target(i64::MAX as u64, 0, 0, Whence::Cur).unwrap(),
            i64::MAX as u64
        );
        // ...but one past it is EINVAL, not a u64 that `lseek` could never
        // have returned.
        assert_eq!(
            seek_target(i64::MAX as u64, 0, 1, Whence::Cur),
            Err(Errno::EINVAL)
        );
        assert_eq!(
            seek_target(0, i64::MAX as u64, 1, Whence::End),
            Err(Errno::EINVAL)
        );
        assert_eq!(
            seek_target(u64::MAX, 0, 0, Whence::Cur),
            Err(Errno::EINVAL),
            "cursor already out of off_t range"
        );
    }

    #[test]
    fn errno_conversions() {
        let e: Errno = plfs::Error::NotFound("x".into()).into();
        assert_eq!(e, Errno::ENOENT);
        let e: Errno = std::io::Error::from_raw_os_error(13).into();
        assert_eq!(e, Errno(13));
    }
}
