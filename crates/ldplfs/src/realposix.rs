//! `RealPosix`: the POSIX layer over the actual OS file system.
//!
//! Plays the role of libc in our stack. Descriptors are handed out from a
//! private table (they are not kernel fds), but semantics follow POSIX:
//! cursors live in the *open file description*, so `dup`'d descriptors share
//! them — the property the LDPLFS bookkeeping relies on.
//!
//! A `RealPosix` can be rooted at a host directory (`RealPosix::rooted`) so
//! tests and examples operate in a sandbox; paths are then interpreted
//! relative to that root.

use crate::posix::{
    each, Errno, Fd, OpenFlags, PosixDirent, PosixLayer, PosixResult, PosixStat, Whence,
};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::Arc;

/// Shared open-file-description state: the file plus its cursor semantics.
/// `O_APPEND` is enforced by the OS file handle itself.
struct Description {
    file: Mutex<fs::File>,
    writable: bool,
    readable: bool,
}

/// The OS-backed POSIX layer.
pub struct RealPosix {
    root: Option<PathBuf>,
    fds: RwLock<HashMap<Fd, Arc<Description>>>,
    next_fd: AtomicI32,
}

impl RealPosix {
    /// Operate on absolute host paths.
    pub fn new() -> RealPosix {
        RealPosix {
            root: None,
            fds: RwLock::new(HashMap::new()),
            next_fd: AtomicI32::new(3), // 0..2 notionally stdio
        }
    }

    /// Operate in a sandbox rooted at `root` (created if missing).
    pub fn rooted(root: impl Into<PathBuf>) -> std::io::Result<RealPosix> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(RealPosix {
            root: Some(root),
            fds: RwLock::new(HashMap::new()),
            next_fd: AtomicI32::new(3),
        })
    }

    fn resolve(&self, path: &str) -> PosixResult<PathBuf> {
        match &self.root {
            None => Ok(PathBuf::from(path)),
            Some(root) => {
                let mut out = root.clone();
                for comp in path.split('/') {
                    match comp {
                        "" | "." => {}
                        ".." => return Err(Errno::EINVAL),
                        c => out.push(c),
                    }
                }
                Ok(out)
            }
        }
    }

    fn desc(&self, fd: Fd) -> PosixResult<Arc<Description>> {
        self.fds.read().get(&fd).cloned().ok_or(Errno::EBADF)
    }

    /// `fd`'s description, `EBADF` unless it was opened for writing
    /// (`write`) or reading.
    fn desc_for(&self, fd: Fd, write: bool) -> PosixResult<Arc<Description>> {
        let d = self.desc(fd)?;
        match if write { d.writable } else { d.readable } {
            true => Ok(d),
            false => Err(Errno::EBADF),
        }
    }

    fn install(&self, d: Arc<Description>) -> Fd {
        // relaxed: fd numbers only need to be unique; the atomic add guarantees that without ordering
        let fd = self.next_fd.fetch_add(1, Ordering::Relaxed);
        self.fds.write().insert(fd, d);
        fd
    }

    /// Number of live descriptors (leak checks in tests).
    pub fn open_fds(&self) -> usize {
        self.fds.read().len()
    }
}

impl Default for RealPosix {
    fn default() -> Self {
        Self::new()
    }
}

impl PosixLayer for RealPosix {
    fn open(&self, path: &str, flags: OpenFlags, _mode: u32) -> PosixResult<Fd> {
        let p = self.resolve(path)?;
        let mut opts = fs::OpenOptions::new();
        opts.read(flags.readable()).write(flags.writable());
        if flags.append() {
            opts.append(true);
        }
        if flags.create() {
            if flags.excl() {
                opts.create_new(true);
            } else {
                opts.create(true);
            }
        }
        if flags.trunc() && flags.writable() {
            opts.truncate(true);
        }
        let file = opts.open(&p).map_err(Errno::from)?;
        let md = file.metadata().map_err(Errno::from)?;
        if md.is_dir() {
            return Err(Errno::EISDIR);
        }
        Ok(self.install(Arc::new(Description {
            file: Mutex::new(file),
            writable: flags.writable(),
            readable: flags.readable(),
        })))
    }

    fn close(&self, fd: Fd) -> PosixResult<()> {
        self.fds.write().remove(&fd).map(|_| ()).ok_or(Errno::EBADF)
    }

    fn read(&self, fd: Fd, buf: &mut [u8]) -> PosixResult<usize> {
        let d = self.desc_for(fd, false)?;
        let r = d.file.lock().read(buf).map_err(Errno::from);
        r
    }

    fn write(&self, fd: Fd, buf: &[u8]) -> PosixResult<usize> {
        let d = self.desc_for(fd, true)?;
        let r = d.file.lock().write(buf).map_err(Errno::from);
        r
    }

    fn pread(&self, fd: Fd, buf: &mut [u8], off: u64) -> PosixResult<usize> {
        let d = self.desc_for(fd, false)?;
        let r = d.file.lock().read_at(buf, off).map_err(Errno::from);
        r
    }

    fn pwrite(&self, fd: Fd, buf: &[u8], off: u64) -> PosixResult<usize> {
        let d = self.desc_for(fd, true)?;
        let r = d.file.lock().write_at(buf, off).map_err(Errno::from);
        r
    }

    // One lock acquisition for the whole vector: the scatter is atomic
    // with respect to other readers/writers of this description.
    fn readv(&self, fd: Fd, bufs: &mut [&mut [u8]]) -> PosixResult<usize> {
        let d = self.desc_for(fd, false)?;
        let mut f = d.file.lock();
        each(bufs.iter_mut().map(|b| &mut **b), |b| {
            f.read(b).map_err(Errno::from)
        })
    }

    fn writev(&self, fd: Fd, bufs: &[&[u8]]) -> PosixResult<usize> {
        let d = self.desc_for(fd, true)?;
        let mut f = d.file.lock();
        each(bufs.iter().copied(), |b| f.write(b).map_err(Errno::from))
    }

    fn lseek(&self, fd: Fd, offset: i64, whence: Whence) -> PosixResult<u64> {
        let d = self.desc(fd)?;
        let mut f = d.file.lock();
        let from = match whence {
            Whence::Set => {
                if offset < 0 {
                    return Err(Errno::EINVAL);
                }
                SeekFrom::Start(offset as u64)
            }
            Whence::Cur => SeekFrom::Current(offset),
            Whence::End => SeekFrom::End(offset),
        };
        f.seek(from).map_err(Errno::from)
    }

    fn fsync(&self, fd: Fd) -> PosixResult<()> {
        let d = self.desc(fd)?;
        let r = d.file.lock().sync_data().map_err(Errno::from);
        r
    }

    fn dup(&self, fd: Fd) -> PosixResult<Fd> {
        let d = self.desc(fd)?;
        Ok(self.install(d))
    }

    fn stat(&self, path: &str) -> PosixResult<PosixStat> {
        let md = fs::metadata(self.resolve(path)?).map_err(Errno::from)?;
        Ok(PosixStat {
            size: md.len(),
            is_dir: md.is_dir(),
        })
    }

    fn fstat(&self, fd: Fd) -> PosixResult<PosixStat> {
        let d = self.desc(fd)?;
        let f = d.file.lock();
        let md = f.metadata().map_err(Errno::from)?;
        Ok(PosixStat {
            size: md.len(),
            is_dir: md.is_dir(),
        })
    }

    fn unlink(&self, path: &str) -> PosixResult<()> {
        fs::remove_file(self.resolve(path)?).map_err(Errno::from)
    }

    fn mkdir(&self, path: &str, _mode: u32) -> PosixResult<()> {
        fs::create_dir(self.resolve(path)?).map_err(Errno::from)
    }

    fn rmdir(&self, path: &str) -> PosixResult<()> {
        fs::remove_dir(self.resolve(path)?).map_err(Errno::from)
    }

    fn rename(&self, from: &str, to: &str) -> PosixResult<()> {
        fs::rename(self.resolve(from)?, self.resolve(to)?).map_err(Errno::from)
    }

    fn access(&self, path: &str) -> PosixResult<()> {
        if self.resolve(path)?.exists() {
            Ok(())
        } else {
            Err(Errno::ENOENT)
        }
    }

    fn truncate(&self, path: &str, len: u64) -> PosixResult<()> {
        let f = fs::OpenOptions::new()
            .write(true)
            .open(self.resolve(path)?)
            .map_err(Errno::from)?;
        f.set_len(len).map_err(Errno::from)
    }

    fn ftruncate(&self, fd: Fd, len: u64) -> PosixResult<()> {
        let d = self.desc_for(fd, true)?;
        let r = d.file.lock().set_len(len).map_err(Errno::from);
        r
    }

    fn readdir(&self, path: &str) -> PosixResult<Vec<PosixDirent>> {
        let mut out = Vec::new();
        for ent in fs::read_dir(self.resolve(path)?).map_err(Errno::from)? {
            let ent = ent.map_err(Errno::from)?;
            let is_dir = ent.file_type().map_err(Errno::from)?.is_dir();
            out.push(PosixDirent {
                name: ent.file_name().to_string_lossy().into_owned(),
                is_dir,
            });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sandbox(name: &str) -> RealPosix {
        let dir =
            std::env::temp_dir().join(format!("ldplfs-realposix-{}-{}", name, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        RealPosix::rooted(dir).unwrap()
    }

    const CREATE_RW: OpenFlags = OpenFlags(0o2 | 0o100);

    #[test]
    fn cursor_advances_on_read_write() {
        let p = sandbox("cursor");
        let fd = p.open("/f", CREATE_RW, 0o644).unwrap();
        p.write(fd, b"abcdef").unwrap();
        assert_eq!(p.lseek(fd, 0, Whence::Cur).unwrap(), 6);
        p.lseek(fd, 1, Whence::Set).unwrap();
        let mut buf = [0u8; 3];
        p.read(fd, &mut buf).unwrap();
        assert_eq!(&buf, b"bcd");
        assert_eq!(p.lseek(fd, 0, Whence::Cur).unwrap(), 4);
        p.close(fd).unwrap();
    }

    #[test]
    fn pread_pwrite_leave_cursor_alone() {
        let p = sandbox("prw");
        let fd = p.open("/f", CREATE_RW, 0o644).unwrap();
        p.write(fd, b"0123456789").unwrap();
        p.lseek(fd, 4, Whence::Set).unwrap();
        let mut buf = [0u8; 2];
        p.pread(fd, &mut buf, 8).unwrap();
        assert_eq!(&buf, b"89");
        p.pwrite(fd, b"XY", 0).unwrap();
        assert_eq!(p.lseek(fd, 0, Whence::Cur).unwrap(), 4, "cursor untouched");
        p.close(fd).unwrap();
    }

    #[test]
    fn dup_shares_cursor() {
        let p = sandbox("dup");
        let fd = p.open("/f", CREATE_RW, 0o644).unwrap();
        p.write(fd, b"abcdef").unwrap();
        p.lseek(fd, 0, Whence::Set).unwrap();
        let fd2 = p.dup(fd).unwrap();
        let mut buf = [0u8; 2];
        p.read(fd, &mut buf).unwrap();
        // fd2 sees the cursor moved by fd's read.
        assert_eq!(p.lseek(fd2, 0, Whence::Cur).unwrap(), 2);
        p.close(fd).unwrap();
        // fd2 still valid after closing fd.
        p.read(fd2, &mut buf).unwrap();
        assert_eq!(&buf, b"cd");
        p.close(fd2).unwrap();
        assert_eq!(p.open_fds(), 0);
    }

    #[test]
    fn append_mode_writes_at_end() {
        let p = sandbox("append");
        let fd = p.open("/f", CREATE_RW, 0o644).unwrap();
        p.write(fd, b"base").unwrap();
        p.close(fd).unwrap();
        let fd = p
            .open("/f", OpenFlags::WRONLY | OpenFlags::APPEND, 0o644)
            .unwrap();
        p.write(fd, b"+tail").unwrap();
        p.close(fd).unwrap();
        assert_eq!(p.stat("/f").unwrap().size, 9);
    }

    #[test]
    fn bad_fd_is_ebadf() {
        let p = sandbox("badfd");
        let mut buf = [0u8; 1];
        assert_eq!(p.read(999, &mut buf), Err(Errno::EBADF));
        assert_eq!(p.close(999), Err(Errno::EBADF));
    }

    #[test]
    fn write_on_readonly_fd_is_ebadf() {
        let p = sandbox("romode");
        let fd = p.open("/f", CREATE_RW, 0o644).unwrap();
        p.close(fd).unwrap();
        let fd = p.open("/f", OpenFlags::RDONLY, 0).unwrap();
        assert_eq!(p.write(fd, b"x"), Err(Errno::EBADF));
        p.close(fd).unwrap();
    }

    #[test]
    fn excl_open_fails_if_exists() {
        let p = sandbox("excl");
        let flags = CREATE_RW | OpenFlags::EXCL;
        let fd = p.open("/f", flags, 0o644).unwrap();
        p.close(fd).unwrap();
        assert_eq!(p.open("/f", flags, 0o644), Err(Errno::EEXIST));
    }

    #[test]
    fn directory_operations() {
        let p = sandbox("dirs");
        p.mkdir("/d", 0o755).unwrap();
        let fd = p.open("/d/f", CREATE_RW, 0o644).unwrap();
        p.close(fd).unwrap();
        let ents = p.readdir("/d").unwrap();
        assert_eq!(ents.len(), 1);
        assert_eq!(ents[0].name, "f");
        assert!(!ents[0].is_dir);
        assert!(p.rmdir("/d").is_err(), "not empty");
        p.unlink("/d/f").unwrap();
        p.rmdir("/d").unwrap();
        assert_eq!(p.access("/d"), Err(Errno::ENOENT));
    }

    #[test]
    fn rename_and_truncate() {
        let p = sandbox("rentrunc");
        let fd = p.open("/a", CREATE_RW, 0o644).unwrap();
        p.write(fd, b"0123456789").unwrap();
        p.close(fd).unwrap();
        p.rename("/a", "/b").unwrap();
        p.truncate("/b", 4).unwrap();
        assert_eq!(p.stat("/b").unwrap().size, 4);
        let fd = p.open("/b", CREATE_RW, 0o644).unwrap();
        p.ftruncate(fd, 2).unwrap();
        assert_eq!(p.fstat(fd).unwrap().size, 2);
        p.close(fd).unwrap();
    }

    #[test]
    fn lseek_set_negative_is_einval() {
        let p = sandbox("seekneg");
        let fd = p.open("/f", CREATE_RW, 0o644).unwrap();
        assert_eq!(p.lseek(fd, -1, Whence::Set), Err(Errno::EINVAL));
        p.close(fd).unwrap();
    }
}
