//! [`Io`] over plain libc calls.
//!
//! The symbols are declared by hand and resolved by the dynamic linker, so
//! under `LD_PRELOAD` every call lands on the preload library's entry
//! point of the same name (`open`, `read`, `pread64`, `stat`, ...), exactly
//! as it would for an unmodified C program.

use crate::{Io, Res};
use std::ffi::CString;
use std::os::raw::{c_char, c_int, c_void};

const EIO: i32 = 5;

/// glibc's x86-64 `struct stat`; only `st_size` is read.
#[repr(C)]
struct StatBuf {
    head: [u64; 6],
    st_size: i64,
    tail: [i64; 11],
}

extern "C" {
    fn open(path: *const c_char, flags: c_int, ...) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, n: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, n: usize) -> isize;
    fn pread64(fd: c_int, buf: *mut c_void, n: usize, off: i64) -> isize;
    fn pwrite64(fd: c_int, buf: *const c_void, n: usize, off: i64) -> isize;
    fn stat(path: *const c_char, out: *mut StatBuf) -> c_int;
    fn fstat(fd: c_int, out: *mut StatBuf) -> c_int;
    fn unlink(path: *const c_char) -> c_int;
    fn __errno_location() -> *mut c_int;
    fn getrusage(who: c_int, usage: *mut [i64; 18]) -> c_int;
    fn statfs(path: *const c_char, out: *mut [i64; 15]) -> c_int;
    fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
}

fn errno() -> i32 {
    // SAFETY: glibc returns a valid pointer to this thread's errno.
    unsafe { *__errno_location() }
}

fn cpath(path: &str) -> Res<CString> {
    CString::new(path).map_err(|_| 22)
}

fn check(ret: isize) -> Res<usize> {
    if ret < 0 {
        Err(errno())
    } else {
        Ok(ret as usize)
    }
}

fn int_off(off: u64) -> Res<i64> {
    i64::try_from(off).map_err(|_| 22)
}

/// Plain libc calls (see module docs).
#[derive(Default)]
pub struct LibcIo;

impl Io for LibcIo {
    fn open(&mut self, path: &str, flags: i32, mode: u32) -> Res<i32> {
        let p = cpath(path)?;
        // SAFETY: `p` is NUL-terminated and outlives the call.
        let fd = unsafe { open(p.as_ptr(), flags, mode) };
        check(fd as isize).map(|fd| fd as i32)
    }

    fn close(&mut self, fd: i32) -> Res<()> {
        // SAFETY: plain syscall wrapper on an integer descriptor.
        check(unsafe { close(fd) } as isize).map(|_| ())
    }

    fn read(&mut self, fd: i32, buf: &mut [u8]) -> Res<usize> {
        // SAFETY: `buf` is valid for `buf.len()` writable bytes.
        check(unsafe { read(fd, buf.as_mut_ptr().cast(), buf.len()) })
    }

    fn write(&mut self, fd: i32, buf: &[u8]) -> Res<usize> {
        // SAFETY: `buf` is valid for `buf.len()` readable bytes.
        check(unsafe { write(fd, buf.as_ptr().cast(), buf.len()) })
    }

    fn pread(&mut self, fd: i32, buf: &mut [u8], off: u64) -> Res<usize> {
        let off = int_off(off)?;
        // SAFETY: `buf` is valid for `buf.len()` writable bytes.
        check(unsafe { pread64(fd, buf.as_mut_ptr().cast(), buf.len(), off) })
    }

    fn pwrite(&mut self, fd: i32, buf: &[u8], off: u64) -> Res<usize> {
        let off = int_off(off)?;
        // SAFETY: `buf` is valid for `buf.len()` readable bytes.
        check(unsafe { pwrite64(fd, buf.as_ptr().cast(), buf.len(), off) })
    }

    fn stat(&mut self, path: &str) -> Res<u64> {
        let p = cpath(path)?;
        let mut st = StatBuf {
            head: [0; 6],
            st_size: 0,
            tail: [0; 11],
        };
        // SAFETY: `p` is NUL-terminated; `st` has glibc's `struct stat` size.
        check(unsafe { stat(p.as_ptr(), &mut st) } as isize)?;
        u64::try_from(st.st_size).map_err(|_| EIO)
    }

    fn fstat(&mut self, fd: i32) -> Res<u64> {
        let mut st = StatBuf {
            head: [0; 6],
            st_size: 0,
            tail: [0; 11],
        };
        // SAFETY: `st` has glibc's `struct stat` size.
        check(unsafe { fstat(fd, &mut st) } as isize)?;
        u64::try_from(st.st_size).map_err(|_| EIO)
    }

    fn unlink(&mut self, path: &str) -> Res<()> {
        let p = cpath(path)?;
        // SAFETY: `p` is NUL-terminated and outlives the call.
        check(unsafe { unlink(p.as_ptr()) } as isize).map(|_| ())
    }
}

/// Peak resident set, in KiB, of this process and of its waited-for
/// children (`getrusage` `RUSAGE_SELF` and `RUSAGE_CHILDREN`).
pub fn peak_rss_kib() -> u64 {
    let mut best = 0;
    for who in [0, -1] {
        let mut ru = [0i64; 18];
        // SAFETY: `ru` is the size of `struct rusage` on x86-64.
        if unsafe { getrusage(who, &mut ru) } == 0 {
            best = best.max(ru[4].max(0) as u64);
        }
    }
    best
}

/// The file-system type of `path`, from `statfs(2)`'s `f_type`.
pub fn fs_type(path: &str) -> String {
    let Ok(p) = cpath(path) else {
        return "unknown".into();
    };
    let mut buf = [0i64; 15];
    // SAFETY: `p` is NUL-terminated; `buf` is the size of `struct statfs`.
    if unsafe { statfs(p.as_ptr(), &mut buf) } != 0 {
        return "unknown".into();
    }
    match buf[0] as u64 {
        0xEF53 => "ext4".into(),
        0x0102_1994 => "tmpfs".into(),
        0x5846_5342 => "xfs".into(),
        0x9123_683E => "btrfs".into(),
        0x794C_7630 => "overlay".into(),
        0x6969 => "nfs".into(),
        other => format!("0x{other:x}"),
    }
}

/// The flush counter of `perfbench-noflush` — `fsync`/`fdatasync` calls
/// so far — if it is preloaded into this process.
pub fn flush_counter() -> Option<extern "C" fn() -> u64> {
    // SAFETY: NUL-terminated name; RTLD_DEFAULT (null) searches the global
    // scope.
    let addr = unsafe { dlsym(std::ptr::null_mut(), c"perfbench_flushes".as_ptr()) };
    // SAFETY: the library exports this name as `extern "C" fn() -> u64`.
    (!addr.is_null())
        .then(|| unsafe { std::mem::transmute::<*mut c_void, extern "C" fn() -> u64>(addr) })
}
