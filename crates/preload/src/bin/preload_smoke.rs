//! Smoke-test binary for the LD_PRELOAD library.
//!
//! Run *under* the preload (`LD_PRELOAD=...libldplfs_preload.so`): its
//! plain `std::fs` calls route through libc and therefore through the
//! interposed symbols. Exits 0 after verifying a write/read/seek/stat
//! round-trip inside the mount and passthrough outside it, then the
//! in-place read path and each way a read-only fd escapes the shim, then a
//! forked child writing through an inherited fd.
//!
//! Two other modes serve the end-to-end tests: `preload-smoke diff <seed>
//! <dir>` runs the differential test's op list on `<dir>` (a mount path
//! under the preload, or a plain directory without it) and prints its log,
//! and `preload-smoke rejected` checks that a rejected `LDPLFS_*`
//! configuration fails mount paths with `EINVAL` and passes others through.

#[path = "../../tests/common/diff_ops.rs"]
mod diff_ops;

use std::ffi::CString;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::fd::AsRawFd;
use std::os::raw::{c_char, c_int, c_long, c_void};
use std::os::unix::fs::MetadataExt;

/// `struct iovec` (uapi layout) — declared locally so the binary calls the
/// genuine libc symbols, which the preload interposes.
#[repr(C)]
struct IoVec {
    iov_base: *mut c_void,
    iov_len: usize,
}

extern "C" {
    fn readv(fd: c_int, iov: *const IoVec, cnt: c_int) -> isize;
    fn writev(fd: c_int, iov: *const IoVec, cnt: c_int) -> isize;
    fn preadv(fd: c_int, iov: *const IoVec, cnt: c_int, off: i64) -> isize;
    fn pwritev(fd: c_int, iov: *const IoVec, cnt: c_int, off: i64) -> isize;
    fn open(path: *const c_char, flags: c_int, ...) -> c_int;
    fn openat(dirfd: c_int, path: *const c_char, flags: c_int, ...) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, n: usize) -> isize;
    fn pread(fd: c_int, buf: *mut c_void, n: usize, off: i64) -> isize;
    fn close(fd: c_int) -> c_int;
    fn dup(fd: c_int) -> c_int;
    fn dup2(oldfd: c_int, newfd: c_int) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
    fn fstat(fd: c_int, st: *mut [i64; 18]) -> c_int;
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn fopen(path: *const c_char, mode: *const c_char) -> *mut c_void;
    fn fdopen(fd: c_int, mode: *const c_char) -> *mut c_void;
    fn fread(buf: *mut c_void, size: usize, n: usize, fp: *mut c_void) -> usize;
    fn fileno(fp: *mut c_void) -> c_int;
    fn fclose(fp: *mut c_void) -> c_int;
    fn memfd_create(name: *const c_char, flags: u32) -> c_int;
    fn copy_file_range(
        fd_in: c_int,
        off_in: *mut i64,
        fd_out: c_int,
        off_out: *mut i64,
        len: usize,
        flags: u32,
    ) -> isize;
    fn sendfile(out_fd: c_int, in_fd: c_int, off: *mut i64, count: usize) -> isize;
    fn __read_chk(fd: c_int, buf: *mut c_void, n: usize, buflen: usize) -> isize;
    fn __pread64_chk(fd: c_int, buf: *mut c_void, n: usize, off: i64, buflen: usize) -> isize;
    fn syscall(num: c_long, ...) -> c_long;
    fn write(fd: c_int, buf: *const c_void, n: usize) -> isize;
    fn pwrite(fd: c_int, buf: *const c_void, n: usize, off: i64) -> isize;
    fn lseek(fd: c_int, off: i64, whence: c_int) -> i64;
    fn ftruncate(fd: c_int, len: i64) -> c_int;
    fn unlink(path: *const c_char) -> c_int;
    fn stat(path: *const c_char, st: *mut [i64; 18]) -> c_int;
    fn fork() -> c_int;
    fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
    fn _exit(status: c_int) -> !;
}

const O_RDONLY: c_int = 0;
const O_CLOEXEC: c_int = 0o2000000;
const AT_FDCWD: c_int = -100;
const F_DUPFD: c_int = 0;
const F_GETFD: c_int = 1;
const FD_CLOEXEC: c_int = 1;
const PROT_READ: c_int = 1;
const MAP_PRIVATE: c_int = 2;
// x86_64 syscall numbers.
const SYS_CLOSE: c_long = 3;
const SYS_FSTAT: c_long = 5;

/// Size of the kernel file behind `fd`, from a raw syscall the preload
/// cannot see: for a PLFS fd, how many bytes its reserved memfd holds.
fn kernel_size(fd: c_int) -> i64 {
    let mut st = [0i64; 18]; // struct stat is 144 bytes on x86_64; st_size is word 6
    assert_eq!(
        unsafe { syscall(SYS_FSTAT, fd as c_long, st.as_mut_ptr()) },
        0
    );
    st[6]
}

fn iov(buf: &mut [u8]) -> IoVec {
    IoVec {
        iov_base: buf.as_mut_ptr() as *mut c_void,
        iov_len: buf.len(),
    }
}

/// Vectored round-trip on one already-open file: writev two buffers at the
/// cursor, pwritev a patch, then readv/preadv them back.
fn vectored_roundtrip(fd: c_int, tag: &str) {
    let mut a = *b"vector-head:";
    let mut b = *b"0123456789";
    let n = unsafe { writev(fd, [iov(&mut a), iov(&mut b)].as_ptr(), 2) };
    assert_eq!(n, 22, "writev short ({tag})");
    let mut patch = *b"XY";
    let n = unsafe { pwritev(fd, [iov(&mut patch)].as_ptr(), 1, 12) };
    assert_eq!(n, 2, "pwritev short ({tag})");

    let mut r1 = [0u8; 12];
    let mut r2 = [0u8; 10];
    let n = unsafe { preadv(fd, [iov(&mut r1), iov(&mut r2)].as_ptr(), 2, 0) };
    assert_eq!(n, 22, "preadv short ({tag})");
    assert_eq!(&r1, b"vector-head:", "head bytes ({tag})");
    assert_eq!(&r2, b"XY23456789", "patched tail ({tag})");

    let mut whole = [0u8; 22];
    let n = unsafe { readv(fd, [iov(&mut whole)].as_ptr(), 1) };
    assert_eq!(n, 0, "cursor at EOF after writev ({tag})");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("diff") => {
            let seed = args[2].parse().expect("seed");
            for line in diff_ops::run(&Libc, &args[3], seed) {
                println!("{line}");
            }
            return;
        }
        Some("rejected") => return rejected(),
        _ => {}
    }
    let mount = std::env::var("LDPLFS_MOUNT").expect("LDPLFS_MOUNT not set");
    let outside = std::env::var("SMOKE_OUTSIDE").expect("SMOKE_OUTSIDE not set");

    // 1. Write/read/seek inside the mount (intercepted).
    let path = format!("{mount}/smoke.dat");
    let payload = b"interposed payload: 0123456789abcdef";
    {
        let mut f = fs::File::create(&path).expect("create in mount");
        f.write_all(payload).expect("write in mount");
    }
    {
        let mut f = fs::File::open(&path).expect("open in mount");
        let mut buf = Vec::new();
        f.read_to_end(&mut buf).expect("read in mount");
        assert_eq!(buf, payload, "roundtrip through the preload");
        let pos = f.seek(SeekFrom::End(-6)).expect("seek end");
        assert_eq!(pos as usize, payload.len() - 6);
        let mut tail = String::new();
        f.read_to_string(&mut tail).expect("tail read");
        assert_eq!(tail, "abcdef");
    }
    let md = fs::metadata(&path).expect("stat in mount");
    assert_eq!(md.len() as usize, payload.len(), "fstatat size");

    // 2. Passthrough outside the mount.
    let out_path = format!("{outside}/plain.dat");
    fs::write(&out_path, b"plain").expect("write outside");
    assert_eq!(fs::read(&out_path).expect("read outside"), b"plain");

    // 3. Unlink inside the mount.
    fs::remove_file(&path).expect("unlink in mount");
    assert!(fs::metadata(&path).is_err(), "gone after unlink");

    // 4. Vectored I/O: same round-trip on a tracked PLFS fd (routed into
    //    list I/O) and on a plain fd outside the mount (passthrough) —
    //    both must behave identically.
    {
        let f = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(format!("{mount}/vectored.dat"))
            .expect("create vectored file in mount");
        vectored_roundtrip(f.as_raw_fd(), "mount");
    }
    {
        let f = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(format!("{outside}/vectored.dat"))
            .expect("create vectored file outside");
        vectored_roundtrip(f.as_raw_fd(), "outside");
    }
    assert_eq!(
        fs::metadata(format!("{mount}/vectored.dat"))
            .expect("stat vectored")
            .len(),
        fs::metadata(format!("{outside}/vectored.dat"))
            .expect("stat plain vectored")
            .len(),
        "vectored writes produced the same logical size in and out of the mount"
    );

    // 5. Read-only opens, in place and through each escape.
    read_only_fds(&mount, &outside);

    // 6. A forked child writing through an inherited fd.
    fork_child_writes(&mount);

    println!("preload smoke OK");
}

/// The result of a libc call that returns `-1` on error.
fn res<T: TryFrom<i64>>(r: i64) -> diff_ops::Res<T> {
    match T::try_from(r) {
        Ok(v) if r >= 0 => Ok(v),
        _ => Err(std::io::Error::last_os_error().raw_os_error().unwrap_or(0)),
    }
}

fn cpath(path: &str) -> CString {
    CString::new(path).expect("path")
}

fn stat_size(path: &str) -> diff_ops::Res<u64> {
    let mut st = [0i64; 18];
    res::<u64>(unsafe { stat(cpath(path).as_ptr(), &mut st) } as i64).map(|_| st[6] as u64)
}

/// The differential op list's calls, made through libc — and so through
/// the preload when it is loaded.
struct Libc;

impl diff_ops::Fs for Libc {
    fn open(&self, path: &str, flags: i32) -> diff_ops::Res<i32> {
        res(unsafe { open(cpath(path).as_ptr(), flags, 0o644) } as i64)
    }

    fn close(&self, fd: i32) -> diff_ops::Res<()> {
        res::<i32>(unsafe { close(fd) } as i64).map(drop)
    }

    fn read(&self, fd: i32, buf: &mut [u8], at: Option<u64>) -> diff_ops::Res<usize> {
        let p = buf.as_mut_ptr() as *mut c_void;
        res(match at {
            Some(off) => unsafe { pread(fd, p, buf.len(), off as i64) },
            None => unsafe { read(fd, p, buf.len()) },
        } as i64)
    }

    fn write(&self, fd: i32, data: &[u8], at: Option<u64>) -> diff_ops::Res<usize> {
        let p = data.as_ptr() as *const c_void;
        res(match at {
            Some(off) => unsafe { pwrite(fd, p, data.len(), off as i64) },
            None => unsafe { write(fd, p, data.len()) },
        } as i64)
    }

    fn readv(&self, fd: i32, bufs: &mut [&mut [u8]], at: Option<u64>) -> diff_ops::Res<usize> {
        let v: Vec<IoVec> = bufs.iter_mut().map(|b| iov(b)).collect();
        res(match at {
            Some(off) => unsafe { preadv(fd, v.as_ptr(), v.len() as c_int, off as i64) },
            None => unsafe { readv(fd, v.as_ptr(), v.len() as c_int) },
        } as i64)
    }

    fn writev(&self, fd: i32, bufs: &[&[u8]]) -> diff_ops::Res<usize> {
        let v: Vec<IoVec> = bufs
            .iter()
            .map(|b| IoVec {
                iov_base: b.as_ptr() as *mut c_void,
                iov_len: b.len(),
            })
            .collect();
        res(unsafe { writev(fd, v.as_ptr(), v.len() as c_int) } as i64)
    }

    fn lseek(&self, fd: i32, off: i64, whence: i32) -> diff_ops::Res<i64> {
        res(unsafe { lseek(fd, off, whence) })
    }

    fn dup(&self, fd: i32) -> diff_ops::Res<i32> {
        res(unsafe { dup(fd) } as i64)
    }

    fn ftruncate(&self, fd: i32, len: u64) -> diff_ops::Res<()> {
        res::<i32>(unsafe { ftruncate(fd, len as i64) } as i64).map(drop)
    }

    fn fstat(&self, fd: i32) -> diff_ops::Res<u64> {
        let mut st = [0i64; 18];
        res::<u64>(unsafe { fstat(fd, &mut st) } as i64).map(|_| st[6] as u64)
    }

    fn stat(&self, path: &str) -> diff_ops::Res<u64> {
        stat_size(path)
    }

    fn unlink(&self, path: &str) -> diff_ops::Res<()> {
        res::<i32>(unsafe { unlink(cpath(path).as_ptr()) } as i64).map(drop)
    }
}

/// Under a rejected configuration, calls on mount paths fail with `EINVAL`
/// and calls outside the mount pass through.
fn rejected() {
    let mount = std::env::var("LDPLFS_MOUNT").expect("LDPLFS_MOUNT not set");
    let outside = std::env::var("SMOKE_OUTSIDE").expect("SMOKE_OUTSIDE not set");
    let einval = |what: &str, r: std::io::Result<()>| {
        let e = r.expect_err(what).raw_os_error();
        assert_eq!(e, Some(22), "{what}: EINVAL");
    };
    let inside = format!("{mount}/f");
    einval("create", fs::write(&inside, b"x"));
    einval("open", fs::File::open(&inside).map(drop));
    einval("stat", fs::metadata(&inside).map(drop));
    einval("unlink", fs::remove_file(&inside));
    let plain = format!("{outside}/plain.dat");
    fs::write(&plain, b"plain").expect("write outside");
    assert_eq!(fs::read(&plain).expect("read outside"), b"plain");
    println!("rejected OK");
}

/// A forked child writes past the parent's EOF through an inherited fd and
/// closes it; then the parent closes. The child's close is a full one — it
/// leaves a meta entry and removes its open-writer marker — and the
/// parent's copied writer state is never flushed from the child.
fn fork_child_writes(mount: &str) {
    let backend = std::env::var("LDPLFS_BACKEND").expect("LDPLFS_BACKEND not set");
    let path = format!("{mount}/forked.dat");
    let mut f = fs::File::create(&path).expect("create forked.dat");
    f.write_all(b"parent-head:").expect("parent write");
    let fd = f.as_raw_fd();
    let child = unsafe { fork() };
    assert!(child >= 0, "fork");
    if child == 0 {
        let ok = unsafe { lseek(fd, 8, 1) } == 20
            && unsafe { write(fd, b"child-bytes!".as_ptr() as *const c_void, 12) } == 12
            && unsafe { close(fd) } == 0;
        unsafe { _exit(if ok { 0 } else { 1 }) };
    }
    let mut status = 0;
    assert_eq!(unsafe { waitpid(child, &mut status, 0) }, child, "waitpid");
    assert_eq!(status, 0, "the child's write and close succeeded");
    drop(f);

    let mut want = b"parent-head:".to_vec();
    want.extend_from_slice(&[0; 8]);
    want.extend_from_slice(b"child-bytes!");
    assert_eq!(
        stat_size(&path),
        Ok(want.len() as u64),
        "stat after both closes"
    );
    assert_eq!(fs::read(&path).expect("read forked.dat"), want, "bytes");
    let markers = fs::read_dir(format!("{backend}/forked.dat/openhosts"))
        .expect("openhosts/")
        .count();
    assert_eq!(markers, 0, "no open-writer marker left behind");
    fs::remove_file(&path).expect("unlink forked.dat");
}

fn open_ro(path: &CString, flags: c_int) -> c_int {
    let fd = unsafe { open(path.as_ptr(), O_RDONLY | flags) };
    assert!(fd >= 0, "read-only open of {path:?}");
    fd
}

/// Read-only fds are served in place: the reserved memfd stays empty until
/// the fd escapes the interposed symbols, and then holds the whole file.
fn read_only_fds(mount: &str, outside: &str) {
    let path = format!("{mount}/readonly.dat");
    let data: Vec<u8> = (0..200_000u32).map(|i| (i * 7 % 251) as u8).collect();
    fs::write(&path, &data).expect("write read-only test file");
    let cpath = CString::new(path.clone()).expect("path");

    // A pread copies only the bytes asked for.
    let f = fs::File::open(&path).expect("read-only open");
    let fd = f.as_raw_fd();
    let mut buf = [0u8; 100];
    let n = unsafe { pread(fd, buf.as_mut_ptr() as *mut c_void, 100, 1000) };
    assert_eq!(n, 100, "pread");
    assert_eq!(&buf[..], &data[1000..1100], "pread bytes");
    assert_eq!(kernel_size(fd), 0, "one pread must leave the memfd empty");

    // fstat agrees with stat(path): cp compares the inodes.
    let (by_fd, by_path) = (
        f.metadata().expect("fstat"),
        fs::metadata(&path).expect("stat"),
    );
    assert_eq!(
        by_fd.ino(),
        by_path.ino(),
        "fstat and stat report one inode"
    );
    assert_eq!(by_fd.len(), data.len() as u64, "fstat size");

    // O_CLOEXEC reaches the reserved fd (std opens with it), on open and openat.
    let cloexec = |fd| unsafe { fcntl(fd, F_GETFD) } & FD_CLOEXEC != 0;
    assert!(cloexec(fd), "O_CLOEXEC on open");
    for flags in [0, O_CLOEXEC] {
        let at = unsafe { openat(AT_FDCWD, cpath.as_ptr(), O_RDONLY | flags) };
        assert!(at >= 0, "openat");
        assert_eq!(cloexec(at), flags != 0, "openat flags {flags:o}");
        unsafe { close(at) };
    }

    // Fortified reads take the shim's path, not the empty memfd.
    let mut head = [0u8; 64];
    let n = unsafe { __read_chk(fd, head.as_mut_ptr() as *mut c_void, 64, head.len()) };
    assert_eq!(n, 64, "__read_chk");
    assert_eq!(&head[..], &data[..64], "__read_chk bytes");
    let n = unsafe { __pread64_chk(fd, head.as_mut_ptr() as *mut c_void, 64, 5000, head.len()) };
    assert_eq!(n, 64, "__pread64_chk");
    assert_eq!(&head[..], &data[5000..5064], "__pread64_chk bytes");

    // A dup shares the cursor; dup2 onto itself changes nothing.
    assert_eq!(unsafe { dup2(fd, fd) }, fd, "dup2(fd, fd)");
    let d = unsafe { dup(fd) };
    let n = unsafe { read(d, head.as_mut_ptr() as *mut c_void, 36) };
    assert_eq!(
        &head[..n as usize],
        &data[64..100],
        "dup continues at the cursor"
    );
    unsafe { close(d) };
    let n = unsafe { read(fd, head.as_mut_ptr() as *mut c_void, 10) };
    assert_eq!(
        &head[..n as usize],
        &data[100..110],
        "cursor shared with the dup"
    );
    assert_eq!(kernel_size(fd), 0, "in-place reads never fill the memfd");

    // fcntl(F_DUPFD_CLOEXEC) duplicates too: File::try_clone uses it.
    {
        let mut clone = f.try_clone().expect("try_clone");
        assert_eq!(
            clone.metadata().expect("fstat clone").len(),
            data.len() as u64
        );
        let mut rest = Vec::new();
        clone.read_to_end(&mut rest).expect("read clone");
        assert!(
            rest == data[110..],
            "try_clone reads on from the shared cursor"
        );
        assert_eq!(kernel_size(clone.as_raw_fd()), 0, "a clone reads in place");
    }
    let d = unsafe { fcntl(fd, F_DUPFD, 0) };
    assert!(d >= 0, "fcntl(F_DUPFD)");
    let n = unsafe { pread(d, head.as_mut_ptr() as *mut c_void, 10, 100) };
    assert_eq!(&head[..n as usize], &data[100..110], "fcntl(F_DUPFD) pread");
    unsafe { close(d) };
    assert_eq!((&f).seek(SeekFrom::Start(110)).expect("lseek"), 110);

    // mmap escapes: the memfd is filled once, and the cursor stays put.
    let p = unsafe {
        mmap(
            std::ptr::null_mut(),
            data.len(),
            PROT_READ,
            MAP_PRIVATE,
            fd,
            0,
        )
    };
    assert!(p as isize != -1, "mmap");
    let mapped = unsafe { std::slice::from_raw_parts(p as *const u8, data.len()) };
    assert!(mapped == &data[..], "mmap sees the container's bytes");
    unsafe { munmap(p, data.len()) };
    assert_eq!(kernel_size(fd), data.len() as i64, "mmap filled the memfd");
    let n = unsafe { read(fd, head.as_mut_ptr() as *mut c_void, 10) };
    assert_eq!(
        &head[..n as usize],
        &data[110..120],
        "fill left the cursor alone"
    );
    drop(f);

    // fdopen + fread run inside glibc.
    let mode = CString::new("r").expect("mode");
    let fp = unsafe { fdopen(open_ro(&cpath, 0), mode.as_ptr()) };
    assert!(!fp.is_null(), "fdopen");
    let mut all = vec![0u8; data.len() + 1];
    let n = unsafe { fread(all.as_mut_ptr() as *mut c_void, 1, all.len(), fp) };
    assert!(n == data.len() && all[..n] == data[..], "fdopen + fread");
    unsafe { fclose(fp) };

    // copy_file_range and sendfile copy in the kernel, into memfds.
    let sink_name = CString::new("smoke-sink").expect("name");
    for kind in ["copy_file_range", "sendfile"] {
        let src = open_ro(&cpath, 0);
        let sink = unsafe { memfd_create(sink_name.as_ptr(), 0) };
        assert!(sink >= 0, "memfd_create");
        loop {
            let n = unsafe {
                match kind {
                    "sendfile" => sendfile(sink, src, std::ptr::null_mut(), 1 << 16),
                    _ => copy_file_range(
                        src,
                        std::ptr::null_mut(),
                        sink,
                        std::ptr::null_mut(),
                        1 << 16,
                        0,
                    ),
                }
            };
            assert!(n >= 0, "{kind} failed");
            if n == 0 {
                break;
            }
        }
        let mut copy = vec![0u8; data.len()];
        let n = unsafe { pread(sink, copy.as_mut_ptr() as *mut c_void, copy.len(), 0) };
        assert!(
            n as usize == data.len() && copy == data,
            "{kind} copied the container"
        );
        unsafe {
            close(src);
            close(sink);
        }
    }

    // A writable PLFS fd refuses in-kernel copies with the errors on which
    // callers fall back to read/write.
    let target = format!("{mount}/copy-target.dat");
    let dst = fs::File::create(&target).expect("writable open");
    let src = open_ro(&cpath, 0);
    let (null, out) = (std::ptr::null_mut(), dst.as_raw_fd());
    let n = unsafe { copy_file_range(src, null, out, null, 100, 0) };
    let e = std::io::Error::last_os_error().raw_os_error();
    assert_eq!(
        (n, e),
        (-1, Some(18)),
        "copy_file_range into a PLFS fd: EXDEV"
    );
    let n = unsafe { sendfile(out, src, null, 100) };
    let e = std::io::Error::last_os_error().raw_os_error();
    assert_eq!((n, e), (-1, Some(22)), "sendfile into a PLFS fd: EINVAL");
    unsafe { close(src) };
    drop(dst);
    fs::remove_file(&target).expect("unlink copy target");

    // A raw close (as close_range does) leaves a stale entry; the next open
    // that reuses the number replaces it.
    let stale = open_ro(&cpath, 0);
    assert_eq!(
        unsafe { pread(stale, head.as_mut_ptr() as *mut c_void, 8, 0) },
        8
    );
    assert_eq!(
        unsafe { syscall(SYS_CLOSE, stale as c_long) },
        0,
        "raw close"
    );
    let again = open_ro(&cpath, 0);
    assert_eq!(again, stale, "the fd number is reused");
    let n = unsafe { pread(again, head.as_mut_ptr() as *mut c_void, 8, 64) };
    assert_eq!(
        &head[..n as usize],
        &data[64..72],
        "read after a stale entry"
    );
    unsafe { close(again) };

    // A file outside the mount that reuses a stale number is its own file,
    // whether opened with open or fopen.
    let six = format!("{outside}/six.dat");
    fs::write(&six, b"sixsix").expect("write outside");
    let csix = CString::new(six.clone()).expect("path");
    for how in ["open", "fopen"] {
        let stale = open_ro(&cpath, 0);
        assert_eq!(
            unsafe { pread(stale, head.as_mut_ptr() as *mut c_void, 8, 0) },
            8
        );
        assert_eq!(
            unsafe { syscall(SYS_CLOSE, stale as c_long) },
            0,
            "raw close"
        );
        let (plain, fp) = match how {
            "open" => (open_ro(&csix, 0), std::ptr::null_mut()),
            _ => {
                let fp = unsafe { fopen(csix.as_ptr(), mode.as_ptr()) };
                assert!(!fp.is_null(), "fopen outside");
                (unsafe { fileno(fp) }, fp)
            }
        };
        assert_eq!(plain, stale, "the fd number is reused ({how})");
        let n = unsafe { pread(plain, head.as_mut_ptr() as *mut c_void, 64, 0) };
        assert_eq!(&head[..n.max(0) as usize], b"sixsix", "plain bytes ({how})");
        let mut st = std::mem::MaybeUninit::<[i64; 18]>::zeroed();
        assert_eq!(unsafe { fstat(plain, st.as_mut_ptr()) }, 0, "fstat ({how})");
        assert_eq!(unsafe { st.assume_init() }[6], 6, "plain size ({how})");
        unsafe {
            if fp.is_null() {
                close(plain);
            } else {
                fclose(fp);
            }
        }
    }

    // fclose drops the fd's entry: an ordinary file that reuses the number
    // must not answer with the container's size.
    let fp = unsafe { fopen(cpath.as_ptr(), mode.as_ptr()) };
    assert!(!fp.is_null(), "fopen");
    let number = unsafe { fileno(fp) };
    unsafe { fclose(fp) };
    let plain = fs::File::open(&six).expect("open outside");
    assert_eq!(plain.as_raw_fd(), number, "the fd number is reused");
    assert_eq!(plain.metadata().expect("fstat").len(), 6, "no stale entry");
    assert_eq!(fs::read(&six).expect("read outside"), b"sixsix");

    fs::remove_file(&path).expect("unlink read-only test file");
}
