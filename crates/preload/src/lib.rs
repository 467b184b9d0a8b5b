//! # ldplfs-preload — the `LD_PRELOAD` artifact itself
//!
//! This is the deployment form the paper describes: a shared library that
//! overloads libc's file symbols through the dynamic loader, so *existing
//! binaries* (`cat`, `cp`, `grep`, `md5sum`, shells, applications) operate
//! on PLFS containers without recompilation. The container engine is this
//! repo's `plfs` crate over a real backend directory.
//!
//! ```sh
//! cargo build --release -p ldplfs-preload
//! export LDPLFS_MOUNT=/tmp/plfs LDPLFS_BACKEND=/tmp/plfs_backend
//! LD_PRELOAD=target/release/libldplfs_preload.so  cat  /tmp/plfs/file
//! LD_PRELOAD=target/release/libldplfs_preload.so  md5sum /tmp/plfs/file
//! ```
//!
//! Interposed symbols: `open`, `open64`, `openat`, `openat64`, `creat`,
//! `read`, `write`, `pread(64)`, `pwrite(64)`, `readv`, `writev`,
//! `preadv(64)`, `pwritev(64)`, `preadv2`/`pwritev2` (and their `64v2`
//! aliases), `lseek(64)`, `close`, `fsync`, `dup`, `dup2`, `unlink`,
//! `fcntl(64)`, `access`, `mkdir`, `rmdir`, `ftruncate(64)`, the
//! `stat`/`lstat`/`fstat` family, the fortified `__read_chk` and
//! `__pread(64)_chk`, `fopen(64)`, `fdopen`, `fclose`, `mmap(64)`,
//! `copy_file_range` and `sendfile(64)`. Calls on paths outside
//! `LDPLFS_MOUNT` forward to the real libc via `dlsym(RTLD_NEXT, …)`,
//! exactly like the original.
//!
//! This library is a front end on the shim core, `ldplfs::fdtable`: the
//! table of PLFS opens, the cursor kept in each open's reserved descriptor,
//! `O_APPEND`, dup sharing, close, vectored I/O, `lseek`, fsync, fstat,
//! ftruncate and the path operations are the same code that the trait-level
//! `ldplfs::LdPlfs` runs. What stays here is the C ABI: argument and
//! `struct stat`/`statx` conversion, errno, the `ffi_guard!` panic barrier,
//! `real!` passthrough, fake inodes, the stdio, `mmap` and kernel-copy entry
//! points, and how a descriptor is reserved — faithful to the paper, a
//! *genuine* kernel fd per PLFS open (here via `memfd_create`, avoiding the
//! litter of the paper's `/dev/random` trick), whose cursor the core moves
//! with real `lseek`s, so `dup(2)`'d descriptors share cursors exactly like
//! ordinary files.
//!
//! Reads are served in place: a process copies only the bytes it asks for.
//! The reserved memfd of a read-only open stays empty until the fd
//! *escapes* the interposed symbols; then the container's logical bytes are
//! copied into it once, with real `pwrite`s that leave the shared cursor
//! alone. The escapes are `fopen`/`fdopen` (stdio reads run inside glibc),
//! `mmap`, `copy_file_range` and `sendfile` (the kernel copies from the
//! memfd), and inheritance across `execve`: a read-only open's memfd is
//! named `ldplfs-ro:<logical path>`, and when the library loads into an
//! exec'd process it scans `/proc/self/fd`, then adopts and fills every such
//! fd — so `md5sum < /mount/file` works. A logical path too long for a memfd
//! name is filled at open instead.
//!
//! An in-kernel copy (`copy_file_range`, `sendfile`) that touches a
//! *writable* PLFS fd fails with `EXDEV`/`EINVAL`, the errors on which
//! callers such as `cp` fall back to `read`/`write`.
//!
//! Across `fork`, the core's pid rule holds: a child that writes through an
//! inherited fd takes its own PLFS reference, so its close syncs its
//! dropping, leaves its meta entry and removes its open marker; a child that
//! only closes an inherited fd gets 0 and leaves the parent's writer state
//! alone.
//!
//! Configuration: `LDPLFS_MOUNT` and `LDPLFS_BACKEND` name the mount and
//! its backend directory. The optional knobs are parsed by the plfsrc value
//! parser of the key each one mirrors, and the backend stack is composed as
//! for a plfsrc mount (`ldplfs::plfs_for_mount`):
//!
//! | variable | plfsrc key |
//! |---|---|
//! | `LDPLFS_HOSTDIRS` | `num_hostdirs` |
//! | `LDPLFS_META_CACHE` | `meta_cache_entries` (0 disables the cache) |
//! | `LDPLFS_OPEN_MARKERS` | `open_markers` (`eager`, `lazy`, `off`) |
//! | `LDPLFS_INDEX_MEMORY_BYTES` | `index_memory_bytes` (0 keeps the eager index) |
//! | `LDPLFS_COMPACT_THRESHOLD` | `compact_droppings_threshold` |
//! | `LDPLFS_LIST_IO` | `list_io` (`0` lowers vectored calls to per-extent ops) |
//! | `LDPLFS_LIST_IO_MAX_EXTENTS` | `list_io_max_extents` |
//! | `LDPLFS_DATA_CACHE` | `data_cache_mbs`, but in bytes (0 keeps caching off) |
//! | `LDPLFS_READAHEAD` | `readahead_max_kbs`, but in bytes (0 disables readahead) |
//! | `LDPLFS_BACKEND_KIND` | `backend` (`direct`, `batched`, `tiered`, `object`) |
//! | `LDPLFS_SUBMIT_DEPTH` | `submit_depth` |
//! | `LDPLFS_SUBMIT_WORKERS` | `submit_workers` |
//! | `LDPLFS_DESTAGE_THRESHOLD` | `destage_threshold` |
//!
//! `tiered` also needs `LDPLFS_FAST_BACKEND=<dir>`, the burst-buffer tier:
//! writes land there and sealed droppings destage to `LDPLFS_BACKEND` in the
//! background (drained at exit). A value the plfsrc parser rejects — or
//! `tiered` without a usable fast directory, or an unusable backend — is
//! rejected like a bad plfsrc: every call on a mount path then fails with
//! `EINVAL`, while calls outside the mount still pass through.
//!
//! Known limitations:
//!
//! - Exec adoption needs the library in the child. A child that does not
//!   load it (environment scrubbed, setuid binary, static binary) sees an
//!   empty read-only fd.
//! - Reads the shim never sees — raw `syscall(SYS_read)`, `splice`,
//!   io_uring — see the empty memfd of a read-only fd that has not escaped.
//! - `close_range` is not interposed, so the fd table keeps entries for
//!   the PLFS fds it closes. Such an entry is dropped when its number comes
//!   back from an interposed `open`/`openat`/`creat`, `fopen` or dup; an
//!   fd made any other way (`pipe`, `socket`, …) that reuses the number is
//!   still served from the container.
//! - Writable fds never escape: `mmap` or stdio on them sees the empty
//!   memfd. Stdio *writes* into the mount (`fopen(path, "w")`) are not
//!   supported, and writable descriptors inherited across `execve` lose
//!   their PLFS identity, so shell output redirection `> /mount/file`
//!   feeding an exec'd child is not supported (shared with the original);
//!   tools that open their own outputs (`cp`, applications) work.

#![allow(clippy::missing_safety_doc)]

use ldplfs::fdtable::{At, Entry, OpenFile, Reserve, ShimCore, ShimMount};
use ldplfs::{Errno, OpenFlags, PosixResult, Whence};
use plfs::mount::{parse_num, path_has_prefix};
use plfs::{MountSpec, PlfsRc, RealBacking};
use std::ffi::CStr;
use std::os::raw::{c_char, c_int, c_long, c_uint, c_void};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

// ---------------------------------------------------------------------------
// libc FFI (hand-rolled; this crate must not depend on the libc crate since
// it *is* the layer below it here).
// ---------------------------------------------------------------------------

pub(crate) type OffT = i64;
pub(crate) type SizeT = usize;
pub(crate) type SsizeT = isize;
pub(crate) type ModeT = c_uint;

const RTLD_NEXT: *mut c_void = -1isize as *mut c_void;
const AT_FDCWD: c_int = -100;

const O_CREAT: c_int = 0o100;
const O_TRUNC: c_int = 0o1000;
const O_DIRECTORY: c_int = 0o200000;
const O_CLOEXEC: c_int = 0o2000000;

const SEEK_SET: c_int = 0;
const SEEK_CUR: c_int = 1;
const SEEK_END: c_int = 2;

const EIO: c_int = 5;
const ENOMEM: c_int = 12;
const EXDEV: c_int = 18;
const EINVAL: c_int = 22;

extern "C" {
    fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
    fn __errno_location() -> *mut c_int;
    fn syscall(num: c_long, ...) -> c_long;
    fn atexit(cb: extern "C" fn()) -> c_int;
    fn fileno(fp: *mut c_void) -> c_int;
}

// x86_64 syscall numbers, for the calls that must not re-enter the shim.
const SYS_CLOSE: c_long = 3;
const SYS_FSTAT: c_long = 5;
const SYS_GETDENTS64: c_long = 217;
const SYS_OPENAT: c_long = 257;
const SYS_READLINKAT: c_long = 267;
const SYS_MEMFD_CREATE: c_long = 319;
const MFD_CLOEXEC: c_long = 1;

fn set_errno(e: c_int) {
    unsafe { *__errno_location() = e };
}

fn errno() -> c_int {
    unsafe { *__errno_location() }
}

/// Panic barrier for every `extern "C"` entry point: unwinding across an
/// FFI boundary is undefined behavior and in practice aborts the host
/// application — the one thing an interposition shim must never do. Any
/// residual panic is caught here and converted to the POSIX failure shape,
/// `errno = EIO` plus the call's error sentinel (`-1`, null, …).
///
/// `AssertUnwindSafe` is sound because nothing is resumed after a catch:
/// the process-global shim state is lock-guarded (parking_lot poisons
/// nothing) and a torn entry at worst fails subsequent calls with EBADF,
/// never UB.
macro_rules! ffi_guard {
    ($err:expr, $body:expr) => {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| $body)) {
            Ok(v) => v,
            Err(_) => {
                set_errno(EIO);
                $err
            }
        }
    };
}

macro_rules! real {
    ($name:ident, $sig:ty) => {{
        static SLOT: OnceLock<usize> = OnceLock::new();
        let addr = *SLOT.get_or_init(|| {
            let sym = concat!(stringify!($name), "\0");
            unsafe { dlsym(RTLD_NEXT, sym.as_ptr() as *const c_char) as usize }
        });
        debug_assert!(addr != 0, concat!("dlsym failed for ", stringify!($name)));
        unsafe { std::mem::transmute::<usize, $sig>(addr) }
    }};
}

/// The C return of a core result: the value, or `-1` with errno set.
fn cret<T: From<i8>>(r: PosixResult<T>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            set_errno(e.0);
            T::from(-1)
        }
    }
}

// ---------------------------------------------------------------------------
// Shim state.
// ---------------------------------------------------------------------------

/// Reserves each PLFS open's descriptor as a memfd: a genuine fd with a
/// real file description (so lseek works and dup shares cursors) but no
/// file-system presence. Each open's extra state says whether the
/// container's bytes are in the memfd yet (read-only opens only; see
/// [`ensure_filled`]).
struct Memfd;

type Core = ShimCore<Memfd>;

impl Reserve for Memfd {
    type Extra = AtomicBool;

    fn reserve(&self, logical: &str, flags: OpenFlags) -> PosixResult<(c_int, AtomicBool)> {
        let cloexec = flags.0 & O_CLOEXEC as u32 != 0;
        let fd = reserve_fd(logical, !flags.writable(), cloexec);
        if fd < 0 {
            return Err(Errno(ENOMEM));
        }
        Ok((fd, AtomicBool::new(false)))
    }

    fn seek(&self, fd: c_int, offset: i64, whence: Whence) -> PosixResult<u64> {
        let f = real!(lseek, unsafe extern "C" fn(c_int, OffT, c_int) -> OffT);
        // SAFETY: lseek takes plain integers; a bad fd is an error return.
        let r = unsafe { f(fd, offset, whence as c_int) };
        u64::try_from(r).map_err(|_| Errno(errno()))
    }
}

/// The library's state: the shim core, or — when the configuration was
/// rejected — the mount point, on which every call fails with `EINVAL`.
enum Shim {
    On(Core),
    Rejected(String),
}

static SHIM: OnceLock<Option<Shim>> = OnceLock::new();

/// The tiered backing, if the shim built one — kept so the atexit hook
/// can flush queued destages before a short-lived host process dies.
static TIERED: OnceLock<Arc<plfs::TieredBacking>> = OnceLock::new();

// plfs-lint: allow(ffi-barrier, "atexit callback returns (); has its own catch_unwind, errno is meaningless here")
extern "C" fn drain_tiered_at_exit() {
    // Never unwind into libc's exit machinery; a failed drain just leaves
    // droppings fast-resident, which the crash-safe read path tolerates.
    let _ = std::panic::catch_unwind(|| {
        if let Some(t) = TIERED.get() {
            t.drain();
        }
    });
}

thread_local! {
    /// Guards against re-entrant initialization: building the shim touches
    /// the file system (create_dir_all on the backend), which re-enters the
    /// interposed symbols on this same thread. Those nested calls must pass
    /// straight through to the real libc.
    static IN_INIT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

// One-time init on the first interposed call; nested interposed calls made
// while init allocates re-enter through the IN_INIT latch above and fall
// straight through to real libc. After init this is a lock-free read.
// signal-safe: init's allocation cannot recurse into the shim (IN_INIT
// latch); every later call is a OnceLock read with no allocation.
fn shim() -> Option<&'static Shim> {
    if IN_INIT.with(|c| c.get()) {
        return None;
    }
    SHIM.get_or_init(|| {
        IN_INIT.with(|c| c.set(true));
        let out = init_shim();
        IN_INIT.with(|c| c.set(false));
        out
    })
    .as_ref()
}

/// The `LDPLFS_*` knobs and the plfsrc key whose value parser each uses.
const KNOBS: &[(&str, &str)] = &[
    ("LDPLFS_HOSTDIRS", "num_hostdirs"),
    ("LDPLFS_META_CACHE", "meta_cache_entries"),
    ("LDPLFS_OPEN_MARKERS", "open_markers"),
    ("LDPLFS_INDEX_MEMORY_BYTES", "index_memory_bytes"),
    ("LDPLFS_COMPACT_THRESHOLD", "compact_droppings_threshold"),
    ("LDPLFS_LIST_IO", "list_io"),
    ("LDPLFS_LIST_IO_MAX_EXTENTS", "list_io_max_extents"),
    ("LDPLFS_BACKEND_KIND", "backend"),
    ("LDPLFS_SUBMIT_DEPTH", "submit_depth"),
    ("LDPLFS_SUBMIT_WORKERS", "submit_workers"),
    ("LDPLFS_DESTAGE_THRESHOLD", "destage_threshold"),
];

fn init_shim() -> Option<Shim> {
    let mount = std::env::var("LDPLFS_MOUNT").ok()?;
    let mount = mount.trim_end_matches('/');
    if mount.is_empty() {
        return None;
    }
    Some(match configure(mount) {
        Some(core) => Shim::On(core),
        None => Shim::Rejected(mount.to_string()),
    })
}

/// The core the `LDPLFS_*` variables describe, built as one plfsrc mount;
/// `None` when any value is rejected.
fn configure(mount: &str) -> Option<Core> {
    let env = |var: &str| std::env::var(var).ok();
    // The library reads on the caller's thread: no knob sizes a read pool.
    let mut rc = PlfsRc {
        threadpool_size: 1,
        ..PlfsRc::default()
    };
    let mut spec = MountSpec::simple(mount, env("LDPLFS_BACKEND")?);
    for (var, key) in KNOBS {
        if let Some(v) = env(var) {
            if !rc.set(key, &v).ok()? {
                spec.set(key, &v).ok()?;
            }
        }
    }
    // Byte-valued twins of the MiB/KiB-valued plfsrc keys.
    if let Some(v) = env("LDPLFS_DATA_CACHE") {
        rc.data_cache_bytes = parse_num(&v).ok()? as usize;
    }
    if let Some(v) = env("LDPLFS_READAHEAD") {
        rc.readahead_max_bytes = parse_num(&v).ok()? as usize;
    }
    // The fast tier comes first, as in a plfsrc `backends` list; without
    // one, `tiered` is rejected.
    if let (plfs::BackendKind::Tiered, Some(fast)) = (rc.backend, env("LDPLFS_FAST_BACKEND")) {
        spec.backends.insert(0, fast);
    }
    let real = &mut |dir: &str| Ok(Arc::new(RealBacking::new(dir)?) as Arc<dyn plfs::Backing>);
    let (plfs, tiered) = ldplfs::plfs_for_mount(&rc, &spec, real).ok()?;
    if let Some(t) = tiered {
        // Destage runs on background workers; short-lived hosts (dd, cp,
        // md5sum) would exit before the queue drains, leaving every
        // dropping fast-resident. Drain on normal exit; an actual crash
        // still has the copy→persist→unlink ordering to fall back on.
        let _ = TIERED.set(t);
        unsafe { atexit(drain_tiered_at_exit) };
    }
    let mount_point = mount.to_string();
    Some(ShimCore::new(vec![ShimMount { mount_point, plfs }], Memfd))
}

/// Where a path call goes: `None` passes it through to libc; otherwise the
/// core and the path inside its mount — or `EINVAL`, on the mount of a
/// rejected configuration.
fn route(path: &str) -> Option<PosixResult<(&'static Core, At<'_>)>> {
    match shim()? {
        Shim::On(core) => core.route(path).map(|at| Ok((core, at))),
        Shim::Rejected(m) => path_has_prefix(path, m).then_some(Err(Errno::EINVAL)),
    }
}

/// The core, if it exists. Never initialises it: only an existing core
/// can hold a PLFS fd, so this is safe to call from `mmap`, which
/// allocators call.
fn core() -> Option<&'static Core> {
    match SHIM.get() {
        Some(Some(Shim::On(core))) => Some(core),
        _ => None,
    }
}

/// `fd`'s PLFS open, if it is one.
fn lookup(fd: c_int) -> Option<(&'static Core, Entry<AtomicBool>)> {
    let core = core()?;
    core.entry(fd).map(|e| (core, e))
}

unsafe fn cstr<'a>(p: *const c_char) -> Option<&'a str> {
    if p.is_null() {
        return None;
    }
    CStr::from_ptr(p).to_str().ok()
}

/// A C buffer as a slice; a zero-length one may be null.
///
/// # Safety
/// A nonzero `n` needs `p` valid for `n` bytes for the returned lifetime.
unsafe fn buf<'a>(p: *const c_void, n: SizeT) -> &'a [u8] {
    if n == 0 {
        return &[];
    }
    std::slice::from_raw_parts(p as *const u8, n)
}

/// A writable C buffer as a slice; a zero-length one may be null.
///
/// # Safety
/// As for [`buf`], with `p` writable and not otherwise borrowed.
unsafe fn buf_mut<'a>(p: *mut c_void, n: SizeT) -> &'a mut [u8] {
    if n == 0 {
        return &mut [];
    }
    std::slice::from_raw_parts_mut(p as *mut u8, n)
}

/// A file offset argument; negative ones are `EINVAL`.
fn offset(off: OffT) -> PosixResult<u64> {
    u64::try_from(off).map_err(|_| Errno::EINVAL)
}

/// Prefix of a read-only open's memfd name; the rest is the logical path,
/// which an exec'd process reads back from `/proc/self/fd` (see
/// [`adopt_inherited`]).
const RO_PREFIX: &[u8] = b"ldplfs-ro:";
/// Longest memfd name the kernel accepts, without its NUL.
const MFD_NAME_MAX: usize = 249;

/// Does a read-only open of `rel` carry its path in its memfd name?
fn named(rel: &str) -> bool {
    RO_PREFIX.len() + rel.len() <= MFD_NAME_MAX
}

/// Make the memfd behind a PLFS open. A read-only open's carries its
/// logical path in its name when that fits. The name is built on the stack
/// — no allocation, nothing to unwrap.
fn reserve_fd(rel: &str, read_only: bool, cloexec: bool) -> c_int {
    const CURSOR: &[u8] = b"ldplfs-cursor";
    let mut name = [0u8; MFD_NAME_MAX + 1];
    let (head, tail) = if read_only && named(rel) {
        (RO_PREFIX, rel.as_bytes())
    } else {
        (CURSOR, &b""[..])
    };
    for (dst, src) in name.iter_mut().zip(head.iter().chain(tail)) {
        *dst = *src;
    }
    let flags = if cloexec { MFD_CLOEXEC } else { 0 };
    unsafe { syscall(SYS_MEMFD_CREATE, name.as_ptr() as *const c_char, flags) as c_int }
}

/// Stable fake inode per logical path (FNV-1a), so path-stat and
/// fstat-after-open agree.
fn fake_ino(rel: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in rel.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h | 1
}

/// Size of the kernel file behind `fd`, from a raw `fstat` that cannot
/// re-enter the shim.
fn kernel_size(fd: c_int) -> Option<u64> {
    let mut st = std::mem::MaybeUninit::<CStat>::zeroed();
    // SAFETY: the kernel writes at most one `struct stat` into `st`.
    let r = unsafe { syscall(SYS_FSTAT, fd as c_long, st.as_mut_ptr()) };
    // SAFETY: zeroed is a valid CStat (plain integers), and fstat filled it.
    (r == 0).then(|| unsafe { st.assume_init() }.st_size as u64)
}

/// Copy the container's logical bytes into `fd`'s reserved memfd, once per
/// open, so code outside the interposed symbols — stdio inside glibc,
/// `mmap`, in-kernel copies, an exec'd process — sees the file. Real
/// `pwrite`s leave the shared cursor where it is. A memfd already as large
/// as the file (filled by another process sharing it) is left alone, and a
/// racing fill writes the same bytes at the same offsets. Writable fds are
/// never filled: the copy would go stale at their next write.
fn ensure_filled(fd: c_int, f: &OpenFile<AtomicBool>) -> PosixResult<()> {
    if f.plfs_fd.flags().writable() || f.extra.load(Ordering::Acquire) {
        return Ok(());
    }
    if kernel_size(fd).unwrap_or(0) < f.plfs_fd.size()? {
        let real_pwrite = real!(
            pwrite,
            unsafe extern "C" fn(c_int, *const c_void, SizeT, OffT) -> SsizeT
        );
        let mut chunk = vec![0u8; 1 << 20];
        let mut off = 0u64;
        loop {
            let n = f.plfs_fd.read(&mut chunk, off)?;
            if n == 0 {
                break;
            }
            let mut done = 0usize;
            while done < n {
                let rest = &chunk[done..n];
                let at = (off + done as u64) as OffT;
                let w = unsafe { real_pwrite(fd, rest.as_ptr() as *const c_void, rest.len(), at) };
                if w <= 0 {
                    // A short memfd write (ENOSPC/ENOMEM) must not leave a
                    // truncated copy marked as the whole file.
                    return Err(Errno(ENOMEM));
                }
                done += w as usize;
            }
            off += n as u64;
        }
    }
    // Release: the memfd holds the bytes before anyone sees the flag.
    f.extra.store(true, Ordering::Release);
    Ok(())
}

/// Fill `fd` before it escapes the interposed symbols, if it is a PLFS fd.
fn escape(fd: c_int) -> PosixResult<()> {
    match lookup(fd) {
        Some((_, e)) => ensure_filled(fd, &e.file),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// open family.
// ---------------------------------------------------------------------------

unsafe fn do_open(path: *const c_char, flags: c_int, mode: ModeT) -> c_int {
    let real_open = real!(
        open,
        unsafe extern "C" fn(*const c_char, c_int, ModeT) -> c_int
    );
    match cstr(path).and_then(route) {
        None => untracked(real_open(path, flags, mode)),
        Some(r) => cret(r.and_then(|(core, at)| open_plfs(core, at, flags))),
    }
}

/// Open `at` through the core. An exec'd process finds a read-only fd by
/// its memfd name; one whose path did not fit is filled now instead.
fn open_plfs(core: &Core, at: At, flags: c_int) -> PosixResult<c_int> {
    let flags = OpenFlags(flags as u32);
    let fd = core.open(at, flags)?;
    if !flags.writable() && !named(at.rel) {
        if let Err(e) = escape(fd) {
            let _ = core.forget(fd);
            let real_close = real!(close, unsafe extern "C" fn(c_int) -> c_int);
            // SAFETY: closes only the descriptor this open just reserved.
            unsafe { real_close(fd) };
            return Err(e);
        }
    }
    Ok(fd)
}

/// `open(2)`.
#[no_mangle]
pub unsafe extern "C" fn open(path: *const c_char, flags: c_int, mode: ModeT) -> c_int {
    ffi_guard!(-1, do_open(path, flags, mode))
}

/// `open64(2)` (LFS alias).
#[no_mangle]
pub unsafe extern "C" fn open64(path: *const c_char, flags: c_int, mode: ModeT) -> c_int {
    ffi_guard!(-1, do_open(path, flags, mode))
}

/// `creat(2)`.
#[no_mangle]
pub unsafe extern "C" fn creat(path: *const c_char, mode: ModeT) -> c_int {
    ffi_guard!(-1, do_open(path, 0o1 | O_CREAT | O_TRUNC, mode))
}

unsafe fn do_openat(dirfd: c_int, path: *const c_char, flags: c_int, mode: ModeT) -> c_int {
    let absolute = cstr(path).map(|p| p.starts_with('/')).unwrap_or(false);
    if dirfd == AT_FDCWD || absolute {
        return do_open(path, flags, mode);
    }
    let f = real!(
        openat,
        unsafe extern "C" fn(c_int, *const c_char, c_int, ModeT) -> c_int
    );
    untracked(f(dirfd, path, flags, mode))
}

/// `openat(2)` — handled for `AT_FDCWD` / absolute paths.
#[no_mangle]
pub unsafe extern "C" fn openat(
    dirfd: c_int,
    path: *const c_char,
    flags: c_int,
    mode: ModeT,
) -> c_int {
    ffi_guard!(-1, do_openat(dirfd, path, flags, mode))
}

/// `openat64(2)`.
#[no_mangle]
pub unsafe extern "C" fn openat64(
    dirfd: c_int,
    path: *const c_char,
    flags: c_int,
    mode: ModeT,
) -> c_int {
    ffi_guard!(-1, do_openat(dirfd, path, flags, mode))
}

// ---------------------------------------------------------------------------
// data plane.
// ---------------------------------------------------------------------------

unsafe fn do_read(fd: c_int, b: *mut c_void, count: SizeT) -> SsizeT {
    let real_read = real!(
        read,
        unsafe extern "C" fn(c_int, *mut c_void, SizeT) -> SsizeT
    );
    match lookup(fd) {
        None => real_read(fd, b, count),
        Some((core, e)) => cret(
            core.read(fd, &e, buf_mut(b, count), None)
                .map(|n| n as SsizeT),
        ),
    }
}

/// `read(2)`.
#[no_mangle]
pub unsafe extern "C" fn read(fd: c_int, buf: *mut c_void, count: SizeT) -> SsizeT {
    ffi_guard!(-1, do_read(fd, buf, count))
}

unsafe fn do_write(fd: c_int, b: *const c_void, count: SizeT) -> SsizeT {
    let real_write = real!(
        write,
        unsafe extern "C" fn(c_int, *const c_void, SizeT) -> SsizeT
    );
    match lookup(fd) {
        None => real_write(fd, b, count),
        Some((core, e)) => cret(core.write(fd, &e, buf(b, count), None).map(|n| n as SsizeT)),
    }
}

/// `write(2)`.
#[no_mangle]
pub unsafe extern "C" fn write(fd: c_int, buf: *const c_void, count: SizeT) -> SsizeT {
    ffi_guard!(-1, do_write(fd, buf, count))
}

unsafe fn do_pread(fd: c_int, b: *mut c_void, count: SizeT, off: OffT) -> SsizeT {
    let real_pread = real!(
        pread,
        unsafe extern "C" fn(c_int, *mut c_void, SizeT, OffT) -> SsizeT
    );
    match lookup(fd) {
        None => real_pread(fd, b, count, off),
        Some((core, e)) => cret(
            offset(off)
                .and_then(|off| core.read(fd, &e, buf_mut(b, count), Some(off)))
                .map(|n| n as SsizeT),
        ),
    }
}

/// `pread(2)`.
#[no_mangle]
pub unsafe extern "C" fn pread(fd: c_int, buf: *mut c_void, count: SizeT, off: OffT) -> SsizeT {
    ffi_guard!(-1, do_pread(fd, buf, count, off))
}

/// `pread64(2)`.
#[no_mangle]
pub unsafe extern "C" fn pread64(fd: c_int, buf: *mut c_void, count: SizeT, off: OffT) -> SsizeT {
    ffi_guard!(-1, do_pread(fd, buf, count, off))
}

unsafe fn do_pwrite(fd: c_int, b: *const c_void, count: SizeT, off: OffT) -> SsizeT {
    let real_pwrite = real!(
        pwrite,
        unsafe extern "C" fn(c_int, *const c_void, SizeT, OffT) -> SsizeT
    );
    match lookup(fd) {
        None => real_pwrite(fd, b, count, off),
        Some((core, e)) => cret(
            offset(off)
                .and_then(|off| core.write(fd, &e, buf(b, count), Some(off)))
                .map(|n| n as SsizeT),
        ),
    }
}

/// `pwrite(2)`.
#[no_mangle]
pub unsafe extern "C" fn pwrite(fd: c_int, buf: *const c_void, count: SizeT, off: OffT) -> SsizeT {
    ffi_guard!(-1, do_pwrite(fd, buf, count, off))
}

/// `pwrite64(2)`.
#[no_mangle]
pub unsafe extern "C" fn pwrite64(
    fd: c_int,
    buf: *const c_void,
    count: SizeT,
    off: OffT,
) -> SsizeT {
    ffi_guard!(-1, do_pwrite(fd, buf, count, off))
}

// ---------------------------------------------------------------------------
// vectored I/O. On a PLFS fd the core serves the whole vector with ONE
// PlfsFd list call, so an N-buffer vector costs one index record instead of
// N. Other fds forward to the real libc symbols.
// ---------------------------------------------------------------------------

/// `struct iovec` (uapi layout).
#[repr(C)]
pub struct IoVec {
    /// Buffer start.
    pub iov_base: *mut c_void,
    /// Buffer length in bytes.
    pub iov_len: SizeT,
}

impl std::ops::Deref for IoVec {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // SAFETY: `iovs` admitted this iovec from a caller's array.
        unsafe { buf(self.iov_base, self.iov_len) }
    }
}

impl std::ops::DerefMut for IoVec {
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: as for `deref`.
        unsafe { buf_mut(self.iov_base, self.iov_len) }
    }
}

/// A C iovec array as a slice; `EINVAL` for a negative count, a null
/// array, or lengths summing past `SSIZE_MAX`.
///
/// # Safety
/// A non-null `iov` must hold `cnt` iovecs whose buffers are valid and
/// writable for the returned lifetime, as `readv(2)` callers promise.
unsafe fn iovs<'a>(iov: *const IoVec, cnt: c_int) -> PosixResult<&'a mut [IoVec]> {
    let Ok(cnt) = usize::try_from(cnt) else {
        return Err(Errno::EINVAL);
    };
    if cnt == 0 {
        return Ok(&mut []);
    }
    if iov.is_null() {
        return Err(Errno::EINVAL);
    }
    let v = std::slice::from_raw_parts_mut(iov as *mut IoVec, cnt);
    let total = v.iter().try_fold(0usize, |t, v| t.checked_add(v.iov_len));
    match total {
        Some(t) if t <= isize::MAX as usize => Ok(v),
        _ => Err(Errno::EINVAL),
    }
}

/// A vectored read (`read`) or write through the core at `at` (`None`: the
/// cursor), if `fd` is a PLFS fd.
///
/// # Safety
/// As for [`iovs`].
unsafe fn vectored(
    fd: c_int,
    iov: *const IoVec,
    cnt: c_int,
    at: PosixResult<Option<u64>>,
    read: bool,
) -> Option<SsizeT> {
    let (core, e) = lookup(fd)?;
    let r = at.and_then(|at| match (iovs(iov, cnt)?, read) {
        (v, true) => core.readv(fd, &e, v, at),
        (v, false) => core.writev(fd, &e, v, at),
    });
    Some(cret(r.map(|n| n as SsizeT)))
}

unsafe fn do_readv(fd: c_int, iov: *const IoVec, cnt: c_int) -> SsizeT {
    let f = real!(
        readv,
        unsafe extern "C" fn(c_int, *const IoVec, c_int) -> SsizeT
    );
    vectored(fd, iov, cnt, Ok(None), true).unwrap_or_else(|| f(fd, iov, cnt))
}

/// `readv(2)`.
#[no_mangle]
pub unsafe extern "C" fn readv(fd: c_int, iov: *const IoVec, cnt: c_int) -> SsizeT {
    ffi_guard!(-1, do_readv(fd, iov, cnt))
}

unsafe fn do_writev(fd: c_int, iov: *const IoVec, cnt: c_int) -> SsizeT {
    let f = real!(
        writev,
        unsafe extern "C" fn(c_int, *const IoVec, c_int) -> SsizeT
    );
    vectored(fd, iov, cnt, Ok(None), false).unwrap_or_else(|| f(fd, iov, cnt))
}

/// `writev(2)`.
#[no_mangle]
pub unsafe extern "C" fn writev(fd: c_int, iov: *const IoVec, cnt: c_int) -> SsizeT {
    ffi_guard!(-1, do_writev(fd, iov, cnt))
}

unsafe fn do_preadv(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT) -> SsizeT {
    let f = real!(
        preadv,
        unsafe extern "C" fn(c_int, *const IoVec, c_int, OffT) -> SsizeT
    );
    vectored(fd, iov, cnt, offset(off).map(Some), true).unwrap_or_else(|| f(fd, iov, cnt, off))
}

/// `preadv(2)`.
#[no_mangle]
pub unsafe extern "C" fn preadv(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT) -> SsizeT {
    ffi_guard!(-1, do_preadv(fd, iov, cnt, off))
}

/// `preadv64(2)`.
#[no_mangle]
pub unsafe extern "C" fn preadv64(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT) -> SsizeT {
    ffi_guard!(-1, do_preadv(fd, iov, cnt, off))
}

unsafe fn do_pwritev(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT) -> SsizeT {
    let f = real!(
        pwritev,
        unsafe extern "C" fn(c_int, *const IoVec, c_int, OffT) -> SsizeT
    );
    vectored(fd, iov, cnt, offset(off).map(Some), false).unwrap_or_else(|| f(fd, iov, cnt, off))
}

/// `pwritev(2)`.
#[no_mangle]
pub unsafe extern "C" fn pwritev(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT) -> SsizeT {
    ffi_guard!(-1, do_pwritev(fd, iov, cnt, off))
}

/// `pwritev64(2)`.
#[no_mangle]
pub unsafe extern "C" fn pwritev64(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT) -> SsizeT {
    ffi_guard!(-1, do_pwritev(fd, iov, cnt, off))
}

/// `preadv2(2)` dispatch: the core's offset rule (`-1` is the cursor);
/// `RWF_*` flags are accepted and ignored on the PLFS path.
unsafe fn do_preadv2(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT, flags: c_int) -> SsizeT {
    let f = real!(
        preadv2,
        unsafe extern "C" fn(c_int, *const IoVec, c_int, OffT, c_int) -> SsizeT
    );
    vectored(fd, iov, cnt, ldplfs::posix::v2_offset(off), true)
        .unwrap_or_else(|| f(fd, iov, cnt, off, flags))
}

/// `preadv2(2)`.
#[no_mangle]
pub unsafe extern "C" fn preadv2(
    fd: c_int,
    iov: *const IoVec,
    cnt: c_int,
    off: OffT,
    flags: c_int,
) -> SsizeT {
    ffi_guard!(-1, do_preadv2(fd, iov, cnt, off, flags))
}

/// `preadv64v2(2)`.
#[no_mangle]
pub unsafe extern "C" fn preadv64v2(
    fd: c_int,
    iov: *const IoVec,
    cnt: c_int,
    off: OffT,
    flags: c_int,
) -> SsizeT {
    ffi_guard!(-1, do_preadv2(fd, iov, cnt, off, flags))
}

unsafe fn do_pwritev2(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT, flags: c_int) -> SsizeT {
    let f = real!(
        pwritev2,
        unsafe extern "C" fn(c_int, *const IoVec, c_int, OffT, c_int) -> SsizeT
    );
    vectored(fd, iov, cnt, ldplfs::posix::v2_offset(off), false)
        .unwrap_or_else(|| f(fd, iov, cnt, off, flags))
}

/// `pwritev2(2)`.
#[no_mangle]
pub unsafe extern "C" fn pwritev2(
    fd: c_int,
    iov: *const IoVec,
    cnt: c_int,
    off: OffT,
    flags: c_int,
) -> SsizeT {
    ffi_guard!(-1, do_pwritev2(fd, iov, cnt, off, flags))
}

/// `pwritev64v2(2)`.
#[no_mangle]
pub unsafe extern "C" fn pwritev64v2(
    fd: c_int,
    iov: *const IoVec,
    cnt: c_int,
    off: OffT,
    flags: c_int,
) -> SsizeT {
    ffi_guard!(-1, do_pwritev2(fd, iov, cnt, off, flags))
}

unsafe fn do_lseek(fd: c_int, off: OffT, whence: c_int) -> OffT {
    let real_lseek = real!(lseek, unsafe extern "C" fn(c_int, OffT, c_int) -> OffT);
    let Some((core, e)) = lookup(fd) else {
        return real_lseek(fd, off, whence);
    };
    let whence = match whence {
        SEEK_SET => Ok(Whence::Set),
        SEEK_CUR => Ok(Whence::Cur),
        SEEK_END => Ok(Whence::End),
        _ => Err(Errno::EINVAL),
    };
    cret(
        whence
            .and_then(|w| core.lseek(fd, &e, off, w))
            .map(|o| o as OffT),
    )
}

/// `lseek(2)`.
#[no_mangle]
pub unsafe extern "C" fn lseek(fd: c_int, offset: OffT, whence: c_int) -> OffT {
    ffi_guard!(-1, do_lseek(fd, offset, whence))
}

/// `lseek64(2)`.
#[no_mangle]
pub unsafe extern "C" fn lseek64(fd: c_int, offset: OffT, whence: c_int) -> OffT {
    ffi_guard!(-1, do_lseek(fd, offset, whence))
}

/// Drop `fd`'s entry and release its PLFS reference: the bookkeeping half
/// of `close`, also run by `fclose`, which closes inside glibc.
fn forget(fd: c_int) -> Option<PosixResult<()>> {
    core()?.forget(fd)
}

/// A close's return: the real close's, unless that succeeded while the
/// PLFS half failed.
fn closed(plfs: Option<PosixResult<()>>, real: c_int) -> c_int {
    match plfs {
        Some(Err(e)) if real == 0 => cret(Err(e)),
        _ => real,
    }
}

/// An fd the kernel just handed out for a file outside the mount. Its
/// number may still carry an entry left by a close the shim did not see
/// (`close_range`, a raw syscall); that entry would route the new file's
/// reads to a container, so it is dropped.
fn untracked(fd: c_int) -> c_int {
    if fd >= 0 {
        let _ = forget(fd);
    }
    fd
}

unsafe fn do_close(fd: c_int) -> c_int {
    let real_close = real!(close, unsafe extern "C" fn(c_int) -> c_int);
    let plfs = forget(fd);
    closed(plfs, real_close(fd))
}

/// `close(2)`.
#[no_mangle]
pub unsafe extern "C" fn close(fd: c_int) -> c_int {
    ffi_guard!(-1, do_close(fd))
}

unsafe fn do_fsync(fd: c_int) -> c_int {
    let real_fsync = real!(fsync, unsafe extern "C" fn(c_int) -> c_int);
    match lookup(fd) {
        None => real_fsync(fd),
        Some((core, e)) => cret(core.fsync(&e).map(|()| 0)),
    }
}

/// `fsync(2)`.
#[no_mangle]
pub unsafe extern "C" fn fsync(fd: c_int) -> c_int {
    ffi_guard!(-1, do_fsync(fd))
}

/// `fdatasync(2)` — containers have no metadata/data distinction the shim
/// could exploit, so it shares `do_fsync` (strictly stronger durability;
/// passthrough fds pay one real fsync instead of fdatasync).
#[no_mangle]
pub unsafe extern "C" fn fdatasync(fd: c_int) -> c_int {
    ffi_guard!(-1, do_fsync(fd))
}

/// The core's bookkeeping after a real `dup`, `dup2`, `dup3` or
/// `fcntl(F_DUPFD*)` succeeded.
fn dup_bookkeeping(oldfd: c_int, newfd: c_int) {
    if let Some(core) = core() {
        core.dup(oldfd, newfd);
    }
}

unsafe fn do_dup(fd: c_int) -> c_int {
    let real_dup = real!(dup, unsafe extern "C" fn(c_int) -> c_int);
    let new = real_dup(fd);
    if new >= 0 {
        dup_bookkeeping(fd, new);
    }
    new
}

/// `dup(2)`.
#[no_mangle]
pub unsafe extern "C" fn dup(fd: c_int) -> c_int {
    ffi_guard!(-1, do_dup(fd))
}

unsafe fn do_dup2(oldfd: c_int, newfd: c_int) -> c_int {
    let real_dup2 = real!(dup2, unsafe extern "C" fn(c_int, c_int) -> c_int);
    let ret = real_dup2(oldfd, newfd);
    if ret >= 0 {
        dup_bookkeeping(oldfd, newfd);
    }
    ret
}

/// `dup2(2)` — needed for shell redirection bookkeeping.
#[no_mangle]
pub unsafe extern "C" fn dup2(oldfd: c_int, newfd: c_int) -> c_int {
    ffi_guard!(-1, do_dup2(oldfd, newfd))
}

unsafe fn do_dup3(oldfd: c_int, newfd: c_int, flags: c_int) -> c_int {
    // The real call enforces dup3's contract (EINVAL on oldfd == newfd,
    // atomic O_CLOEXEC); the shim only mirrors the fd-table transfer.
    let real_dup3 = real!(dup3, unsafe extern "C" fn(c_int, c_int, c_int) -> c_int);
    let ret = real_dup3(oldfd, newfd, flags);
    if ret >= 0 {
        dup_bookkeeping(oldfd, newfd);
    }
    ret
}

/// `dup3(2)` — the O_CLOEXEC-capable dup2, used by modern shells.
#[no_mangle]
pub unsafe extern "C" fn dup3(oldfd: c_int, newfd: c_int, flags: c_int) -> c_int {
    ffi_guard!(-1, do_dup3(oldfd, newfd, flags))
}

const F_DUPFD: c_int = 0;
const F_DUPFD_CLOEXEC: c_int = 1030;

unsafe fn do_fcntl(fd: c_int, cmd: c_int, arg: c_long) -> c_int {
    let real_fcntl = real!(fcntl, unsafe extern "C" fn(c_int, c_int, c_long) -> c_int);
    let ret = real_fcntl(fd, cmd, arg);
    if ret >= 0 && (cmd == F_DUPFD || cmd == F_DUPFD_CLOEXEC) {
        dup_bookkeeping(fd, ret);
    }
    ret
}

/// `fcntl(2)`. Only `F_DUPFD`/`F_DUPFD_CLOEXEC` touch the fd table — Rust's
/// `File::try_clone` and Python's `os.dup` duplicate that way; every other
/// command passes straight through. The variadic third argument is taken
/// as one `long`, which carries an int or a pointer alike on x86_64.
#[no_mangle]
pub unsafe extern "C" fn fcntl(fd: c_int, cmd: c_int, arg: c_long) -> c_int {
    ffi_guard!(-1, do_fcntl(fd, cmd, arg))
}

/// `fcntl64(2)` (LFS alias).
#[no_mangle]
pub unsafe extern "C" fn fcntl64(fd: c_int, cmd: c_int, arg: c_long) -> c_int {
    ffi_guard!(-1, do_fcntl(fd, cmd, arg))
}

// ---------------------------------------------------------------------------
// metadata plane.
// ---------------------------------------------------------------------------

/// Minimal glibc x86_64 `struct stat` layout.
#[repr(C)]
pub struct CStat {
    st_dev: u64,
    st_ino: u64,
    st_nlink: u64,
    st_mode: u32,
    st_uid: u32,
    st_gid: u32,
    __pad0: u32,
    st_rdev: u64,
    st_size: i64,
    st_blksize: i64,
    st_blocks: i64,
    st_atime: i64,
    st_atime_nsec: i64,
    st_mtime: i64,
    st_mtime_nsec: i64,
    st_ctime: i64,
    st_ctime_nsec: i64,
    __unused: [i64; 3],
}

const S_IFREG: u32 = 0o100000;
const S_IFDIR: u32 = 0o040000;

fn mode(is_dir: bool) -> u32 {
    if is_dir {
        S_IFDIR | 0o755
    } else {
        S_IFREG | 0o644
    }
}

unsafe fn fill_stat(out: *mut CStat, size: u64, is_dir: bool, ino: u64) -> c_int {
    std::ptr::write_bytes(out as *mut u8, 0, std::mem::size_of::<CStat>());
    let st = &mut *out;
    st.st_mode = mode(is_dir);
    st.st_nlink = 1;
    st.st_size = size as i64;
    st.st_blksize = 4096;
    st.st_blocks = (size as i64 + 511) / 512;
    st.st_ino = ino;
    0
}

/// `stat` (`follow`) or `lstat`: containers have no symlinks, so within the
/// mount the two are the same.
unsafe fn do_stat(path: *const c_char, out: *mut CStat, follow: bool) -> c_int {
    type Stat = unsafe extern "C" fn(*const c_char, *mut CStat) -> c_int;
    let real_stat = real!(stat, Stat);
    let real_lstat = real!(lstat, Stat);
    match cstr(path).and_then(route) {
        None if follow => real_stat(path, out),
        None => real_lstat(path, out),
        Some(r) => cret(r.and_then(|(core, at)| {
            let st = core.stat(at)?;
            Ok(fill_stat(out, st.size, st.is_dir, fake_ino(at.rel)))
        })),
    }
}

/// `stat(2)`.
#[no_mangle]
pub unsafe extern "C" fn stat(path: *const c_char, out: *mut CStat) -> c_int {
    ffi_guard!(-1, do_stat(path, out, true))
}

/// `stat64(2)`.
#[no_mangle]
pub unsafe extern "C" fn stat64(path: *const c_char, out: *mut CStat) -> c_int {
    ffi_guard!(-1, do_stat(path, out, true))
}

/// `lstat(2)`.
#[no_mangle]
pub unsafe extern "C" fn lstat(path: *const c_char, out: *mut CStat) -> c_int {
    ffi_guard!(-1, do_stat(path, out, false))
}

/// `lstat64(2)`.
#[no_mangle]
pub unsafe extern "C" fn lstat64(path: *const c_char, out: *mut CStat) -> c_int {
    ffi_guard!(-1, do_stat(path, out, false))
}

unsafe fn do_fstat(fd: c_int, out: *mut CStat) -> c_int {
    let real_fstat = real!(fstat, unsafe extern "C" fn(c_int, *mut CStat) -> c_int);
    match lookup(fd) {
        None => real_fstat(fd, out),
        Some((core, e)) => {
            let ino = fake_ino(&e.file.logical);
            cret(core.fstat(&e).map(|st| fill_stat(out, st.size, false, ino)))
        }
    }
}

/// `fstat(2)`.
#[no_mangle]
pub unsafe extern "C" fn fstat(fd: c_int, out: *mut CStat) -> c_int {
    ffi_guard!(-1, do_fstat(fd, out))
}

/// `fstat64(2)`.
#[no_mangle]
pub unsafe extern "C" fn fstat64(fd: c_int, out: *mut CStat) -> c_int {
    ffi_guard!(-1, do_fstat(fd, out))
}

unsafe fn do_fstatat(dirfd: c_int, path: *const c_char, out: *mut CStat, flags: c_int) -> c_int {
    // Resolve the next-in-chain symbol before the mount probe: the probe
    // may initialise the shim, which allocates.
    let f = real!(
        fstatat,
        unsafe extern "C" fn(c_int, *const c_char, *mut CStat, c_int) -> c_int
    );
    let absolute = cstr(path).map(|p| p.starts_with('/')).unwrap_or(false);
    if (dirfd == AT_FDCWD || absolute) && cstr(path).and_then(route).is_some() {
        return do_stat(path, out, true);
    }
    f(dirfd, path, out, flags)
}

/// `fstatat(2)` / `newfstatat` for `AT_FDCWD` and absolute paths.
#[no_mangle]
pub unsafe extern "C" fn fstatat(
    dirfd: c_int,
    path: *const c_char,
    out: *mut CStat,
    flags: c_int,
) -> c_int {
    ffi_guard!(-1, do_fstatat(dirfd, path, out, flags))
}

/// `newfstatat` (the syscall-name alias some libcs export).
#[no_mangle]
pub unsafe extern "C" fn newfstatat(
    dirfd: c_int,
    path: *const c_char,
    out: *mut CStat,
    flags: c_int,
) -> c_int {
    ffi_guard!(-1, do_fstatat(dirfd, path, out, flags))
}

unsafe fn do_unlink(path: *const c_char) -> c_int {
    let real_unlink = real!(unlink, unsafe extern "C" fn(*const c_char) -> c_int);
    match cstr(path).and_then(route) {
        None => real_unlink(path),
        Some(r) => cret(r.and_then(|(core, at)| core.unlink(at)).map(|()| 0)),
    }
}

/// `unlink(2)`.
#[no_mangle]
pub unsafe extern "C" fn unlink(path: *const c_char) -> c_int {
    ffi_guard!(-1, do_unlink(path))
}

const AT_REMOVEDIR: c_int = 0x200;

unsafe fn do_unlinkat(dirfd: c_int, path: *const c_char, flags: c_int) -> c_int {
    let f = real!(
        unlinkat,
        unsafe extern "C" fn(c_int, *const c_char, c_int) -> c_int
    );
    let absolute = cstr(path).map(|p| p.starts_with('/')).unwrap_or(false);
    if dirfd == AT_FDCWD || absolute {
        // unlinkat(AT_FDCWD, p, 0) ≡ unlink(p); with AT_REMOVEDIR it is
        // rmdir(p). Both helpers fall through to their own real symbol for
        // paths outside the mount, which matches the real unlinkat.
        return if flags & AT_REMOVEDIR != 0 {
            do_rmdir(path)
        } else {
            do_unlink(path)
        };
    }
    f(dirfd, path, flags)
}

/// `unlinkat(2)` for `AT_FDCWD` and absolute paths (the spellings modern
/// coreutils `rm` uses); directory-fd-relative paths pass through.
#[no_mangle]
pub unsafe extern "C" fn unlinkat(dirfd: c_int, path: *const c_char, flags: c_int) -> c_int {
    ffi_guard!(-1, do_unlinkat(dirfd, path, flags))
}

unsafe fn do_access(path: *const c_char, amode: c_int) -> c_int {
    let real_access = real!(access, unsafe extern "C" fn(*const c_char, c_int) -> c_int);
    match cstr(path).and_then(route) {
        None => real_access(path, amode),
        Some(r) => cret(r.and_then(|(core, at)| core.access(at)).map(|()| 0)),
    }
}

/// `access(2)`.
#[no_mangle]
pub unsafe extern "C" fn access(path: *const c_char, amode: c_int) -> c_int {
    ffi_guard!(-1, do_access(path, amode))
}

unsafe fn do_mkdir(path: *const c_char, mode: ModeT) -> c_int {
    let real_mkdir = real!(mkdir, unsafe extern "C" fn(*const c_char, ModeT) -> c_int);
    match cstr(path).and_then(route) {
        None => real_mkdir(path, mode),
        Some(r) => cret(r.and_then(|(core, at)| core.mkdir(at)).map(|()| 0)),
    }
}

/// `mkdir(2)`.
#[no_mangle]
pub unsafe extern "C" fn mkdir(path: *const c_char, mode: ModeT) -> c_int {
    ffi_guard!(-1, do_mkdir(path, mode))
}

unsafe fn do_rmdir(path: *const c_char) -> c_int {
    let real_rmdir = real!(rmdir, unsafe extern "C" fn(*const c_char) -> c_int);
    match cstr(path).and_then(route) {
        None => real_rmdir(path),
        Some(r) => cret(r.and_then(|(core, at)| core.rmdir(at)).map(|()| 0)),
    }
}

/// `rmdir(2)`.
#[no_mangle]
pub unsafe extern "C" fn rmdir(path: *const c_char) -> c_int {
    ffi_guard!(-1, do_rmdir(path))
}

unsafe fn do_ftruncate(fd: c_int, len: OffT) -> c_int {
    let real_ftruncate = real!(ftruncate, unsafe extern "C" fn(c_int, OffT) -> c_int);
    match lookup(fd) {
        None => real_ftruncate(fd, len),
        Some((core, e)) => cret(
            offset(len)
                .and_then(|len| core.ftruncate(&e, len))
                .map(|()| 0),
        ),
    }
}

unsafe fn do_truncate(path: *const c_char, len: OffT) -> c_int {
    let real_truncate = real!(truncate, unsafe extern "C" fn(*const c_char, OffT) -> c_int);
    match cstr(path).and_then(route) {
        None => real_truncate(path, len),
        Some(r) => cret(
            r.and_then(|(core, at)| core.truncate(at, offset(len)?))
                .map(|()| 0),
        ),
    }
}

/// `truncate(2)`.
#[no_mangle]
pub unsafe extern "C" fn truncate(path: *const c_char, len: OffT) -> c_int {
    ffi_guard!(-1, do_truncate(path, len))
}

/// `truncate64(2)` — the LFS twin.
#[no_mangle]
pub unsafe extern "C" fn truncate64(path: *const c_char, len: OffT) -> c_int {
    ffi_guard!(-1, do_truncate(path, len))
}

/// `ftruncate(2)`.
#[no_mangle]
pub unsafe extern "C" fn ftruncate(fd: c_int, len: OffT) -> c_int {
    ffi_guard!(-1, do_ftruncate(fd, len))
}

/// `ftruncate64(2)`.
#[no_mangle]
pub unsafe extern "C" fn ftruncate64(fd: c_int, len: OffT) -> c_int {
    ffi_guard!(-1, do_ftruncate(fd, len))
}

// ---------------------------------------------------------------------------
// stdio entry points: glibc's fopen does NOT route through the exported
// `open` symbol, so tools like md5sum and grep need fopen itself
// interposed. Read modes open a PLFS fd and fill it (stdio I/O then runs
// natively on the memfd); write modes are not supported through stdio and
// fall through to the real fopen (which fails cleanly, since the mount
// path does not exist on the real file system).
// ---------------------------------------------------------------------------

unsafe fn do_fopen(path: *const c_char, mode: *const c_char) -> *mut c_void {
    let real_fopen = real!(
        fopen,
        unsafe extern "C" fn(*const c_char, *const c_char) -> *mut c_void
    );
    let read_only = cstr(mode).is_some_and(|m| m.starts_with('r') && !m.contains('+'));
    if !read_only || cstr(path).and_then(route).is_none() {
        // Outside the mount, or unsupported: stdio writes into the mount
        // (see module docs). glibc's fopen opens internally: drop a stale
        // entry for its fd.
        let fp = real_fopen(path, mode);
        if !fp.is_null() {
            untracked(fileno(fp));
        }
        return fp;
    }
    let cloexec = match cstr(mode).is_some_and(|m| m.contains('e')) {
        true => O_CLOEXEC,
        false => 0,
    };
    let fd = do_open(path, cloexec, 0);
    if fd < 0 {
        return std::ptr::null_mut();
    }
    let fp = do_fdopen(fd, mode);
    if fp.is_null() {
        let e = errno();
        do_close(fd);
        set_errno(e);
    }
    fp
}

/// `fopen(3)`.
#[no_mangle]
pub unsafe extern "C" fn fopen(path: *const c_char, mode: *const c_char) -> *mut c_void {
    ffi_guard!(std::ptr::null_mut(), do_fopen(path, mode))
}

/// `fopen64(3)`.
#[no_mangle]
pub unsafe extern "C" fn fopen64(path: *const c_char, mode: *const c_char) -> *mut c_void {
    ffi_guard!(std::ptr::null_mut(), do_fopen(path, mode))
}

unsafe fn do_fdopen(fd: c_int, mode: *const c_char) -> *mut c_void {
    let real_fdopen = real!(
        fdopen,
        unsafe extern "C" fn(c_int, *const c_char) -> *mut c_void
    );
    match escape(fd) {
        Ok(()) => real_fdopen(fd, mode),
        Err(e) => {
            set_errno(e.0);
            std::ptr::null_mut()
        }
    }
}

/// `fdopen(3)`: stdio reads the fd inside glibc, so it escapes.
#[no_mangle]
pub unsafe extern "C" fn fdopen(fd: c_int, mode: *const c_char) -> *mut c_void {
    ffi_guard!(std::ptr::null_mut(), do_fdopen(fd, mode))
}

unsafe fn do_fclose(fp: *mut c_void) -> c_int {
    let real_fclose = real!(fclose, unsafe extern "C" fn(*mut c_void) -> c_int);
    let plfs = if fp.is_null() {
        None
    } else {
        forget(fileno(fp))
    };
    closed(plfs, real_fclose(fp))
}

/// `fclose(3)`: glibc closes the fd internally, so its entry is dropped
/// here first — a stale one would capture the next open of that number.
#[no_mangle]
pub unsafe extern "C" fn fclose(fp: *mut c_void) -> c_int {
    ffi_guard!(-1, do_fclose(fp))
}

// ---------------------------------------------------------------------------
// the other escapes: the kernel reads the memfd itself.
// ---------------------------------------------------------------------------

const MAP_ANONYMOUS: c_int = 0x20;
const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

unsafe fn do_mmap(
    addr: *mut c_void,
    len: SizeT,
    prot: c_int,
    flags: c_int,
    fd: c_int,
    off: OffT,
) -> *mut c_void {
    let real_mmap = real!(
        mmap,
        unsafe extern "C" fn(*mut c_void, SizeT, c_int, c_int, c_int, OffT) -> *mut c_void
    );
    // Allocators call mmap: anonymous and other maps neither initialise
    // the shim nor allocate (`lookup` only reads an existing table).
    if flags & MAP_ANONYMOUS == 0 {
        if let Err(e) = escape(fd) {
            set_errno(e.0);
            return MAP_FAILED;
        }
    }
    real_mmap(addr, len, prot, flags, fd, off)
}

/// `mmap(2)`.
#[no_mangle]
pub unsafe extern "C" fn mmap(
    addr: *mut c_void,
    len: SizeT,
    prot: c_int,
    flags: c_int,
    fd: c_int,
    off: OffT,
) -> *mut c_void {
    ffi_guard!(MAP_FAILED, do_mmap(addr, len, prot, flags, fd, off))
}

/// `mmap64(2)`.
#[no_mangle]
pub unsafe extern "C" fn mmap64(
    addr: *mut c_void,
    len: SizeT,
    prot: c_int,
    flags: c_int,
    fd: c_int,
    off: OffT,
) -> *mut c_void {
    ffi_guard!(MAP_FAILED, do_mmap(addr, len, prot, flags, fd, off))
}

/// Ready the fds of an in-kernel copy. A read-only source escapes; a
/// writable PLFS fd on either side fails with `refuse`, an errno on which
/// callers fall back to `read`/`write`, which the shim serves.
fn kernel_copy(fd_in: c_int, fd_out: c_int, refuse: c_int) -> PosixResult<()> {
    let writable = |fd| lookup(fd).is_some_and(|(_, e)| e.file.plfs_fd.flags().writable());
    if writable(fd_in) || lookup(fd_out).is_some() {
        return Err(Errno(refuse));
    }
    escape(fd_in)
}

unsafe fn do_copy_file_range(
    fd_in: c_int,
    off_in: *mut OffT,
    fd_out: c_int,
    off_out: *mut OffT,
    len: SizeT,
    flags: c_uint,
) -> SsizeT {
    let f = real!(
        copy_file_range,
        unsafe extern "C" fn(c_int, *mut OffT, c_int, *mut OffT, SizeT, c_uint) -> SsizeT
    );
    match kernel_copy(fd_in, fd_out, EXDEV) {
        Ok(()) => f(fd_in, off_in, fd_out, off_out, len, flags),
        Err(e) => cret(Err(e)),
    }
}

/// `copy_file_range(2)`.
#[no_mangle]
pub unsafe extern "C" fn copy_file_range(
    fd_in: c_int,
    off_in: *mut OffT,
    fd_out: c_int,
    off_out: *mut OffT,
    len: SizeT,
    flags: c_uint,
) -> SsizeT {
    ffi_guard!(
        -1,
        do_copy_file_range(fd_in, off_in, fd_out, off_out, len, flags)
    )
}

unsafe fn do_sendfile(out_fd: c_int, in_fd: c_int, off: *mut OffT, count: SizeT) -> SsizeT {
    let f = real!(
        sendfile,
        unsafe extern "C" fn(c_int, c_int, *mut OffT, SizeT) -> SsizeT
    );
    match kernel_copy(in_fd, out_fd, EINVAL) {
        Ok(()) => f(out_fd, in_fd, off, count),
        Err(e) => cret(Err(e)),
    }
}

/// `sendfile(2)`.
#[no_mangle]
pub unsafe extern "C" fn sendfile(
    out_fd: c_int,
    in_fd: c_int,
    off: *mut OffT,
    count: SizeT,
) -> SsizeT {
    ffi_guard!(-1, do_sendfile(out_fd, in_fd, off, count))
}

/// `sendfile64(2)`.
#[no_mangle]
pub unsafe extern "C" fn sendfile64(
    out_fd: c_int,
    in_fd: c_int,
    off: *mut OffT,
    count: SizeT,
) -> SsizeT {
    ffi_guard!(-1, do_sendfile(out_fd, in_fd, off, count))
}

// ---------------------------------------------------------------------------
// fortified reads (`-D_FORTIFY_SOURCE`): glibc's checking wrappers call the
// syscall directly, so they are interposed with glibc's contract — a count
// larger than the buffer goes to the real symbol, which aborts through
// `__chk_fail`.
// ---------------------------------------------------------------------------

unsafe fn do_read_chk(fd: c_int, buf: *mut c_void, count: SizeT, buflen: SizeT) -> SsizeT {
    let f = real!(
        __read_chk,
        unsafe extern "C" fn(c_int, *mut c_void, SizeT, SizeT) -> SsizeT
    );
    if count > buflen {
        return f(fd, buf, count, buflen);
    }
    do_read(fd, buf, count)
}

/// `__read_chk`.
#[no_mangle]
pub unsafe extern "C" fn __read_chk(
    fd: c_int,
    buf: *mut c_void,
    count: SizeT,
    buflen: SizeT,
) -> SsizeT {
    ffi_guard!(-1, do_read_chk(fd, buf, count, buflen))
}

unsafe fn do_pread_chk(
    fd: c_int,
    buf: *mut c_void,
    count: SizeT,
    off: OffT,
    buflen: SizeT,
) -> SsizeT {
    let f = real!(
        __pread_chk,
        unsafe extern "C" fn(c_int, *mut c_void, SizeT, OffT, SizeT) -> SsizeT
    );
    if count > buflen {
        return f(fd, buf, count, off, buflen);
    }
    do_pread(fd, buf, count, off)
}

/// `__pread_chk`.
#[no_mangle]
pub unsafe extern "C" fn __pread_chk(
    fd: c_int,
    buf: *mut c_void,
    count: SizeT,
    off: OffT,
    buflen: SizeT,
) -> SsizeT {
    ffi_guard!(-1, do_pread_chk(fd, buf, count, off, buflen))
}

/// `__pread64_chk`.
#[no_mangle]
pub unsafe extern "C" fn __pread64_chk(
    fd: c_int,
    buf: *mut c_void,
    count: SizeT,
    off: OffT,
    buflen: SizeT,
) -> SsizeT {
    ffi_guard!(-1, do_pread_chk(fd, buf, count, off, buflen))
}

// ---------------------------------------------------------------------------
// exec inheritance.
// ---------------------------------------------------------------------------

/// Runs when the dynamic loader maps the library, before `main`.
#[used]
#[link_section = ".init_array"]
static ADOPT_AT_LOAD: extern "C" fn() = adopt_at_load;

// plfs-lint: allow(ffi-barrier, "load-time constructor returns (); has its own catch_unwind and restores errno itself")
extern "C" fn adopt_at_load() {
    let saved = errno();
    let _ = std::panic::catch_unwind(adopt_inherited);
    set_errno(saved);
}

/// Adopt the read-only PLFS fds this process inherited across `execve`:
/// each memfd named `ldplfs-ro:<logical path>` becomes a PLFS fd of the
/// core and is filled, since the exec'd program may read it without
/// calling the shim (`md5sum < /mount/file` reads stdin inside glibc). The
/// scan uses raw syscalls and stack buffers, and the shim is initialised
/// only when such an fd exists, so other processes pay one directory read.
fn adopt_inherited() {
    let found = inherited_ro_fds();
    if found.is_empty() {
        return;
    }
    let Some(Shim::On(core)) = shim() else {
        return;
    };
    let Some(mount) = core.mounts().first() else {
        return;
    };
    for (fd, rel) in found {
        let path = format!("{}{rel}", mount.mount_point);
        let Some(at) = core.route(&path) else {
            continue;
        };
        let adopt = || Ok((fd, AtomicBool::new(false)));
        if core.open_with(at, OpenFlags::RDONLY, adopt).is_ok() && escape(fd).is_err() {
            let _ = core.forget(fd);
        }
    }
}

/// `(fd, logical path)` of every open memfd named with [`RO_PREFIX`].
fn inherited_ro_fds() -> Vec<(c_int, String)> {
    const LINK_PREFIX: &[u8] = b"/memfd:ldplfs-ro:";
    let mut found = Vec::new();
    let flags = (O_DIRECTORY | O_CLOEXEC) as c_long;
    // SAFETY: a NUL-terminated literal path; the kernel returns an fd or -errno.
    let dir = unsafe {
        syscall(
            SYS_OPENAT,
            AT_FDCWD as c_long,
            c"/proc/self/fd".as_ptr(),
            flags,
        )
    };
    if dir < 0 {
        return found;
    }
    let mut ents = [0u8; 4096];
    loop {
        // SAFETY: the kernel writes at most `ents.len()` bytes of dirents.
        let n = unsafe { syscall(SYS_GETDENTS64, dir, ents.as_mut_ptr(), ents.len()) };
        if n <= 0 {
            break;
        }
        let mut rest = ents.get(..n as usize).unwrap_or(&[]);
        // struct linux_dirent64: d_ino u64, d_off i64, d_reclen u16,
        // d_type u8, then the NUL-terminated d_name.
        while let Some(&[lo, hi]) = rest.get(16..18) {
            let reclen = u16::from_ne_bytes([lo, hi]) as usize;
            let name = rest.get(19..reclen).unwrap_or(&[]);
            rest = rest.get(reclen.max(19)..).unwrap_or(&[]);
            let Some(fd) = parse_fd(name) else {
                continue;
            };
            let mut link = [0u8; 512];
            // SAFETY: `name` holds its NUL (the dirent record includes it),
            // and the kernel writes at most `link.len()` bytes.
            let len = unsafe {
                syscall(
                    SYS_READLINKAT,
                    dir,
                    name.as_ptr(),
                    link.as_mut_ptr(),
                    link.len(),
                )
            };
            let target = link.get(..len.max(0) as usize).unwrap_or(&[]);
            let rel = target
                .strip_prefix(LINK_PREFIX)
                .map(|r| r.strip_suffix(b" (deleted)").unwrap_or(r));
            if let Some(Ok(rel)) = rel.map(std::str::from_utf8) {
                found.push((fd, rel.to_string()));
            }
        }
    }
    // SAFETY: closes only the directory fd opened above.
    unsafe { syscall(SYS_CLOSE, dir) };
    found
}

/// The fd number a `/proc/self/fd` entry name spells, up to its NUL.
fn parse_fd(name: &[u8]) -> Option<c_int> {
    let digits = name.split(|&b| b == 0).next()?;
    std::str::from_utf8(digits).ok()?.parse().ok()
}

/// Kernel `struct statx` (uapi, fixed layout).
#[repr(C)]
pub struct CStatx {
    stx_mask: u32,
    stx_blksize: u32,
    stx_attributes: u64,
    stx_nlink: u32,
    stx_uid: u32,
    stx_gid: u32,
    stx_mode: u16,
    __spare0: u16,
    stx_ino: u64,
    stx_size: u64,
    stx_blocks: u64,
    stx_attributes_mask: u64,
    stx_atime: [u8; 16],
    stx_btime: [u8; 16],
    stx_ctime: [u8; 16],
    stx_mtime: [u8; 16],
    stx_rdev_major: u32,
    stx_rdev_minor: u32,
    stx_dev_major: u32,
    stx_dev_minor: u32,
    stx_mnt_id: u64,
    __spare2: [u64; 13],
}

const STATX_BASIC_STATS: u32 = 0x7ff;
const AT_EMPTY_PATH: c_int = 0x1000;

unsafe fn fill_statx(out: *mut CStatx, size: u64, is_dir: bool, ino: u64) -> c_int {
    std::ptr::write_bytes(out as *mut u8, 0, std::mem::size_of::<CStatx>());
    let st = &mut *out;
    st.stx_mask = STATX_BASIC_STATS;
    st.stx_blksize = 4096;
    st.stx_nlink = 1;
    st.stx_mode = mode(is_dir) as u16;
    st.stx_ino = ino;
    st.stx_size = size;
    st.stx_blocks = size.div_ceil(512);
    0
}

unsafe fn do_statx(
    dirfd: c_int,
    path: *const c_char,
    flags: c_int,
    mask: c_uint,
    out: *mut CStatx,
) -> c_int {
    let real_statx = real!(
        statx,
        unsafe extern "C" fn(c_int, *const c_char, c_int, c_uint, *mut CStatx) -> c_int
    );
    // AT_EMPTY_PATH: stat the fd itself (fstat spelling).
    if flags & AT_EMPTY_PATH != 0 {
        return match lookup(dirfd) {
            Some((core, e)) => {
                let ino = fake_ino(&e.file.logical);
                cret(
                    core.fstat(&e)
                        .map(|st| fill_statx(out, st.size, false, ino)),
                )
            }
            None => real_statx(dirfd, path, flags, mask, out),
        };
    }
    let absolute = cstr(path).map(|p| p.starts_with('/')).unwrap_or(false);
    let routed = match dirfd == AT_FDCWD || absolute {
        true => cstr(path).and_then(route),
        false => None,
    };
    match routed {
        None => real_statx(dirfd, path, flags, mask, out),
        Some(r) => cret(r.and_then(|(core, at)| {
            let st = core.stat(at)?;
            Ok(fill_statx(out, st.size, st.is_dir, fake_ino(at.rel)))
        })),
    }
}

/// `statx(2)` — the stat entry point modern glibc and coreutils use.
#[no_mangle]
pub unsafe extern "C" fn statx(
    dirfd: c_int,
    path: *const c_char,
    flags: c_int,
    mask: c_uint,
    out: *mut CStatx,
) -> c_int {
    ffi_guard!(-1, do_statx(dirfd, path, flags, mask, out))
}
