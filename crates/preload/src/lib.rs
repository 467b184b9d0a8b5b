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
//! Faithful to the paper's design, the shim reserves a *genuine* kernel fd
//! per PLFS open (here via `memfd_create`, avoiding the litter of the
//! paper's `/dev/random` trick) and keeps the logical cursor in that fd via
//! real `lseek`s — so `dup(2)`'d descriptors share cursors exactly like
//! ordinary files.
//!
//! Reads are served in place: `read`, `pread`, the vectored reads, `lseek`
//! and `fstat` on any PLFS fd go to `PlfsFd`, so a process copies only the
//! bytes it asks for. The reserved memfd of a read-only open stays empty
//! until the fd *escapes* the interposed symbols; then the container's
//! logical bytes are copied into it once, with real `pwrite`s that leave
//! the shared cursor alone. The escapes are `fopen`/`fdopen` (stdio reads
//! run inside glibc), `mmap`, `copy_file_range` and `sendfile` (the kernel
//! copies from the memfd), and inheritance across `execve`: a read-only
//! open's memfd is named `ldplfs-ro:<logical path>`, and when the library
//! loads into an exec'd process it scans `/proc/self/fd`, then adopts and
//! fills every such fd — so `md5sum < /mount/file` works. A logical path
//! too long for a memfd name is filled at open instead.
//!
//! An in-kernel copy (`copy_file_range`, `sendfile`) that touches a
//! *writable* PLFS fd fails with `EXDEV`/`EINVAL`, the errors on which
//! callers such as `cp` fall back to `read`/`write`.
//!
//! Tuning knobs (all optional): `LDPLFS_HOSTDIRS`, `LDPLFS_META_CACHE`,
//! `LDPLFS_OPEN_MARKERS`, `LDPLFS_INDEX_MEMORY_BYTES` (bound the resident
//! merged index; 0 keeps the eager index), `LDPLFS_COMPACT_THRESHOLD`
//! (fold droppings in the background after last close once a container
//! exceeds this many), `LDPLFS_LIST_IO` (`0` lowers vectored/list calls to
//! per-extent single ops), `LDPLFS_LIST_IO_MAX_EXTENTS` (extents per
//! internal list-I/O batch), `LDPLFS_DATA_CACHE` (per-fd data block cache
//! budget in bytes; 0 or unset keeps caching off), and `LDPLFS_READAHEAD`
//! (readahead window ceiling in bytes for cached sequential streams; 0
//! keeps the cache but disables readahead).
//!
//! Scale-out backend knobs (mirror the plfsrc `backend`/`submit_*` keys):
//! `LDPLFS_BACKEND_KIND=direct|batched|tiered|object` picks the backend
//! stack over the `LDPLFS_BACKEND` directory; `tiered` additionally needs
//! `LDPLFS_FAST_BACKEND=<dir>` as the burst-buffer tier (writes land there
//! and sealed droppings destage to `LDPLFS_BACKEND` in the background).
//! `LDPLFS_SUBMIT_DEPTH` / `LDPLFS_SUBMIT_WORKERS` size the async
//! submission queue (depth 0 keeps the synchronous path), and
//! `LDPLFS_DESTAGE_THRESHOLD` keeps droppings smaller than this many bytes
//! on the fast tier. As with every other knob, unparsable values keep the
//! defaults — the shim must never refuse to start over tuning.
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

use parking_lot::RwLock;
use plfs::{OpenFlags, Plfs, PlfsFd, RealBacking};
use std::collections::HashMap;
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

const O_ACCMODE: c_int = 0o3;
const O_CREAT: c_int = 0o100;
const O_EXCL: c_int = 0o200;
const O_TRUNC: c_int = 0o1000;
const O_APPEND: c_int = 0o2000;
const O_DIRECTORY: c_int = 0o200000;
const O_CLOEXEC: c_int = 0o2000000;

const SEEK_SET: c_int = 0;
const SEEK_CUR: c_int = 1;
const SEEK_END: c_int = 2;

const EIO: c_int = 5;
const EBADF: c_int = 9;
const ENOMEM: c_int = 12;
const EXDEV: c_int = 18;
const EINVAL: c_int = 22;

extern "C" {
    fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
    fn __errno_location() -> *mut c_int;
    fn syscall(num: c_long, ...) -> c_long;
    fn getpid() -> c_int;
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
/// nothing) and a torn `OpenState` at worst fails subsequent calls with
/// EBADF, never UB.
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

// ---------------------------------------------------------------------------
// Shim state.
// ---------------------------------------------------------------------------

struct OpenState {
    plfs_fd: Arc<PlfsFd>,
    append: bool,
    /// `fake_ino` of the logical path, so `fstat` agrees with `stat(path)`
    /// (`cp` aborts when they differ).
    ino: u64,
    /// Set once the container's bytes are in the reserved memfd (read-only
    /// opens only; see [`ensure_filled`]).
    filled: AtomicBool,
}

impl OpenState {
    fn new(plfs_fd: Arc<PlfsFd>, rel: &str, append: bool) -> Arc<OpenState> {
        Arc::new(OpenState {
            plfs_fd,
            append,
            ino: fake_ino(rel),
            filled: AtomicBool::new(false),
        })
    }
}

struct Shim {
    mount: String,
    plfs: Plfs,
    table: RwLock<HashMap<c_int, Arc<OpenState>>>,
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

fn init_shim() -> Option<Shim> {
    {
        let mount = std::env::var("LDPLFS_MOUNT").ok()?;
        let backend = std::env::var("LDPLFS_BACKEND").ok()?;
        let mount = mount.trim_end_matches('/').to_string();
        if mount.is_empty() {
            return None;
        }
        let mut backing: Arc<dyn plfs::Backing> = Arc::new(RealBacking::new(backend).ok()?);
        // Scale-out backend stack (LDPLFS_BACKEND_KIND + submission knobs).
        // A tiered request without a usable fast directory degrades to the
        // direct stack rather than refusing to start.
        let kind = std::env::var("LDPLFS_BACKEND_KIND")
            .ok()
            .and_then(|v| plfs::BackendKind::parse(&v))
            .unwrap_or_default();
        let mut bconf = plfs::BackendConf::default();
        if let Ok(n) = std::env::var("LDPLFS_SUBMIT_DEPTH") {
            if let Ok(n) = n.parse::<usize>() {
                bconf = bconf.with_submit_depth(n);
            }
        }
        if let Ok(n) = std::env::var("LDPLFS_SUBMIT_WORKERS") {
            if let Ok(n) = n.parse::<usize>() {
                bconf = bconf.with_submit_workers(n);
            }
        }
        if let Ok(n) = std::env::var("LDPLFS_DESTAGE_THRESHOLD") {
            if let Ok(n) = n.parse::<u64>() {
                bconf = bconf.with_destage_threshold(n);
            }
        }
        match kind {
            plfs::BackendKind::Direct => {}
            plfs::BackendKind::Batched => {
                if !bconf.batching() {
                    bconf = bconf.with_submit_depth(plfs::conf::DEFAULT_SUBMIT_DEPTH);
                }
            }
            plfs::BackendKind::Tiered => {
                if let Some(fast) = std::env::var("LDPLFS_FAST_BACKEND")
                    .ok()
                    .and_then(|d| RealBacking::new(d).ok())
                {
                    let tiered = Arc::new(plfs::TieredBacking::new(Arc::new(fast), backing, bconf));
                    // Destage runs on background workers; short-lived hosts
                    // (dd, cp, md5sum) would exit before the queue drains,
                    // leaving every dropping fast-resident. Drain on normal
                    // exit; an actual crash still has the copy→persist→unlink
                    // ordering to fall back on.
                    let _ = TIERED.set(Arc::clone(&tiered));
                    unsafe { atexit(drain_tiered_at_exit) };
                    backing = tiered;
                }
            }
            plfs::BackendKind::Object => {
                backing = Arc::new(plfs::ObjectBacking::over(backing));
            }
        }
        let mut plfs = Plfs::new(backing).with_backend_conf(bconf);
        if let Ok(n) = std::env::var("LDPLFS_HOSTDIRS") {
            if let Ok(n) = n.parse::<u32>() {
                plfs = plfs.with_params(plfs::ContainerParams {
                    num_hostdirs: n.max(1),
                    mode: plfs::LayoutMode::Both,
                });
            }
        }
        // Metadata fast-path knobs, mirroring the plfsrc keys:
        // LDPLFS_META_CACHE=0 disables the container metadata cache (any
        // other number sizes it), LDPLFS_OPEN_MARKERS=eager|lazy|off picks
        // the openhosts/ marker policy. Unparsable values keep defaults —
        // the shim must never refuse to start over a tuning knob.
        let mut meta_conf = plfs::MetaConf::default();
        if let Ok(n) = std::env::var("LDPLFS_META_CACHE") {
            if let Ok(n) = n.parse::<usize>() {
                meta_conf = meta_conf.with_meta_cache_entries(n);
            }
        }
        if let Ok(m) = std::env::var("LDPLFS_OPEN_MARKERS") {
            if let Some(m) = plfs::OpenMarkers::parse(&m) {
                meta_conf = meta_conf.with_open_markers(m);
            }
        }
        plfs = plfs.with_meta_conf(meta_conf);
        // LDPLFS_INDEX_MEMORY_BYTES bounds the resident merged index
        // (mirrors the plfsrc index_memory_bytes key; 0 or unset keeps the
        // eager fully-expanded index). LDPLFS_COMPACT_THRESHOLD opts into
        // background compaction at last close once a container accumulates
        // more droppings than the threshold.
        if let Ok(n) = std::env::var("LDPLFS_INDEX_MEMORY_BYTES") {
            if let Ok(n) = n.parse::<usize>() {
                let conf = plfs.read_conf().with_index_memory_bytes(n);
                plfs = plfs.with_read_conf(conf);
            }
        }
        if let Ok(n) = std::env::var("LDPLFS_COMPACT_THRESHOLD") {
            if let Ok(n) = n.parse::<usize>() {
                let conf = plfs.write_conf().with_compact_droppings_threshold(n);
                plfs = plfs.with_write_conf(conf);
            }
        }
        // LDPLFS_LIST_IO=0 disables the native list-I/O path — vectored
        // calls then lower to one single-extent op per buffer —
        // and LDPLFS_LIST_IO_MAX_EXTENTS caps the extents handled per
        // internal batch (mirrors the plfsrc list_io* keys).
        let mut list_conf = *plfs.list_io_conf();
        if let Ok(v) = std::env::var("LDPLFS_LIST_IO") {
            list_conf = list_conf.with_enabled(!matches!(v.as_str(), "0" | "false" | "off" | "no"));
        }
        if let Ok(n) = std::env::var("LDPLFS_LIST_IO_MAX_EXTENTS") {
            if let Ok(n) = n.parse::<usize>() {
                list_conf = list_conf.with_max_extents(n);
            }
        }
        plfs = plfs.with_list_io_conf(list_conf);
        // LDPLFS_DATA_CACHE sizes the per-fd data block cache in bytes
        // (mirrors the plfsrc data_cache_mbs key; 0 or unset keeps the
        // uncached read path). LDPLFS_READAHEAD caps the adaptive readahead
        // window in bytes (mirrors readahead_max_kbs; 0 disables readahead
        // while keeping the cache).
        let mut cache_conf = *plfs.cache_conf();
        if let Ok(n) = std::env::var("LDPLFS_DATA_CACHE") {
            if let Ok(n) = n.parse::<usize>() {
                cache_conf = cache_conf.with_cache_bytes(n);
            }
        }
        if let Ok(n) = std::env::var("LDPLFS_READAHEAD") {
            if let Ok(n) = n.parse::<usize>() {
                cache_conf = cache_conf.with_readahead(cache_conf.readahead_min, n);
            }
        }
        plfs = plfs.with_cache_conf(cache_conf);
        Some(Shim {
            mount,
            plfs,
            table: RwLock::new(HashMap::new()),
        })
    }
}

/// Mount-relative logical path, if `path` is inside the mount.
fn logical(shim: &Shim, path: &str) -> Option<String> {
    let m = &shim.mount;
    if path == m {
        return Some("/".to_string());
    }
    let rest = path.strip_prefix(m.as_str())?;
    if !rest.starts_with('/') {
        return None;
    }
    Some(rest.to_string())
}

unsafe fn cstr<'a>(p: *const c_char) -> Option<&'a str> {
    if p.is_null() {
        return None;
    }
    CStr::from_ptr(p).to_str().ok()
}

/// Prefix of a read-only open's memfd name; the rest is the logical path,
/// which an exec'd process reads back from `/proc/self/fd` (see
/// [`adopt_inherited`]).
const RO_PREFIX: &[u8] = b"ldplfs-ro:";
/// Longest memfd name the kernel accepts, without its NUL.
const MFD_NAME_MAX: usize = 249;

/// Reserve the kernel fd of a PLFS open: a genuine fd with a real file
/// description (so lseek works and dup shares cursors) but no filesystem
/// presence. A read-only open's memfd carries its logical path in its
/// name when that fits; the returned flag says whether it did. The name is
/// built on the stack — no allocation, nothing to unwrap.
fn reserve_fd(rel: &str, read_only: bool, cloexec: bool) -> (c_int, bool) {
    const CURSOR: &[u8] = b"ldplfs-cursor";
    let mut name = [0u8; MFD_NAME_MAX + 1];
    let named = read_only && RO_PREFIX.len() + rel.len() <= MFD_NAME_MAX;
    let (head, tail) = if named {
        (RO_PREFIX, rel.as_bytes())
    } else {
        (CURSOR, &b""[..])
    };
    for (dst, src) in name.iter_mut().zip(head.iter().chain(tail)) {
        *dst = *src;
    }
    let flags = if cloexec { MFD_CLOEXEC } else { 0 };
    let fd = unsafe { syscall(SYS_MEMFD_CREATE, name.as_ptr() as *const c_char, flags) };
    (fd as c_int, named)
}

/// The state of a tracked fd. An fd can only be tracked once the shim
/// exists, so this never initialises it: safe to call from `mmap`, which
/// allocators call.
fn lookup(fd: c_int) -> Option<Arc<OpenState>> {
    let shim = SHIM.get()?.as_ref()?;
    shim.table.read().get(&fd).cloned()
}

fn plfs_errno(e: &plfs::Error) -> c_int {
    e.errno()
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

fn cursor_get(fd: c_int) -> OffT {
    let f = real!(lseek, unsafe extern "C" fn(c_int, OffT, c_int) -> OffT);
    unsafe { f(fd, 0, SEEK_CUR) }
}

fn cursor_set(fd: c_int, off: OffT) -> OffT {
    let f = real!(lseek, unsafe extern "C" fn(c_int, OffT, c_int) -> OffT);
    unsafe { f(fd, off, SEEK_SET) }
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
fn ensure_filled(fd: c_int, st: &OpenState) -> plfs::Result<()> {
    if st.plfs_fd.flags().writable() || st.filled.load(Ordering::Acquire) {
        return Ok(());
    }
    if kernel_size(fd).unwrap_or(0) < st.plfs_fd.size()? {
        let real_pwrite = real!(
            pwrite,
            unsafe extern "C" fn(c_int, *const c_void, SizeT, OffT) -> SsizeT
        );
        let mut buf = vec![0u8; 1 << 20];
        let mut off = 0u64;
        loop {
            let n = st.plfs_fd.read(&mut buf, off)?;
            if n == 0 {
                break;
            }
            let mut done = 0usize;
            while done < n {
                let rest = &buf[done..n];
                let at = (off + done as u64) as OffT;
                let w = unsafe { real_pwrite(fd, rest.as_ptr() as *const c_void, rest.len(), at) };
                if w <= 0 {
                    // A short memfd write (ENOSPC/ENOMEM) must not leave a
                    // truncated copy marked as the whole file.
                    return Err(plfs::Error::Io(std::io::Error::from_raw_os_error(ENOMEM)));
                }
                done += w as usize;
            }
            off += n as u64;
        }
    }
    // Release: the memfd holds the bytes before anyone sees `filled`.
    st.filled.store(true, Ordering::Release);
    Ok(())
}

/// Fill `fd` before it escapes the interposed symbols, if it is tracked;
/// false, with errno set, when the fill fails.
fn escape(fd: c_int) -> bool {
    let Some(st) = lookup(fd) else {
        return true;
    };
    match ensure_filled(fd, &st) {
        Ok(()) => true,
        Err(e) => {
            set_errno(plfs_errno(&e));
            false
        }
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
    let Some(sh) = shim() else {
        return untracked(real_open(path, flags, mode));
    };
    let Some(p) = cstr(path) else {
        return untracked(real_open(path, flags, mode));
    };
    let Some(rel) = logical(sh, p) else {
        return untracked(real_open(path, flags, mode));
    };
    // Translate flags (numeric values match plfs::OpenFlags on Linux).
    let oflags = OpenFlags((flags & (O_ACCMODE | O_CREAT | O_EXCL | O_TRUNC | O_APPEND)) as u32);
    let pid = getpid() as u64;
    let pfd = match sh.plfs.open(&rel, oflags, pid) {
        Ok(pfd) => pfd,
        Err(e) => {
            set_errno(plfs_errno(&e));
            return -1;
        }
    };
    let read_only = !oflags.writable();
    let (fd, named) = reserve_fd(&rel, read_only, flags & O_CLOEXEC != 0);
    if fd < 0 {
        let _ = pfd.close(pid);
        set_errno(ENOMEM);
        return -1;
    }
    let st = OpenState::new(pfd, &rel, flags & O_APPEND != 0);
    // An exec'd process finds a read-only fd by its memfd name; one whose
    // path did not fit is filled now instead.
    if read_only && !named {
        if let Err(e) = ensure_filled(fd, &st) {
            let _ = st.plfs_fd.close(pid);
            let real_close = real!(close, unsafe extern "C" fn(c_int) -> c_int);
            real_close(fd);
            set_errno(plfs_errno(&e));
            return -1;
        }
    }
    track(sh, fd, st);
    fd
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

unsafe fn do_read(fd: c_int, buf: *mut c_void, count: SizeT) -> SsizeT {
    match lookup(fd) {
        None => {
            let f = real!(
                read,
                unsafe extern "C" fn(c_int, *mut c_void, SizeT) -> SsizeT
            );
            f(fd, buf, count)
        }
        Some(st) => {
            let slice = std::slice::from_raw_parts_mut(buf as *mut u8, count);
            let off = cursor_get(fd);
            match st.plfs_fd.read(slice, off as u64) {
                Ok(n) => {
                    cursor_set(fd, off + n as OffT);
                    n as SsizeT
                }
                Err(e) => {
                    set_errno(plfs_errno(&e));
                    -1
                }
            }
        }
    }
}

/// `read(2)`.
#[no_mangle]
pub unsafe extern "C" fn read(fd: c_int, buf: *mut c_void, count: SizeT) -> SsizeT {
    ffi_guard!(-1, do_read(fd, buf, count))
}

unsafe fn do_write(fd: c_int, buf: *const c_void, count: SizeT) -> SsizeT {
    match lookup(fd) {
        None => {
            let f = real!(
                write,
                unsafe extern "C" fn(c_int, *const c_void, SizeT) -> SsizeT
            );
            f(fd, buf, count)
        }
        Some(st) => {
            let slice = std::slice::from_raw_parts(buf as *const u8, count);
            let pid = getpid() as u64;
            // O_APPEND resolves EOF atomically inside PlfsFd::append —
            // size()-then-write() would race concurrent appenders.
            let (off, n) = if st.append {
                match st.plfs_fd.append(slice, pid) {
                    Ok((off, n)) => (off as OffT, n),
                    Err(e) => {
                        set_errno(plfs_errno(&e));
                        return -1;
                    }
                }
            } else {
                let off = cursor_get(fd);
                match st.plfs_fd.write(slice, off as u64, pid) {
                    Ok(n) => (off, n),
                    Err(e) => {
                        set_errno(plfs_errno(&e));
                        return -1;
                    }
                }
            };
            cursor_set(fd, off + n as OffT);
            n as SsizeT
        }
    }
}

/// `write(2)`.
#[no_mangle]
pub unsafe extern "C" fn write(fd: c_int, buf: *const c_void, count: SizeT) -> SsizeT {
    ffi_guard!(-1, do_write(fd, buf, count))
}

unsafe fn do_pread(fd: c_int, buf: *mut c_void, count: SizeT, off: OffT) -> SsizeT {
    match lookup(fd) {
        None => {
            let f = real!(
                pread,
                unsafe extern "C" fn(c_int, *mut c_void, SizeT, OffT) -> SsizeT
            );
            f(fd, buf, count, off)
        }
        Some(st) => {
            let slice = std::slice::from_raw_parts_mut(buf as *mut u8, count);
            match st.plfs_fd.read(slice, off as u64) {
                Ok(n) => n as SsizeT,
                Err(e) => {
                    set_errno(plfs_errno(&e));
                    -1
                }
            }
        }
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

unsafe fn do_pwrite(fd: c_int, buf: *const c_void, count: SizeT, off: OffT) -> SsizeT {
    match lookup(fd) {
        None => {
            let f = real!(
                pwrite,
                unsafe extern "C" fn(c_int, *const c_void, SizeT, OffT) -> SsizeT
            );
            f(fd, buf, count, off)
        }
        Some(st) => {
            let slice = std::slice::from_raw_parts(buf as *const u8, count);
            match st.plfs_fd.write(slice, off as u64, getpid() as u64) {
                Ok(n) => n as SsizeT,
                Err(e) => {
                    set_errno(plfs_errno(&e));
                    -1
                }
            }
        }
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
// vectored I/O. On a tracked fd the iovecs are gathered (writes) or
// scattered (reads) around ONE PlfsFd list call, so an N-buffer vector
// costs one index record instead of N. Untracked fds forward to the real
// libc symbols.
// ---------------------------------------------------------------------------

/// `struct iovec` (uapi layout).
#[repr(C)]
pub struct IoVec {
    /// Buffer start.
    pub iov_base: *mut c_void,
    /// Buffer length in bytes.
    pub iov_len: SizeT,
}

/// Total byte count of an iovec array; `None` on invalid count/pointer or
/// length overflow (POSIX caps the sum at `SSIZE_MAX`).
unsafe fn iov_total(iov: *const IoVec, cnt: c_int) -> Option<usize> {
    if cnt < 0 || (cnt > 0 && iov.is_null()) {
        return None;
    }
    let mut total = 0usize;
    for v in std::slice::from_raw_parts(iov, cnt as usize) {
        total = total.checked_add(v.iov_len)?;
    }
    if total > isize::MAX as usize {
        return None;
    }
    Some(total)
}

unsafe fn gather_iov(iov: *const IoVec, cnt: c_int, total: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(total);
    for v in std::slice::from_raw_parts(iov, cnt as usize) {
        if v.iov_len != 0 {
            out.extend_from_slice(std::slice::from_raw_parts(
                v.iov_base as *const u8,
                v.iov_len,
            ));
        }
    }
    out
}

unsafe fn scatter_iov(iov: *const IoVec, cnt: c_int, data: &[u8]) {
    let mut pos = 0usize;
    for v in std::slice::from_raw_parts(iov, cnt as usize) {
        if pos >= data.len() {
            break;
        }
        let take = v.iov_len.min(data.len() - pos);
        std::ptr::copy_nonoverlapping(data[pos..].as_ptr(), v.iov_base as *mut u8, take);
        pos += take;
    }
}

unsafe fn do_readv(fd: c_int, iov: *const IoVec, cnt: c_int) -> SsizeT {
    match lookup(fd) {
        None => {
            let f = real!(
                readv,
                unsafe extern "C" fn(c_int, *const IoVec, c_int) -> SsizeT
            );
            f(fd, iov, cnt)
        }
        Some(st) => {
            let Some(total) = iov_total(iov, cnt) else {
                set_errno(EINVAL);
                return -1;
            };
            if total == 0 {
                return 0;
            }
            let off = cursor_get(fd);
            let mut data = vec![0u8; total];
            match st
                .plfs_fd
                .read_list(&mut data, &[(off as u64, total as u64)])
            {
                Ok(n) => {
                    scatter_iov(iov, cnt, &data[..n]);
                    cursor_set(fd, off + n as OffT);
                    n as SsizeT
                }
                Err(e) => {
                    set_errno(plfs_errno(&e));
                    -1
                }
            }
        }
    }
}

/// `readv(2)`.
#[no_mangle]
pub unsafe extern "C" fn readv(fd: c_int, iov: *const IoVec, cnt: c_int) -> SsizeT {
    ffi_guard!(-1, do_readv(fd, iov, cnt))
}

unsafe fn do_writev(fd: c_int, iov: *const IoVec, cnt: c_int) -> SsizeT {
    match lookup(fd) {
        None => {
            let f = real!(
                writev,
                unsafe extern "C" fn(c_int, *const IoVec, c_int) -> SsizeT
            );
            f(fd, iov, cnt)
        }
        Some(st) => {
            let Some(total) = iov_total(iov, cnt) else {
                set_errno(EINVAL);
                return -1;
            };
            if total == 0 {
                return 0;
            }
            let data = gather_iov(iov, cnt, total);
            let pid = getpid() as u64;
            let (off, n) = if st.append {
                match st.plfs_fd.append(&data, pid) {
                    Ok((off, n)) => (off as OffT, n),
                    Err(e) => {
                        set_errno(plfs_errno(&e));
                        return -1;
                    }
                }
            } else {
                let off = cursor_get(fd);
                match st
                    .plfs_fd
                    .write_list(&data, &[(off as u64, total as u64)], pid)
                {
                    Ok(n) => (off, n),
                    Err(e) => {
                        set_errno(plfs_errno(&e));
                        return -1;
                    }
                }
            };
            cursor_set(fd, off + n as OffT);
            n as SsizeT
        }
    }
}

/// `writev(2)`.
#[no_mangle]
pub unsafe extern "C" fn writev(fd: c_int, iov: *const IoVec, cnt: c_int) -> SsizeT {
    ffi_guard!(-1, do_writev(fd, iov, cnt))
}

unsafe fn do_preadv(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT) -> SsizeT {
    match lookup(fd) {
        None => {
            let f = real!(
                preadv,
                unsafe extern "C" fn(c_int, *const IoVec, c_int, OffT) -> SsizeT
            );
            f(fd, iov, cnt, off)
        }
        Some(st) => {
            let total = match iov_total(iov, cnt) {
                Some(t) if off >= 0 => t,
                _ => {
                    set_errno(EINVAL);
                    return -1;
                }
            };
            if total == 0 {
                return 0;
            }
            let mut data = vec![0u8; total];
            match st
                .plfs_fd
                .read_list(&mut data, &[(off as u64, total as u64)])
            {
                Ok(n) => {
                    scatter_iov(iov, cnt, &data[..n]);
                    n as SsizeT
                }
                Err(e) => {
                    set_errno(plfs_errno(&e));
                    -1
                }
            }
        }
    }
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
    match lookup(fd) {
        None => {
            let f = real!(
                pwritev,
                unsafe extern "C" fn(c_int, *const IoVec, c_int, OffT) -> SsizeT
            );
            f(fd, iov, cnt, off)
        }
        Some(st) => {
            let total = match iov_total(iov, cnt) {
                Some(t) if off >= 0 => t,
                _ => {
                    set_errno(EINVAL);
                    return -1;
                }
            };
            if total == 0 {
                return 0;
            }
            let data = gather_iov(iov, cnt, total);
            match st
                .plfs_fd
                .write_list(&data, &[(off as u64, total as u64)], getpid() as u64)
            {
                Ok(n) => n as SsizeT,
                Err(e) => {
                    set_errno(plfs_errno(&e));
                    -1
                }
            }
        }
    }
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

/// `preadv2(2)` dispatch: offset `-1` means cursor (`readv`) semantics;
/// `RWF_*` flags are accepted and ignored on the PLFS path.
// plfs-lint: allow(errno-discipline, "pure dispatch: do_readv/do_preadv set errno on their own -1 returns")
unsafe fn do_preadv2(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT, flags: c_int) -> SsizeT {
    if lookup(fd).is_none() {
        let f = real!(
            preadv2,
            unsafe extern "C" fn(c_int, *const IoVec, c_int, OffT, c_int) -> SsizeT
        );
        return f(fd, iov, cnt, off, flags);
    }
    if off == -1 {
        do_readv(fd, iov, cnt)
    } else {
        do_preadv(fd, iov, cnt, off)
    }
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

// plfs-lint: allow(errno-discipline, "pure dispatch: do_writev/do_pwritev set errno on their own -1 returns")
unsafe fn do_pwritev2(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT, flags: c_int) -> SsizeT {
    if lookup(fd).is_none() {
        let f = real!(
            pwritev2,
            unsafe extern "C" fn(c_int, *const IoVec, c_int, OffT, c_int) -> SsizeT
        );
        return f(fd, iov, cnt, off, flags);
    }
    if off == -1 {
        do_writev(fd, iov, cnt)
    } else {
        do_pwritev(fd, iov, cnt, off)
    }
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

unsafe fn do_lseek(fd: c_int, offset: OffT, whence: c_int) -> OffT {
    match lookup(fd) {
        None => {
            let f = real!(lseek, unsafe extern "C" fn(c_int, OffT, c_int) -> OffT);
            f(fd, offset, whence)
        }
        Some(st) => {
            // SEEK_END needs the logical PLFS size; SET/CUR ride the
            // reserved fd's kernel cursor directly (the paper's trick).
            let target = match whence {
                SEEK_SET => offset,
                SEEK_CUR => cursor_get(fd) + offset,
                SEEK_END => st.plfs_fd.size().unwrap_or(0) as OffT + offset,
                _ => {
                    set_errno(EINVAL);
                    return -1;
                }
            };
            if target < 0 {
                set_errno(EINVAL);
                return -1;
            }
            cursor_set(fd, target)
        }
    }
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

/// Drop `fd`'s entry and its reference on the PLFS open: the bookkeeping
/// half of `close`, also run by `fclose`, which closes inside glibc.
fn forget(fd: c_int) {
    let Some(Some(sh)) = SHIM.get() else {
        return;
    };
    // Most fds were never tracked: the shared lock settles those.
    if !sh.table.read().contains_key(&fd) {
        return;
    }
    let state = sh.table.write().remove(&fd);
    if let Some(st) = state {
        // A dup still holding the PLFS open keeps its own reference.
        let _ = st.plfs_fd.close(unsafe { getpid() } as u64);
    }
}

/// An fd the kernel just handed out for a file outside the mount. Its
/// number may still carry an entry left by a close the shim did not see
/// (`close_range`, a raw syscall); that entry would route the new file's
/// reads to a container, so it is dropped.
fn untracked(fd: c_int) -> c_int {
    if fd >= 0 {
        forget(fd);
    }
    fd
}

/// Track `fd` as `st`. An entry left for the number (its fd was closed
/// where the shim could not see it) is forgotten. Its state drops only
/// after the table lock is released: dropping the last reference to a PLFS
/// open closes its droppings through the interposed `close`, which takes
/// the lock.
fn track(sh: &Shim, fd: c_int, st: Arc<OpenState>) {
    let stale = sh.table.write().insert(fd, st);
    if let Some(old) = stale {
        let _ = old.plfs_fd.close(unsafe { getpid() } as u64);
    }
}

unsafe fn do_close(fd: c_int) -> c_int {
    let real_close = real!(close, unsafe extern "C" fn(c_int) -> c_int);
    forget(fd);
    real_close(fd)
}

/// `close(2)`.
#[no_mangle]
pub unsafe extern "C" fn close(fd: c_int) -> c_int {
    ffi_guard!(-1, do_close(fd))
}

unsafe fn do_fsync(fd: c_int) -> c_int {
    match lookup(fd) {
        None => {
            let f = real!(fsync, unsafe extern "C" fn(c_int) -> c_int);
            f(fd)
        }
        Some(st) => match st.plfs_fd.sync(getpid() as u64) {
            Ok(()) => 0,
            Err(e) => {
                set_errno(plfs_errno(&e));
                -1
            }
        },
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

/// Shared fd-table bookkeeping after a real `dup`, `dup2`, `dup3` or
/// `fcntl(F_DUPFD*)` succeeded: newfd drops any previous identity, then
/// inherits oldfd's container state. `dup2(fd, fd)` changes nothing. Only
/// a tracked fd has state, and tracking implies the shim exists, so this
/// never initialises it.
fn dup_bookkeeping(oldfd: c_int, newfd: c_int) {
    if oldfd == newfd {
        return;
    }
    let Some(Some(sh)) = SHIM.get() else {
        return;
    };
    match lookup(oldfd) {
        Some(st) => {
            st.plfs_fd.add_ref(unsafe { getpid() } as u64);
            track(sh, newfd, st);
        }
        None => forget(newfd),
    }
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

unsafe fn fill_stat(out: *mut CStat, size: u64, is_dir: bool, ino: u64) {
    std::ptr::write_bytes(out as *mut u8, 0, std::mem::size_of::<CStat>());
    let st = &mut *out;
    st.st_mode = if is_dir {
        S_IFDIR | 0o755
    } else {
        S_IFREG | 0o644
    };
    st.st_nlink = 1;
    st.st_size = size as i64;
    st.st_blksize = 4096;
    st.st_blocks = (size as i64 + 511) / 512;
    st.st_ino = ino;
}

unsafe fn do_stat(path: *const c_char, out: *mut CStat) -> c_int {
    let real_stat = real!(
        stat,
        unsafe extern "C" fn(*const c_char, *mut CStat) -> c_int
    );
    let Some(sh) = shim() else {
        return real_stat(path, out);
    };
    let Some(p) = cstr(path) else {
        return real_stat(path, out);
    };
    let Some(rel) = logical(sh, p) else {
        return real_stat(path, out);
    };
    if rel == "/" {
        fill_stat(out, 0, true, 1);
        return 0;
    }
    match sh.plfs.getattr(&rel) {
        Ok(st) => {
            fill_stat(out, st.size, st.is_dir, fake_ino(&rel));
            0
        }
        Err(e) => {
            set_errno(plfs_errno(&e));
            -1
        }
    }
}

/// `stat(2)`.
#[no_mangle]
pub unsafe extern "C" fn stat(path: *const c_char, out: *mut CStat) -> c_int {
    ffi_guard!(-1, do_stat(path, out))
}

/// `stat64(2)`.
#[no_mangle]
pub unsafe extern "C" fn stat64(path: *const c_char, out: *mut CStat) -> c_int {
    ffi_guard!(-1, do_stat(path, out))
}

unsafe fn do_lstat(path: *const c_char, out: *mut CStat) -> c_int {
    let real_lstat = real!(
        lstat,
        unsafe extern "C" fn(*const c_char, *mut CStat) -> c_int
    );
    let Some(sh) = shim() else {
        return real_lstat(path, out);
    };
    match cstr(path).and_then(|p| logical(sh, p)) {
        Some(_) => do_stat(path, out),
        None => real_lstat(path, out),
    }
}

/// `lstat(2)` — containers have no symlinks; same as stat within the mount.
#[no_mangle]
pub unsafe extern "C" fn lstat(path: *const c_char, out: *mut CStat) -> c_int {
    ffi_guard!(-1, do_lstat(path, out))
}

/// `lstat64(2)`.
#[no_mangle]
pub unsafe extern "C" fn lstat64(path: *const c_char, out: *mut CStat) -> c_int {
    ffi_guard!(-1, do_lstat(path, out))
}

unsafe fn do_fstat(fd: c_int, out: *mut CStat) -> c_int {
    match lookup(fd) {
        None => {
            let f = real!(fstat, unsafe extern "C" fn(c_int, *mut CStat) -> c_int);
            f(fd, out)
        }
        Some(st) => match st.plfs_fd.size() {
            Ok(size) => {
                fill_stat(out, size, false, st.ino);
                0
            }
            Err(e) => {
                set_errno(plfs_errno(&e));
                -1
            }
        },
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
    // Resolve the next-in-chain symbol before the logical-path probe: the
    // probe allocates (logical returns an owned String), which is off the
    // table while this symbol is still unresolved.
    let f = real!(
        fstatat,
        unsafe extern "C" fn(c_int, *const c_char, *mut CStat, c_int) -> c_int
    );
    let absolute = cstr(path).map(|p| p.starts_with('/')).unwrap_or(false);
    if dirfd == AT_FDCWD || absolute {
        if let Some(sh) = shim() {
            if cstr(path).and_then(|p| logical(sh, p)).is_some() {
                return do_stat(path, out);
            }
        }
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
    let Some(sh) = shim() else {
        return real_unlink(path);
    };
    match cstr(path).and_then(|p| logical(sh, p)) {
        None => real_unlink(path),
        Some(rel) => match sh.plfs.unlink(&rel) {
            Ok(()) => 0,
            Err(e) => {
                set_errno(plfs_errno(&e));
                -1
            }
        },
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
    let Some(sh) = shim() else {
        return real_access(path, amode);
    };
    match cstr(path).and_then(|p| logical(sh, p)) {
        None => real_access(path, amode),
        Some(rel) => {
            if rel == "/" {
                return 0;
            }
            match sh.plfs.access(&rel) {
                Ok(()) => 0,
                Err(e) => {
                    set_errno(plfs_errno(&e));
                    -1
                }
            }
        }
    }
}

/// `access(2)`.
#[no_mangle]
pub unsafe extern "C" fn access(path: *const c_char, amode: c_int) -> c_int {
    ffi_guard!(-1, do_access(path, amode))
}

unsafe fn do_mkdir(path: *const c_char, mode: ModeT) -> c_int {
    let real_mkdir = real!(mkdir, unsafe extern "C" fn(*const c_char, ModeT) -> c_int);
    let Some(sh) = shim() else {
        return real_mkdir(path, mode);
    };
    match cstr(path).and_then(|p| logical(sh, p)) {
        None => real_mkdir(path, mode),
        Some(rel) => match sh.plfs.mkdir(&rel) {
            Ok(()) => 0,
            Err(e) => {
                set_errno(plfs_errno(&e));
                -1
            }
        },
    }
}

/// `mkdir(2)`.
#[no_mangle]
pub unsafe extern "C" fn mkdir(path: *const c_char, mode: ModeT) -> c_int {
    ffi_guard!(-1, do_mkdir(path, mode))
}

unsafe fn do_rmdir(path: *const c_char) -> c_int {
    let real_rmdir = real!(rmdir, unsafe extern "C" fn(*const c_char) -> c_int);
    let Some(sh) = shim() else {
        return real_rmdir(path);
    };
    match cstr(path).and_then(|p| logical(sh, p)) {
        None => real_rmdir(path),
        Some(rel) => match sh.plfs.rmdir(&rel) {
            Ok(()) => 0,
            Err(e) => {
                set_errno(plfs_errno(&e));
                -1
            }
        },
    }
}

/// `rmdir(2)`.
#[no_mangle]
pub unsafe extern "C" fn rmdir(path: *const c_char) -> c_int {
    ffi_guard!(-1, do_rmdir(path))
}

unsafe fn do_ftruncate(fd: c_int, len: OffT) -> c_int {
    match lookup(fd) {
        None => {
            let f = real!(ftruncate, unsafe extern "C" fn(c_int, OffT) -> c_int);
            f(fd, len)
        }
        Some(st) => {
            if len < 0 {
                set_errno(EINVAL);
                return -1;
            }
            // Quiesce, then rewrite via the container truncate path.
            if st.plfs_fd.reset_writers().is_err() {
                set_errno(EBADF);
                return -1;
            }
            let Some(sh) = shim() else {
                set_errno(EBADF);
                return -1;
            };
            // Container path is backend-relative == logical path here.
            let path = st.plfs_fd.container_path().to_string();
            match sh.plfs.trunc(&path, len as u64) {
                Ok(()) => 0,
                Err(e) => {
                    set_errno(plfs_errno(&e));
                    -1
                }
            }
        }
    }
}

unsafe fn do_truncate(path: *const c_char, len: OffT) -> c_int {
    let real_truncate = real!(truncate, unsafe extern "C" fn(*const c_char, OffT) -> c_int);
    let Some(sh) = shim() else {
        return real_truncate(path, len);
    };
    match cstr(path).and_then(|p| logical(sh, p)) {
        None => real_truncate(path, len),
        Some(rel) => {
            if len < 0 {
                set_errno(EINVAL);
                return -1;
            }
            // Path-based truncate of a container. Unlike do_ftruncate
            // there is no fd whose writers need quiescing: an unopened (or
            // other-process) container is rewritten directly, same as the
            // kernel truncates a file nobody has open.
            match sh.plfs.trunc(&rel, len as u64) {
                Ok(()) => 0,
                Err(e) => {
                    set_errno(plfs_errno(&e));
                    -1
                }
            }
        }
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
// interposed. Read modes open a tracked fd and fill it (stdio I/O then runs
// natively on the memfd); write modes are not supported through stdio and
// fall through to the real fopen (which fails cleanly, since the mount
// path does not exist on the real file system).
// ---------------------------------------------------------------------------

unsafe fn do_fopen(path: *const c_char, mode: *const c_char) -> *mut c_void {
    let real_fopen = real!(
        fopen,
        unsafe extern "C" fn(*const c_char, *const c_char) -> *mut c_void
    );
    // glibc's fopen opens internally: drop a stale entry for its fd.
    let passthrough = || {
        let fp = real_fopen(path, mode);
        if !fp.is_null() {
            untracked(fileno(fp));
        }
        fp
    };
    let Some(sh) = shim() else {
        return passthrough();
    };
    let (Some(p), Some(m)) = (cstr(path), cstr(mode)) else {
        return passthrough();
    };
    if logical(sh, p).is_none() || !m.starts_with('r') || m.contains('+') {
        // Outside the mount, or unsupported: stdio writes into the mount
        // (see module docs).
        return passthrough();
    }
    let cloexec = if m.contains('e') { O_CLOEXEC } else { 0 };
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
    if !escape(fd) {
        return std::ptr::null_mut();
    }
    real_fdopen(fd, mode)
}

/// `fdopen(3)`: stdio reads the fd inside glibc, so it escapes.
#[no_mangle]
pub unsafe extern "C" fn fdopen(fd: c_int, mode: *const c_char) -> *mut c_void {
    ffi_guard!(std::ptr::null_mut(), do_fdopen(fd, mode))
}

unsafe fn do_fclose(fp: *mut c_void) -> c_int {
    let real_fclose = real!(fclose, unsafe extern "C" fn(*mut c_void) -> c_int);
    if !fp.is_null() {
        forget(fileno(fp));
    }
    real_fclose(fp)
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
    // Allocators call mmap: anonymous and untracked maps neither initialise
    // the shim nor allocate (`lookup` only reads an existing table).
    if flags & MAP_ANONYMOUS == 0 && !escape(fd) {
        return MAP_FAILED;
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
fn kernel_copy(fd_in: c_int, fd_out: c_int, refuse: c_int) -> bool {
    let writable = |fd| lookup(fd).is_some_and(|st| st.plfs_fd.flags().writable());
    if writable(fd_in) || lookup(fd_out).is_some() {
        set_errno(refuse);
        return false;
    }
    escape(fd_in)
}

// plfs-lint: allow(errno-discipline, "kernel_copy sets errno when it refuses; the real call sets its own")
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
    if !kernel_copy(fd_in, fd_out, EXDEV) {
        return -1;
    }
    f(fd_in, off_in, fd_out, off_out, len, flags)
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

// plfs-lint: allow(errno-discipline, "kernel_copy sets errno when it refuses; the real call sets its own")
unsafe fn do_sendfile(out_fd: c_int, in_fd: c_int, off: *mut OffT, count: SizeT) -> SsizeT {
    let f = real!(
        sendfile,
        unsafe extern "C" fn(c_int, c_int, *mut OffT, SizeT) -> SsizeT
    );
    if !kernel_copy(in_fd, out_fd, EINVAL) {
        return -1;
    }
    f(out_fd, in_fd, off, count)
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
/// each memfd named `ldplfs-ro:<logical path>` becomes a tracked fd and is
/// filled, since the exec'd program may read it without calling the shim
/// (`md5sum < /mount/file` reads stdin inside glibc). The scan uses raw
/// syscalls and stack buffers, and the shim is initialised only when such
/// an fd exists, so other processes pay one directory read.
fn adopt_inherited() {
    let found = inherited_ro_fds();
    if found.is_empty() {
        return;
    }
    let Some(sh) = shim() else {
        return;
    };
    let pid = unsafe { getpid() } as u64;
    for (fd, rel) in found {
        let Ok(pfd) = sh.plfs.open(&rel, OpenFlags::RDONLY, pid) else {
            continue;
        };
        let st = OpenState::new(pfd, &rel, false);
        if ensure_filled(fd, &st).is_ok() {
            track(sh, fd, st);
        } else {
            let _ = st.plfs_fd.close(pid);
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

unsafe fn fill_statx(out: *mut CStatx, size: u64, is_dir: bool, ino: u64) {
    std::ptr::write_bytes(out as *mut u8, 0, std::mem::size_of::<CStatx>());
    let st = &mut *out;
    st.stx_mask = STATX_BASIC_STATS;
    st.stx_blksize = 4096;
    st.stx_nlink = 1;
    st.stx_mode = if is_dir {
        (S_IFDIR | 0o755) as u16
    } else {
        (S_IFREG | 0o644) as u16
    };
    st.stx_ino = ino;
    st.stx_size = size;
    st.stx_blocks = size.div_ceil(512);
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
    let Some(sh) = shim() else {
        return real_statx(dirfd, path, flags, mask, out);
    };
    // AT_EMPTY_PATH: stat the fd itself (fstat spelling).
    if flags & AT_EMPTY_PATH != 0 {
        if let Some(st) = lookup(dirfd) {
            match st.plfs_fd.size() {
                Ok(size) => {
                    fill_statx(out, size, false, st.ino);
                    return 0;
                }
                Err(e) => {
                    set_errno(plfs_errno(&e));
                    return -1;
                }
            }
        }
        return real_statx(dirfd, path, flags, mask, out);
    }
    let absolute = cstr(path).map(|p| p.starts_with('/')).unwrap_or(false);
    if dirfd != AT_FDCWD && !absolute {
        return real_statx(dirfd, path, flags, mask, out);
    }
    let Some(rel) = cstr(path).and_then(|p| logical(sh, p)) else {
        return real_statx(dirfd, path, flags, mask, out);
    };
    if rel == "/" {
        fill_statx(out, 0, true, 1);
        return 0;
    }
    match sh.plfs.getattr(&rel) {
        Ok(st) => {
            fill_statx(out, st.size, st.is_dir, fake_ino(&rel));
            0
        }
        Err(e) => {
            set_errno(plfs_errno(&e));
            -1
        }
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

/// How many fds the shim currently tracks (exposed for the smoke test).
pub fn tracked_fds() -> usize {
    shim().map(|s| s.table.read().len()).unwrap_or(0)
}
