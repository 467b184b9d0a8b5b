//! Seeded op streams of the LDPLFS benchmark.
//!
//! One op stream per workload is written once, against the [`Io`] trait,
//! and runs unchanged on every side of the benchmark:
//!
//! * [`LibcIo`] makes plain libc calls. The load generator uses it both
//!   under `LD_PRELOAD` (the preload side) and without it on a plain
//!   directory (the kernel side).
//! * The in-process replay implements [`Io`] over `plfs` and `ldplfs`.
//!
//! [`Rec`] sits between a workload and its [`Io`]: it times each call,
//! checks every byte read against the seeded expected bytes ([`data`]) and
//! keeps the counters the benchmark reports ([`Stats`]).
//!
//! This crate has no dependencies, so the load generator that links it
//! links neither `plfs` nor `ldplfs`.

pub mod data;
pub mod libc_io;
pub mod rec;
pub mod stats;
pub mod workloads;

pub use libc_io::LibcIo;
pub use rec::{Phase, Rec};
pub use stats::{Space, Stats};
pub use workloads::{run_round, InProcess, Plan, RankPhase, Ranks, Scale, Workload};

/// An errno-carrying result, as a libc caller sees it.
pub type Res<T> = Result<T, i32>;

/// `O_RDONLY`
pub const O_RDONLY: i32 = 0;
/// `O_WRONLY`
pub const O_WRONLY: i32 = 0o1;
/// `O_RDWR`
pub const O_RDWR: i32 = 0o2;
/// `O_CREAT`
pub const O_CREAT: i32 = 0o100;
/// `O_TRUNC`
pub const O_TRUNC: i32 = 0o1000;

/// The POSIX calls the op streams make, with libc semantics: `read` and
/// `write` use and advance the descriptor's cursor, `stat`/`fstat` answer
/// the file size.
pub trait Io {
    /// `open(2)`.
    fn open(&mut self, path: &str, flags: i32, mode: u32) -> Res<i32>;
    /// `close(2)`.
    fn close(&mut self, fd: i32) -> Res<()>;
    /// `read(2)`.
    fn read(&mut self, fd: i32, buf: &mut [u8]) -> Res<usize>;
    /// `write(2)`.
    fn write(&mut self, fd: i32, buf: &[u8]) -> Res<usize>;
    /// `pread(2)`.
    fn pread(&mut self, fd: i32, buf: &mut [u8], off: u64) -> Res<usize>;
    /// `pwrite(2)`.
    fn pwrite(&mut self, fd: i32, buf: &[u8], off: u64) -> Res<usize>;
    /// `stat(2)`, returning `st_size`.
    fn stat(&mut self, path: &str) -> Res<u64>;
    /// `fstat(2)`, returning `st_size`.
    fn fstat(&mut self, fd: i32) -> Res<u64>;
    /// `unlink(2)`.
    fn unlink(&mut self, path: &str) -> Res<()>;
    /// Act as checkpoint rank `rank` (`None`: the coordinating process)
    /// from now on. Layers that key droppings by process id switch ids
    /// here; the libc layer runs one rank per process and ignores it.
    fn set_rank(&mut self, _rank: Option<u32>) {}
}
