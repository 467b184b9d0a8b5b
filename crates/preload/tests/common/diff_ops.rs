//! One seeded list of POSIX operations and its interpreter, shared by the
//! differential test. The same list runs three ways — through the
//! trait-level shim `ldplfs::LdPlfs` over `RealPosix`, through
//! `preload-smoke` under `LD_PRELOAD`, and through `preload-smoke` on a
//! plain directory — and each run logs every op's return value or errno
//! and the final bytes of every file. The three logs must be equal.

/// A call's result: the value, or the raw errno.
pub type Res<T> = Result<T, i32>;

/// Open flags and `lseek` origins (Linux values).
pub const RDONLY: i32 = 0;
pub const WRONLY: i32 = 0o1;
pub const RDWR: i32 = 0o2;
pub const CREAT: i32 = 0o100;
pub const TRUNC: i32 = 0o1000;
pub const APPEND: i32 = 0o2000;
pub const SEEK_SET: i32 = 0;
pub const SEEK_CUR: i32 = 1;
pub const SEEK_END: i32 = 2;

/// The file API an op list runs against. `at` is the offset of a
/// positional call, `None` for one at the cursor.
pub trait Fs {
    fn open(&self, path: &str, flags: i32) -> Res<i32>;
    fn close(&self, fd: i32) -> Res<()>;
    fn read(&self, fd: i32, buf: &mut [u8], at: Option<u64>) -> Res<usize>;
    fn write(&self, fd: i32, data: &[u8], at: Option<u64>) -> Res<usize>;
    fn readv(&self, fd: i32, bufs: &mut [&mut [u8]], at: Option<u64>) -> Res<usize>;
    fn writev(&self, fd: i32, bufs: &[&[u8]]) -> Res<usize>;
    fn lseek(&self, fd: i32, off: i64, whence: i32) -> Res<i64>;
    fn dup(&self, fd: i32) -> Res<i32>;
    fn ftruncate(&self, fd: i32, len: u64) -> Res<()>;
    fn fstat(&self, fd: i32) -> Res<u64>;
    fn stat(&self, path: &str) -> Res<u64>;
    fn unlink(&self, path: &str) -> Res<()>;
}

/// One operation. Descriptors live in numbered slots, files are numbered.
#[derive(Debug, Clone)]
pub enum Op {
    Open {
        slot: usize,
        file: usize,
        flags: i32,
    },
    Close(usize),
    Write(usize, Vec<u8>),
    Writev(usize, Vec<Vec<u8>>),
    Read(usize, usize),
    Readv(usize, Vec<usize>),
    Pread(usize, usize, u64),
    Pwrite(usize, Vec<u8>, u64),
    Preadv(usize, Vec<usize>, u64),
    Seek(usize, i64, i32),
    Dup {
        from: usize,
        to: usize,
    },
    Ftruncate(usize, u64),
    Fstat(usize),
    Stat(usize),
    Unlink(usize),
}

/// xorshift64*: a seeded stream with no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bytes(&mut self, max: u64) -> Vec<u8> {
        let n = 1 + self.below(max);
        (0..n).map(|_| self.next() as u8).collect()
    }

    fn lens(&mut self) -> Vec<usize> {
        (0..1 + self.below(4))
            .map(|_| self.below(200) as usize)
            .collect()
    }
}

/// The op list for `seed`: a fixed walk through every call the shim core
/// serves, with seeded sizes, offsets and bytes, and a seeded stretch of
/// cursor and positional I/O on two descriptors sharing one cursor.
pub fn ops(seed: u64) -> Vec<Op> {
    use Op::*;
    let mut r = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
    let mut ops = vec![
        Open {
            slot: 0,
            file: 0,
            flags: RDWR | CREAT | TRUNC,
        },
        Write(0, r.bytes(600)),
        Writev(0, vec![r.bytes(100), Vec::new(), r.bytes(300)]),
        Seek(0, 0, SEEK_SET),
        Read(0, 1 + r.below(200) as usize),
        Readv(0, r.lens()),
        Seek(0, -(r.below(50) as i64), SEEK_CUR),
        Seek(0, -(r.below(100) as i64), SEEK_END),
        Seek(0, -1_000_000, SEEK_CUR),
        Seek(0, -1_000_000, SEEK_END),
        Seek(0, -1, SEEK_SET),
        Read(0, 500),
        Pread(0, 1 + r.below(300) as usize, r.below(900)),
        Pwrite(0, r.bytes(200), 1200 + r.below(400)),
        Preadv(0, r.lens(), r.below(1500)),
        Fstat(0),
        Dup { from: 0, to: 1 },
        Seek(1, r.below(400) as i64, SEEK_SET),
        Read(1, 1 + r.below(100) as usize),
        Seek(0, 0, SEEK_CUR),
        Read(0, 1 + r.below(100) as usize),
        Seek(1, 0, SEEK_CUR),
    ];
    for _ in 0..40 {
        let slot = r.below(2) as usize;
        let op = match r.below(8) {
            0 => Write(slot, r.bytes(300)),
            1 => Writev(slot, vec![r.bytes(80), r.bytes(80)]),
            2 => Read(slot, r.below(400) as usize),
            3 => Readv(slot, r.lens()),
            4 => Pread(slot, r.below(400) as usize, r.below(3000)),
            5 => Pwrite(slot, r.bytes(200), r.below(3000)),
            6 => Seek(slot, r.below(3000) as i64, SEEK_SET),
            _ => Seek(slot, r.below(200) as i64 - 100, SEEK_CUR),
        };
        ops.push(op);
    }
    ops.extend([
        Ftruncate(0, 100 + r.below(300)),
        Fstat(1),
        Seek(0, 0, SEEK_SET),
        Read(0, 600),
        Ftruncate(1, 2000 + r.below(1000)),
        Fstat(0),
        Pread(0, 300, 1500),
        Seek(1, 0, SEEK_END),
        Write(1, r.bytes(100)),
        Close(1),
        Close(0),
        Stat(0),
        Open {
            slot: 2,
            file: 0,
            flags: WRONLY | APPEND,
        },
        Write(2, r.bytes(150)),
        Seek(2, 0, SEEK_CUR),
        Writev(2, vec![r.bytes(40), r.bytes(40)]),
        Fstat(2),
        Close(2),
        Stat(0),
        Open {
            slot: 3,
            file: 1,
            flags: RDWR | CREAT,
        },
        Write(3, r.bytes(64)),
        Close(3),
        Stat(1),
        Unlink(1),
        Stat(1),
        Open {
            slot: 3,
            file: 1,
            flags: RDONLY,
        },
        Unlink(1),
    ]);
    ops
}

fn hex(b: &[u8]) -> String {
    b.iter().map(|x| format!("{x:02x}")).collect()
}

fn show<T: std::fmt::Display>(r: Res<T>) -> String {
    match r {
        Ok(v) => format!("ok {v}"),
        Err(e) => format!("errno {e}"),
    }
}

/// Run the op list for `seed` on the files `{root}/f<n>`; one log line
/// per op, then one per file with its final bytes.
pub fn run(fs: &impl Fs, root: &str, seed: u64) -> Vec<String> {
    let path = |file: usize| format!("{root}/f{file}");
    let mut slots = [-1i32; 4];
    let mut log = Vec::new();
    for (i, op) in ops(seed).into_iter().enumerate() {
        let out = match &op {
            Op::Open { slot, file, flags } => show(fs.open(&path(*file), *flags).map(|fd| {
                slots[*slot] = fd;
                "fd"
            })),
            Op::Close(s) => show(fs.close(slots[*s]).map(|()| 0)),
            Op::Write(s, d) => show(fs.write(slots[*s], d, None)),
            Op::Pwrite(s, d, off) => show(fs.write(slots[*s], d, Some(*off))),
            Op::Writev(s, bufs) => {
                let bufs: Vec<&[u8]> = bufs.iter().map(|b| &b[..]).collect();
                show(fs.writev(slots[*s], &bufs))
            }
            Op::Read(s, n) | Op::Pread(s, n, _) => {
                let at = match op {
                    Op::Pread(_, _, off) => Some(off),
                    _ => None,
                };
                let mut buf = vec![0u8; *n];
                show(fs.read(slots[*s], &mut buf, at).map(|n| hex(&buf[..n])))
            }
            Op::Readv(s, lens) | Op::Preadv(s, lens, _) => {
                let at = match op {
                    Op::Preadv(_, _, off) => Some(off),
                    _ => None,
                };
                let mut bufs: Vec<Vec<u8>> = lens.iter().map(|&n| vec![0u8; n]).collect();
                let mut views: Vec<&mut [u8]> = bufs.iter_mut().map(|b| &mut b[..]).collect();
                let r = fs.readv(slots[*s], &mut views, at);
                show(r.map(|n| hex(&bufs.concat()[..n])))
            }
            Op::Seek(s, off, whence) => show(fs.lseek(slots[*s], *off, *whence)),
            Op::Dup { from, to } => show(fs.dup(slots[*from]).map(|fd| {
                slots[*to] = fd;
                "fd"
            })),
            Op::Ftruncate(s, len) => show(fs.ftruncate(slots[*s], *len).map(|()| 0)),
            Op::Fstat(s) => show(fs.fstat(slots[*s])),
            Op::Stat(f) => show(fs.stat(&path(*f))),
            Op::Unlink(f) => show(fs.unlink(&path(*f)).map(|()| 0)),
        };
        log.push(format!("{i} {op:?} -> {out}"));
    }
    for file in 0..2 {
        log.push(format!(
            "final f{file}: {}",
            show(contents(fs, &path(file)))
        ));
    }
    log
}

/// A file's bytes in hex, read through `fs`.
fn contents(fs: &impl Fs, path: &str) -> Res<String> {
    let fd = fs.open(path, RDONLY)?;
    let mut all = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match fs.read(fd, &mut buf, None)? {
            0 => break,
            n => all.extend_from_slice(&buf[..n]),
        }
    }
    fs.close(fd)?;
    Ok(hex(&all))
}
