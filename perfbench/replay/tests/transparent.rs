//! The replay's decorators are transparent: the timing `Backing` and the
//! counting `PosixLayer` give the same bytes and results as the stack
//! without them, and a tiny pass of every workload through `plfs` and
//! `ldplfs` reads exactly what the kernel side reads.

use ldplfs::{OpenFlags, PosixLayer, RealPosix, Whence};
use perfbench_replay::{build_shim, CountingPosix, PlfsIo, Routed, ShimIo, TimedBacking};
use perfbench_workload::data::generate;
use perfbench_workload::{
    run_round, InProcess, Io, LibcIo, Plan, Rec, Scale, Space, Stats, Workload,
};
use plfs::{Backing, MeterBacking, RealBacking};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("transparent-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every file under `dir` with its bytes, sorted by path.
fn tree(dir: &Path) -> Vec<(String, Vec<u8>)> {
    fn walk(base: &Path, dir: &Path, out: &mut Vec<(String, Vec<u8>)>) {
        for e in std::fs::read_dir(dir).unwrap().flatten() {
            let p = e.path();
            if p.is_dir() {
                out.push((
                    p.strip_prefix(base).unwrap().display().to_string(),
                    Vec::new(),
                ));
                walk(base, &p, out);
            } else {
                let rel = p.strip_prefix(base).unwrap().display().to_string();
                out.push((rel, std::fs::read(&p).unwrap()));
            }
        }
    }
    let mut out = Vec::new();
    walk(dir, dir, &mut out);
    out.sort();
    out
}

/// A sequence over the whole `Backing` surface, returning what it saw.
fn backing_ops(b: &dyn Backing) -> Vec<String> {
    let mut seen = Vec::new();
    let mut log = |s: String| seen.push(s);
    log(format!("{:?}", b.mkdir_all("/a/b")));
    log(format!("{:?}", b.mkdir("/a/c")));
    let f = b.create("/a/b/f", true).unwrap();
    log(format!("{:?}", f.append(b"hello ")));
    log(format!("{:?}", f.append(b"world")));
    log(format!("{:?}", f.pwrite(b"W", 6)));
    log(format!("{:?}", f.size()));
    log(format!("{:?}", f.sync()));
    let mut buf = [0u8; 16];
    log(format!("{:?} {:?}", f.pread(&mut buf, 0), buf));
    log(format!("{:?}", b.create("/a/b/f", true).map(|_| ())));
    log(format!("{:?}", b.open("/a/b/f", false).map(|g| g.size())));
    log(format!(
        "{:?}",
        b.stat("/a/b/f").map(|s| (s.size, s.is_dir))
    ));
    log(format!("{:?}", b.exists("/a/nope")));
    log(format!("{:?}", b.truncate("/a/b/f", 5)));
    log(format!("{:?}", b.rename("/a/b/f", "/a/c/g")));
    let mut names = b.readdir("/a").unwrap();
    names.sort();
    log(format!("{names:?}"));
    log(format!("{:?}", b.seal("/a/c/g")));
    log(format!("{:?}", b.unlink("/a/c/g")));
    log(format!("{:?}", b.rmdir("/a/c")));
    log(format!("{:?}", b.unlink("/a/c/g")));
    seen
}

#[test]
fn timed_backing_is_transparent() {
    let dir = scratch("backing");
    let plain = RealBacking::new(dir.join("plain")).unwrap();
    let meter = Arc::new(MeterBacking::new(Arc::new(
        RealBacking::new(dir.join("timed")).unwrap(),
    )));
    let timed = TimedBacking::new(meter.clone());
    assert_eq!(backing_ops(&plain), backing_ops(&timed));
    assert_eq!(tree(&dir.join("plain")), tree(&dir.join("timed")));
    let (busy, written) = timed.times().get();
    assert!(busy > 0);
    assert_eq!(written, 12, "append + append + pwrite bytes");
    assert_eq!(meter.snapshot().sync, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A sequence over the `PosixLayer` calls the shim makes and more.
fn posix_ops(p: &dyn PosixLayer) -> Vec<String> {
    let mut seen = Vec::new();
    let mut log = |s: String| seen.push(s);
    log(format!("{:?}", p.mkdir("/d", 0o755)));
    let fd = p
        .open("/d/f", OpenFlags::RDWR | OpenFlags::CREAT, 0o644)
        .unwrap();
    log(format!("{:?}", p.write(fd, b"abcdef")));
    log(format!("{:?}", p.lseek(fd, 2, Whence::Set)));
    let mut buf = [0u8; 3];
    log(format!("{:?} {:?}", p.read(fd, &mut buf), buf));
    log(format!("{:?}", p.pwrite(fd, b"Z", 0)));
    log(format!("{:?} {:?}", p.pread(fd, &mut buf, 0), buf));
    log(format!("{:?}", p.fstat(fd)));
    let dup = p.dup(fd).unwrap();
    log(format!("{:?}", p.lseek(dup, 0, Whence::Cur)));
    log(format!("{:?}", p.fsync(fd)));
    log(format!("{:?}", p.ftruncate(fd, 4)));
    log(format!("{:?} {:?}", p.close(dup), p.close(fd)));
    log(format!("{:?}", p.stat("/d/f")));
    log(format!("{:?}", p.access("/d/f")));
    log(format!("{:?}", p.truncate("/d/f", 2)));
    log(format!("{:?}", p.rename("/d/f", "/d/g")));
    log(format!("{:?}", p.readdir("/d")));
    log(format!("{:?}", p.unlink("/d/g")));
    log(format!("{:?}", p.rmdir("/d")));
    log(format!("{:?}", p.stat("/d/g")));
    seen
}

#[test]
fn counting_posix_is_transparent() {
    let dir = scratch("posix");
    let plain = RealPosix::rooted(dir.join("plain")).unwrap();
    let counting = CountingPosix::new(Arc::new(RealPosix::rooted(dir.join("counted")).unwrap()));
    let calls = counting.calls();
    assert_eq!(posix_ops(&plain), posix_ops(&counting));
    assert_eq!(
        calls.load(std::sync::atomic::Ordering::Relaxed),
        22,
        "one per call"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

fn setup(dir: &Path, plan: &Plan) -> (String, String, Vec<u8>) {
    let plain = dir.join("plain");
    std::fs::create_dir_all(&plain).unwrap();
    let plain = plain.display().to_string();
    std::fs::write(
        Plan::stream_source(&plain),
        generate(plan.key, plan.stream_bytes as usize),
    )
    .unwrap();
    let mount = dir.join("mnt").display().to_string();
    (
        plain,
        mount,
        generate(plan.key, plan.total_bytes() as usize),
    )
}

fn round(
    io: &mut dyn Io,
    plan: &Plan,
    plain: &str,
    mount: &str,
    exp: &[u8],
    probe: PathBuf,
) -> Stats {
    let mut rec = Rec::new(io, mount, false, Box::new(move || Space::of_dir(&probe)));
    run_round(&mut rec, plan, mount, plain, exp, &mut InProcess);
    rec.finish()
}

fn check(st: &Stats, plan: &Plan, what: &str) {
    assert_eq!((st.failed, st.mismatches), (0, 0), "{what}");
    assert_eq!(st.write_bytes, plan.total_bytes(), "{what}");
}

#[test]
fn tiny_pass_reads_the_same_through_every_layer() {
    for w in Workload::ALL {
        let dir = scratch(w.name());
        let plan = Plan::new(w, 5, Scale::Tiny);
        let (plain, mount, exp) = setup(&dir, &plan);

        std::fs::create_dir_all(&mount).unwrap();
        let kernel = round(
            &mut LibcIo,
            &plan,
            &plain,
            &mount,
            &exp,
            PathBuf::from(&mount),
        );
        check(&kernel, &plan, "kernel");
        std::fs::remove_dir_all(&mount).unwrap();

        let timed_plfs = |backend: &Path| -> Arc<dyn Backing> {
            let real: Arc<dyn Backing> = Arc::new(RealBacking::new(backend).unwrap());
            Arc::new(TimedBacking::new(Arc::new(MeterBacking::new(real))))
        };

        // plfs, undecorated and decorated: same reads, same container tree.
        let bare = dir.join("bare");
        let real: Arc<dyn Backing> = Arc::new(RealBacking::new(&bare).unwrap());
        let mut io = Routed::new(PlfsIo::new(real), &mount, true);
        let a = round(&mut io, &plan, &plain, &mount, &exp, bare.clone());
        let dec = dir.join("decorated");
        let mut io = Routed::new(PlfsIo::new(timed_plfs(&dec)), &mount, true);
        let b = round(&mut io, &plan, &plain, &mount, &exp, dec.clone());
        check(&a, &plan, "plfs");
        assert_eq!(
            a.digest,
            kernel.digest,
            "{}: plfs reads what the kernel reads",
            w.name()
        );
        assert_eq!(a.digest, b.digest, "{}", w.name());
        assert_eq!(a.space, b.space, "{}: same footprint", w.name());
        assert!(io.layer.times.busy() > 0);

        // ldplfs over the counting layer.
        let under = Arc::new(CountingPosix::new(Arc::new(
            RealPosix::rooted(dir.join("under")).unwrap(),
        )));
        let calls = under.calls();
        let backing = timed_plfs(&dir.join("shim"));
        let shim_mount = mount.clone();
        let make = Box::new(move || {
            let under: Arc<dyn PosixLayer> = under.clone();
            build_shim(under, &shim_mount, Arc::clone(&backing))
        });
        let mut io = Routed::new(ShimIo::new(make, calls), &mount, false);
        let c = round(&mut io, &plan, &plain, &mount, &exp, dir.join("shim"));
        check(&c, &plan, "ldplfs");
        assert_eq!(
            c.digest,
            kernel.digest,
            "{}: ldplfs reads what the kernel reads",
            w.name()
        );
        assert!(io.layer.posix_calls > 0 && io.layer.calls > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
