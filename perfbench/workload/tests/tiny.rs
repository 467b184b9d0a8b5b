//! A tiny pass of every workload on a plain directory (the kernel side):
//! no call fails, every byte read matches the seeded oracle, and the same
//! seed gives the same reads.

use perfbench_workload::data::generate;
use perfbench_workload::{run_round, InProcess, LibcIo, Plan, Rec, Scale, Space, Stats, Workload};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("tiny-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("plain")).unwrap();
    std::fs::create_dir_all(dir.join("mnt")).unwrap();
    dir
}

fn kernel_round(dir: &std::path::Path, plan: &Plan) -> Stats {
    let plain = dir.join("plain").display().to_string();
    let mount = dir.join("mnt").display().to_string();
    std::fs::write(
        Plan::stream_source(&plain),
        generate(plan.key, plan.stream_bytes as usize),
    )
    .unwrap();
    let expected = generate(plan.key, plan.total_bytes() as usize);
    let probe_dir = dir.join("mnt");
    let mut io = LibcIo;
    let mut rec = Rec::new(
        &mut io,
        &mount,
        true,
        Box::new(move || Space::of_dir(&probe_dir)),
    );
    run_round(&mut rec, plan, &mount, &plain, &expected, &mut InProcess);
    rec.finish()
}

#[test]
fn every_workload_passes_at_tiny_size() {
    for w in Workload::ALL {
        let dir = scratch(w.name());
        let plan = Plan::new(w, 7, Scale::Tiny);
        let a = kernel_round(&dir, &plan);
        assert_eq!((a.failed, a.mismatches), (0, 0), "{}", w.name());
        assert!(a.attempted > 0 && a.read_bytes > 0, "{}", w.name());
        assert_eq!(a.write_bytes, plan.total_bytes(), "{}", w.name());
        assert_eq!(a.space.logical, plan.total_bytes(), "{}", w.name());
        assert!(
            a.mount_busy_ns > 0 && a.driver_ns > 0,
            "traced run times calls"
        );

        let b = kernel_round(&dir, &plan);
        assert_eq!(a.digest, b.digest, "{}: same seed, same reads", w.name());
        assert_eq!(a.meta_ns.len(), b.meta_ns.len());
        assert_eq!(a.io_ns.len(), b.io_ns.len());
        // Every round cleans up after itself.
        assert_eq!(std::fs::read_dir(dir.join("mnt")).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_wrong_byte_is_a_mismatch() {
    let dir = scratch("mismatch");
    let plan = Plan::new(Workload::StreamTools, 3, Scale::Tiny);
    let plain = dir.join("plain").display().to_string();
    let mount = dir.join("mnt").display().to_string();
    // The source the dd step copies in differs from the oracle in one byte.
    let mut src = generate(plan.key, plan.stream_bytes as usize);
    src[12345] ^= 1;
    std::fs::write(Plan::stream_source(&plain), &src).unwrap();
    let expected = generate(plan.key, plan.total_bytes() as usize);
    let mut io = LibcIo;
    let mut rec = Rec::new(&mut io, &mount, false, Box::new(Space::default));
    run_round(&mut rec, &plan, &mount, &plain, &expected, &mut InProcess);
    let st = rec.finish();
    assert_eq!(st.failed, 0);
    assert_eq!(st.mismatches, 2, "cat and cp each read the bad byte once");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn seeds_change_bytes_not_sizes() {
    for w in Workload::ALL {
        let a = Plan::new(w, 1, Scale::Full);
        let b = Plan::new(w, 2, Scale::Full);
        assert_ne!(a.key, b.key);
        let (ta, tb) = (a.total_bytes() as f64, b.total_bytes() as f64);
        assert!((ta - tb).abs() / ta < 0.01, "{}: {ta} vs {tb}", w.name());
    }
    let a = Plan::new(Workload::CkptNto1, 1, Scale::Full);
    let b = Plan::new(Workload::CkptNto1, 2, Scale::Full);
    assert_ne!(a.steps, b.steps, "the seed orders the block sizes");
}
