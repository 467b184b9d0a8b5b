//! End-to-end tests of the LD_PRELOAD artifact: build the cdylib, then run
//! real processes under it — first our own smoke binary (std::fs →
//! interposed libc), then genuine system tools (`cat`, `md5sum`, `cp`,
//! `tail`, `cmp`, shell redirections) on a PLFS container, which is exactly
//! the paper's §III.D demonstration.

use std::path::PathBuf;
use std::process::Command;

fn target_dir() -> PathBuf {
    // The test binary lives in target/<profile>/deps; artifacts one up.
    let mut p = std::env::current_exe().unwrap();
    p.pop(); // deps
    p.pop(); // <profile>
    p
}

fn preload_lib() -> PathBuf {
    target_dir().join("libldplfs_preload.so")
}

fn smoke_bin() -> PathBuf {
    target_dir().join("preload-smoke")
}

/// Build the cdylib and the smoke binary once.
fn ensure_built() {
    let status = Command::new(env!("CARGO"))
        .args(["build", "-p", "ldplfs-preload"])
        .status()
        .expect("cargo build");
    assert!(status.success(), "building the preload crate failed");
    assert!(
        preload_lib().exists(),
        "cdylib missing at {:?}",
        preload_lib()
    );
    assert!(smoke_bin().exists(), "smoke binary missing");
}

struct Env {
    mount: PathBuf,
    backend: PathBuf,
    outside: PathBuf,
}

fn setup(tag: &str) -> Env {
    let root = std::env::temp_dir().join(format!("preload-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let env = Env {
        mount: root.join("plfs"),
        backend: root.join("backend"),
        outside: root.join("outside"),
    };
    // The mount point itself need not exist (paths are virtual), but the
    // outside dir must.
    std::fs::create_dir_all(&env.outside).unwrap();
    std::fs::create_dir_all(&env.backend).unwrap();
    env
}

fn run_preloaded(env: &Env, mut cmd: Command) -> std::process::Output {
    cmd.env("LD_PRELOAD", preload_lib())
        .env("LDPLFS_MOUNT", &env.mount)
        .env("LDPLFS_BACKEND", &env.backend)
        .env("SMOKE_OUTSIDE", &env.outside)
        .output()
        .expect("spawn preloaded process")
}

#[test]
fn smoke_binary_roundtrips_under_preload() {
    ensure_built();
    let env = setup("smoke");
    let out = run_preloaded(&env, Command::new(smoke_bin()));
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("preload smoke OK"));
}

#[test]
fn container_structure_created_on_backend() {
    ensure_built();
    let env = setup("structure");
    let out = run_preloaded(&env, Command::new(smoke_bin()));
    assert!(out.status.success());
    // The smoke run unlinked its file; write one more via a shell `dd`.
    let mut dd = Command::new("dd");
    dd.arg("if=/dev/zero")
        .arg(format!("of={}/zeros.bin", env.mount.display()))
        .arg("bs=1024")
        .arg("count=64")
        .arg("status=none");
    let out = run_preloaded(&env, dd);
    assert!(
        out.status.success(),
        "dd failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Figure 1 structure visible on the host file system.
    let container = env.backend.join("zeros.bin");
    assert!(container.join(".plfsaccess").exists(), "container marker");
    let hostdirs: Vec<_> = std::fs::read_dir(&container)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("hostdir."))
        .collect();
    assert!(!hostdirs.is_empty(), "droppings live in hostdirs");
}

/// Real tools on read-only opens see exactly the plain file's bytes,
/// whichever way they read: interposed calls (`cat`, `tail`, `cmp`), stdio
/// (`md5sum` uses `fopen`), an in-kernel copy (`cp` tries
/// `copy_file_range`), or an fd inherited across `execve` (the `sh -c`
/// rows). The first file is written by `dd` (cursor writes), the second by
/// `cp`, whose `copy_file_range` into a PLFS fd is refused so it falls back
/// to read/write. The second path is too long for a memfd name, so its
/// read-only fds are filled at open instead of adopted by name.
#[test]
fn tool_matrix_matches_plain_file() {
    ensure_built();
    let env = setup("matrix");
    let data: Vec<u8> = (0..300_000u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
        .collect();
    let plain = env.outside.join("plain.bin");
    std::fs::write(&plain, &data).unwrap();
    let md5 = Command::new("md5sum").arg(&plain).output().expect("md5sum");
    let digest = String::from_utf8_lossy(&md5.stdout)[..32].to_string();
    let long = "x".repeat(245);
    let writes = [
        ("data.bin", "dd if=PLAIN of=FILE bs=4096 status=none"),
        (long.as_str(), "cp PLAIN FILE"),
    ];
    for (name, write) in writes {
        let file = format!("{}/{name}", env.mount.display());
        let sh = |script: &str| {
            let mut c = Command::new("sh");
            c.arg("-c").arg(
                script
                    .replace("FILE", &file)
                    .replace("PLAIN", &plain.display().to_string()),
            );
            c
        };
        let out = run_preloaded(&env, sh(write));
        assert!(out.status.success(), "{write} into the mount: {out:?}");

        let copy = env.outside.join("copy.bin");
        let rows: Vec<(&str, Command, Vec<u8>)> = vec![
            ("cat", sh("cat FILE"), data.clone()),
            (
                "md5sum",
                sh("md5sum FILE | cut -d' ' -f1"),
                digest.clone().into_bytes(),
            ),
            (
                "tail",
                sh("tail -c 1000 FILE"),
                data[data.len() - 1000..].to_vec(),
            ),
            ("cmp", sh("cmp FILE PLAIN"), Vec::new()),
            ("cp", sh(&format!("cp FILE {}", copy.display())), Vec::new()),
            (
                "md5sum <",
                sh("md5sum < FILE | cut -d' ' -f1"),
                digest.clone().into_bytes(),
            ),
            (
                "cat < | wc -c",
                sh("cat < FILE | wc -c"),
                data.len().to_string().into_bytes(),
            ),
        ];
        for (tool, cmd, want) in rows {
            let out = run_preloaded(&env, cmd);
            assert!(out.status.success(), "{tool} on {name}: {out:?}");
            let got = match tool {
                "cat" | "tail" => out.stdout,
                _ => String::from_utf8_lossy(&out.stdout)
                    .trim()
                    .as_bytes()
                    .to_vec(),
            };
            assert!(
                got == want,
                "{tool} on {name}: output differs from the plain file"
            );
        }
        assert!(std::fs::read(&copy).unwrap() == data, "cp out of {name}");
    }
}
