//! Container layout: the on-backing directory structure of a PLFS file.
//!
//! A logical file `/mnt/foo` maps to a *container* directory on the backend:
//!
//! ```text
//! foo/                          container directory
//!   .plfsaccess                 marker: "this directory is a container"
//!   openhosts/                  one marker file per open writer
//!   meta/                       cached stat info written at close
//!   hostdir.0/ … hostdir.K-1/   subdirectories holding droppings
//!     dropping.data.<pid>.<n>   log-structured data
//!     dropping.index.<pid>.<n>  index records for that data
//! ```
//!
//! This mirrors Figure 1 of the paper (and the real PLFS layout) closely
//! enough that every structural statement in the paper can be tested against
//! it: n writers produce at least n data droppings and n index droppings,
//! spread over `num_hostdirs` subdirectories.

use crate::backing::{join, remove_tree, Backing};
use crate::conf::ReadConf;
use crate::error::{Error, Result};
use crate::index::{CompactIndex, GlobalIndex, IndexEntry, IndexRecord};
use rayon::prelude::*;

/// Name of the marker file that identifies a container.
pub const ACCESS_FILE: &str = ".plfsaccess";
/// Subdirectory recording hosts/pids with the file open for writing.
pub const OPENHOSTS_DIR: &str = "openhosts";
/// Subdirectory holding cached metadata dropped at close time.
pub const META_DIR: &str = "meta";
/// Prefix of hostdir subdirectories.
pub const HOSTDIR_PREFIX: &str = "hostdir.";
/// Prefix of data droppings.
pub const DATA_PREFIX: &str = "dropping.data.";
/// Prefix of index droppings.
pub const INDEX_PREFIX: &str = "dropping.index.";

/// How the container lays data out. `Both` is classic PLFS. The other two
/// modes exist to study the paper's future-work question — log structure and
/// file partitioning in isolation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LayoutMode {
    /// Log-structured writes into per-pid partitioned droppings (PLFS).
    #[default]
    Both,
    /// Per-pid droppings, but data written *at its logical offset* within
    /// the pid's dropping (partitioning without the log).
    PartitionedOnly,
    /// A single shared log dropping for all pids (log without partitioning).
    LogStructured,
}

/// Static parameters of a container, fixed at create time.
#[derive(Debug, Clone, Copy)]
pub struct ContainerParams {
    /// Number of `hostdir.N` subdirectories writers are spread over.
    pub num_hostdirs: u32,
    /// Layout mode (see [`LayoutMode`]).
    pub mode: LayoutMode,
}

impl Default for ContainerParams {
    fn default() -> Self {
        // 32 hostdirs is the real PLFS default.
        ContainerParams {
            num_hostdirs: 32,
            mode: LayoutMode::Both,
        }
    }
}

/// Which hostdir a pid's droppings land in.
pub fn hostdir_for_pid(pid: u64, num_hostdirs: u32) -> u32 {
    // Real PLFS hashes the hostname; we hash the pid with a splitmix step so
    // consecutive pids spread evenly.
    let mut x = pid.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((x ^ (x >> 31)) % num_hostdirs as u64) as u32
}

/// Path of hostdir `n` within the container.
pub fn hostdir_path(container: &str, n: u32) -> String {
    join(container, &format!("{HOSTDIR_PREFIX}{n}"))
}

/// Path of a data dropping for `(pid, seq)`.
pub fn data_dropping_path(container: &str, params: &ContainerParams, pid: u64, seq: u32) -> String {
    let hd = match params.mode {
        LayoutMode::LogStructured => 0,
        _ => hostdir_for_pid(pid, params.num_hostdirs),
    };
    let name = match params.mode {
        LayoutMode::LogStructured => format!("{DATA_PREFIX}shared.{seq}"),
        _ => format!("{DATA_PREFIX}{pid}.{seq}"),
    };
    join(&hostdir_path(container, hd), &name)
}

/// Path of an index dropping for `(pid, seq)`.
pub fn index_dropping_path(
    container: &str,
    params: &ContainerParams,
    pid: u64,
    seq: u32,
) -> String {
    let hd = match params.mode {
        LayoutMode::LogStructured => 0,
        _ => hostdir_for_pid(pid, params.num_hostdirs),
    };
    // In log-structured mode the shared data dropping pairs with a shared
    // index dropping (records are self-describing, so interleaved appends
    // from many pids are fine).
    let name = match params.mode {
        LayoutMode::LogStructured => format!("{INDEX_PREFIX}shared.{seq}"),
        _ => format!("{INDEX_PREFIX}{pid}.{seq}"),
    };
    join(&hostdir_path(container, hd), &name)
}

/// Is the backend path a PLFS container?
pub fn is_container(b: &dyn Backing, path: &str) -> bool {
    match b.stat(path) {
        Ok(st) if st.is_dir => b.exists(&join(path, ACCESS_FILE)),
        _ => false,
    }
}

/// Serialized container parameters stored in the access file.
fn encode_params(p: &ContainerParams) -> Vec<u8> {
    let mode = match p.mode {
        LayoutMode::Both => "both",
        LayoutMode::PartitionedOnly => "partitioned",
        LayoutMode::LogStructured => "log",
    };
    format!(
        "plfs-container v1\nnum_hostdirs {}\nmode {}\n",
        p.num_hostdirs, mode
    )
    .into_bytes()
}

fn decode_params(data: &[u8]) -> Result<ContainerParams> {
    let text =
        std::str::from_utf8(data).map_err(|_| Error::Corrupt("access file is not UTF-8".into()))?;
    let mut p = ContainerParams::default();
    if !text.starts_with("plfs-container v1") {
        return Err(Error::Corrupt("bad access file header".into()));
    }
    for line in text.lines().skip(1) {
        let mut it = line.split_whitespace();
        match (it.next(), it.next()) {
            (Some("num_hostdirs"), Some(v)) => {
                p.num_hostdirs = v
                    .parse()
                    .map_err(|_| Error::Corrupt("bad num_hostdirs".into()))?;
            }
            (Some("mode"), Some(v)) => {
                p.mode = match v {
                    "both" => LayoutMode::Both,
                    "partitioned" => LayoutMode::PartitionedOnly,
                    "log" => LayoutMode::LogStructured,
                    other => return Err(Error::Corrupt(format!("bad mode {other}"))),
                };
            }
            (None, _) => {}
            _ => {}
        }
    }
    if p.num_hostdirs == 0 {
        return Err(Error::Corrupt("num_hostdirs must be nonzero".into()));
    }
    Ok(p)
}

/// Create a container directory at `path`. Hostdirs are created lazily by
/// writers; only the skeleton (access file, openhosts, meta) is made here.
///
/// Returns the parameters the container now has: the ones just written on a
/// fresh create, or the ones read back from the access file when the
/// container already existed — so callers never re-read what they just
/// wrote.
pub fn create_container(
    b: &dyn Backing,
    path: &str,
    params: &ContainerParams,
    excl: bool,
) -> Result<ContainerParams> {
    if b.exists(path) {
        if excl {
            return Err(Error::Exists(path.to_string()));
        }
        return await_container(b, path);
    }
    match b.mkdir(path) {
        Ok(()) => {}
        Err(Error::Exists(_)) if !excl => return await_container(b, path),
        Err(e) => return Err(e),
    }
    b.mkdir(&join(path, OPENHOSTS_DIR))?;
    b.mkdir(&join(path, META_DIR))?;
    let access = b.create(&join(path, ACCESS_FILE), true)?;
    access.pwrite(&encode_params(params), 0)?;
    Ok(*params)
}

/// The parameters of a container another creator may still be making: a
/// racing non-exclusive create waits, bounded, for the winner's access file
/// (written last) instead of failing with `Exists`. A directory that never
/// becomes a container still yields `Exists`, after the full wait.
fn await_container(b: &dyn Backing, path: &str) -> Result<ContainerParams> {
    // 200 × 1 ms: a whole `create_container` on ext4 (2-vCPU VM, four
    // threads creating at once) took 43 µs median and 10.4 ms at most over
    // 4000 creates, so the winner finishes well inside the wait.
    const POLLS: u32 = 200;
    for _ in 0..POLLS {
        if let Ok(p) = read_params(b, path) {
            return Ok(p);
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    Err(Error::Exists(path.to_string()))
}

/// Read back the parameters a container was created with.
pub fn read_params(b: &dyn Backing, path: &str) -> Result<ContainerParams> {
    let f = b
        .open(&join(path, ACCESS_FILE), false)
        .map_err(|_| Error::NotContainer(path.to_string()))?;
    let size = f.size()? as usize;
    let mut buf = vec![0u8; size];
    f.pread(&mut buf, 0)?;
    decode_params(&buf)
}

/// Ensure the hostdir a pid writes into exists.
pub fn ensure_hostdir(
    b: &dyn Backing,
    container: &str,
    params: &ContainerParams,
    pid: u64,
) -> Result<()> {
    let hd = match params.mode {
        LayoutMode::LogStructured => 0,
        _ => hostdir_for_pid(pid, params.num_hostdirs),
    };
    let p = hostdir_path(container, hd);
    if !b.exists(&p) {
        match b.mkdir(&p) {
            Ok(()) | Err(Error::Exists(_)) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// A discovered dropping pair (data + index) in a container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DroppingRef {
    /// Backend path of the data dropping.
    pub data_path: String,
    /// Backend path of the index dropping, if present.
    pub index_path: Option<String>,
}

/// Enumerate all data droppings (with their index droppings) in a container,
/// in a deterministic order. The position in the returned vector is the
/// `dropping_id` used by the global index.
pub fn list_droppings(b: &dyn Backing, container: &str) -> Result<Vec<DroppingRef>> {
    if !is_container(b, container) {
        return Err(Error::NotContainer(container.to_string()));
    }
    let mut out = Vec::new();
    let mut hostdirs: Vec<String> = b
        .readdir(container)?
        .into_iter()
        .filter(|n| n.starts_with(HOSTDIR_PREFIX))
        .collect();
    hostdirs.sort_by_key(|n| n[HOSTDIR_PREFIX.len()..].parse::<u32>().unwrap_or(u32::MAX));
    for hd in hostdirs {
        let hd_path = join(container, &hd);
        let names = b.readdir(&hd_path)?;
        for name in &names {
            if let Some(suffix) = name.strip_prefix(DATA_PREFIX) {
                let index_name = format!("{INDEX_PREFIX}{suffix}");
                let index_path = if names.iter().any(|n| n == &index_name) {
                    Some(join(&hd_path, &index_name))
                } else {
                    None
                };
                out.push(DroppingRef {
                    data_path: join(&hd_path, name),
                    index_path,
                });
            }
        }
    }
    Ok(out)
}

/// Read, decode and expand one index dropping, renumbering its entries to
/// the global dropping id (writers store a local id).
fn read_index_dropping(b: &dyn Backing, id: u32, ip: &str) -> Result<Vec<IndexEntry>> {
    let f = b.open(ip, false)?;
    let size = f.size()? as usize;
    let mut buf = vec![0u8; size];
    let n = f.pread(&mut buf, 0)?;
    if n != size {
        return Err(Error::Corrupt(format!("short read of index {ip}")));
    }
    let mut entries = IndexEntry::decode_all(&buf)?;
    for e in &mut entries {
        e.dropping_id = id;
    }
    Ok(entries)
}

/// Load and merge every index dropping into a [`GlobalIndex`], numbering
/// droppings by their position in [`list_droppings`] order.
pub fn build_global_index(
    b: &dyn Backing,
    container: &str,
) -> Result<(GlobalIndex, Vec<DroppingRef>)> {
    let droppings = list_droppings(b, container)?;
    let mut entries = Vec::new();
    for (id, d) in droppings.iter().enumerate() {
        let Some(ip) = &d.index_path else { continue };
        entries.extend(read_index_dropping(b, id as u32, ip)?);
    }
    Ok((GlobalIndex::from_entries(entries), droppings))
}

/// Like [`build_global_index`], but decoding and expanding index droppings
/// concurrently when `conf` allows (threads > 1 and enough droppings), then
/// merging the per-dropping runs with [`GlobalIndex::from_sorted_runs`] —
/// guaranteed identical to the serial merge. The third tuple element reports
/// whether the parallel path actually ran, so callers can trace it
/// distinctly (`index_merge_par` vs `index_merge`).
pub fn build_global_index_with(
    b: &dyn Backing,
    container: &str,
    conf: &ReadConf,
) -> Result<(GlobalIndex, Vec<DroppingRef>, bool)> {
    let droppings = list_droppings(b, container)?;
    let indexed: Vec<(u32, &str)> = droppings
        .iter()
        .enumerate()
        .filter_map(|(id, d)| d.index_path.as_deref().map(|ip| (id as u32, ip)))
        .collect();
    if !conf.parallel_merge(indexed.len()) {
        let mut entries = Vec::new();
        for (id, ip) in indexed {
            entries.extend(read_index_dropping(b, id, ip)?);
        }
        return Ok((GlobalIndex::from_entries(entries), droppings, false));
    }
    let runs: Vec<Result<Vec<IndexEntry>>> = indexed
        .par_iter()
        .map(|&(id, ip)| read_index_dropping(b, id, ip))
        .collect();
    let runs: Vec<Vec<IndexEntry>> = runs.into_iter().collect::<Result<_>>()?;
    Ok((GlobalIndex::from_sorted_runs(runs), droppings, true))
}

/// Read and decode one index dropping into compact records (patterns stay
/// unexpanded), renumbering to the global dropping id.
fn read_index_dropping_compact(b: &dyn Backing, id: u32, ip: &str) -> Result<Vec<IndexRecord>> {
    let f = b.open(ip, false)?;
    let size = f.size()? as usize;
    let mut buf = vec![0u8; size];
    let n = f.pread(&mut buf, 0)?;
    if n != size {
        return Err(Error::Corrupt(format!("short read of index {ip}")));
    }
    CompactIndex::decode_dropping(&buf, id)
}

/// Load every index dropping into a [`CompactIndex`] without expanding
/// pattern records — the memory-bounded alternative to
/// [`build_global_index_with`], numbering droppings identically. Decodes in
/// parallel under the same `conf` gate as the eager path; the third tuple
/// element reports whether the parallel path ran.
pub fn build_compact_index(
    b: &dyn Backing,
    container: &str,
    conf: &ReadConf,
) -> Result<(CompactIndex, Vec<DroppingRef>, bool)> {
    let droppings = list_droppings(b, container)?;
    let indexed: Vec<(u32, &str)> = droppings
        .iter()
        .enumerate()
        .filter_map(|(id, d)| d.index_path.as_deref().map(|ip| (id as u32, ip)))
        .collect();
    let parallel = conf.parallel_merge(indexed.len());
    let runs: Vec<Vec<IndexRecord>> = if parallel {
        let runs: Vec<Result<Vec<IndexRecord>>> = indexed
            .par_iter()
            .map(|&(id, ip)| read_index_dropping_compact(b, id, ip))
            .collect();
        runs.into_iter().collect::<Result<_>>()?
    } else {
        let mut runs = Vec::with_capacity(indexed.len());
        for (id, ip) in indexed {
            runs.push(read_index_dropping_compact(b, id, ip)?);
        }
        runs
    };
    Ok((CompactIndex::from_runs(runs), droppings, parallel))
}

/// Cached metadata dropped into `meta/` at close: `<eof>.<bytes>.<pid>`.
/// A subsequent `stat` can take the max over these instead of merging indices
/// (the real PLFS fast-stat path).
pub fn drop_meta(b: &dyn Backing, container: &str, eof: u64, bytes: u64, pid: u64) -> Result<()> {
    let name = format!("{eof}.{bytes}.{pid}");
    b.create(&join(&join(container, META_DIR), &name), false)?;
    Ok(())
}

/// Read the fast-stat metadata: `(max eof, total bytes)` over all meta drops,
/// or `None` if no writer has closed yet.
pub fn read_meta(b: &dyn Backing, container: &str) -> Result<Option<(u64, u64)>> {
    let names = match b.readdir(&join(container, META_DIR)) {
        Ok(n) => n,
        Err(Error::NotFound(_)) => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut best: Option<(u64, u64)> = None;
    for n in names {
        let mut it = n.split('.');
        let (Some(eof), Some(bytes)) = (it.next(), it.next()) else {
            continue;
        };
        let (Ok(eof), Ok(bytes)) = (eof.parse::<u64>(), bytes.parse::<u64>()) else {
            continue;
        };
        let cur = best.get_or_insert((0, 0));
        cur.0 = cur.0.max(eof);
        cur.1 += bytes;
    }
    Ok(best)
}

/// Record that `pid` has the container open for writing.
pub fn mark_open(b: &dyn Backing, container: &str, pid: u64) -> Result<()> {
    b.create(
        &join(&join(container, OPENHOSTS_DIR), &format!("pid.{pid}")),
        false,
    )?;
    Ok(())
}

/// Remove the open marker for `pid` (ignores a missing marker).
pub fn mark_closed(b: &dyn Backing, container: &str, pid: u64) -> Result<()> {
    match b.unlink(&join(
        &join(container, OPENHOSTS_DIR),
        &format!("pid.{pid}"),
    )) {
        Ok(()) | Err(Error::NotFound(_)) => Ok(()),
        Err(e) => Err(e),
    }
}

/// Count of writers currently holding the container open.
pub fn open_writers(b: &dyn Backing, container: &str) -> Result<usize> {
    Ok(b.readdir(&join(container, OPENHOSTS_DIR))?.len())
}

/// Delete a container and everything inside it.
pub fn remove_container(b: &dyn Backing, path: &str) -> Result<()> {
    if !is_container(b, path) {
        return Err(Error::NotContainer(path.to_string()));
    }
    remove_tree(b, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::MemBacking;

    fn mem() -> MemBacking {
        MemBacking::new()
    }

    #[test]
    fn create_makes_skeleton() {
        let b = mem();
        create_container(&b, "/f", &ContainerParams::default(), true).unwrap();
        assert!(is_container(&b, "/f"));
        assert!(b.exists("/f/.plfsaccess"));
        assert!(b.exists("/f/openhosts"));
        assert!(b.exists("/f/meta"));
    }

    #[test]
    fn create_returns_params_without_reread() {
        let b = mem();
        let p = ContainerParams {
            num_hostdirs: 5,
            mode: LayoutMode::Both,
        };
        let got = create_container(&b, "/f", &p, true).unwrap();
        assert_eq!(got.num_hostdirs, 5);
        // Reopening an existing container hands back the *stored* params,
        // not the caller's defaults.
        let other = ContainerParams {
            num_hostdirs: 9,
            mode: LayoutMode::Both,
        };
        let got = create_container(&b, "/f", &other, false).unwrap();
        assert_eq!(got.num_hostdirs, 5);
    }

    #[test]
    fn params_roundtrip_through_access_file() {
        let b = mem();
        let p = ContainerParams {
            num_hostdirs: 7,
            mode: LayoutMode::PartitionedOnly,
        };
        create_container(&b, "/f", &p, true).unwrap();
        let got = read_params(&b, "/f").unwrap();
        assert_eq!(got.num_hostdirs, 7);
        assert_eq!(got.mode, LayoutMode::PartitionedOnly);
    }

    #[test]
    fn excl_create_fails_if_present() {
        let b = mem();
        create_container(&b, "/f", &ContainerParams::default(), true).unwrap();
        assert!(matches!(
            create_container(&b, "/f", &ContainerParams::default(), true),
            Err(Error::Exists(_))
        ));
        // Non-exclusive open of an existing container succeeds.
        create_container(&b, "/f", &ContainerParams::default(), false).unwrap();
    }

    #[test]
    fn racing_create_adopts_the_winners_params() {
        // The loser of a non-exclusive create race can find the winner's
        // directory before its access file; it waits instead of failing.
        let b = mem();
        b.mkdir("/f").unwrap();
        let p = ContainerParams {
            num_hostdirs: 3,
            mode: LayoutMode::Both,
        };
        let got = std::thread::scope(|s| {
            let loser = s.spawn(|| create_container(&b, "/f", &ContainerParams::default(), false));
            let access = b.create(&join("/f", ACCESS_FILE), true).unwrap();
            access.pwrite(&encode_params(&p), 0).unwrap();
            loser.join().unwrap()
        });
        assert_eq!(got.unwrap().num_hostdirs, 3);
        // A directory that never becomes a container still yields Exists.
        b.mkdir("/d").unwrap();
        assert!(matches!(
            create_container(&b, "/d", &ContainerParams::default(), false),
            Err(Error::Exists(_))
        ));
    }

    #[test]
    fn plain_dir_is_not_container() {
        let b = mem();
        b.mkdir("/d").unwrap();
        assert!(!is_container(&b, "/d"));
        let f = b.create("/file", true).unwrap();
        drop(f);
        assert!(!is_container(&b, "/file"));
    }

    #[test]
    fn hostdir_hash_spreads_and_is_stable() {
        let k = 32;
        let mut seen = std::collections::HashSet::new();
        for pid in 0..256u64 {
            let h = hostdir_for_pid(pid, k);
            assert!(h < k);
            assert_eq!(h, hostdir_for_pid(pid, k), "stable");
            seen.insert(h);
        }
        // 256 pids over 32 dirs should touch most of them.
        assert!(seen.len() >= 24, "poor spread: {}", seen.len());
    }

    #[test]
    fn dropping_paths_follow_figure_1() {
        let p = ContainerParams {
            num_hostdirs: 4,
            mode: LayoutMode::Both,
        };
        let d = data_dropping_path("/c", &p, 42, 0);
        assert!(d.starts_with("/c/hostdir."));
        assert!(d.ends_with("/dropping.data.42.0"));
        let i = index_dropping_path("/c", &p, 42, 0);
        assert!(i.ends_with("/dropping.index.42.0"));
        // Data and index for one pid share a hostdir.
        let dh = d.split('/').nth(2).unwrap().to_string();
        let ih = i.split('/').nth(2).unwrap().to_string();
        assert_eq!(dh, ih);
    }

    #[test]
    fn log_structured_mode_shares_one_data_dropping() {
        let p = ContainerParams {
            num_hostdirs: 8,
            mode: LayoutMode::LogStructured,
        };
        assert_eq!(
            data_dropping_path("/c", &p, 1, 0),
            data_dropping_path("/c", &p, 2, 0)
        );
        // The shared data dropping pairs with a shared index dropping.
        assert_eq!(
            index_dropping_path("/c", &p, 1, 0),
            index_dropping_path("/c", &p, 2, 0)
        );
    }

    #[test]
    fn list_droppings_pairs_data_with_index() {
        let b = mem();
        let p = ContainerParams::default();
        create_container(&b, "/c", &p, true).unwrap();
        for pid in [3u64, 9, 12] {
            ensure_hostdir(&b, "/c", &p, pid).unwrap();
            b.create(&data_dropping_path("/c", &p, pid, 0), true)
                .unwrap();
            b.create(&index_dropping_path("/c", &p, pid, 0), true)
                .unwrap();
        }
        let d = list_droppings(&b, "/c").unwrap();
        assert_eq!(d.len(), 3);
        for dr in &d {
            assert!(dr.index_path.is_some());
        }
    }

    #[test]
    fn list_droppings_rejects_non_container() {
        let b = mem();
        b.mkdir("/d").unwrap();
        assert!(matches!(
            list_droppings(&b, "/d"),
            Err(Error::NotContainer(_))
        ));
    }

    #[test]
    fn meta_fast_stat_takes_max_eof_and_sums_bytes() {
        let b = mem();
        create_container(&b, "/c", &ContainerParams::default(), true).unwrap();
        assert_eq!(read_meta(&b, "/c").unwrap(), None);
        drop_meta(&b, "/c", 100, 60, 1).unwrap();
        drop_meta(&b, "/c", 80, 40, 2).unwrap();
        assert_eq!(read_meta(&b, "/c").unwrap(), Some((100, 100)));
    }

    #[test]
    fn open_markers_track_writers() {
        let b = mem();
        create_container(&b, "/c", &ContainerParams::default(), true).unwrap();
        mark_open(&b, "/c", 1).unwrap();
        mark_open(&b, "/c", 2).unwrap();
        assert_eq!(open_writers(&b, "/c").unwrap(), 2);
        mark_closed(&b, "/c", 1).unwrap();
        assert_eq!(open_writers(&b, "/c").unwrap(), 1);
        // Closing twice is harmless.
        mark_closed(&b, "/c", 1).unwrap();
    }

    #[test]
    fn remove_container_deletes_everything() {
        let b = mem();
        let p = ContainerParams::default();
        create_container(&b, "/c", &p, true).unwrap();
        ensure_hostdir(&b, "/c", &p, 5).unwrap();
        b.create(&data_dropping_path("/c", &p, 5, 0), true).unwrap();
        remove_container(&b, "/c").unwrap();
        assert!(!b.exists("/c"));
    }
}
