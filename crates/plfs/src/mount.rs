//! Mount configuration: the `plfsrc` file and backend spreading.
//!
//! Real PLFS is configured by a `plfsrc` file naming mount points, backend
//! directories, and layout knobs. We parse the same line-oriented format:
//!
//! ```text
//! # checkpoint mount
//! mount_point /plfs
//! backends /panfs/vol1/be,/panfs/vol2/be
//! num_hostdirs 32
//! index_buffer_entries 4096
//! workload shared_file
//! ```
//!
//! Multiple `mount_point` lines start new mounts. When a mount lists several
//! backends, containers keep their skeleton on the first (canonical) backend
//! and hostdirs are spread across all of them — [`SpreadBacking`] implements
//! that routing as a [`Backing`] decorator, so the container layer is
//! oblivious.

use crate::backing::{BackStat, Backing, BackingFile};
use crate::conf::{
    BackendConf, BackendKind, CacheConf, ListIoConf, MetaConf, OpenMarkers, ReadConf, WriteConf,
    DEFAULT_CACHE_BLOCK_BYTES, DEFAULT_CACHE_SHARDS, DEFAULT_DATA_BUFFER_BYTES,
    DEFAULT_FANOUT_THRESHOLD, DEFAULT_HANDLE_SHARDS, DEFAULT_LIST_IO_MAX_EXTENTS,
    DEFAULT_META_CACHE_ENTRIES, DEFAULT_META_CACHE_SHARDS, DEFAULT_READAHEAD_MAX,
    DEFAULT_READAHEAD_MIN, DEFAULT_SUBMIT_WORKERS, DEFAULT_WRITE_SHARDS,
};
use crate::container::{ContainerParams, LayoutMode, HOSTDIR_PREFIX};
use crate::error::{Error, Result};
use crate::writer::DEFAULT_INDEX_BUFFER_ENTRIES;
use std::sync::Arc;

/// Configuration of one PLFS mount.
#[derive(Debug, Clone)]
pub struct MountSpec {
    /// Logical mount point prefix (e.g. `/plfs`).
    pub mount_point: String,
    /// Backend directories (host paths for a real backing).
    pub backends: Vec<String>,
    /// Container parameters for files created under this mount.
    pub params: ContainerParams,
    /// Index write-buffer threshold in entries.
    pub index_buffer_entries: usize,
}

impl MountSpec {
    /// A single-backend mount with default parameters.
    pub fn simple(mount_point: impl Into<String>, backend: impl Into<String>) -> MountSpec {
        MountSpec {
            mount_point: mount_point.into(),
            backends: vec![backend.into()],
            params: ContainerParams::default(),
            index_buffer_entries: DEFAULT_INDEX_BUFFER_ENTRIES,
        }
    }

    /// Set one per-mount key from its `plfsrc` value text. Keys the real
    /// plfsrc has but this one does not use are accepted and ignored.
    pub fn set(&mut self, key: &str, value: &str) -> std::result::Result<(), &'static str> {
        match key {
            "backends" => {
                self.backends = value
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
            }
            // Checked: `as u32` would truncate 2^32+1 to a silently-accepted 1.
            "num_hostdirs" => {
                self.params.num_hostdirs = u32::try_from(parse_num(value)?)
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("num_hostdirs out of range")?;
            }
            "index_buffer_entries" => self.index_buffer_entries = parse_num(value)? as usize,
            "workload" | "mode" => {
                self.params.mode = match value {
                    "shared_file" | "n-1" | "both" => LayoutMode::Both,
                    "file_per_proc" | "n-n" | "partitioned" => LayoutMode::PartitionedOnly,
                    "log" => LayoutMode::LogStructured,
                    _ => return Err("unknown workload mode"),
                };
            }
            _ => {}
        }
        Ok(())
    }
}

/// Parsed `plfsrc` contents.
#[derive(Debug, Clone)]
pub struct PlfsRc {
    /// All configured mounts, in file order.
    pub mounts: Vec<MountSpec>,
    /// Reader worker-thread count (the real plfsrc `threadpool_size` knob):
    /// values above 1 enable the parallel index merge and pread fan-out.
    pub threadpool_size: usize,
    /// Minimum `pread` size in bytes before the request fans out over the
    /// worker pool (`read_fanout_threshold` key).
    pub read_fanout_threshold: u64,
    /// Dropping-handle cache shard count (`handle_cache_shards` key).
    pub handle_cache_shards: usize,
    /// Writer-table lock shard count (`write_shards` key).
    pub write_shards: usize,
    /// Write-behind data buffer per writer in bytes (`data_buffer_bytes`
    /// key; `data_buffer_mbs` is also accepted, in MiB, like the C
    /// library's knob).
    pub data_buffer_bytes: usize,
    /// Patch cached merged indices with local writes instead of re-merging
    /// (`incremental_refresh` key, `true`/`false`/`1`/`0`).
    pub incremental_refresh: bool,
    /// Container metadata cache capacity in entries (`meta_cache_entries`
    /// key; 0 disables the cache).
    pub meta_cache_entries: usize,
    /// Metadata cache lock-shard count (`meta_cache_shards` key).
    pub meta_cache_shards: usize,
    /// `openhosts/` marker policy (`open_markers` key: `eager`, `lazy`, or
    /// `off`).
    pub open_markers: OpenMarkers,
    /// Merged-index residency budget in bytes (`index_memory_bytes` key;
    /// 0 keeps the eager fully-expanded index).
    pub index_memory_bytes: usize,
    /// Background-compaction dropping threshold (`compact_droppings_threshold`
    /// key; 0 disables compaction at close).
    pub compact_droppings_threshold: usize,
    /// Noncontiguous list I/O master switch (`list_io` key,
    /// `true`/`false`/`1`/`0`; on by default).
    pub list_io: bool,
    /// Per-batch extent cap for list I/O (`list_io_max_extents` key).
    pub list_io_max_extents: usize,
    /// Which backend stack to build under each mount (`backend` key:
    /// `direct`, `batched`, `tiered`, or `object`).
    pub backend: BackendKind,
    /// Async submission-queue depth (`submit_depth` key; 0 = synchronous).
    pub submit_depth: usize,
    /// Async submission worker count (`submit_workers` key).
    pub submit_workers: usize,
    /// Tiered-backend destage size threshold in bytes
    /// (`destage_threshold` key; 0 = destage every sealed dropping).
    pub destage_threshold: u64,
    /// Data block cache budget per fd in bytes (`data_cache_mbs` key, in
    /// MiB; 0 — the default — disables data caching and readahead).
    pub data_cache_bytes: usize,
    /// Cache block size in bytes (`data_cache_block_kbs` key, in KiB).
    pub data_cache_block_bytes: usize,
    /// Initial readahead window in bytes (`readahead_kbs` key, in KiB).
    pub readahead_min_bytes: usize,
    /// Readahead window ceiling in bytes (`readahead_max_kbs` key, in
    /// KiB; 0 keeps the cache but turns readahead off).
    pub readahead_max_bytes: usize,
    /// Data-cache lock-shard count (`data_cache_shards` key).
    pub data_cache_shards: usize,
}

impl Default for PlfsRc {
    /// The values a `plfsrc` that sets no global key gets.
    fn default() -> PlfsRc {
        PlfsRc {
            mounts: Vec::new(),
            threadpool_size: 16,
            read_fanout_threshold: DEFAULT_FANOUT_THRESHOLD,
            handle_cache_shards: DEFAULT_HANDLE_SHARDS,
            write_shards: DEFAULT_WRITE_SHARDS,
            data_buffer_bytes: DEFAULT_DATA_BUFFER_BYTES,
            incremental_refresh: true,
            meta_cache_entries: DEFAULT_META_CACHE_ENTRIES,
            meta_cache_shards: DEFAULT_META_CACHE_SHARDS,
            open_markers: OpenMarkers::default(),
            index_memory_bytes: 0,
            compact_droppings_threshold: 0,
            list_io: true,
            list_io_max_extents: DEFAULT_LIST_IO_MAX_EXTENTS,
            backend: BackendKind::default(),
            submit_depth: 0,
            submit_workers: DEFAULT_SUBMIT_WORKERS,
            destage_threshold: 0,
            data_cache_bytes: 0,
            data_cache_block_bytes: DEFAULT_CACHE_BLOCK_BYTES,
            readahead_min_bytes: DEFAULT_READAHEAD_MIN,
            readahead_max_bytes: DEFAULT_READAHEAD_MAX,
            data_cache_shards: DEFAULT_CACHE_SHARDS,
        }
    }
}

impl PlfsRc {
    /// Parse the line-oriented `plfsrc` format. Unknown keys are ignored
    /// (like the C parser); malformed values are errors.
    pub fn parse(text: &str) -> Result<PlfsRc> {
        let mut rc = PlfsRc::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once(char::is_whitespace)
                .map(|(k, v)| (k, v.trim()))
                .ok_or_else(|| config_error("plfsrc line missing value", lineno))?;
            let global = rc.set(key, value).map_err(|m| config_error(m, lineno))?;
            if global {
                continue;
            }
            if key == "mount_point" {
                rc.mounts.push(MountSpec {
                    mount_point: value.trim_end_matches('/').to_string(),
                    backends: Vec::new(),
                    ..MountSpec::simple("", "")
                });
                continue;
            }
            let Some(m) = rc.mounts.last_mut() else {
                return Err(config_error(
                    "plfsrc key appears before any mount_point",
                    lineno,
                ));
            };
            m.set(key, value).map_err(|m| config_error(m, lineno))?;
        }
        if rc.mounts.iter().any(|m| m.backends.is_empty()) {
            return Err(Error::InvalidArg("mount_point with no backends"));
        }
        Ok(rc)
    }

    /// Set one global key from its `plfsrc` value text. `Ok(false)` means
    /// `key` is not a global key; a malformed value is an error naming it.
    pub fn set(&mut self, key: &str, value: &str) -> std::result::Result<bool, &'static str> {
        let num = || parse_num(value);
        let size = |n: u64| usize::try_from(n).map_err(|_| "value out of range");
        // Checked: `18446744073709551615` MiB must be a parse error, not a
        // debug-build multiply overflow.
        let scaled = |shift: u32| {
            num()?
                .checked_mul(1 << shift)
                .ok_or("value out of range")
                .and_then(size)
        };
        match key {
            "threadpool_size" => self.threadpool_size = size(num()?)?,
            "read_fanout_threshold" => self.read_fanout_threshold = num()?,
            "handle_cache_shards" => self.handle_cache_shards = size(num()?)?,
            "write_shards" => self.write_shards = size(num()?)?,
            "data_buffer_bytes" => self.data_buffer_bytes = size(num()?)?,
            "data_buffer_mbs" => self.data_buffer_bytes = scaled(20)?,
            "incremental_refresh" => self.incremental_refresh = parse_bool(value)?,
            "meta_cache_entries" => self.meta_cache_entries = size(num()?)?,
            "meta_cache_shards" => self.meta_cache_shards = size(num()?)?,
            "index_memory_bytes" => self.index_memory_bytes = size(num()?)?,
            "compact_droppings_threshold" => self.compact_droppings_threshold = size(num()?)?,
            "list_io" => self.list_io = parse_bool(value)?,
            "list_io_max_extents" => self.list_io_max_extents = size(num()?)?,
            "open_markers" => {
                self.open_markers =
                    OpenMarkers::parse(value).ok_or("unknown open_markers policy in plfsrc")?;
            }
            "backend" => {
                self.backend = BackendKind::parse(value).ok_or("unknown backend kind in plfsrc")?;
            }
            "submit_depth" => self.submit_depth = size(num()?)?,
            "submit_workers" => self.submit_workers = size(num()?)?,
            "destage_threshold" => self.destage_threshold = num()?,
            "data_cache_mbs" => self.data_cache_bytes = scaled(20)?,
            "data_cache_block_kbs" => self.data_cache_block_bytes = scaled(10)?,
            "readahead_kbs" => self.readahead_min_bytes = scaled(10)?,
            "readahead_max_kbs" => self.readahead_max_bytes = scaled(10)?,
            "data_cache_shards" => self.data_cache_shards = size(num()?)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The read-path configuration these global knobs describe, ready to
    /// hand to [`crate::api::Plfs::with_read_conf`].
    pub fn read_conf(&self) -> ReadConf {
        ReadConf::default()
            .with_threads(self.threadpool_size)
            .with_fanout_threshold(self.read_fanout_threshold)
            .with_handle_shards(self.handle_cache_shards)
            .with_index_memory_bytes(self.index_memory_bytes)
    }

    /// The write-path configuration these global knobs describe, ready to
    /// hand to [`crate::api::Plfs::with_write_conf`]. The index buffer
    /// depth is per-mount ([`MountSpec::index_buffer_entries`]), so callers
    /// layer it on with
    /// [`WriteConf::with_index_buffer_entries`](crate::conf::WriteConf::with_index_buffer_entries).
    pub fn write_conf(&self) -> WriteConf {
        WriteConf::default()
            .with_write_shards(self.write_shards)
            .with_data_buffer_bytes(self.data_buffer_bytes)
            .with_incremental_refresh(self.incremental_refresh)
            .with_compact_droppings_threshold(self.compact_droppings_threshold)
    }

    /// The noncontiguous list-I/O configuration these global knobs
    /// describe, ready to hand to [`crate::api::Plfs::with_list_io_conf`].
    pub fn list_io_conf(&self) -> ListIoConf {
        ListIoConf::default()
            .with_enabled(self.list_io)
            .with_max_extents(self.list_io_max_extents)
    }

    /// The backend-layer configuration these global knobs describe, ready
    /// to hand to [`crate::api::Plfs::with_backend_conf`].
    pub fn backend_conf(&self) -> BackendConf {
        BackendConf::default()
            .with_submit_depth(self.submit_depth)
            .with_submit_workers(self.submit_workers)
            .with_destage_threshold(self.destage_threshold)
    }

    /// The data block cache and readahead configuration these global knobs
    /// describe, ready to hand to [`crate::api::Plfs::with_cache_conf`].
    pub fn cache_conf(&self) -> CacheConf {
        CacheConf::default()
            .with_cache_bytes(self.data_cache_bytes)
            .with_block_bytes(self.data_cache_block_bytes)
            .with_readahead(self.readahead_min_bytes, self.readahead_max_bytes)
            .with_shards(self.data_cache_shards)
    }

    /// The metadata fast-path configuration these global knobs describe,
    /// ready to hand to [`crate::api::Plfs::with_meta_conf`].
    pub fn meta_conf(&self) -> MetaConf {
        MetaConf::default()
            .with_meta_cache_entries(self.meta_cache_entries)
            .with_meta_cache_shards(self.meta_cache_shards)
            .with_open_markers(self.open_markers)
    }

    /// Find the mount whose mount point prefixes `path` (longest match).
    pub fn mount_for(&self, path: &str) -> Option<&MountSpec> {
        self.mounts
            .iter()
            .filter(|m| path_has_prefix(path, &m.mount_point))
            .max_by_key(|m| m.mount_point.len())
    }
}

/// The `plfsrc` number parser: a decimal `u64`.
pub fn parse_num(v: &str) -> std::result::Result<u64, &'static str> {
    v.parse().map_err(|_| "bad numeric value in plfsrc")
}

/// The `plfsrc` boolean parser: `true`/`1`/`yes`/`on` or
/// `false`/`0`/`no`/`off`.
fn parse_bool(v: &str) -> std::result::Result<bool, &'static str> {
    match v {
        "true" | "1" | "yes" | "on" => Ok(true),
        "false" | "0" | "no" | "off" => Ok(false),
        _ => Err("bad boolean value in plfsrc"),
    }
}

/// A malformed-plfsrc error naming the offending (1-based) line, so a bad
/// knob in a 300-line site config is findable. Stays EINVAL like every
/// other config error.
fn config_error(msg: &str, lineno: usize) -> Error {
    Error::Config(format!("{msg}, line {}", lineno + 1))
}

/// True if `path` is `prefix` or lives underneath it.
pub fn path_has_prefix(path: &str, prefix: &str) -> bool {
    if prefix == "/" {
        return path.starts_with('/');
    }
    path == prefix || (path.starts_with(prefix) && path.as_bytes().get(prefix.len()) == Some(&b'/'))
}

// ---------------------------------------------------------------------------
// SpreadBacking: hostdir spreading across multiple backends.
// ---------------------------------------------------------------------------

/// Routes container paths across several backings: `hostdir.N` (and anything
/// under it) goes to backend `N % k`; everything else (skeleton, meta,
/// openhosts) lives on the canonical backend 0. `readdir` of a container
/// directory unions the canonical listing with the hostdirs of the others.
pub struct SpreadBacking {
    backends: Vec<Arc<dyn Backing>>,
}

impl SpreadBacking {
    /// Build from at least one backend.
    pub fn new(backends: Vec<Arc<dyn Backing>>) -> Result<SpreadBacking> {
        if backends.is_empty() {
            return Err(Error::InvalidArg(
                "SpreadBacking needs at least one backend",
            ));
        }
        Ok(SpreadBacking { backends })
    }

    /// Number of backends spread over.
    pub fn fan_out(&self) -> usize {
        self.backends.len()
    }

    fn route(&self, path: &str) -> &dyn Backing {
        self.backends[self.route_idx(path)].as_ref()
    }

    fn route_idx(&self, path: &str) -> usize {
        // Find a `/hostdir.N` component and route on N.
        for comp in path.split('/') {
            if let Some(n) = comp.strip_prefix(HOSTDIR_PREFIX) {
                if let Ok(n) = n.parse::<u64>() {
                    return (n % self.backends.len() as u64) as usize;
                }
            }
        }
        0
    }
}

impl Backing for SpreadBacking {
    fn create(&self, path: &str, excl: bool) -> Result<Box<dyn BackingFile>> {
        self.route(path).create(path, excl)
    }

    fn open(&self, path: &str, write: bool) -> Result<Box<dyn BackingFile>> {
        self.route(path).open(path, write)
    }

    fn mkdir(&self, path: &str) -> Result<()> {
        let idx = self.route_idx(path);
        if idx != 0 {
            // Ensure ancestors exist on the non-canonical backend.
            if let Some(parent) = path.rfind('/') {
                if parent > 0 {
                    self.backends[idx].mkdir_all(&path[..parent])?;
                }
            }
        }
        self.backends[idx].mkdir(path)
    }

    fn mkdir_all(&self, path: &str) -> Result<()> {
        self.route(path).mkdir_all(path)
    }

    fn readdir(&self, path: &str) -> Result<Vec<String>> {
        let idx = self.route_idx(path);
        if idx != 0 {
            return self.backends[idx].readdir(path);
        }
        let mut names = self.backends[0].readdir(path)?;
        if self.backends.len() > 1 {
            for be in &self.backends[1..] {
                if let Ok(extra) = be.readdir(path) {
                    names.extend(extra.into_iter().filter(|n| n.starts_with(HOSTDIR_PREFIX)));
                }
            }
            names.sort_unstable();
            names.dedup();
        }
        Ok(names)
    }

    fn unlink(&self, path: &str) -> Result<()> {
        self.route(path).unlink(path)
    }

    fn rmdir(&self, path: &str) -> Result<()> {
        self.route(path).rmdir(path)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        // Rename must move every backend's piece of the tree.
        let mut renamed_any = false;
        for be in &self.backends {
            match be.rename(from, to) {
                Ok(()) => renamed_any = true,
                Err(Error::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        if renamed_any {
            Ok(())
        } else {
            Err(Error::NotFound(from.to_string()))
        }
    }

    fn stat(&self, path: &str) -> Result<BackStat> {
        self.route(path).stat(path)
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        self.route(path).truncate(path, len)
    }

    fn seal(&self, path: &str) -> Result<()> {
        self.route(path).seal(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Plfs;
    use crate::backing::MemBacking;
    use crate::flags::OpenFlags;

    #[test]
    fn parse_full_plfsrc() {
        let rc = PlfsRc::parse(
            "# comment\n\
             threadpool_size 8\n\
             mount_point /plfs\n\
             backends /be1,/be2\n\
             num_hostdirs 16\n\
             index_buffer_entries 128\n\
             workload shared_file\n\
             mount_point /plfs2/\n\
             backends /other\n",
        )
        .unwrap();
        assert_eq!(rc.threadpool_size, 8);
        assert_eq!(rc.mounts.len(), 2);
        let m = &rc.mounts[0];
        assert_eq!(m.mount_point, "/plfs");
        assert_eq!(m.backends, vec!["/be1", "/be2"]);
        assert_eq!(m.params.num_hostdirs, 16);
        assert_eq!(m.index_buffer_entries, 128);
        assert_eq!(rc.mounts[1].mount_point, "/plfs2");
    }

    #[test]
    fn parse_backend_knobs_into_backend_conf() {
        let rc = PlfsRc::parse(
            "backend tiered\n\
             submit_depth 32\n\
             submit_workers 2\n\
             destage_threshold 1048576\n\
             mount_point /p\n\
             backends /fast,/slow\n",
        )
        .unwrap();
        assert_eq!(rc.backend, BackendKind::Tiered);
        let conf = rc.backend_conf();
        assert_eq!(conf.submit_depth, 32);
        assert_eq!(conf.submit_workers, 2);
        assert_eq!(conf.destage_threshold, 1 << 20);
        assert!(conf.batching());
        // Defaults: direct backend, submission layer off.
        let rc = PlfsRc::parse("mount_point /p\nbackends /b\n").unwrap();
        assert_eq!(rc.backend, BackendKind::Direct);
        assert!(!rc.backend_conf().batching());
        // Aliases parse; junk is a line-numbered error.
        let rc = PlfsRc::parse("backend burst_buffer\nmount_point /p\nbackends /a,/b\n").unwrap();
        assert_eq!(rc.backend, BackendKind::Tiered);
        let err = PlfsRc::parse("mount_point /p\nbackend warp_drive\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = PlfsRc::parse("submit_depth many\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn parse_read_path_knobs_into_read_conf() {
        let rc = PlfsRc::parse(
            "threadpool_size 8\n\
             read_fanout_threshold 4096\n\
             handle_cache_shards 4\n\
             mount_point /plfs\n\
             backends /be\n",
        )
        .unwrap();
        let conf = rc.read_conf();
        assert_eq!(conf.threads, 8);
        assert_eq!(conf.fanout_threshold, 4096);
        assert_eq!(conf.handle_shards, 4);
        // Defaults when the keys are absent.
        let rc = PlfsRc::parse("mount_point /p\nbackends /b\n").unwrap();
        let conf = rc.read_conf();
        assert_eq!(conf.threads, 16);
        assert_eq!(conf.fanout_threshold, DEFAULT_FANOUT_THRESHOLD);
        assert_eq!(conf.handle_shards, DEFAULT_HANDLE_SHARDS);
    }

    #[test]
    fn parse_index_residency_knobs() {
        let rc = PlfsRc::parse(
            "index_memory_bytes 1048576\n\
             compact_droppings_threshold 64\n\
             mount_point /p\n\
             backends /b\n",
        )
        .unwrap();
        let rconf = rc.read_conf();
        assert_eq!(rconf.index_memory_bytes, 1 << 20);
        assert!(rconf.bounded_index());
        assert_eq!(rc.write_conf().compact_droppings_threshold, 64);
        // Defaults: eager index, compaction off.
        let rc = PlfsRc::parse("mount_point /p\nbackends /b\n").unwrap();
        assert!(!rc.read_conf().bounded_index());
        assert_eq!(rc.write_conf().compact_droppings_threshold, 0);
        // Malformed values are line-numbered errors like every other knob.
        let err = PlfsRc::parse("mount_point /p\nindex_memory_bytes lots\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = PlfsRc::parse("compact_droppings_threshold x\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn parse_list_io_knobs_into_list_io_conf() {
        let rc = PlfsRc::parse(
            "list_io off\n\
             list_io_max_extents 64\n\
             mount_point /p\n\
             backends /b\n",
        )
        .unwrap();
        let conf = rc.list_io_conf();
        assert!(!conf.enabled);
        assert_eq!(conf.max_extents, 64);
        // Defaults: enabled, default extent cap.
        let rc = PlfsRc::parse("mount_point /p\nbackends /b\n").unwrap();
        let conf = rc.list_io_conf();
        assert!(conf.enabled);
        assert_eq!(conf.max_extents, DEFAULT_LIST_IO_MAX_EXTENTS);
        // Malformed values are line-numbered errors.
        let err = PlfsRc::parse("list_io maybe\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        let err = PlfsRc::parse("mount_point /p\nlist_io_max_extents many\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn parse_data_cache_knobs_into_cache_conf() {
        let rc = PlfsRc::parse(
            "data_cache_mbs 8\n\
             data_cache_block_kbs 16\n\
             readahead_kbs 32\n\
             readahead_max_kbs 256\n\
             data_cache_shards 4\n\
             mount_point /p\n\
             backends /b\n",
        )
        .unwrap();
        let conf = rc.cache_conf();
        assert!(conf.enabled());
        assert_eq!(conf.cache_bytes, 8 << 20);
        assert_eq!(conf.block_bytes, 16 << 10);
        assert_eq!(conf.readahead_min, 32 << 10);
        assert_eq!(conf.readahead_max, 256 << 10);
        assert_eq!(conf.shards, 4);
        // Defaults: cache (and with it readahead) off.
        let rc = PlfsRc::parse("mount_point /p\nbackends /b\n").unwrap();
        let conf = rc.cache_conf();
        assert!(!conf.enabled());
        assert_eq!(conf.block_bytes, DEFAULT_CACHE_BLOCK_BYTES);
        assert_eq!(conf.readahead_max, DEFAULT_READAHEAD_MAX);
        // readahead_max_kbs 0 keeps the cache but turns readahead off.
        let rc =
            PlfsRc::parse("data_cache_mbs 1\nreadahead_max_kbs 0\nmount_point /p\nbackends /b\n")
                .unwrap();
        let conf = rc.cache_conf();
        assert!(conf.enabled());
        assert!(!conf.readahead_enabled());
        // Malformed values are line-numbered errors; overflow is a parse
        // error, not a panic.
        let err = PlfsRc::parse("data_cache_mbs lots\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        let err =
            PlfsRc::parse("mount_point /p\ndata_cache_mbs 18446744073709551615\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = PlfsRc::parse("readahead_kbs 18446744073709551615\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn parse_write_path_knobs_into_write_conf() {
        let rc = PlfsRc::parse(
            "write_shards 4\n\
             data_buffer_mbs 2\n\
             incremental_refresh false\n\
             mount_point /plfs\n\
             backends /be\n",
        )
        .unwrap();
        let conf = rc.write_conf();
        assert_eq!(conf.write_shards, 4);
        assert_eq!(conf.data_buffer_bytes, 2 << 20);
        assert!(!conf.incremental_refresh);
        // data_buffer_bytes gives byte-granular control.
        let rc =
            PlfsRc::parse("data_buffer_bytes 4096\nmount_point /plfs\nbackends /be\n").unwrap();
        assert_eq!(rc.write_conf().data_buffer_bytes, 4096);
        // Defaults when the keys are absent.
        let rc = PlfsRc::parse("mount_point /p\nbackends /b\n").unwrap();
        let conf = rc.write_conf();
        assert_eq!(conf.write_shards, DEFAULT_WRITE_SHARDS);
        assert_eq!(conf.data_buffer_bytes, DEFAULT_DATA_BUFFER_BYTES);
        assert!(conf.incremental_refresh);
        // Bad booleans are rejected.
        assert!(PlfsRc::parse("incremental_refresh maybe\n").is_err());
    }

    #[test]
    fn parse_meta_knobs_into_meta_conf() {
        let rc = PlfsRc::parse(
            "meta_cache_entries 128\n\
             meta_cache_shards 2\n\
             open_markers lazy\n\
             mount_point /p\n\
             backends /b\n",
        )
        .unwrap();
        let conf = rc.meta_conf();
        assert_eq!(conf.meta_cache_entries, 128);
        assert_eq!(conf.meta_cache_shards, 2);
        assert_eq!(conf.open_markers, OpenMarkers::Lazy);
        // Defaults when the keys are absent.
        let rc = PlfsRc::parse("mount_point /p\nbackends /b\n").unwrap();
        let conf = rc.meta_conf();
        assert_eq!(conf.meta_cache_entries, DEFAULT_META_CACHE_ENTRIES);
        assert_eq!(conf.open_markers, OpenMarkers::Eager);
        assert!(conf.cache_enabled());
        // The cache can be turned off from the file.
        let rc = PlfsRc::parse("meta_cache_entries 0\nmount_point /p\nbackends /b\n").unwrap();
        assert!(!rc.meta_conf().cache_enabled());
        // Bad marker policies are rejected.
        assert!(PlfsRc::parse("open_markers sometimes\n").is_err());
    }

    #[test]
    fn errors_report_plfsrc_line_number() {
        // The bad number sits on (1-based) line 3.
        let err = PlfsRc::parse("# header\nmount_point /p\nnum_hostdirs pony\nbackends /b\n")
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "error must name the line: {msg}");
        assert_eq!(err.errno(), 22, "malformed plfsrc stays EINVAL");
        // Every in-loop error site carries its line.
        let err = PlfsRc::parse("open_markers never\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        let err = PlfsRc::parse("mount_point /p\nbackends /b\nworkload strange\n").unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
        let err = PlfsRc::parse("threadpool_size\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        let err = PlfsRc::parse("backends /b\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        let err = PlfsRc::parse("mount_point /p\nincremental_refresh maybe\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn parse_rejects_mount_without_backends() {
        assert!(PlfsRc::parse("mount_point /plfs\n").is_err());
    }

    #[test]
    fn parse_rejects_keys_before_mount() {
        assert!(PlfsRc::parse("backends /be\n").is_err());
    }

    #[test]
    fn parse_ignores_unknown_keys() {
        let rc = PlfsRc::parse("mount_point /p\nbackends /b\nglobal_summary_dir /x\n").unwrap();
        assert_eq!(rc.mounts.len(), 1);
    }

    #[test]
    fn mount_for_picks_longest_prefix() {
        let rc =
            PlfsRc::parse("mount_point /plfs\nbackends /a\nmount_point /plfs/deep\nbackends /b\n")
                .unwrap();
        assert_eq!(rc.mount_for("/plfs/deep/f").unwrap().backends, vec!["/b"]);
        assert_eq!(rc.mount_for("/plfs/f").unwrap().backends, vec!["/a"]);
        assert!(
            rc.mount_for("/plfsx/f").is_none(),
            "no partial-component match"
        );
        assert!(rc.mount_for("/elsewhere").is_none());
    }

    #[test]
    fn path_prefix_respects_components() {
        assert!(path_has_prefix("/plfs/a", "/plfs"));
        assert!(path_has_prefix("/plfs", "/plfs"));
        assert!(!path_has_prefix("/plfsfoo", "/plfs"));
        assert!(path_has_prefix("/any/thing", "/"));
    }

    #[test]
    fn spread_backing_spreads_hostdirs() {
        let b1 = Arc::new(MemBacking::new());
        let b2 = Arc::new(MemBacking::new());
        let spread = SpreadBacking::new(vec![b1.clone(), b2.clone()]).unwrap();
        let plfs = Plfs::new(Arc::new(spread)).with_params(ContainerParams {
            num_hostdirs: 8,
            mode: LayoutMode::Both,
        });
        let flags = OpenFlags::RDWR | OpenFlags::CREAT;
        let fd = plfs.open("/f", flags, 0).unwrap();
        for pid in 1..16u64 {
            fd.add_ref(pid);
        }
        for pid in 0..16u64 {
            plfs.write(&fd, &[pid as u8; 10], pid * 10, pid).unwrap();
        }
        for pid in 0..16u64 {
            plfs.close(&fd, pid).unwrap();
        }
        // Skeleton only on canonical backend.
        assert!(b1.exists("/f/.plfsaccess"));
        assert!(!b2.exists("/f/.plfsaccess"));
        // Odd hostdirs landed on backend 2.
        let on_b2 = (0..8u32).any(|n| b2.exists(&format!("/f/hostdir.{n}")));
        assert!(on_b2, "no hostdir spread to second backend");
        // And the file reads back correctly through the spread.
        let fd = plfs.open("/f", OpenFlags::RDONLY, 99).unwrap();
        let mut buf = vec![0u8; 160];
        assert_eq!(plfs.read(&fd, &mut buf, 0).unwrap(), 160);
        for pid in 0..16usize {
            assert!(buf[pid * 10..pid * 10 + 10].iter().all(|&x| x == pid as u8));
        }
    }

    #[test]
    fn spread_backing_requires_a_backend() {
        assert!(SpreadBacking::new(vec![]).is_err());
    }
}
