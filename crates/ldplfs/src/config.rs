//! Shim construction helpers.
//!
//! The real LDPLFS is configured by exporting a single environment variable
//! and reading the system `plfsrc`. [`LdPlfsBuilder`] is the programmatic
//! equivalent; [`from_plfsrc`] wires a parsed `plfsrc` to backing stores
//! produced by a caller-supplied factory (real directories, in-memory, or
//! simulated).

use crate::posix::{Errno, PosixLayer, PosixResult};
use crate::shim::{LdPlfs, ShimMount};
use plfs::{
    BackendKind, Backing, MountSpec, ObjectBacking, Plfs, PlfsRc, SpreadBacking, TieredBacking,
};
use std::sync::Arc;

/// Incremental builder for an [`LdPlfs`] shim.
pub struct LdPlfsBuilder {
    under: Arc<dyn PosixLayer>,
    mounts: Vec<ShimMount>,
}

impl LdPlfsBuilder {
    /// Start from the underlying ("real libc") layer.
    pub fn new(under: Arc<dyn PosixLayer>) -> LdPlfsBuilder {
        LdPlfsBuilder {
            under,
            mounts: Vec::new(),
        }
    }

    /// Add a mount serving `mount_point` with an existing [`Plfs`].
    pub fn mount(mut self, mount_point: impl Into<String>, plfs: Plfs) -> LdPlfsBuilder {
        self.mounts.push(ShimMount {
            mount_point: mount_point.into().trim_end_matches('/').to_string(),
            plfs,
        });
        self
    }

    /// Finish, creating the scratch directory on the underlying layer.
    pub fn build(self) -> PosixResult<LdPlfs> {
        if self.mounts.is_empty() {
            return Err(Errno::EINVAL);
        }
        LdPlfs::new(self.under, self.mounts)
    }
}

/// Maps a backend path to its backing store.
type BackingFor<'a> = dyn FnMut(&str) -> plfs::Result<Arc<dyn Backing>> + 'a;

/// Resolve a run of backend paths into one backing: a single path maps
/// directly, several become a [`SpreadBacking`].
fn spread(paths: &[String], backing_for: &mut BackingFor) -> plfs::Result<Arc<dyn Backing>> {
    match paths {
        [one] => backing_for(one),
        _ => {
            let backends = paths
                .iter()
                .map(|b| backing_for(b))
                .collect::<plfs::Result<_>>()?;
            Ok(Arc::new(SpreadBacking::new(backends)?))
        }
    }
}

/// Build the [`Plfs`] of one mount of a parsed `plfsrc`, with every global
/// knob of `rc` layered on, and also return the tiered backing under it,
/// if any, so that a short-lived host can drain its destage queue at exit.
///
/// The backend stack is the one the `backend` key asks for:
/// * `direct`/`batched` — the classic spread over every backend path (the
///   batched submission layer is layered on by
///   [`Plfs::with_backend_conf`]; `batched` with no explicit depth turns it
///   on).
/// * `tiered` — the first backend path is the fast (burst-buffer) tier, the
///   remaining path(s) the slow tier; fewer than two paths is a config error.
/// * `object` — the spread is re-exposed as an object store of immutable
///   whole-dropping objects.
pub fn plfs_for_mount(
    rc: &PlfsRc,
    spec: &MountSpec,
    backing_for: &mut BackingFor,
) -> PosixResult<(Plfs, Option<Arc<TieredBacking>>)> {
    let mut conf = rc.backend_conf();
    if rc.backend == BackendKind::Batched && !conf.batching() {
        conf = conf.with_submit_depth(plfs::conf::DEFAULT_SUBMIT_DEPTH);
    }
    let mut tiered = None;
    let backing: Arc<dyn Backing> = match rc.backend {
        BackendKind::Direct | BackendKind::Batched => spread(&spec.backends, backing_for)?,
        BackendKind::Object => Arc::new(ObjectBacking::over(spread(&spec.backends, backing_for)?)),
        // A burst buffer needs a fast tier AND somewhere to destage.
        BackendKind::Tiered if spec.backends.len() < 2 => return Err(Errno::EINVAL),
        BackendKind::Tiered => {
            let fast = backing_for(&spec.backends[0])?;
            let slow = spread(&spec.backends[1..], backing_for)?;
            let t = Arc::new(TieredBacking::new(fast, slow, conf));
            tiered = Some(Arc::clone(&t));
            t
        }
    };
    // The write conf replaces the whole struct, so the per-mount index
    // buffer depth is layered back on top of the global knobs.
    let write_conf = rc
        .write_conf()
        .with_index_buffer_entries(spec.index_buffer_entries);
    let plfs = Plfs::new(backing)
        .with_params(spec.params)
        .with_backend_conf(conf)
        .with_read_conf(rc.read_conf())
        .with_write_conf(write_conf)
        .with_meta_conf(rc.meta_conf())
        .with_list_io_conf(rc.list_io_conf())
        .with_cache_conf(rc.cache_conf());
    Ok((plfs, tiered))
}

/// Build a shim from `plfsrc` text. `backing_for` maps each backend path in
/// the file to a backing store.
pub fn from_plfsrc(
    under: Arc<dyn PosixLayer>,
    plfsrc: &str,
    mut backing_for: impl FnMut(&str) -> Arc<dyn Backing>,
) -> PosixResult<LdPlfs> {
    let rc = PlfsRc::parse(plfsrc).map_err(Errno::from)?;
    let mut builder = LdPlfsBuilder::new(under);
    for spec in &rc.mounts {
        let (plfs, _) = plfs_for_mount(&rc, spec, &mut |p| Ok(backing_for(p)))?;
        builder = builder.mount(spec.mount_point.clone(), plfs);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posix::{OpenFlags, PosixLayer};
    use crate::realposix::RealPosix;
    use plfs::MemBacking;

    fn under(name: &str) -> Arc<dyn PosixLayer> {
        let dir =
            std::env::temp_dir().join(format!("ldplfs-config-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(RealPosix::rooted(dir).unwrap())
    }

    #[test]
    fn builder_requires_a_mount() {
        assert!(LdPlfsBuilder::new(under("empty")).build().is_err());
    }

    #[test]
    fn builder_trims_trailing_slash() {
        let s = LdPlfsBuilder::new(under("trim"))
            .mount("/plfs/", Plfs::new(Arc::new(MemBacking::new())))
            .build()
            .unwrap();
        assert_eq!(s.mounts()[0].mount_point, "/plfs");
        let fd = s
            .open("/plfs/f", OpenFlags::RDWR | OpenFlags::CREAT, 0o644)
            .unwrap();
        s.close(fd).unwrap();
        assert!(s.mounts()[0].plfs.is_container("/f"));
    }

    #[test]
    fn from_plfsrc_builds_all_mounts() {
        let rc = "mount_point /ckpt\nbackends /be1\nnum_hostdirs 4\n\
                  mount_point /viz\nbackends /be2,/be3\n";
        let s = from_plfsrc(under("rc"), rc, |_| Arc::new(MemBacking::new())).unwrap();
        assert_eq!(s.mounts().len(), 2);
        assert_eq!(s.mounts()[0].plfs.defaults().num_hostdirs, 4);
        // The two-backend mount got a spread backing; writing works.
        let fd = s
            .open("/viz/dump", OpenFlags::RDWR | OpenFlags::CREAT, 0o644)
            .unwrap();
        s.write(fd, b"spread").unwrap();
        s.close(fd).unwrap();
        assert_eq!(s.stat("/viz/dump").unwrap().size, 6);
    }

    #[test]
    fn from_plfsrc_plumbs_read_conf() {
        let rc = "threadpool_size 4\nread_fanout_threshold 2048\nhandle_cache_shards 2\n\
                  index_memory_bytes 65536\n\
                  mount_point /ckpt\nbackends /be\n";
        let s = from_plfsrc(under("conf"), rc, |_| Arc::new(MemBacking::new())).unwrap();
        let conf = s.mounts()[0].plfs.read_conf();
        assert_eq!(conf.threads, 4);
        assert_eq!(conf.fanout_threshold, 2048);
        assert_eq!(conf.handle_shards, 2);
        assert_eq!(conf.index_memory_bytes, 65536);
        assert!(conf.bounded_index());
    }

    #[test]
    fn from_plfsrc_plumbs_compaction_threshold() {
        let rc = "compact_droppings_threshold 32\nmount_point /ckpt\nbackends /be\n";
        let s = from_plfsrc(under("cconf"), rc, |_| Arc::new(MemBacking::new())).unwrap();
        assert_eq!(
            s.mounts()[0].plfs.write_conf().compact_droppings_threshold,
            32
        );
    }

    #[test]
    fn from_plfsrc_plumbs_write_conf() {
        let rc = "write_shards 2\ndata_buffer_bytes 8192\nincremental_refresh off\n\
                  mount_point /ckpt\nbackends /be\nindex_buffer_entries 99\n";
        let s = from_plfsrc(under("wconf"), rc, |_| Arc::new(MemBacking::new())).unwrap();
        let conf = s.mounts()[0].plfs.write_conf();
        assert_eq!(conf.write_shards, 2);
        assert_eq!(conf.data_buffer_bytes, 8192);
        assert!(!conf.incremental_refresh);
        // The per-mount index buffer depth survives the global write conf.
        assert_eq!(conf.index_buffer_entries, 99);
    }

    #[test]
    fn from_plfsrc_plumbs_meta_conf() {
        let rc = "meta_cache_entries 64\nmeta_cache_shards 2\nopen_markers lazy\n\
                  mount_point /ckpt\nbackends /be\n";
        let s = from_plfsrc(under("mconf"), rc, |_| Arc::new(MemBacking::new())).unwrap();
        let conf = s.mounts()[0].plfs.meta_conf();
        assert_eq!(conf.meta_cache_entries, 64);
        assert_eq!(conf.meta_cache_shards, 2);
        assert_eq!(conf.open_markers, plfs::OpenMarkers::Lazy);
    }

    #[test]
    fn from_plfsrc_plumbs_list_io_conf() {
        let rc = "list_io off\nlist_io_max_extents 7\nmount_point /ckpt\nbackends /be\n";
        let s = from_plfsrc(under("lconf"), rc, |_| Arc::new(MemBacking::new())).unwrap();
        let conf = s.mounts()[0].plfs.list_io_conf();
        assert!(!conf.enabled);
        assert_eq!(conf.max_extents, 7);
    }

    #[test]
    fn from_plfsrc_plumbs_cache_conf() {
        let rc = "data_cache_mbs 4\ndata_cache_block_kbs 8\nreadahead_kbs 16\n\
                  readahead_max_kbs 128\nmount_point /ckpt\nbackends /be\n";
        let s = from_plfsrc(under("dcconf"), rc, |_| Arc::new(MemBacking::new())).unwrap();
        let conf = s.mounts()[0].plfs.cache_conf();
        assert!(conf.enabled());
        assert_eq!(conf.cache_bytes, 4 << 20);
        assert_eq!(conf.block_bytes, 8 << 10);
        assert_eq!(conf.readahead_min, 16 << 10);
        assert_eq!(conf.readahead_max, 128 << 10);
        // Cached reads still round-trip through the shim.
        let fd = s
            .open("/ckpt/dump", OpenFlags::RDWR | OpenFlags::CREAT, 0o644)
            .unwrap();
        s.write(fd, b"cached bytes").unwrap();
        s.lseek(fd, 0, crate::posix::Whence::Set).unwrap();
        let mut buf = [0u8; 12];
        assert_eq!(s.read(fd, &mut buf).unwrap(), 12);
        assert_eq!(&buf, b"cached bytes");
        s.close(fd).unwrap();
        // Plain plfsrc leaves the data cache off.
        let s = from_plfsrc(under("dcoff"), "mount_point /ckpt\nbackends /be\n", |_| {
            Arc::new(MemBacking::new())
        })
        .unwrap();
        assert!(!s.mounts()[0].plfs.cache_conf().enabled());
    }

    #[test]
    fn from_plfsrc_plumbs_backend_conf() {
        // Tiered: first backend path is the fast tier, rest the slow tier,
        // and the submission knobs ride along into the mount's Plfs.
        let rc = "backend tiered\nsubmit_depth 8\nsubmit_workers 2\ndestage_threshold 16\n\
                  mount_point /ckpt\nbackends /fast,/slow\n";
        let s = from_plfsrc(under("bconf"), rc, |_| Arc::new(MemBacking::new())).unwrap();
        let conf = s.mounts()[0].plfs.backend_conf();
        assert_eq!(conf.submit_depth, 8);
        assert_eq!(conf.submit_workers, 2);
        assert_eq!(conf.destage_threshold, 16);
        assert!(conf.batching());
        // The composed stack still round-trips data end to end.
        let fd = s
            .open("/ckpt/dump", OpenFlags::RDWR | OpenFlags::CREAT, 0o644)
            .unwrap();
        s.write(fd, b"staged").unwrap();
        s.close(fd).unwrap();
        assert_eq!(s.stat("/ckpt/dump").unwrap().size, 6);
    }

    #[test]
    fn from_plfsrc_batched_defaults_depth_on() {
        // `backend batched` alone turns the submission layer on.
        let rc = "backend batched\nmount_point /ckpt\nbackends /be\n";
        let s = from_plfsrc(under("bdef"), rc, |_| Arc::new(MemBacking::new())).unwrap();
        assert!(s.mounts()[0].plfs.backend_conf().batching());
        // Plain plfsrc leaves it off.
        let s = from_plfsrc(under("bdef2"), "mount_point /ckpt\nbackends /be\n", |_| {
            Arc::new(MemBacking::new())
        })
        .unwrap();
        assert!(!s.mounts()[0].plfs.backend_conf().batching());
    }

    #[test]
    fn from_plfsrc_tiered_needs_two_backends() {
        let rc = "backend tiered\nmount_point /ckpt\nbackends /only\n";
        assert!(from_plfsrc(under("b1"), rc, |_| Arc::new(MemBacking::new())).is_err());
    }

    #[test]
    fn from_plfsrc_object_backend_round_trips() {
        let rc = "backend object\nmount_point /ckpt\nbackends /be\n";
        let s = from_plfsrc(under("bobj"), rc, |_| Arc::new(MemBacking::new())).unwrap();
        let fd = s
            .open("/ckpt/dump", OpenFlags::RDWR | OpenFlags::CREAT, 0o644)
            .unwrap();
        s.write(fd, b"objects").unwrap();
        s.close(fd).unwrap();
        assert_eq!(s.stat("/ckpt/dump").unwrap().size, 7);
    }

    #[test]
    fn from_plfsrc_rejects_bad_config() {
        assert!(from_plfsrc(under("bad"), "mount_point /x\n", |_| {
            Arc::new(MemBacking::new())
        })
        .is_err());
    }
}
