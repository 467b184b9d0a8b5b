//! Per-round counters and their line format.
//!
//! A round prints its [`Stats`] as `key value...` lines. Rank children
//! send them to their parent, which merges them, and `run.py` reads the
//! parent's lines. Times are nanoseconds, sizes bytes.

use std::path::Path;

/// Bytes and files under a data directory, taken right after the write
/// phase.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Space {
    /// Bytes in all regular files.
    pub total: u64,
    /// Bytes in PLFS data droppings.
    pub data: u64,
    /// Bytes in PLFS index droppings.
    pub index: u64,
    /// Number of data droppings.
    pub droppings: u64,
    /// Number of PLFS containers.
    pub containers: u64,
    /// Logical bytes the op stream had written at that point.
    pub logical: u64,
}

impl Space {
    /// Footprint of the files under `dir`, PLFS droppings and containers
    /// told apart by name.
    pub fn of_dir(dir: &Path) -> Space {
        let mut s = Space::default();
        s.add_dir(dir);
        s
    }

    fn add_dir(&mut self, dir: &Path) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let Ok(meta) = e.metadata() else { continue };
            if meta.is_dir() {
                self.add_dir(&e.path());
                continue;
            }
            let name = e.file_name();
            let name = name.to_string_lossy();
            self.total += meta.len();
            if name.starts_with("dropping.data.") {
                self.data += meta.len();
                self.droppings += 1;
            } else if name.starts_with("dropping.index.") {
                self.index += meta.len();
            } else if name == ".plfsaccess" {
                self.containers += 1;
            }
        }
    }
}

/// What one round (or one rank of it) did and measured.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Stats {
    /// Calls made.
    pub attempted: u64,
    /// Calls that returned an error or transferred fewer bytes than asked.
    pub failed: u64,
    /// Reads and size checks whose answer differed from the oracle.
    pub mismatches: u64,
    /// Latency of each path/descriptor call on the benchmark files.
    pub meta_ns: Vec<u64>,
    /// Latency of each data call on the benchmark files.
    pub io_ns: Vec<u64>,
    /// Wall time in write, read and other phases.
    pub phase_ns: [u64; 3],
    /// Logical bytes written to the benchmark files.
    pub write_bytes: u64,
    /// Logical bytes read from the benchmark files.
    pub read_bytes: u64,
    /// Order-independent digest of the verified reads: both sides of a
    /// round must read the same ranges and agree on every byte.
    pub digest: u64,
    /// Calls on the benchmark files (the calls the preload retargets).
    pub mount_calls: u64,
    /// Traced: time inside calls on the benchmark files.
    pub mount_busy_ns: u64,
    /// Traced: time inside calls on plain-directory files.
    pub passthrough_ns: u64,
    /// Traced: time the generator spent checking and digesting bytes.
    pub driver_ns: u64,
    /// Bytes of the benchmark files opened read-only (what the preload
    /// materialises into snapshots).
    pub snapshot_bytes: u64,
    /// Bytes read through read-only descriptors.
    pub snapshot_read_bytes: u64,
    /// `fsync`/`fdatasync` calls the process asked for.
    pub flushes: u64,
    /// Time launching and reaping rank processes outside their op streams
    /// (exec, loader, library init, exit); phase times exclude it.
    pub launch_ns: u64,
    /// Footprint right after the write phase.
    pub space: Space,
    /// Peak RSS of the round's processes, KiB.
    pub rss_kib: u64,
}

impl Stats {
    /// Sum of the phase times.
    pub fn wall_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// Fold in a rank child's counters. Phase times and footprint stay the
    /// parent's own: the parent times the whole wave and probes the
    /// footprint itself.
    pub fn merge(&mut self, o: &Stats) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatches += o.mismatches;
        self.meta_ns.extend_from_slice(&o.meta_ns);
        self.io_ns.extend_from_slice(&o.io_ns);
        self.write_bytes += o.write_bytes;
        self.read_bytes += o.read_bytes;
        self.digest = self.digest.wrapping_add(o.digest);
        self.mount_calls += o.mount_calls;
        self.mount_busy_ns += o.mount_busy_ns;
        self.passthrough_ns += o.passthrough_ns;
        self.driver_ns += o.driver_ns;
        self.snapshot_bytes += o.snapshot_bytes;
        self.snapshot_read_bytes += o.snapshot_read_bytes;
        self.flushes += o.flushes;
        self.launch_ns += o.launch_ns;
        self.rss_kib = self.rss_kib.max(o.rss_kib);
    }

    /// The `key value...` lines.
    pub fn to_lines(&self) -> String {
        let s = &self.space;
        let scalars: [(&str, u64); 23] = [
            ("attempted", self.attempted),
            ("failed", self.failed),
            ("mismatches", self.mismatches),
            ("write_ns", self.phase_ns[0]),
            ("read_ns", self.phase_ns[1]),
            ("other_ns", self.phase_ns[2]),
            ("write_bytes", self.write_bytes),
            ("read_bytes", self.read_bytes),
            ("digest", self.digest),
            ("mount_calls", self.mount_calls),
            ("mount_busy_ns", self.mount_busy_ns),
            ("passthrough_ns", self.passthrough_ns),
            ("driver_ns", self.driver_ns),
            ("snapshot_bytes", self.snapshot_bytes),
            ("snapshot_read_bytes", self.snapshot_read_bytes),
            ("flushes", self.flushes),
            ("launch_ns", self.launch_ns),
            ("space_total", s.total),
            ("space_data", s.data),
            ("space_index", s.index),
            ("space_droppings", s.droppings),
            ("space_containers", s.containers),
            ("space_logical", s.logical),
        ];
        let mut out = String::new();
        for (k, v) in scalars {
            out.push_str(&format!("{k} {v}\n"));
        }
        out.push_str(&format!("rss_kib {}\n", self.rss_kib));
        for (k, v) in [("meta_ns", &self.meta_ns), ("io_ns", &self.io_ns)] {
            out.push_str(k);
            for x in v {
                out.push_str(&format!(" {x}"));
            }
            out.push('\n');
        }
        out
    }

    /// Parse [`Stats::to_lines`] output; lines with other keys are ignored.
    pub fn from_lines(text: &str) -> Result<Stats, String> {
        let mut st = Stats::default();
        for line in text.lines() {
            let mut it = line.split_ascii_whitespace();
            let Some(key) = it.next() else { continue };
            let vals: Vec<u64> = it
                .map(|v| v.parse::<u64>().map_err(|e| format!("{key}: {e}")))
                .collect::<Result<_, _>>()?;
            let one = || vals.first().copied().ok_or(format!("{key}: no value"));
            let s = &mut st.space;
            match key {
                "attempted" => st.attempted = one()?,
                "failed" => st.failed = one()?,
                "mismatches" => st.mismatches = one()?,
                "write_ns" => st.phase_ns[0] = one()?,
                "read_ns" => st.phase_ns[1] = one()?,
                "other_ns" => st.phase_ns[2] = one()?,
                "write_bytes" => st.write_bytes = one()?,
                "read_bytes" => st.read_bytes = one()?,
                "digest" => st.digest = one()?,
                "mount_calls" => st.mount_calls = one()?,
                "mount_busy_ns" => st.mount_busy_ns = one()?,
                "passthrough_ns" => st.passthrough_ns = one()?,
                "driver_ns" => st.driver_ns = one()?,
                "snapshot_bytes" => st.snapshot_bytes = one()?,
                "snapshot_read_bytes" => st.snapshot_read_bytes = one()?,
                "flushes" => st.flushes = one()?,
                "launch_ns" => st.launch_ns = one()?,
                "space_total" => s.total = one()?,
                "space_data" => s.data = one()?,
                "space_index" => s.index = one()?,
                "space_droppings" => s.droppings = one()?,
                "space_containers" => s.containers = one()?,
                "space_logical" => s.logical = one()?,
                "rss_kib" => st.rss_kib = one()?,
                "meta_ns" => st.meta_ns = vals,
                "io_ns" => st.io_ns = vals,
                _ => {}
            }
        }
        Ok(st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_round_trip() {
        let st = Stats {
            attempted: 9,
            failed: 1,
            meta_ns: vec![3, 4],
            io_ns: vec![],
            phase_ns: [1, 2, 3],
            digest: u64::MAX,
            space: Space {
                total: 10,
                droppings: 2,
                logical: 8,
                ..Space::default()
            },
            rss_kib: 77,
            ..Stats::default()
        };
        assert_eq!(Stats::from_lines(&st.to_lines()).unwrap(), st);
    }
}
