//! What the benchmark reads from the machine and the process: memory
//! high-water mark, CPU time, a fixed spin that gauges machine noise, the
//! host description, and scratch directories that are always removed.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Peak resident set (`VmHWM`) of this process in MB; 0 where `/proc` is
/// not available.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU time of the whole process in ms, from
/// `/proc/self/stat`. Unlike `/proc/self/schedstat` it keeps the time of
/// threads that already exited, which is where `parallel.rs` does its
/// work (scoped threads per pass); the price is the 10 ms clock tick.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, i.e. index 11 and 12 after ")".
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    // USER_HZ is 100 on every Linux ABI.
    (ticks(11) + ticks(12)) * 10.0
}

/// A fixed pure-CPU spin (xorshift over registers, no memory traffic),
/// timed in ms. Run before and after each repetition: it moves only when
/// the machine does, so it tells a noisy repetition from a slow program.
pub fn calib_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    for _ in 0..20_000_000_u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// Cores the scheduler gives this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(|| "unknown".to_owned(), |(_, m)| m.trim().to_owned())
}

/// Short hash of the checked-out commit, or "unknown" outside a git
/// checkout (the benchmark driver runs from an exported tree).
pub fn commit_hash() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Root of the benchmark's scratch space: the build directory the running
/// executable sits in (`target/`, one above `release/`), which is inside
/// the checkout — the benchmark may write nowhere else.
pub fn scratch_root() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent()?.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// A directory removed when the guard drops, on success and on unwind.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `<root>/e2e-tmp/<pid>-<label>`, empty.
    pub fn create(root: &Path, label: &str) -> std::io::Result<Self> {
        let path = root
            .join("e2e-tmp")
            .join(format!("{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Removes whatever a killed child with this pid left under `e2e-tmp`.
pub fn sweep_child_scratch(root: &Path, pid: u32) {
    let dir = root.join("e2e-tmp");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return;
    };
    let prefix = format!("{pid}-");
    for e in entries.flatten() {
        if e.file_name().to_string_lossy().starts_with(&prefix) {
            let _ = std::fs::remove_dir_all(e.path());
        }
    }
    let _ = std::fs::remove_dir(&dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dir_is_removed_on_drop_and_on_unwind() {
        let root = scratch_root();
        let kept = {
            let d = ScratchDir::create(&root, "probe-test").expect("create");
            std::fs::write(d.path().join("wal.log"), b"x").expect("write");
            d.path().to_path_buf()
        };
        assert!(!kept.exists());
        let unwound = std::panic::catch_unwind(|| {
            let d = ScratchDir::create(&scratch_root(), "probe-unwind").expect("create");
            let p = d.path().to_path_buf();
            std::panic::resume_unwind(Box::new(p));
        });
        let p = *unwound
            .expect_err("the closure unwinds")
            .downcast::<PathBuf>()
            .expect("carries the path");
        assert!(!p.exists());
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.5);
        assert!(cpu_ms() >= 0.0);
        assert!(nproc() >= 1);
    }
}
