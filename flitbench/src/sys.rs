//! Process-level readings from `/proc/self`: peak resident memory and
//! bytes this process sent to storage.

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hand the memory the allocator holds free back to the system, so the
/// next pass starts from the memory that is live, not from what earlier
/// passes happened to leave cached in the allocator's arenas. A no-op
/// where the allocator is not glibc's.
pub fn release_free_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim only releases free memory back to the system;
    // it takes no pointers and is safe to call from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// Reset the peak-resident-set mark to the current resident set, so the
/// next [`peak_rss_mb`] reading covers only what runs after this call.
/// Where the kernel does not support it the mark keeps the process-wide
/// peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Bytes this process has caused to be sent to storage so far
/// (`write_bytes` in `/proc/self/io`); `0` where unavailable. Pipe and
/// socket traffic is not included, so on these workloads the only
/// contributors are journal and state files.
pub fn storage_bytes_written() -> u64 {
    std::fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|io| {
            io.lines()
                .find_map(|l| l.strip_prefix("write_bytes:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_positive_on_linux_and_resets() {
        if std::path::Path::new("/proc/self/status").exists() {
            let big = vec![1u8; 64 << 20];
            let before = peak_rss_mb().unwrap();
            assert!(before >= 64.0, "{before}");
            drop(std::hint::black_box(big));
            release_free_memory();
            reset_peak_rss();
            let after = peak_rss_mb().unwrap();
            assert!(after > 0.0 && after <= before, "{after} vs {before}");
        }
    }
}
