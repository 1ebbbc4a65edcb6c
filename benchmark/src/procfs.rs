//! The process on its host: the one CPU it is pinned to, and accounting
//! read from `/proc/self` (Linux only; every reader returns zeros where the
//! file is missing, and the run says so).

use std::fs;
use std::sync::OnceLock;

static HOST: OnceLock<String> = OnceLock::new();

/// Pins the process to one CPU; call it before any thread is spawned, so
/// that every thread of the program inherits the mask. On this VM a wake-up
/// that crosses vCPUs goes through the hypervisor and costs 3 or 30 to 70 us
/// depending on whether the other vCPU had halted, which is most of the
/// run-to-run noise of an unpinned run (and one CPU runs every workload
/// faster than two). Also records [`host_note`].
pub fn pin_to_one_cpu() {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let pinned = match pin() {
        Some(cpu) => format!("pinned to CPU {cpu}"),
        None => "NOT pinned (the affinity call failed)".to_string(),
    };
    let _ = HOST.set(format!(
        "one process {pinned} of a shared VM with {cpus} CPUs; threaded workloads use exactly 2 \
         closed-loop client threads on a 4-node, replication-2 cluster"
    ));
}

/// What the numbers were measured on; every output carries it.
pub fn host_note() -> &'static str {
    HOST.get().map_or("one process, not pinned", String::as_str)
}

/// Restricts the calling thread to the first CPU the kernel accepts.
#[cfg(target_os = "linux")]
fn pin() -> Option<usize> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    (0..u64::BITS as usize).find(|cpu| {
        let mask: u64 = 1 << cpu;
        // SAFETY: `mask` is a live 8-byte CPU set and the size passed is its
        // size; pid 0 is the calling thread. The call only reads the mask.
        unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
    })
}

#[cfg(not(target_os = "linux"))]
fn pin() -> Option<usize> {
    None
}

/// Resident set size in MiB (`VmRSS` of `/proc/self/status`).
pub fn rss_mib() -> f64 {
    status_field(&read("/proc/self/status"), "VmRSS:") as f64 / 1024.0
}

/// CPU time of the whole process, in microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTime {
    pub user_us: f64,
    pub system_us: f64,
}

impl CpuTime {
    pub fn total_us(&self) -> f64 {
        self.user_us + self.system_us
    }

    pub fn since(&self, earlier: &CpuTime) -> CpuTime {
        CpuTime {
            user_us: self.user_us - earlier.user_us,
            system_us: self.system_us - earlier.system_us,
        }
    }
}

/// `utime` and `stime` of `/proc/self/stat`, which the kernel reports in
/// clock ticks of 10 ms (`USER_HZ` is 100 on every Linux the benchmark
/// runs on).
pub fn cpu_time() -> CpuTime {
    let stat = read("/proc/self/stat");
    // The command name (field 2) may hold spaces; fields are counted after
    // its closing parenthesis.
    let rest = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick_us = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
            * 1e4
    };
    let user_us = tick_us();
    let system_us = tick_us();
    CpuTime { user_us, system_us }
}

/// Voluntary plus involuntary context switches summed over every thread of
/// the process (`/proc/self/task/*/status`). Threads that exited are not
/// counted, so take both snapshots while the same threads are alive.
pub fn context_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .map(|task| {
            let status = fs::read_to_string(task.path().join("status")).unwrap_or_default();
            status_field(&status, "voluntary_ctxt_switches:")
                + status_field(&status, "nonvoluntary_ctxt_switches:")
        })
        .sum()
}

fn read(path: &str) -> String {
    fs::read_to_string(path).unwrap_or_default()
}

/// The first number after `name` at the start of a line of a `status` file.
fn status_field(status: &str, name: &str) -> u64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tx\nVmRSS:\t   20480 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(status, "VmRSS:"), 20480);
        assert_eq!(status_field(status, "voluntary_ctxt_switches:"), 7);
        assert_eq!(status_field(status, "Missing:"), 0);
    }

    #[test]
    fn this_process_has_memory_and_cpu_time() {
        assert!(rss_mib() > 0.5);
        let before = cpu_time();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_time().total_us() >= before.total_us());
    }
}
