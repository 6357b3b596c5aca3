//! Query latency without hypervisor steal.
//!
//! On a virtual machine the hypervisor takes a vCPU away now and then
//! for tens of milliseconds to run other guests. The guest kernel keeps
//! that "steal" out of a thread's run time, so a thread's wall time is
//! its run time, plus its wait on the run queue, plus its voluntary
//! sleep, plus steal. Steal hits a few percent of queries at random and
//! sets the tail of a wall-clock latency distribution, whatever the
//! program does.
//!
//! [`time`] therefore reports a query's latency as the thread's run time
//! plus its run-queue wait, both from `/proc/thread-self/schedstat`. That
//! is the wall time minus steal, as long as the thread did not sleep: a
//! query that blocked (a voluntary context switch, from
//! `/proc/thread-self/status`) or a kernel without those files gets its
//! wall time instead, so waiting the program does is never dropped.
//! Offline throughput takes each query's steal out of its pass the same
//! way (`analysis::run_loop`).

use std::fs;
use std::time::Instant;

/// One query's timing, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub wall: f64,
    /// `wall` minus steal; equal to `wall` when they could not be told
    /// apart.
    pub latency: f64,
    /// Whether steal could be told apart from the rest.
    pub separated: bool,
}

impl Timing {
    /// Seconds lost to steal.
    pub fn stolen(&self) -> f64 {
        self.wall - self.latency
    }

    /// Two queries run one after the other.
    pub fn then(self, next: Timing) -> Timing {
        Timing {
            wall: self.wall + next.wall,
            latency: self.latency + next.latency,
            separated: self.separated && next.separated,
        }
    }
}

/// The calling thread's scheduler counters.
#[derive(Debug, Clone, Copy)]
struct Sched {
    /// Nanoseconds on a CPU plus nanoseconds runnable on the run queue.
    held_ns: u64,
    voluntary: u64,
}

impl Sched {
    fn now() -> Option<Sched> {
        let status = fs::read_to_string("/proc/thread-self/status").ok()?;
        let schedstat = fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        Some(Sched {
            held_ns: parse_schedstat(&schedstat)?,
            voluntary: parse_voluntary(&status)?,
        })
    }
}

/// Run plus run-queue nanoseconds from a `schedstat` line.
fn parse_schedstat(text: &str) -> Option<u64> {
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some(fields.next()?? + fields.next()??)
}

/// The `voluntary_ctxt_switches` count from a `status` file.
fn parse_voluntary(text: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))?
        .trim()
        .parse()
        .ok()
}

/// Runs `f` on the calling thread and times it.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Timing) {
    let before = Sched::now();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    let after = Sched::now();
    let held = match (before, after) {
        (Some(b), Some(a)) if a.voluntary == b.voluntary => {
            Some(a.held_ns.saturating_sub(b.held_ns) as f64 * 1e-9)
        }
        _ => None,
    };
    let timing = Timing {
        wall,
        latency: held.map_or(wall, |held| held.min(wall)),
        separated: held.is_some(),
    };
    (out, timing)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_proc_files() {
        assert_eq!(parse_schedstat("972950 12 1\n"), Some(972_962));
        assert_eq!(parse_schedstat("972950\n"), None);
        let status =
            "Name:\tfanbench\nvoluntary_ctxt_switches:\t7\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_voluntary(status), Some(7));
        assert_eq!(parse_voluntary("Name:\tfanbench\n"), None);
    }

    #[test]
    fn latency_never_exceeds_wall() {
        let (sum, t) = time(|| (0..200_000u64).map(|i| i ^ (i >> 3)).sum::<u64>());
        assert!(sum > 0);
        assert!(t.latency <= t.wall && t.latency >= 0.0);
        if !t.separated {
            assert_eq!(t.latency, t.wall);
        }
    }

    #[test]
    fn sleeping_keeps_wall_time() {
        let (_, t) = time(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        assert_eq!(t.latency, t.wall);
        assert!(!t.separated);
    }
}
