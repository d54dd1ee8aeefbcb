//! End-to-end and per-layer benchmark of the blueprint runtime.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <assistant|serving> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from `--seed`, drives `blueprint_core`'s
//! public API, checks every output, and prints one line per metric followed
//! by a JSON result as the last line of standard output. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` repeats the untraced run, then runs
//! one more repetition with spans around the calls into each layer and
//! reports the per-layer metrics. The process exits non-zero when an output
//! check fails. `BENCHMARK.json` at the repository root lists the metrics.
//! `--seconds` is the time the timed repetitions of a run take together.

mod assistant;
mod serving;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use blueprint_core::observability::MetricsSnapshot;
use blueprint_core::streams::StoreStats;
use blueprint_core::{Blueprint, BlueprintSession};
use serde_json::json;

/// End-to-end metrics: every workload reports all of them.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_tps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("age_slowdown_x", "x"),
    ("peak_rss_mb", "MB"),
    ("ledger_cost_per_task", "cost"),
    ("ledger_accuracy", "ratio"),
];

/// Per-layer metrics of the traced run. A workload that does not exercise a
/// layer reports 0 for it.
const PER_LAYER: [(&str, &str); 24] = [
    ("core.build_s", "s"),
    ("core.start_s", "s"),
    ("planner.plan_us", "us"),
    ("planner.data_plan_us", "us"),
    ("planner.lower_us", "us"),
    ("optimizer.optimize_us", "us"),
    ("datastore.execute_us", "us"),
    ("datastore.queries_per_task", "count"),
    ("llmsim.calls_per_task", "count"),
    ("llmsim.tokens_per_task", "count"),
    ("coordinator.execute_us", "us"),
    ("agents.processor_us", "us"),
    ("agents.invocations_per_task", "count"),
    ("streams.publishes_per_task", "count"),
    ("streams.deliveries_per_task", "count"),
    ("streams.bytes_per_task", "bytes"),
    ("streams.live_streams_end", "count"),
    ("streams.live_subscriptions_end", "count"),
    ("session.submit_us", "us"),
    ("session.queue_depth_mean", "count"),
    ("session.backlog_end", "count"),
    ("session.generator_lag_ms", "ms"),
    ("session.max_rate_tps", "1/s"),
    ("observability.overhead_pct", "%"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that errored, were refused, or failed an output check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// A runtime with one session started on it, as the closed loops use it.
pub struct Rig {
    pub session: BlueprintSession,
    pub bp: Blueprint,
}

/// SplitMix64: a small, fully specified generator so that a seed names the
/// same inputs on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Records the peak resident memory once, after the first timed
/// repetition: later repetitions reuse memory the allocator kept, so the
/// peak after them depends on how many ran.
pub fn first_peak_rss(slot: &mut Option<f64>) -> Result<(), String> {
    if slot.is_none() {
        *slot = Some(peak_rss_mb()?);
    }
    Ok(())
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Counters of the streams layer and the metrics registry at one instant;
/// the difference of two readings covers the work between them.
pub struct Counters {
    store: StoreStats,
    metrics: MetricsSnapshot,
}

impl Counters {
    pub fn read(bp: &Blueprint) -> Self {
        Counters {
            store: bp.store().stats(),
            metrics: bp.metrics(),
        }
    }

    /// Records the per-task count metrics for `tasks` tasks run between
    /// `self` and `later`.
    pub fn per_task(&self, later: &Counters, tasks: usize, out: &mut Outcome) {
        let n = tasks.max(1) as f64;
        let counter = |name: &str| {
            later
                .metrics
                .counter(name)
                .saturating_sub(self.metrics.counter(name)) as f64
                / n
        };
        out.set(
            "streams.publishes_per_task",
            (later.store.messages_published - self.store.messages_published) as f64 / n,
        );
        out.set(
            "streams.deliveries_per_task",
            (later.store.deliveries - self.store.deliveries) as f64 / n,
        );
        out.set(
            "streams.bytes_per_task",
            (later.store.bytes_published - self.store.bytes_published) as f64 / n,
        );
        out.set(
            "agents.invocations_per_task",
            counter("blueprint.agents.invocations"),
        );
        out.set("llmsim.calls_per_task", counter("blueprint.llmsim.calls"));
        out.set(
            "llmsim.tokens_per_task",
            counter("blueprint.llmsim.tokens_out"),
        );
        out.set(
            "datastore.queries_per_task",
            counter("blueprint.datastore.queries"),
        );
    }
}

/// Records the streams that are still live and the subscriptions still
/// registered at the end of a run.
pub fn record_live(bp: &Blueprint, out: &mut Outcome) {
    out.set(
        "streams.live_streams_end",
        bp.store().list_streams(None).len() as f64,
    );
    out.set(
        "streams.live_subscriptions_end",
        bp.store().stats().active_subscriptions as f64,
    );
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// Linux's `SCHED_IDLE` policy: the thread runs only when nothing else on
/// its CPU can.
const SCHED_IDLE: i32 = 5;

/// Keeps the CPU busy whenever the program leaves it idle, until dropped.
/// A virtual CPU with nothing to run halts, and a timer or wake-up must then
/// wait for the hypervisor to run it again: on a loaded host that wait, not
/// the program, sets the latency tail of every request that sleeps. The
/// spinner runs under `SCHED_IDLE`, so any thread of the program that wakes
/// takes the CPU from it at once.
pub struct Spinner {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Spinner {
    pub fn start() -> Result<Self, String> {
        let stop = Arc::new(AtomicBool::new(false));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let param = 0i32;
            // SAFETY: `param` is a valid `sched_param` (one int).
            let set = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
            let _ = ready_tx.send(if set == 0 {
                Ok(())
            } else {
                Err(format!(
                    "sched_setscheduler: {}",
                    std::io::Error::last_os_error()
                ))
            });
            if set == 0 {
                while !flag.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            }
        });
        let spinner = Spinner {
            stop,
            thread: Some(thread),
        };
        ready_rx
            .recv()
            .map_err(|e| format!("spinner thread: {e}"))??;
        Ok(spinner)
    }
}

impl Drop for Spinner {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Pins this thread, and every thread it starts afterwards, to the highest
/// CPU it may run on, and returns that CPU. Every request is handed from
/// thread to thread; on a virtual machine a hand-off to another vCPU waits
/// for the hypervisor to wake that vCPU, which takes a time set by the
/// host's load rather than by the program. On one CPU the woken thread runs
/// as soon as the current one blocks. (`serving` reaches the same capacity
/// on one CPU as on two: its agents' think time, not the CPU, bounds it.)
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: the kernel writes at most `size` bytes into `mask`.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid CPU set of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Runs `rep` at least `min` times, and again while another repetition of
/// the mean length so far still fits in `budget_s` seconds from the call.
/// Each repetition does the same fixed work; the figures are medians over
/// them, so a stretch of time in which the host was slow moves only the
/// repetitions inside it.
pub fn timed_reps<T>(
    min: usize,
    budget_s: f64,
    mut rep: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut runs = Vec::new();
    loop {
        runs.push(rep()?);
        let spent = secs(start);
        if runs.len() >= min && spent + spent / runs.len() as f64 > budget_s {
            return Ok(runs);
        }
    }
}

/// Records the latency figures of a run made of repetitions of the same
/// requests, each on a fresh set-up: every figure is the median over the
/// repetitions of that repetition's figure, so one disturbed repetition
/// cannot move it. Each repetition is its latencies in submission (or due)
/// order, in ms.
pub fn record_latencies(reps: &[Vec<f64>], out: &mut Outcome) -> Result<(), String> {
    let mut figures: [Vec<f64>; 3] = Default::default();
    for latencies_ms in reps {
        let sorted = stats::sorted(latencies_ms);
        let beyond = stats::samples_beyond(sorted.len(), 0.99);
        if beyond < 10 {
            return Err(format!(
                "{} latency samples leave {beyond} beyond p99; need 10",
                sorted.len()
            ));
        }
        figures[0].push(stats::percentile(&sorted, 0.5));
        figures[1].push(stats::percentile(&sorted, 0.99));
        figures[2].push(stats::age_slowdown(latencies_ms));
    }
    let names = ["latency_p50_ms", "latency_p99_ms", "age_slowdown_x"];
    for (name, values) in names.into_iter().zip(&figures) {
        record_median(name, values, out);
    }
    out.note(format!(
        "{} repetitions of {} requests",
        reps.len(),
        reps.first().map_or(0, Vec::len)
    ));
    Ok(())
}

/// Records the median of a figure taken once per repetition, and prints
/// every repetition's value.
pub fn record_median(name: &'static str, values: &[f64], out: &mut Outcome) {
    out.note(format!(
        "{name} per repetition: {}",
        values
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.set(name, stats::median(values));
}

/// Median setup times over repeated set-ups, in seconds.
#[derive(Default)]
pub struct SetupTimes {
    build: Vec<f64>,
    start: Vec<f64>,
}

impl SetupTimes {
    pub fn push(&mut self, build_s: f64, start_s: f64) {
        self.build.push(build_s);
        self.start.push(start_s);
    }

    /// Runs `setup` `n` times, timing each, and returns the last runtime.
    pub fn time(
        &mut self,
        n: usize,
        mut setup: impl FnMut() -> Result<(Rig, f64, f64), String>,
    ) -> Result<Rig, String> {
        let mut last = None;
        for _ in 0..n {
            let (rig, build_s, start_s) = setup()?;
            self.push(build_s, start_s);
            last = Some(rig);
        }
        last.ok_or_else(|| "no set-up ran".to_string())
    }

    pub fn record(&self, out: &mut Outcome) {
        let total: Vec<f64> = self
            .build
            .iter()
            .zip(&self.start)
            .map(|(b, s)| b + s)
            .collect();
        out.set("setup_s", stats::median(&total));
        out.set("core.build_s", stats::median(&self.build));
        out.set("core.start_s", stats::median(&self.start));
        out.note(format!("set-ups timed: {}", total.len()));
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1).cloned())
            .ok_or_else(|| format!("missing {flag}"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let args = Args {
        workload: value("--workload")?,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        trace: match number("--trace")? {
            0 => false,
            1 => true,
            n => return Err(format!("--trace takes 0 or 1, not {n}")),
        },
    };
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be within 1..=60".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <assistant|serving> --seed <n> \
                 --seconds <1..60> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let result = pin_to_one_cpu().and_then(|cpu| {
        let _spinner = Spinner::start()?;
        let mut outcome = match args.workload.as_str() {
            "assistant" => assistant::run(&args),
            "serving" => serving::run(&args),
            other => Err(format!("unknown workload {other}")),
        }?;
        outcome.notes.insert(
            0,
            format!("all threads on CPU {cpu}, kept from idling by a SCHED_IDLE spinner"),
        );
        Ok(outcome)
    });
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = serde_json::Map::new();
    for &(name, unit) in wanted {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: {} did not measure {name}", args.workload);
                return ExitCode::from(1);
            }
        };
        if !value.is_finite() {
            eprintln!("perfbench: {name} is not finite: {value}");
            return ExitCode::from(1);
        }
        metrics.insert(name.to_string(), json!({ "value": value, "unit": unit }));
    }

    let correct = outcome.failed == 0;
    println!(
        "workload {} seed {}: sent {} succeeded {} failed {}",
        args.workload,
        args.seed,
        outcome.attempted,
        outcome.attempted - outcome.failed,
        outcome.failed
    );
    for line in &outcome.notes {
        println!("  {line}");
    }
    for &(name, unit) in wanted {
        println!("  {name} = {} {unit}", metrics[name]["value"]);
    }
    let result = json!({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    });
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_reps_runs_the_minimum_then_stops_within_the_budget() {
        // No budget: exactly the minimum.
        let mut n = 0;
        let reps = timed_reps(3, 0.0, || {
            n += 1;
            Ok(n)
        })
        .unwrap();
        assert_eq!(reps, [1, 2, 3]);
        // 10 ms repetitions in a 55 ms budget: a sixth would end past it.
        let reps = timed_reps(1, 0.055, || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            Ok(())
        })
        .unwrap();
        assert!((4..=5).contains(&reps.len()), "{} repetitions", reps.len());
        // An error ends the run.
        assert!(timed_reps(2, 1.0, || Err::<(), _>("boom".to_string())).is_err());
    }
}
