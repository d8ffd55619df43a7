//! Measurement plumbing shared by the workloads: run budgets, the host
//! reference, the windowed op loop, percentiles, the in-memory span
//! tracer, the metric ledger, the simulated-statistics tally and host
//! probes.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use nightvision::campaign::Campaign;
use nightvision::checkpoint::fnv1a64;
use nv_obs::{Metrics, Phase};
use nv_uarch::{BtbStats, CoreStats};

/// Load threads and connections: never more than the 2 host CPUs.
pub const THREADS: usize = 2;

/// Event-ring capacity of the recorders the statistics pass attaches.
pub const OBS_CAPACITY: usize = 1 << 16;

/// How long a measured loop runs: until `seconds` of windows have passed
/// *and* at least `min_ops` operations were started.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub seconds: f64,
    pub min_ops: usize,
}

impl Budget {
    /// A fixed operation count, for the small reference probes.
    pub fn ops(min_ops: usize) -> Budget {
        Budget {
            seconds: 0.0,
            min_ops,
        }
    }
}

/// Width of the windows a measured loop is split into. Host-time figures
/// are medians over windows, so a transient stall on a shared host moves
/// one window, not the result.
pub const WINDOW_S: f64 = 2.5;

/// Per-thread allocations of one host-reference burst.
const REFERENCE_ALLOCS: u64 = 300_000;

/// Bursts per host reading; the reading is the fastest, since a stall
/// of the shared host only ever slows a burst.
const REFERENCE_BURSTS: usize = 3;

/// What one host-reference burst takes on an uncontended host: the speed
/// every host-time figure is scaled to.
pub const REFERENCE_NOMINAL_S: f64 = 0.021;

/// The host-speed yardstick: a fixed allocation-heavy loop (small vectors
/// of random length, 256 live at a time, freed in random order).
fn reference_kernel(seed: u64) -> usize {
    let mut x = seed;
    let mut live: Vec<Vec<u64>> = Vec::with_capacity(257);
    for i in 0..REFERENCE_ALLOCS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        live.push(std::hint::black_box(vec![i; (x % 40) as usize + 1]));
        if live.len() > 256 {
            live.swap_remove(((x >> 8) % 256) as usize);
        }
    }
    live.len()
}

/// The [`THREADS`] threads that run the reference kernel. They live for
/// the whole run, so timing the host creates no threads, and with them no
/// heap arenas, while the workload's memory is being measured.
struct Yardstick {
    start: Vec<mpsc::Sender<()>>,
    finished: mpsc::Receiver<()>,
    threads: Vec<JoinHandle<()>>,
}

static YARDSTICK: Mutex<Option<Yardstick>> = Mutex::new(None);

impl Yardstick {
    fn spawn() -> Yardstick {
        let (done, finished) = mpsc::channel();
        let (start, threads) = (0..THREADS)
            .map(|t| {
                let (go, start) = mpsc::channel::<()>();
                let done = done.clone();
                let thread = std::thread::spawn(move || {
                    crate::uncounted_thread();
                    while start.recv().is_ok() {
                        std::hint::black_box(reference_kernel(0x9e37_79b9 + t as u64));
                        if done.send(()).is_err() {
                            return;
                        }
                    }
                });
                (go, thread)
            })
            .unzip();
        Yardstick {
            start,
            finished,
            threads,
        }
    }

    /// Seconds of one burst on every thread at once.
    fn burst(&self) -> f64 {
        let start = Instant::now();
        for go in &self.start {
            go.send(()).expect("reference thread alive");
        }
        for _ in &self.start {
            self.finished.recv().expect("reference thread alive");
        }
        start.elapsed().as_secs_f64()
    }
}

/// Seconds the reference kernel takes on [`THREADS`] threads at once:
/// the fastest of [`REFERENCE_BURSTS`] bursts.
///
/// The host is shared: neighbours on the same cores slow this program by
/// up to 1.6× for tens of seconds at a time, while a plain ALU loop
/// barely moves. Of the kernels tried, this allocation loop tracks the
/// slowdown best, so a window's host-time figures are scaled by its
/// burst time over [`REFERENCE_NOMINAL_S`]. The kernel is frozen: no
/// change to the program under test alters it.
pub fn reference_s() -> f64 {
    let mut yardstick = YARDSTICK.lock().expect("yardstick lock poisoned");
    let yardstick = yardstick.get_or_insert_with(Yardstick::spawn);
    (0..REFERENCE_BURSTS)
        .map(|_| yardstick.burst())
        .fold(f64::INFINITY, f64::min)
}

/// Stops and joins the reference threads.
pub fn stop_reference() {
    let yardstick = YARDSTICK.lock().expect("yardstick lock poisoned").take();
    if let Some(Yardstick { start, threads, .. }) = yardstick {
        drop(start);
        for thread in threads {
            thread.join().expect("reference thread panicked");
        }
    }
}

/// Host slowdown over the nominal speed, from the [`reference_s`]
/// readings taken just before and just after a measured interval.
pub fn host_factor(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / 2.0 / REFERENCE_NOMINAL_S
}

/// Measures in windows of [`WINDOW_S`] until `budget` is spent, with a
/// [`reference_s`] reading before the first window and after each one.
/// `window(first_op, stop)` runs ops numbered from `first_op` until
/// `stop(op)` holds and returns their results; each goes to `sink` once
/// its window is recorded in `outcome`.
pub fn windowed<T>(
    outcome: &mut Outcome,
    budget: Budget,
    mut window: impl FnMut(usize, &(dyn Fn(usize) -> bool + Sync)) -> Vec<T>,
    mut sink: impl FnMut(&mut Outcome, T),
) {
    let by_time = budget.seconds > 0.0;
    let mut ops = 0;
    let mut measured_s = 0.0;
    let mut before = reference_s();
    while ops < budget.min_ops || measured_s < budget.seconds {
        let start = Instant::now();
        let stop = |op: usize| {
            if by_time {
                start.elapsed().as_secs_f64() >= WINDOW_S
            } else {
                op >= budget.min_ops
            }
        };
        let results = window(ops, &stop);
        let wall_s = start.elapsed().as_secs_f64();
        let after = reference_s();
        outcome.windows.push(Window {
            wall_s,
            host: host_factor(before, after),
            units: 0.0,
            latencies: Vec::new(),
        });
        before = after;
        measured_s += wall_s;
        ops += results.len();
        for result in results {
            sink(outcome, result);
        }
    }
}

/// One window of the ops of a pool of `pool_len` inputs, fanned out
/// through [`Campaign`] at [`THREADS`] threads: `op(pool_index, op_id)`
/// for ids from `first` until `stop(id)`. Trials claimed after the stop
/// return at once.
pub fn campaign_window<T: Send>(
    pool_len: usize,
    first: usize,
    stop: &(dyn Fn(usize) -> bool + Sync),
    op: impl Fn(usize, u64) -> T + Sync,
) -> Vec<T> {
    let mut results = Vec::new();
    loop {
        let base = first + results.len();
        let pass = Campaign::new(pool_len).threads(THREADS).run(|trial| {
            let id = base + trial.index;
            (!stop(id)).then(|| op(id % pool_len, id as u64))
        });
        let before = results.len();
        results.extend(pass.into_iter().flatten());
        if results.len() - before < pool_len {
            return results;
        }
    }
}

/// One measured window: its wall time, the host factor its figures are
/// scaled by, and the useful work and op latencies (ms) it held.
#[derive(Debug)]
struct Window {
    wall_s: f64,
    host: f64,
    units: f64,
    latencies: Vec<f64>,
}

/// What one measured loop produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Simulated trials run (a served job holds many).
    pub trials: u64,
    /// Outputs equal to ground truth, of `checked` outputs.
    pub right: u64,
    pub checked: u64,
    /// Host peak resident memory once the budget's minimum op count was
    /// reached: a fixed amount of work, so it does not grow with speed.
    pub peak_rss_mb: f64,
    windows: Vec<Window>,
}

/// Host-time figures of an [`Outcome`], scaled to the nominal host speed.
pub struct Summary {
    pub ops_per_s: f64,
    /// Scaled throughput of each window, in order.
    pub window_rates: Vec<f64>,
    /// Host factor of each window, in order.
    pub window_hosts: Vec<f64>,
    pub p50_ms: f64,
    pub tail_ms: f64,
    pub windows: usize,
    pub wall_s: f64,
}

impl Outcome {
    /// Records an op of the latest window that took `ms` and did `units`
    /// of useful work.
    pub fn record(&mut self, ms: f64, units: f64) {
        let window = self.windows.last_mut().expect("ops belong to a window");
        window.units += units;
        window.latencies.push(ms);
    }

    /// Counts one op; takes the memory reading when `attempted` reaches
    /// `min_ops`.
    pub fn attempt(&mut self, ok: bool, min_ops: usize) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
        if self.attempted == min_ops {
            self.peak_rss_mb = peak_rss_mb();
        }
    }

    pub fn accuracy(&self) -> f64 {
        ratio(self.right as f64, self.checked as f64)
    }

    /// Medians over the windows of throughput, median latency and
    /// `tail_pct` latency, each window scaled by its host factor.
    pub fn summary(&self, tail_pct: f64) -> Summary {
        let windows: Vec<&Window> = self.windows.iter().filter(|w| w.units > 0.0).collect();
        let median = |xs: Vec<f64>| percentile(&xs, 50.0);
        let window_rates: Vec<f64> = windows
            .iter()
            .map(|w| w.units / w.wall_s * w.host)
            .collect();
        let latency = |p: f64| {
            median(
                windows
                    .iter()
                    .map(|w| percentile(&w.latencies, p) / w.host)
                    .collect(),
            )
        };
        Summary {
            ops_per_s: median(window_rates.clone()),
            window_rates,
            window_hosts: windows.iter().map(|w| w.host).collect(),
            p50_ms: latency(50.0),
            tail_ms: latency(tail_pct),
            windows: windows.len(),
            wall_s: self.windows.iter().map(|w| w.wall_s).sum(),
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `part / whole`, or 0 when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Mean nanoseconds of `call`, run on inputs made by `prep` (untimed),
/// until at least `min_calls` calls and `min_ms` milliseconds of timed
/// work have accumulated.
pub fn mean_ns<S, T>(
    min_calls: usize,
    min_ms: f64,
    mut prep: impl FnMut(usize) -> S,
    mut call: impl FnMut(S) -> T,
) -> f64 {
    let mut timed = 0.0;
    let mut calls = 0;
    while calls < min_calls || timed < min_ms * 1e6 {
        let input = prep(calls);
        let start = Instant::now();
        std::hint::black_box(call(std::hint::black_box(input)));
        timed += start.elapsed().as_nanos() as f64;
        calls += 1;
    }
    timed / calls as f64
}

/// One metric as printed: name, value, unit.
#[derive(Debug)]
pub struct Entry {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run plus human-readable notes (sample counts,
/// which percentile a tail is, the simulated-statistics digest).
#[derive(Debug, Default)]
pub struct Ledger {
    pub entries: Vec<Entry>,
    pub notes: Vec<String>,
}

impl Ledger {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.entries.push(Entry {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }
}

/// One closed span of the benchmark's own tracing.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    parent: Option<&'static str>,
    op: u64,
    thread: u64,
    start_ns: u64,
    end_ns: u64,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Spans kept for the written trace; later spans still count in the
/// per-name totals.
const SPAN_CAP: usize = 20_000;

#[derive(Default)]
struct SpanLog {
    kept: Vec<Span>,
    /// Per span name: count and total nanoseconds.
    totals: BTreeMap<&'static str, (u64, u64)>,
}

/// Spans around the benchmark's calls into each layer, kept in memory and
/// written out as a Chrome trace when the run ends. A disabled tracer
/// only runs the closure.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    log: Mutex<SpanLog>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            log: Mutex::new(SpanLog::default()),
        }
    }

    /// Runs `f` inside a span `name` belonging to operation `op`; the
    /// innermost open span on this thread is its parent.
    pub fn span<T>(&self, op: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(name);
            parent
        });
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        OPEN.with(|open| open.borrow_mut().pop());
        self.push(Span {
            name,
            parent,
            op,
            thread: THREAD.with(|t| *t),
            start_ns,
            end_ns,
        });
        out
    }

    fn push(&self, span: Span) {
        let mut log = self.log.lock().expect("span log poisoned");
        let total = log.totals.entry(span.name).or_default();
        total.0 += 1;
        total.1 += span.end_ns - span.start_ns;
        if log.kept.len() < SPAN_CAP {
            log.kept.push(span);
        }
    }

    /// Records a span that is not one call, such as a wait between two
    /// messages, under the innermost open span on this thread.
    pub fn record(&self, op: u64, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.push(Span {
            name,
            parent: OPEN.with(|open| open.borrow().last().copied()),
            op,
            thread: THREAD.with(|t| *t),
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.duration_since(self.epoch).as_nanos() as u64,
        });
    }

    /// Mean duration in milliseconds of the spans named `name`.
    pub fn mean_ms(&self, name: &str) -> f64 {
        let log = self.log.lock().expect("span log poisoned");
        let (count, total_ns) = log.totals.get(name).copied().unwrap_or_default();
        ratio(total_ns as f64, count as f64) / 1e6
    }

    /// Writes the kept spans as a Chrome trace-event document.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let log = self.log.lock().expect("span log poisoned");
        let spans = &log.kept;
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"op\": {}, \"parent\": \"{}\"}}}}{sep}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
                s.parent.unwrap_or(""),
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

/// Simulated statistics of a fixed set of operations: the counters the
/// simulator exposes plus each operation's output digest. Equal tallies
/// mean the attack observed exactly the same thing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimTally {
    pub ops: u64,
    pub core: CoreStats,
    pub btb: BtbStats,
    pub metrics: Metrics,
    /// Workload-specific work counts (steps, resolved PCs, slices, ...).
    pub counts: BTreeMap<&'static str, u64>,
    /// Per-operation output digests, in operation order.
    pub outputs: Vec<u64>,
}

impl SimTally {
    pub fn add_core(&mut self, s: &CoreStats) {
        let c = &mut self.core;
        c.steps += s.steps;
        c.retired += s.retired;
        c.squashes += s.squashes;
        c.false_hit_deallocs += s.false_hit_deallocs;
        c.correct_predictions += s.correct_predictions;
        c.fused_pairs += s.fused_pairs;
        c.speculated += s.speculated;
    }

    pub fn add_btb(&mut self, s: &BtbStats) {
        let b = &mut self.btb;
        b.hits += s.hits;
        b.misses += s.misses;
        b.allocations += s.allocations;
        b.deallocations += s.deallocations;
        b.evictions += s.evictions;
        b.external_evictions += s.external_evictions;
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    pub fn get(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn phase_count(&self, phase: Phase) -> u64 {
        self.metrics.phase(phase).map_or(0, |s| s.count)
    }

    pub fn merge(&mut self, other: &SimTally) {
        self.ops += other.ops;
        self.add_core(&other.core);
        self.add_btb(&other.btb);
        self.metrics.merge(&other.metrics);
        for (name, n) in &other.counts {
            self.count(name, *n);
        }
        self.outputs.extend_from_slice(&other.outputs);
    }

    /// FNV-1a-64 over a canonical rendering of every field.
    pub fn digest(&self) -> u64 {
        let mut text = format!(
            "{} {:?} {:?} {}",
            self.ops,
            self.core,
            self.btb,
            self.metrics.to_json()
        );
        for (name, n) in &self.counts {
            let _ = write!(text, " {name}={n}");
        }
        for output in &self.outputs {
            let _ = write!(text, " {output:x}");
        }
        fnv1a64(text.as_bytes())
    }

    /// Per-operation µarch and nv-obs counters.
    pub fn put_counters(&self, ledger: &mut Ledger) {
        let per_op = |n: u64| ratio(n as f64, self.ops as f64);
        let c = &self.core;
        let b = &self.btb;
        ledger.put("uarch.core.steps", per_op(c.steps), "count");
        ledger.put("uarch.core.retired", per_op(c.retired), "count");
        ledger.put("uarch.core.squashes", per_op(c.squashes), "count");
        ledger.put("uarch.core.speculated", per_op(c.speculated), "count");
        ledger.put("uarch.core.fused_pairs", per_op(c.fused_pairs), "count");
        ledger.put("uarch.btb.lookups", per_op(b.hits + b.misses), "count");
        ledger.put(
            "uarch.btb.hit_ratio",
            ratio(b.hits as f64, (b.hits + b.misses) as f64),
            "ratio",
        );
        ledger.put("uarch.btb.allocations", per_op(b.allocations), "count");
        ledger.put("uarch.btb.deallocations", per_op(b.deallocations), "count");
        ledger.put("uarch.btb.evictions", per_op(b.evictions), "count");
        ledger.put(
            "rig.calibrations",
            per_op(self.phase_count(Phase::Calibrate)),
            "count",
        );
        ledger.put(
            "rig.probes",
            per_op(self.phase_count(Phase::Probe)),
            "count",
        );
        let events: u64 = self.metrics.event_counts.iter().sum();
        ledger.put("obs.events", per_op(events), "count");
        ledger.put(
            "obs.dropped_events",
            per_op(self.metrics.dropped_events),
            "count",
        );
    }
}

/// Runs `pass(threads)` at 1 and at [`THREADS`] campaign threads and
/// panics unless the tallies are identical.
pub fn thread_oblivious(pass: impl Fn(usize) -> SimTally) -> SimTally {
    let one = pass(1);
    let two = pass(THREADS);
    assert!(
        one == two,
        "simulated statistics differ between 1 and {THREADS} campaign threads"
    );
    two
}

/// Host peak resident set (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A private directory for spools, checkpoints and journals, inside the
/// working directory; removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(label: &str) -> std::io::Result<Scratch> {
        let dir = Path::new(".nvbench").join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
