//! Pieces every workload shares: metrics, spans, statistics, scratch
//! directories and the host facts recorded with each result.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One reported number with its unit and the clock it was read from.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// `wall`, `virtual` (SimNet milliseconds), `count` (an exact tally) or
    /// `memory`.
    pub clock: &'static str,
}

/// What one workload run produced, before printing.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness violations; empty means every check passed.
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Sample counts behind percentiles and medians, by metric name.
    pub samples: BTreeMap<String, u64>,
    /// Exact counts and virtual-time figures that must repeat at a fixed seed.
    pub fingerprint: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, clock: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            clock,
        });
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn pin(&mut self, key: &str, value: impl std::fmt::Display) {
        self.fingerprint.push((key.to_string(), value.to_string()));
    }
}

/// Wall-clock spans around the benchmark's calls into each layer. Disabled
/// spans cost one branch, so untraced runs pay nothing measurable.
#[derive(Debug, Default)]
pub struct Spans {
    enabled: bool,
    totals: BTreeMap<&'static str, (Duration, u64)>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            totals: BTreeMap::new(),
        }
    }

    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        host_probe_tick();
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let entry = self.totals.entry(name).or_default();
        entry.0 += start.elapsed();
        entry.1 += 1;
        out
    }

    /// Total microseconds and call count of one span name.
    pub fn total_us(&self, name: &str) -> (f64, u64) {
        self.totals
            .get(name)
            .map(|(d, n)| (d.as_secs_f64() * 1e6, *n))
            .unwrap_or((0.0, 0))
    }
}

/// Nearest-rank percentile of a sorted sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Microseconds per item of a timed closure.
pub fn per_item_us(items: usize, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1e6 / items.max(1) as f64
}

/// A scratch directory under the working directory, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> std::io::Result<Self> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = PathBuf::from(".bench_tmp").join(format!("{label}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves `.bench_tmp` itself in place only if another run still uses it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// Peak resident set of this process in MB (`VmHWM`), 0 where unavailable.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// JSON string literal with the escapes this output can need.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Wall time of a fixed slice of the benchmark's own work (random
/// read-modify-writes over a 512 KiB table), sampled about four times a
/// second from the driver loop while a run does its work: how fast the host
/// was during the run, measured with code no change to the program can move.
struct HostProbe {
    table: Vec<u64>,
    last: Instant,
    slices: Vec<f64>,
}

static PROBE: std::sync::Mutex<Option<HostProbe>> = std::sync::Mutex::new(None);

fn host_probe_tick() {
    const WORDS: usize = 1 << 16;
    const STEPS: u64 = 40_000;
    const EVERY: Duration = Duration::from_millis(250);
    let mut guard = PROBE
        .lock()
        .expect("the probe is only used from one thread");
    let probe = guard.get_or_insert_with(|| HostProbe {
        table: (0..WORDS as u64).collect(),
        last: Instant::now(),
        slices: Vec::new(),
    });
    if probe.last.elapsed() < EVERY {
        return;
    }
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15 ^ probe.slices.len() as u64;
    for i in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & (WORDS - 1);
        probe.table[j] = probe.table[j].rotate_left(5) ^ x.wrapping_mul(i | 1);
    }
    std::hint::black_box(&probe.table);
    probe.slices.push(start.elapsed().as_secs_f64());
    probe.last = Instant::now();
}

/// Median probe slice in seconds and the number of slices taken so far.
pub fn host_probe() -> (f64, usize) {
    let guard = PROBE
        .lock()
        .expect("the probe is only used from one thread");
    guard
        .as_ref()
        .map(|p| (median(p.slices.clone()), p.slices.len()))
        .unwrap_or((0.0, 0))
}
