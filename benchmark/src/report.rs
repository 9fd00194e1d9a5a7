//! What one run of one workload produced: operation and failure counts,
//! correctness checks, metrics by name, the environment, and the result
//! files `benchmark compare` reads back.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use yasksite_telemetry::json::{write_escaped, write_f64, Json};

use crate::spec::Metric;

/// How long a workload's measured loop runs.
#[derive(Clone, Copy)]
pub enum Budget {
    /// Repeat rounds until this many seconds have passed (at least the
    /// workload's minimum number of rounds).
    Seconds(f64),
    /// The workload's typical number of rounds (what ten seconds give on
    /// the reference host): the traced and the untraced pass of a
    /// `--trace 1` run do the same work, so their walls compare.
    Typical,
}

impl Budget {
    /// An equal share of the time budget for each of `parts` phases.
    pub fn split(&self, parts: usize) -> Budget {
        match self {
            Budget::Seconds(s) => Budget::Seconds(s / parts as f64),
            Budget::Typical => Budget::Typical,
        }
    }

    /// Whether to start round `done`: `min` rounds always run, `typical`
    /// is the fixed count of [`Budget::Typical`].
    pub fn keep_going(&self, start: Instant, done: usize, min: usize, typical: usize) -> bool {
        match self {
            Budget::Seconds(s) => done < min || start.elapsed().as_secs_f64() < *s,
            Budget::Typical => done < typical,
        }
    }
}

pub struct Recorded {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Timed samples behind the value (0 for counts and derived ratios).
    pub samples: usize,
}

pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<Recorded>,
    /// Free-form facts about the run (sizes, picks, hashes).
    pub notes: Vec<(String, String)>,
    /// Every reading of the core clock taken during the run.
    pub clock_scales: Vec<f64>,
}

impl Outcome {
    /// Counts one operation of the program under test.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a correctness check; a failed check is a failed operation.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.op(ok);
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        });
    }

    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Recorded {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Counts of a discarded pass still count.
    pub fn absorb_counts(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.checks
            .extend(other.checks.iter().filter(|c| !c.ok).map(|c| Check {
                name: c.name.clone(),
                ok: false,
                detail: c.detail.clone(),
            }));
    }

    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter holding every metric of `wanted` (0 for
    /// one this workload does not produce).
    pub fn driver_line(&self, wanted: &[Metric]) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in wanted.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write_escaped(&mut s, m.name);
            s.push_str(": {\"value\": ");
            write_f64(&mut s, self.get(m.name).unwrap_or(0.0));
            let _ = write!(s, ", \"unit\": \"{}\"}}", m.unit);
        }
        s.push_str("}}");
        s
    }

    pub fn print_human(&self, workload: &str) {
        println!("-- {workload}: metrics");
        for m in &self.metrics {
            let n = if m.samples > 0 {
                format!("  (n={})", m.samples)
            } else {
                String::new()
            };
            println!("  {:<44} {:>16.6} {}{}", m.name, m.value, m.unit, n);
        }
        println!("-- {workload}: checks");
        for c in &self.checks {
            println!(
                "  {} {:<40} {}",
                if c.ok { "ok  " } else { "FAIL" },
                c.name,
                c.detail
            );
        }
        for (k, v) in &self.notes {
            println!("  note {k}: {v}");
        }
        println!(
            "  {:<44} {:>16.6} ratio  ({} failed of {} attempted)",
            "failed_share",
            self.failed_share(),
            self.failed,
            self.attempted
        );
    }
}

/// The machine and run settings a result was taken on.
pub struct Env {
    pub nproc: usize,
    pub l2_bytes: u64,
    pub l3_bytes: u64,
    pub git_rev: String,
}

fn sysfs_cache_bytes(level: u32) -> u64 {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).unwrap_or_default();
        if read("level").trim() != level.to_string() || read("type").trim() == "Instruction" {
            continue;
        }
        let size = read("size");
        let size = size.trim();
        let (digits, mult) = match size.strip_suffix('K') {
            Some(d) => (d, 1024),
            None => match size.strip_suffix('M') {
                Some(d) => (d, 1024 * 1024),
                None => (size, 1),
            },
        };
        return digits.parse::<u64>().unwrap_or(0) * mult;
    }
    0
}

/// `HEAD` of the enclosing git checkout, read from `.git` without
/// starting a process; `unknown` outside a repository.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_string()
    } else {
        rev.chars().take(12).collect()
    }
}

impl Env {
    pub fn detect() -> Env {
        Env {
            nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
            l2_bytes: sysfs_cache_bytes(2),
            l3_bytes: sysfs_cache_bytes(3),
            git_rev: git_rev(),
        }
    }
}

/// Appends one JSON line for this run to `results-<workload>.jsonl`.
pub fn append_result(
    dir: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    env: &Env,
    out: &Outcome,
) -> std::io::Result<()> {
    let mut s = String::from("{\"schema\": \"yasksite.benchmark.v1\", \"workload\": ");
    write_escaped(&mut s, workload);
    let _ = write!(
        s,
        ", \"seed\": {seed}, \"seconds\": {seconds}, \"traced\": {traced}, \"env\": {{\"nproc\": {}, \"l2_bytes\": {}, \"l3_bytes\": {}, \"git_rev\": ",
        env.nproc, env.l2_bytes, env.l3_bytes
    );
    write_escaped(&mut s, &env.git_rev);
    let _ = write!(
        s,
        "}}, \"attempted\": {}, \"failed\": {}, \"failed_share\": ",
        out.attempted, out.failed
    );
    write_f64(&mut s, out.failed_share());
    s.push_str(", \"notes\": {");
    for (i, (k, v)) in out.notes.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        write_escaped(&mut s, k);
        s.push_str(": ");
        write_escaped(&mut s, v);
    }
    s.push_str("}, \"checks\": [");
    for (i, c) in out.checks.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str("{\"name\": ");
        write_escaped(&mut s, &c.name);
        let _ = write!(s, ", \"ok\": {}, \"detail\": ", c.ok);
        write_escaped(&mut s, &c.detail);
        s.push('}');
    }
    s.push_str("], \"metrics\": {");
    for (i, m) in out.metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        write_escaped(&mut s, &m.name);
        s.push_str(": {\"value\": ");
        write_f64(&mut s, m.value);
        let _ = write!(
            s,
            ", \"unit\": \"{}\", \"samples\": {}}}",
            m.unit, m.samples
        );
    }
    s.push_str("}}\n");
    let path = dir.join(format!("results-{workload}.jsonl"));
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(s.as_bytes())
}

/// All runs of one workload in a result set, as parsed JSON lines.
pub fn read_results(dir: &Path, workload: &str) -> Vec<Json> {
    let path = dir.join(format!("results-{workload}.jsonl"));
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .filter_map(|l| yasksite_telemetry::json::parse(l).ok())
        .collect()
}
