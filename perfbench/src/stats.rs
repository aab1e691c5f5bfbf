//! Reductions shared by the workloads: interpolated percentiles over the
//! program's log histograms, the calling thread's on-CPU clock, medians
//! of timed samples, peak RSS, and the in-memory span recorder of the
//! traced run.

use std::time::Instant;

/// Percentile `p` (0–100) read off a log-histogram CDF, interpolated
/// linearly in cumulative fraction between adjacent bucket midpoints.
///
/// The program's own `p()` returns the bucket midpoint, a step function
/// of the sample set: a median of a large population lands in the same
/// 1.5 %-wide bucket for every seed. Interpolation keeps the figure a
/// continuous function of the counts while staying within the bucket
/// the program reports.
pub fn cdf_percentile(cdf: &[(f64, f64)], p: f64) -> f64 {
    let q = p / 100.0;
    let Some(k) = cdf.iter().position(|&(_, f)| f >= q) else {
        return cdf.last().map_or(0.0, |&(v, _)| v);
    };
    if k == 0 {
        return cdf[0].0;
    }
    let (v0, f0) = cdf[k - 1];
    let (v1, f1) = cdf[k];
    v0 + (v1 - v0) * (q - f0) / (f1 - f0)
}

/// On-CPU time of the calling thread, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`).
///
/// The benchmark times its calls with this clock rather than with wall
/// time. On a shared virtual host, wall time also counts the stretches
/// the hypervisor or the guest scheduler gives the CPU to someone else,
/// and those change from minute to minute; the thread's own run time
/// leaves them out.
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec of the C layout, and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Runs `f`, inside a span named `name` when `spans` is given, and
/// returns its result with the calling thread's on-CPU time over the
/// call, in seconds. The span itself records wall time.
pub fn timed<T>(mut spans: Option<&mut Spans>, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let id = spans.as_deref_mut().map(|s| s.open(name));
    let t = thread_cpu_s();
    let out = f();
    let secs = thread_cpu_s() - t;
    if let (Some(s), Some(id)) = (spans, id) {
        s.close(id);
    }
    (out, secs)
}

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

/// One span of the traced run: a named interval around a call the
/// benchmark makes into a layer, with the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u128,
    pub end_ns: u128,
    pub parent: Option<usize>,
}

/// Spans kept in memory and written out when the run ends. A span's
/// parent is the innermost span open when it starts.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span named `name`; returns its id for [`Spans::close`].
    pub fn open(&mut self, name: &str) -> usize {
        let t = self.origin.elapsed().as_nanos();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: t,
            end_ns: t,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, `id`; returns its duration in
    /// seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let t = self.origin.elapsed().as_nanos();
        self.spans[id].end_ns = t;
        (t - self.spans[id].start_ns) as f64 / 1e9
    }

    /// Writes the spans as a JSON array of
    /// `{"id","name","start_ns","end_ns","parent","self_ns"}` objects,
    /// where `self_ns` is the span's duration minus its children's.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut child_ns = vec![0u128; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"self_ns\": {self_ns}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_percentile_sits_between_bucket_points() {
        let cdf = [(1.0, 0.25), (2.0, 0.75), (4.0, 1.0)];
        assert_eq!(cdf_percentile(&cdf, 10.0), 1.0);
        assert!((cdf_percentile(&cdf, 50.0) - 1.5).abs() < 1e-12);
        assert!((cdf_percentile(&cdf, 87.5) - 3.0).abs() < 1e-12);
        assert_eq!(cdf_percentile(&cdf, 100.0), 4.0);
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut s = Spans::new();
        let round = s.open("round");
        let ((), _) = timed(Some(&mut s), "call", || ());
        s.close(round);
        let ((), _) = timed(Some(&mut s), "after", || ());
        let parents: Vec<_> = s
            .spans
            .iter()
            .map(|x| (x.name.as_str(), x.parent))
            .collect();
        assert_eq!(
            parents,
            [("round", None), ("call", Some(0)), ("after", None)]
        );
    }

    #[test]
    fn thread_cpu_clock_advances_with_work_and_not_with_sleep() {
        let ((), busy) = timed(None, "spin", || {
            let t = Instant::now();
            while t.elapsed().as_millis() < 20 {
                std::hint::black_box(0u64);
            }
        });
        assert!(busy > 0.010, "20 ms of spinning read {busy} s");
        let ((), idle) = timed(None, "sleep", || {
            std::thread::sleep(std::time::Duration::from_millis(50))
        });
        assert!(idle < 0.010, "50 ms of sleep read {idle} s");
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
