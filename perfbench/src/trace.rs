//! The benchmark's own span recorder. Spans are opened only in this
//! package's code, around each call into a layer of the program; each has
//! a name (`<layer>.<operation>`), start, end, parent and the id of the
//! request it served. Spans stay in memory and are written out once, as a
//! Chrome trace, when the run ends.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Copy)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    req: u64,
}

/// Layers whose self time the traced run reports, with the metric each
/// is reported under.
pub const LAYERS: [(&str, &str); 8] = [
    ("loadgen", "self.loadgen_s"),
    ("models", "self.models_s"),
    ("pipeline", "self.pipeline_s"),
    ("profiler", "self.profiler_s"),
    ("dag", "self.dag_s"),
    ("core", "self.core_s"),
    ("server", "self.server_s"),
    ("check", "self.check_s"),
];

pub struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<SpanRec>>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::with_capacity(1 << 16))),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// parent nested spans. A disabled tracer only calls `f`.
    pub fn span<T>(
        &self,
        name: &'static str,
        req: u64,
        parent: Option<u32>,
        f: impl FnOnce(Option<u32>) -> T,
    ) -> T {
        let Some(spans) = &self.spans else {
            return f(None);
        };
        let start_ns = self.now_ns();
        let id = {
            let mut v = spans.lock().expect("span list poisoned");
            v.push(SpanRec {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                req,
            });
            (v.len() - 1) as u32
        };
        let out = f(Some(id));
        let end_ns = self.now_ns();
        spans.lock().expect("span list poisoned")[id as usize].end_ns = end_ns;
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Median duration of the spans named `name`, in ms (0 when none).
    pub fn median_ms(&self, name: &str) -> f64 {
        let Some(spans) = &self.spans else {
            return 0.0;
        };
        let durations: Vec<f64> = spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-6)
            .collect();
        crate::util::quantile(&durations, 0.5)
    }

    pub fn span_count(&self) -> usize {
        self.spans
            .as_ref()
            .map_or(0, |s| s.lock().expect("span list poisoned").len())
    }

    /// Self time per layer in seconds: each span's duration minus the
    /// time its child spans cover (children of one span never overlap:
    /// they run one after another on the thread that opened the parent).
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|(l, _)| (*l, 0.0)).collect();
        let Some(spans) = &self.spans else {
            return out;
        };
        let spans = spans.lock().expect("span list poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, child) in spans.iter().zip(&child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let own = (s.end_ns - s.start_ns).saturating_sub(*child);
            if let Some(total) = out.get_mut(layer) {
                *total += own as f64 * 1e-9;
            }
        }
        out
    }

    /// Writes every span as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let Some(spans) = &self.spans else {
            return Ok(());
        };
        let spans = spans.lock().expect("span list poisoned");
        let mut out = String::with_capacity(spans.len() * 128 + 32);
        out.push_str("{\"traceEvents\":[\n");
        for (id, s) in spans.iter().enumerate() {
            if id > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"req\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.req
            ));
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
