//! Small helpers shared by the workloads: the seeded generator, the
//! stream digest, summary statistics, process memory, and the host
//! reference kernels.

use std::hint::black_box;
use std::time::Instant;

/// SplitMix64: a tiny, well-mixed generator, so every input of a run is a
/// pure function of `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over the generated input stream; printed so that a run can be
/// checked to have replayed exactly the inputs of another run.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn feed_u64(&mut self, x: u64) {
        self.feed(&x.to_le_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Linear-interpolation quantile of `xs` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// Seconds since `t0`, in milliseconds.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size in MB of the files under `dir` whose name ends in `suffix`.
pub fn files_mb(dir: &std::path::Path, suffix: &str) -> f64 {
    let mut bytes = 0u64;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.to_string_lossy().ends_with(suffix) {
                bytes += entry.metadata().map_or(0, |m| m.len());
            }
        }
    }
    bytes as f64 / 1e6
}

/// Host reference kernel 1: a fixed dependent ALU chain. Its time moves
/// only with the CPU's clock, never with the program.
pub fn host_alu_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x1234_5678_9abc_def0u64);
    for i in 0..40_000_000u64 {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i) ^ (x >> 29);
    }
    black_box(x);
    ms_since(t0)
}

/// Host reference kernel 2: longest-path relaxation over a fixed
/// pseudo-random DAG of 64 Ki nodes and 256 Ki edges (about 3 MB, inside
/// the last-level cache) — the access pattern of the solver's timing
/// passes, with none of the program's code.
pub fn host_cache_ms() -> f64 {
    const N: usize = 1 << 16;
    const DEG: usize = 4;
    let mut rng = Rng::new(7, 7);
    // Edges point forward (i -> j with j > i), so index order is a
    // topological order.
    let mut dst = Vec::with_capacity(N * DEG);
    let mut w = Vec::with_capacity(N * DEG);
    for i in 0..N {
        for _ in 0..DEG {
            let span = N - i;
            dst.push(if span > 1 {
                i + 1 + rng.below(span - 1)
            } else {
                i
            } as u32);
            w.push((rng.next_u64() % 1000) as f64 * 1e-3);
        }
    }
    let t0 = Instant::now();
    let mut earliest = vec![0.0f64; N];
    for _ in 0..40 {
        earliest.iter_mut().for_each(|e| *e = 0.0);
        for i in 0..N {
            let base = earliest[i];
            for k in i * DEG..(i + 1) * DEG {
                let j = dst[k] as usize;
                if j != i {
                    let cand = base + w[k];
                    if cand > earliest[j] {
                        earliest[j] = cand;
                    }
                }
            }
        }
        black_box(&earliest);
    }
    ms_since(t0)
}
