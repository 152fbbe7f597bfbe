//! Benchmark environment fingerprinting for the tracked bench binary
//! (`bench_tracked`).
//!
//! The `lion-bench` JSON document embeds an `env` block describing
//! the machine that produced it: core count, OS, architecture, the
//! exact `rustc --version` string, the probed CPU feature set, and the
//! SIMD backend `lion_linalg::simd` selected at runtime. Medians are
//! only comparable when all of those match — a baseline written on an
//! AVX2 box says nothing about a NEON box, and a compiler upgrade can
//! legitimately move every number.
//!
//! `--check` therefore *refuses* (exit 0, not exit 1) when the
//! committed baseline's environment differs from the current one:
//! a cross-machine comparison is not a regression, it is a
//! measurement that cannot be made. Regenerate the baseline with
//! `just bench-write` on the machine that will run the checks.

use std::process::Command;

use lion_obs::json::{escape, Json};

/// The environment fingerprint embedded in the bench JSON document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchEnv {
    /// Available parallelism (informational; not part of the match).
    pub cores: usize,
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// Full `rustc --version` output, or `"unknown"` if rustc is not
    /// on PATH (numbers from an unknown compiler are still printable,
    /// just never comparable).
    pub rustc: String,
    /// Comma-joined probed CPU features relevant to the SIMD kernels
    /// (e.g. `"sse2,avx,avx2,fma"` on x86_64, `"neon"` on aarch64).
    pub cpu_features: String,
    /// The SIMD backend `lion_linalg::simd` detected at startup
    /// (`"avx2"`, `"neon"`, or `"scalar"`).
    pub simd: String,
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| {
            if out.status.success() {
                Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
            } else {
                None
            }
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_features() -> String {
    let mut features: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("sse2") {
            features.push("sse2");
        }
        if std::arch::is_x86_feature_detected!("avx") {
            features.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            features.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            features.push("fma");
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        features.push("neon");
    }
    features.join(",")
}

impl BenchEnv {
    /// Probes the current machine.
    pub fn current() -> Self {
        BenchEnv {
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            rustc: rustc_version(),
            cpu_features: cpu_features(),
            simd: lion_linalg::simd::detected().name().to_string(),
        }
    }

    /// Renders the `env` block value (the `{...}` object, without the
    /// `"env":` key) for embedding in a bench JSON document.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\":{},\"os\":\"{}\",\"arch\":\"{}\",\"rustc\":\"{}\",\
             \"cpu_features\":\"{}\",\"simd\":\"{}\"}}",
            self.cores,
            escape(&self.os),
            escape(&self.arch),
            escape(&self.rustc),
            escape(&self.cpu_features),
            escape(&self.simd),
        )
    }

    /// Compares against the `env` block of a parsed baseline document.
    /// Returns a human-readable description of the first difference, or
    /// `None` when the environments are comparable. `cores` is
    /// informational and excluded from the match (container CPU quotas
    /// vary on one physical machine; the benches are single-threaded).
    pub fn mismatch(&self, doc: &Json) -> Option<String> {
        let env = match doc.get("env") {
            Some(env) => env,
            None => return Some("baseline has no env block".to_string()),
        };
        let fields = [
            ("os", &self.os),
            ("arch", &self.arch),
            ("rustc", &self.rustc),
            ("cpu_features", &self.cpu_features),
            ("simd", &self.simd),
        ];
        for (key, current) in fields {
            let committed = env.get(key).and_then(|v| v.as_str()).unwrap_or("<absent>");
            if committed != current.as_str() {
                return Some(format!(
                    "{key}: baseline {committed:?} vs current {current:?}"
                ));
            }
        }
        None
    }
}

/// Guard used by `bench_tracked --check`: if the committed
/// baseline at `path` was written in a different environment, print a
/// refusal and exit 0 — a cross-machine comparison is meaningless, not
/// failing. Unreadable or unparseable files return silently so the
/// binary's own loader can report the real error with context.
pub fn refuse_if_cross_machine(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(_) => return,
    };
    let doc = match lion_obs::json::parse(&text) {
        Ok(doc) => doc,
        Err(_) => return,
    };
    if let Some(why) = BenchEnv::current().mismatch(&doc) {
        eprintln!("benchmark check REFUSED (cross-machine baseline): {why}");
        eprintln!("regenerate {path} on this machine with `just bench-write`");
        std::process::exit(0);
    }
}
