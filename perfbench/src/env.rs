//! The machine fingerprint every result document carries, and the refusal
//! to compare results from different machines.
//!
//! Timings are comparable only when the OS, architecture, compiler, CPU
//! feature set and the SIMD backend `lion::linalg::simd` selected all
//! match. A comparison across machines is not a regression; it is a
//! measurement that cannot be made, so `--baseline` refuses it (exit 0)
//! instead of failing.

use std::process::Command;

use lion::obs::json::{escape, Json};

/// The environment fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Env {
    /// Available parallelism (informational; not part of the match).
    pub cores: usize,
    /// `std::env::consts::OS`.
    pub os: String,
    /// `std::env::consts::ARCH`.
    pub arch: String,
    /// `rustc --version`, or `"unknown"`.
    pub rustc: String,
    /// Comma-joined CPU features the SIMD kernels dispatch on.
    pub cpu_features: String,
    /// The SIMD backend detected at startup.
    pub simd: String,
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_features() -> String {
    let mut features: Vec<&str> = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        for (name, on) in [
            ("sse2", std::arch::is_x86_feature_detected!("sse2")),
            ("avx", std::arch::is_x86_feature_detected!("avx")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
        ] {
            if on {
                features.push(name);
            }
        }
    }
    #[cfg(target_arch = "aarch64")]
    features.push("neon");
    features.join(",")
}

impl Env {
    /// Probes the current machine.
    pub fn current() -> Self {
        Env {
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            rustc: rustc_version(),
            cpu_features: cpu_features(),
            simd: lion::linalg::simd::detected().name().to_string(),
        }
    }

    /// The fingerprint as a JSON object.
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

    /// The first difference from the `env` block of a result document,
    /// or `None` when the two are comparable (`cores` is not compared).
    pub fn mismatch(&self, doc: &Json) -> Option<String> {
        let Some(env) = doc.get("env") else {
            return Some("document has no env block".to_string());
        };
        [
            ("os", &self.os),
            ("arch", &self.arch),
            ("rustc", &self.rustc),
            ("cpu_features", &self.cpu_features),
            ("simd", &self.simd),
        ]
        .into_iter()
        .find_map(|(key, current)| {
            let theirs = env.get(key).and_then(Json::as_str).unwrap_or("<absent>");
            (theirs != current.as_str())
                .then(|| format!("{key}: baseline {theirs:?} vs current {current:?}"))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_fingerprint_matches_and_edits_do_not() {
        let env = Env::current();
        let doc = lion::obs::json::parse(&format!("{{\"env\":{}}}", env.to_json())).unwrap();
        assert_eq!(env.mismatch(&doc), None);
        let other = Env {
            simd: "scalar-elsewhere".to_string(),
            ..env.clone()
        };
        let doc = lion::obs::json::parse(&format!("{{\"env\":{}}}", other.to_json())).unwrap();
        assert!(env.mismatch(&doc).unwrap().starts_with("simd"));
        let bare = lion::obs::json::parse("{}").unwrap();
        assert!(env.mismatch(&bare).is_some());
    }
}
