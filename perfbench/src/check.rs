//! Serial correctness checks, independent of the MapReduce code path:
//! the answer is scored with `gmeans::eval` against the generator's own
//! true centers.

use gmeans::eval::average_distance;
use gmr_datagen::parse_point;
use gmr_linalg::Dataset;

use crate::workload::{Outcome, Staged, INPUT, MULTIK_K_MAX};

/// An answer's average point-to-center distance may exceed that of the
/// true centers by at most this factor. This G-means leaves a few true
/// clusters merged on most datasets (measured 1.0–5.8× over 240
/// datasets of both G-means workloads), and multi-k-means' model at the
/// true k runs only 3 Lloyd iterations from a random start (4.8–7.0×
/// over 150 datasets). A broken answer lands far above: one center is
/// ≈ 30×.
pub const DISTANCE_FACTOR: f64 = 10.0;
/// G-means' k must lie in `[K_LOW · k_real, K_HIGH · k_real]`. The low
/// side sits well below 1 because this G-means finds 0.85–1.1 × k_real
/// on these shapes; `at_least_real_k` reports the stricter `k ≥ k_real`.
pub const K_LOW: f64 = 0.75;
/// Upper end of the accepted k range, as a multiple of k_real.
pub const K_HIGH: f64 = 1.6;

/// What the checks measured and whether they passed.
pub struct Verdict {
    /// Average distance of the answer over that of the true centers.
    pub distance_ratio: f64,
    /// Whether G-means found at least the true number of clusters.
    pub at_least_real_k: bool,
    /// Why the run is wrong; empty when it is right.
    pub problems: Vec<String>,
}

/// Checks one run's answer.
pub fn check(staged: &Staged, outcome: &Outcome) -> Verdict {
    let mut problems = Vec::new();
    if let Some(f) = &outcome.failure {
        problems.push(format!("run degraded: {f}"));
    }
    let data = match load(staged) {
        Ok(d) => d,
        Err(e) => {
            problems.push(e);
            return Verdict {
                distance_ratio: f64::NAN,
                at_least_real_k: false,
                problems,
            };
        }
    };
    let truth = average_distance(&data, &staged.truth);
    let k_real = staged.workload.clusters();
    let answer = if staged.workload.is_gmeans() {
        let k = outcome.k;
        if (k as f64) < K_LOW * k_real as f64 || k as f64 > K_HIGH * k_real as f64 {
            problems.push(format!("k = {k} outside [{K_LOW}, {K_HIGH}] × {k_real}"));
        }
        outcome.models.first()
    } else {
        if outcome.models.len() != MULTIK_K_MAX {
            problems.push(format!(
                "{} models, expected {MULTIK_K_MAX}",
                outcome.models.len()
            ));
        }
        for (i, m) in outcome.models.iter().enumerate() {
            if m.len() != i + 1 {
                problems.push(format!("model {} has {} centers", i + 1, m.len()));
            }
        }
        outcome.models.get(k_real - 1)
    };
    let distance_ratio = match answer {
        Some(centers) if !centers.is_empty() => average_distance(&data, centers) / truth,
        _ => f64::NAN,
    };
    if distance_ratio.is_nan() || distance_ratio > DISTANCE_FACTOR {
        problems.push(format!(
            "average distance is {distance_ratio:.4}× the true centers' (limit {DISTANCE_FACTOR})"
        ));
    }
    Verdict {
        distance_ratio,
        at_least_real_k: outcome.k >= k_real,
        problems,
    }
}

/// Reads the staged dataset back from the DFS and parses it serially.
pub fn load(staged: &Staged) -> Result<Dataset, String> {
    let lines = staged
        .dfs
        .read_lines(INPUT)
        .map_err(|e| format!("reading the dataset back: {e}"))?;
    let mut data = Dataset::with_capacity(staged.truth.dim(), lines.len());
    for line in &lines {
        let p = parse_point(line).map_err(|e| format!("parsing the dataset back: {e}"))?;
        data.push(&p);
    }
    Ok(data)
}
