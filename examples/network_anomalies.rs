//! Clustering network traffic profiles without knowing how many
//! behaviour groups exist — the kind of workload that motivated the
//! paper's authors (Royal Military Academy / Symantec Research Labs):
//! attack and fraud datasets have an *unknown* number of behaviour
//! families, so k cannot be a parameter.
//!
//! The example synthesizes flow records with several latent behaviour
//! profiles (web browsing, bulk transfer, interactive SSH, scanning,
//! …) plus a small fraction of anomalous flows, discovers the profile
//! count with MapReduce G-means, and flags the flows that sit far from
//! every discovered center.
//!
//! ```text
//! cargo run --release --example network_anomalies
//! ```

use std::sync::Arc;

use gmeans_mapreduce::algorithms::prelude::*;
use gmeans_mapreduce::datagen::format_point;
use gmeans_mapreduce::linalg::{nearest_center_flat, Dataset};
use gmeans_mapreduce::mapreduce::prelude::{ClusterConfig, Dfs, JobRunner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Feature vector of one flow: [log bytes, log packets, log duration,
/// mean inter-arrival, port entropy, fan-out].
const DIM: usize = 6;

/// Latent behaviour profiles (mean feature vectors). The operator does
/// not know how many there are — that is the point.
const PROFILES: [[f64; DIM]; 7] = [
    // web browsing: short flows, few packets, moderate fan-out
    [8.0, 3.0, 1.0, 0.2, 2.0, 3.0],
    // video streaming: heavy bytes, long duration, single peer
    [16.0, 9.0, 7.0, 0.05, 0.5, 1.0],
    // bulk transfer / backup
    [18.0, 10.0, 5.0, 0.01, 0.2, 1.0],
    // interactive ssh: tiny, long, chatty
    [6.0, 5.0, 8.0, 1.5, 0.3, 1.0],
    // dns chatter: tiny, instant, high fan-out
    [3.0, 1.0, 0.1, 0.05, 1.0, 9.0],
    // mail relay
    [10.0, 4.0, 2.0, 0.3, 1.2, 5.0],
    // software updates: bursty, moderate size
    [13.0, 6.0, 2.5, 0.1, 0.8, 2.0],
];

fn synthesize(n: usize, anomaly_rate: f64, seed: u64) -> (Dataset, Vec<bool>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Dataset::with_capacity(DIM, n);
    let mut is_anomaly = Vec::with_capacity(n);
    let gauss = |rng: &mut StdRng| -> f64 {
        // Box–Muller
        let u1: f64 = rng.random_range(f64::EPSILON..1.0);
        let u2: f64 = rng.random_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    };
    for _ in 0..n {
        if rng.random_range(0.0..1.0) < anomaly_rate {
            // Anomaly: uniform junk far outside every profile, e.g. an
            // exfiltration flow or a scanner.
            let p: Vec<f64> = (0..DIM).map(|_| rng.random_range(25.0..40.0)).collect();
            data.push(&p);
            is_anomaly.push(true);
        } else {
            let profile = &PROFILES[rng.random_range(0..PROFILES.len())];
            let p: Vec<f64> = profile.iter().map(|m| m + 0.35 * gauss(&mut rng)).collect();
            data.push(&p);
            is_anomaly.push(false);
        }
    }
    (data, is_anomaly)
}

fn main() {
    let (flows, truth) = synthesize(40_000, 0.002, 77);
    let n_anomalies = truth.iter().filter(|&&a| a).count();
    println!(
        "{} flows, {} latent behaviour profiles, {} injected anomalies",
        flows.len(),
        PROFILES.len(),
        n_anomalies
    );

    // Ship the flows into the DFS and discover the profiles.
    let dfs = Arc::new(Dfs::new(256 * 1024));
    {
        let mut w = dfs.create("flows.txt", false).expect("fresh path");
        for row in flows.rows() {
            w.write_line(format_point(row));
        }
        w.close();
    }
    let runner = JobRunner::new(dfs, ClusterConfig::default()).expect("valid cluster");
    let result = MRGMeans::new(runner, GMeansConfig::default())
        .run("flows.txt")
        .expect("clustering succeeds");
    println!(
        "G-means discovered {} behaviour clusters in {} iterations",
        result.k(),
        result.iterations
    );
    let merged = merge_close_centers(&result.centers, &result.counts, 1.5);
    println!(
        "after center merging: {} clusters (real: {})",
        merged.centers.len(),
        PROFILES.len()
    );

    // Anomaly score: distance to the nearest discovered center.
    let centers = &merged.centers;
    let mut scores: Vec<(usize, f64)> = flows
        .rows()
        .enumerate()
        .map(|(i, row)| {
            let (_, d2) = nearest_center_flat(row, centers.flat(), DIM).expect("centers");
            (i, d2.sqrt())
        })
        .collect();
    scores.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite scores"));

    // Flag the top 0.5% as anomalous and measure detection quality.
    let flagged = &scores[..flows.len() / 200];
    let caught = flagged.iter().filter(|(i, _)| truth[*i]).count();
    println!(
        "flagged top {} flows by distance: caught {}/{} injected anomalies (precision {:.1}%)",
        flagged.len(),
        caught,
        n_anomalies,
        100.0 * caught as f64 / flagged.len() as f64
    );
    let threshold = flagged.last().expect("nonempty").1;
    println!("operational threshold: distance > {threshold:.2}");

    assert!(
        caught * 10 >= n_anomalies * 9,
        "anomaly detection collapsed: {caught}/{n_anomalies}"
    );
}
