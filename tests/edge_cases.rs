//! Degenerate and adversarial inputs: the pipeline must terminate with
//! a sensible answer (or a clean error), never hang, panic, or loop.

use std::sync::Arc;

use gmeans::prelude::*;
use gmr_datagen::format_point;
use gmr_linalg::Dataset;
use gmr_mapreduce::prelude::{ClusterConfig, Dfs, JobRunner};

fn runner_with(points: &[Vec<f64>]) -> JobRunner {
    let dfs = Arc::new(Dfs::new(4 * 1024));
    dfs.put_lines("pts", points.iter().map(|p| format_point(p)))
        .unwrap();
    JobRunner::new(dfs, ClusterConfig::default()).unwrap()
}

#[test]
fn single_point_dataset_is_one_cluster() {
    let runner = runner_with(&[vec![1.0, 2.0]]);
    let r = MRGMeans::new(runner, GMeansConfig::default())
        .run("pts")
        .unwrap();
    assert_eq!(r.k(), 1);
    assert_eq!(r.counts, vec![1]);
}

#[test]
fn two_point_dataset_is_one_cluster() {
    let runner = runner_with(&[vec![0.0, 0.0], vec![1.0, 1.0]]);
    let r = MRGMeans::new(runner, GMeansConfig::default())
        .run("pts")
        .unwrap();
    // Two points are far below the test minimum: keep one cluster.
    assert_eq!(r.k(), 1);
    assert_eq!(r.counts.iter().sum::<u64>(), 2);
}

#[test]
fn all_identical_points_terminate_quickly() {
    let pts: Vec<Vec<f64>> = (0..500).map(|_| vec![7.0, 7.0, 7.0]).collect();
    let runner = runner_with(&pts);
    let r = MRGMeans::new(runner, GMeansConfig::default())
        .run("pts")
        .unwrap();
    assert_eq!(r.k(), 1, "identical points are a single cluster");
    assert!(r.iterations <= 2);
    assert_eq!(r.centers.row(0), &[7.0, 7.0, 7.0]);
}

#[test]
fn two_identical_heavy_blobs_split_once() {
    // 300 copies of A and 300 of B: exactly two clusters, zero variance
    // within each. The projection is a two-spike distribution; the test
    // must split, then both children have zero variance and stop.
    let mut pts = Vec::new();
    for _ in 0..300 {
        pts.push(vec![0.0, 0.0]);
        pts.push(vec![50.0, 50.0]);
    }
    let runner = runner_with(&pts);
    let r = MRGMeans::new(runner, GMeansConfig::default())
        .run("pts")
        .unwrap();
    assert_eq!(r.k(), 2, "two spikes are two clusters");
    let mut centers: Vec<Vec<f64>> = r.centers.rows().map(|c| c.to_vec()).collect();
    centers.sort_by(|a, b| a[0].partial_cmp(&b[0]).unwrap());
    assert_eq!(centers[0], vec![0.0, 0.0]);
    assert_eq!(centers[1], vec![50.0, 50.0]);
}

#[test]
fn huge_coordinates_stay_finite() {
    let pts: Vec<Vec<f64>> = (0..200)
        .map(|i| {
            let base = if i % 2 == 0 { 1e12 } else { -1e12 };
            vec![base + i as f64, base - i as f64]
        })
        .collect();
    let runner = runner_with(&pts);
    let r = MRGMeans::new(runner, GMeansConfig::default())
        .run("pts")
        .unwrap();
    assert!(r.k() >= 1);
    for c in r.centers.rows() {
        assert!(c.iter().all(|v| v.is_finite()), "non-finite center {c:?}");
    }
}

#[test]
fn max_iterations_one_terminates_cleanly() {
    let spec = gmr_datagen::GaussianMixture::figure_r2(1000, 30);
    let dfs = Arc::new(Dfs::new(8 * 1024));
    spec.generate_to_dfs(&dfs, "pts").unwrap();
    let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
    let config = GMeansConfig {
        max_iterations: 1,
        ..GMeansConfig::default()
    };
    let r = MRGMeans::new(runner, config).run("pts").unwrap();
    assert_eq!(r.iterations, 1);
    // Whatever exists after one iteration is accepted.
    assert!((1..=2).contains(&r.k()));
}

#[test]
fn serial_gmeans_handles_identical_points() {
    let data = Dataset::from_flat(2, vec![3.0; 200]);
    let r = GMeans::new(GMeansConfig::default()).fit(&data);
    assert_eq!(r.k(), 1);
}

#[test]
fn serial_gmeans_handles_two_spikes() {
    let mut flat = Vec::new();
    for _ in 0..200 {
        flat.extend_from_slice(&[0.0, 0.0]);
        flat.extend_from_slice(&[10.0, 10.0]);
    }
    let data = Dataset::from_flat(2, flat);
    let r = GMeans::new(GMeansConfig::default()).fit(&data);
    assert_eq!(r.k(), 2);
}

#[test]
fn merge_with_huge_threshold_collapses_everything() {
    let spec = gmr_datagen::GaussianMixture::figure_r2(1500, 31);
    let dfs = Arc::new(Dfs::new(8 * 1024));
    spec.generate_to_dfs(&dfs, "pts").unwrap();
    let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
    let r = MRGMeans::new(runner, GMeansConfig::default())
        .run("pts")
        .unwrap();
    let merged = merge_close_centers(&r.centers, &r.counts, 1e9);
    assert_eq!(merged.centers.len(), 1);
    assert_eq!(merged.counts[0], r.counts.iter().sum::<u64>());
}

#[test]
fn blank_and_whitespace_lines_are_skipped_not_fatal() {
    let dfs = Arc::new(Dfs::new(1024));
    dfs.put_lines("pts", ["1.0 2.0", "", "3.0 4.0"]).unwrap();
    let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
    let r = MRGMeans::new(runner, GMeansConfig::default())
        .run("pts")
        .unwrap();
    // The blank line is quarantined, the two real points clustered.
    assert_eq!(r.counts.iter().sum::<u64>(), 2);
    assert!(
        r.counters
            .get(gmr_mapreduce::prelude::Counter::BadRecordsSkipped)
            > 0,
        "blank line must be counted as a skipped bad record"
    );
}

#[test]
fn non_utf8_line_is_quarantined_not_its_whole_split() {
    let dfs = Arc::new(Dfs::new(1024));
    let mut w = dfs.create("pts", false).unwrap();
    for line in [&b"1.0 2.0"[..], b"3.0 \xe9 4.0", b"3.0 4.0", b"5.0 1.0"] {
        w.write_line(line);
    }
    w.close();
    let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
    let report = check_input(&runner, "pts").unwrap();
    assert_eq!((report.lines, report.points, report.bad_records), (4, 3, 1));
    let r = MRGMeans::new(runner, GMeansConfig::default())
        .run("pts")
        .unwrap();
    assert_eq!(r.counts.iter().sum::<u64>(), 3);
    assert!(
        r.counters
            .get(gmr_mapreduce::prelude::Counter::BadRecordsSkipped)
            > 0
    );
}

#[test]
fn mixed_dimensions_degrade_to_the_modal_dimension() {
    let dfs = Arc::new(Dfs::new(1024));
    dfs.put_lines("pts", ["1.0 2.0", "3.0 4.0", "3.0 4.0 5.0"])
        .unwrap();
    let runner = JobRunner::new(dfs, ClusterConfig::default()).unwrap();
    let r = MRGMeans::new(runner, GMeansConfig::default())
        .run("pts")
        .unwrap();
    // The odd 3-d row is quarantined; the 2-d majority is clustered.
    assert_eq!(r.centers.dim(), 2);
    assert_eq!(r.counts.iter().sum::<u64>(), 2);
    assert!(
        r.counters
            .get(gmr_mapreduce::prelude::Counter::BadRecordsSkipped)
            > 0
    );
    for c in r.centers.rows() {
        assert!(c.iter().all(|v| v.is_finite()), "non-finite center {c:?}");
    }
}
