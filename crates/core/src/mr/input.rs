//! Pre-flight input validation shared by every driver.
//!
//! Real Hadoop pipelines fail an hour in when the input holds malformed
//! records; [`check_input`] scans once up front and summarizes instead,
//! so a driver (or an operator) can decide whether the quarantine rate
//! is acceptable before paying for a run.

use std::collections::HashMap;

use gmr_mapreduce::runtime::JobRunner;
use gmr_mapreduce::{Error, Result};

/// Summary of a pre-flight input scan: what [`check_input`] found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InputCheck {
    /// Total text lines scanned.
    pub lines: u64,
    /// Lines that parsed as points of the modal dimensionality.
    pub points: u64,
    /// Lines quarantined: not UTF-8, unparsable, non-finite, or of a
    /// minority dimensionality.
    pub bad_records: u64,
    /// The modal point dimensionality.
    pub dim: usize,
}

/// Validates an input path before running (friendlier than the first
/// job failing), scanning it once — one charged dataset read — and
/// summarizing instead of failing on the first malformed line: how many
/// lines parse as points, how many would be quarantined as bad records,
/// and the modal dimensionality the run would use.
///
/// Errors only when the file is missing or holds no usable points at
/// all.
pub fn check_input(runner: &JobRunner, input: &str) -> Result<InputCheck> {
    let dfs = runner.dfs();
    if !dfs.exists(input) {
        return Err(Error::FileNotFound(input.to_string()));
    }
    let splits = dfs.splits(input)?;
    dfs.begin_dataset_read();
    let mut lines = 0u64;
    let mut dim_counts: HashMap<usize, u64> = HashMap::new();
    for split in &splits {
        dfs.charge_split_read(split);
        for (_, line) in split.records() {
            lines += 1;
            if let Some(point) = line.ok().and_then(|l| gmr_datagen::parse_point(l).ok()) {
                *dim_counts.entry(point.len()).or_insert(0) += 1;
            }
        }
    }
    let (&dim, &points) = dim_counts
        .iter()
        .max_by_key(|&(&d, &n)| (n, std::cmp::Reverse(d)))
        .ok_or_else(|| Error::Config(format!("no parsable points in {input}")))?;
    Ok(InputCheck {
        lines,
        points,
        bad_records: lines - points,
        dim,
    })
}
