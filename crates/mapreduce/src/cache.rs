//! In-memory caching of parsed input — the paper's SPARK future work.
//!
//! §6 of the paper: "we plan to explore ways to extend our MapReduce
//! implementation of G-means by leveraging more advanced batch execution
//! engine (e.g. SPARK) which can provide advanced configuration options
//! at run-time in order to save unnecessary disk I/O operations via
//! in-memory caching"; footnote 3 adds "you can cache the dataset in
//! memory and make sure to preserve the data partitioning".
//!
//! [`PointCache`] implements exactly that: the text dataset is read and
//! parsed **once** (one dataset read, like a Spark `cache()`d RDD
//! materialization), and every subsequent job iterates the decoded
//! points split by split — same partitioning, no I/O, no re-parsing.
//! The runtime's [`crate::runtime::JobRunner::run_cached`] accepts any
//! job whose mapper also implements [`crate::job::PointMapper`].

use std::sync::Arc;

use gmr_linalg::Dataset;

use crate::dfs::Dfs;
use crate::error::{Error, Result};

/// One cached partition: the parsed points of one input split, plus the
/// byte extent it came from (so cost accounting can model the in-memory
/// scan against the original split size).
#[derive(Clone, Debug)]
pub struct CachedSplit {
    /// Index of the originating split.
    pub index: usize,
    /// Byte offset of the split in the file.
    pub offset: u64,
    /// Byte length of the originating split (text form).
    pub text_bytes: usize,
    /// The decoded points.
    pub points: Dataset,
    /// Per-point squared norms, computed once at cache build time and
    /// reused by the blocked nearest-center kernel on every iteration.
    pub norms: Vec<f64>,
}

/// A dataset parsed once and pinned in memory, partition-preserving.
#[derive(Clone, Debug)]
pub struct PointCache {
    path: String,
    dim: usize,
    splits: Arc<Vec<CachedSplit>>,
}

impl PointCache {
    /// Builds the cache by scanning `path` once (charged as a single
    /// dataset read, like the first action on a cached RDD).
    ///
    /// `parse` converts one text line into a point; it is the same
    /// parser the text mappers use, so cached and uncached execution see
    /// byte-identical inputs. A line that is not UTF-8, does not parse or
    /// has another dimension fails the build.
    pub fn build<F>(dfs: &Arc<Dfs>, path: &str, dim: usize, parse: F) -> Result<Self>
    where
        F: Fn(&str) -> Result<Vec<f64>>,
    {
        if dim == 0 {
            return Err(Error::Config("dimension must be positive".into()));
        }
        let raw = dfs.splits(path)?;
        dfs.begin_dataset_read();
        let mut splits = Vec::with_capacity(raw.len());
        for split in &raw {
            dfs.charge_split_read(split);
            let mut points = Dataset::new(dim);
            for (offset, line) in split.records() {
                let line = line.map_err(|_| {
                    Error::Corrupt(format!("{path}: line at byte {offset} is not UTF-8"))
                })?;
                let p = parse(line)?;
                if p.len() != dim {
                    return Err(Error::Corrupt(format!(
                        "point has {} coordinates, expected {dim}",
                        p.len()
                    )));
                }
                points.push(&p);
            }
            let norms = gmr_linalg::squared_norms(points.flat(), dim);
            splits.push(CachedSplit {
                index: split.index,
                offset: split.offset,
                text_bytes: split.len(),
                points,
                norms,
            });
        }
        Ok(Self {
            path: path.to_string(),
            dim,
            splits: Arc::new(splits),
        })
    }

    /// Path the cache was built from.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Dimensionality of the cached points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The cached partitions.
    pub fn splits(&self) -> &[CachedSplit] {
        &self.splits
    }

    /// Total cached points.
    pub fn len(&self) -> usize {
        self.splits.iter().map(|s| s.points.len()).sum()
    }

    /// True when the cache holds no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident memory of the decoded points, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.splits
            .iter()
            .map(|s| std::mem::size_of_val(s.points.flat()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Vec<f64>> {
        line.split_whitespace()
            .map(|t| {
                t.parse::<f64>()
                    .map_err(|e| Error::Corrupt(format!("{t}: {e}")))
            })
            .collect()
    }

    fn staged() -> Arc<Dfs> {
        let dfs = Arc::new(Dfs::new(64));
        dfs.put_lines("pts", (0..100).map(|i| format!("{i} {}", i * 2)))
            .unwrap();
        dfs
    }

    #[test]
    fn build_parses_everything_once() {
        let dfs = staged();
        let cache = PointCache::build(&dfs, "pts", 2, parse).unwrap();
        assert_eq!(cache.len(), 100);
        assert_eq!(cache.dim(), 2);
        assert!(cache.splits().len() > 1, "expected multiple partitions");
        assert_eq!(dfs.stats().dataset_reads, 1);
        assert_eq!(dfs.stats().bytes_read, dfs.stats().bytes_written);
        // Points round-tripped.
        let all: Vec<Vec<f64>> = cache
            .splits()
            .iter()
            .flat_map(|s| s.points.rows().map(|r| r.to_vec()).collect::<Vec<_>>())
            .collect();
        assert_eq!(all[7], vec![7.0, 14.0]);
        assert_eq!(cache.memory_bytes(), 100 * 2 * 8);
        // Norms were precomputed at build time, one per point.
        for s in cache.splits() {
            assert_eq!(s.norms.len(), s.points.len());
            for (row, &n) in s.points.rows().zip(&s.norms) {
                assert_eq!(n, row.iter().map(|x| x * x).sum::<f64>());
            }
        }
    }

    #[test]
    fn partitioning_matches_splits() {
        let dfs = staged();
        let raw = dfs.splits("pts").unwrap();
        let cache = PointCache::build(&dfs, "pts", 2, parse).unwrap();
        assert_eq!(cache.splits().len(), raw.len());
        for (c, r) in cache.splits().iter().zip(&raw) {
            assert_eq!(c.index, r.index);
            assert_eq!(c.offset, r.offset);
            assert_eq!(c.text_bytes, r.len());
        }
    }

    #[test]
    fn bad_dim_and_bad_data_error() {
        let dfs = staged();
        assert!(matches!(
            PointCache::build(&dfs, "pts", 0, parse),
            Err(Error::Config(_))
        ));
        assert!(matches!(
            PointCache::build(&dfs, "pts", 3, parse),
            Err(Error::Corrupt(_))
        ));
        let dfs2 = Arc::new(Dfs::new(64));
        dfs2.put_lines("bad", ["1 2", "x y"]).unwrap();
        assert!(matches!(
            PointCache::build(&dfs2, "bad", 2, parse),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn missing_path_errors() {
        let dfs = Arc::new(Dfs::new(64));
        assert!(matches!(
            PointCache::build(&dfs, "nope", 2, parse),
            Err(Error::FileNotFound(_))
        ));
    }
}
