//! Dataset serialization: JSONL export/import so expensive dataset builds
//! can be cached and shared between experiment runs.

use crate::fusion_ds::{FusionDataset, KernelExample};
use crate::tile_ds::{TileDataset, TileExample};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

#[derive(Serialize, Deserialize)]
struct FusionRecord {
    kernel: tpu_hlo::Kernel,
    runtime_ns: f64,
    program_idx: usize,
}

#[derive(Serialize, Deserialize)]
struct TileRecord {
    kernel: tpu_hlo::Kernel,
    runtime_ns: f64,
    kernel_group: usize,
    program_idx: usize,
}

/// Write a fusion dataset as JSONL (one example per line).
///
/// # Errors
///
/// Returns I/O or serialization errors as strings.
pub fn write_fusion_dataset(ds: &FusionDataset, path: &Path) -> Result<(), String> {
    let f = std::fs::File::create(path).map_err(|e| e.to_string())?;
    let mut w = BufWriter::new(f);
    for ex in &ds.examples {
        let rec = FusionRecord {
            kernel: ex.kernel.clone(),
            runtime_ns: ex.runtime_ns,
            program_idx: ex.program_idx,
        };
        let line = serde_json::to_string(&rec).map_err(|e| e.to_string())?;
        writeln!(w, "{line}").map_err(|e| e.to_string())?;
    }
    w.flush().map_err(|e| e.to_string())
}

/// Read a fusion dataset written by [`write_fusion_dataset`].
///
/// # Errors
///
/// Returns I/O or parse errors as strings (with line numbers).
pub fn read_fusion_dataset(path: &Path) -> Result<FusionDataset, String> {
    let f = std::fs::File::open(path).map_err(|e| e.to_string())?;
    let mut examples = Vec::new();
    for (i, line) in BufReader::new(f).lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        let rec: FusionRecord =
            serde_json::from_str(&line).map_err(|e| format!("line {}: {e}", i + 1))?;
        examples.push(KernelExample {
            kernel: rec.kernel,
            runtime_ns: rec.runtime_ns,
            program_idx: rec.program_idx,
        });
    }
    Ok(FusionDataset { examples })
}

/// Write a tile dataset as JSONL.
///
/// # Errors
///
/// Returns I/O or serialization errors as strings.
pub fn write_tile_dataset(ds: &TileDataset, path: &Path) -> Result<(), String> {
    let f = std::fs::File::create(path).map_err(|e| e.to_string())?;
    let mut w = BufWriter::new(f);
    for ex in &ds.examples {
        let rec = TileRecord {
            kernel: ex.kernel.clone(),
            runtime_ns: ex.runtime_ns,
            kernel_group: ex.kernel_group,
            program_idx: ex.program_idx,
        };
        let line = serde_json::to_string(&rec).map_err(|e| e.to_string())?;
        writeln!(w, "{line}").map_err(|e| e.to_string())?;
    }
    w.flush().map_err(|e| e.to_string())
}

/// Read a tile dataset written by [`write_tile_dataset`].
///
/// # Errors
///
/// Returns I/O or parse errors as strings (with line numbers).
pub fn read_tile_dataset(path: &Path) -> Result<TileDataset, String> {
    let f = std::fs::File::open(path).map_err(|e| e.to_string())?;
    let mut examples = Vec::new();
    for (i, line) in BufReader::new(f).lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        let rec: TileRecord =
            serde_json::from_str(&line).map_err(|e| format!("line {}: {e}", i + 1))?;
        examples.push(TileExample {
            kernel: rec.kernel,
            runtime_ns: rec.runtime_ns,
            kernel_group: rec.kernel_group,
            program_idx: rec.program_idx,
        });
    }
    let num_kernels = examples
        .iter()
        .map(|e| e.kernel_group + 1)
        .max()
        .unwrap_or(0);
    Ok(TileDataset {
        examples,
        num_kernels,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{Corpus, CorpusScale};
    use crate::fusion_ds::{build_fusion_dataset, FusionDatasetConfig};
    use crate::tile_ds::{build_tile_dataset, TileDatasetConfig};
    use crate::TempPath;

    #[test]
    fn fusion_roundtrip() {
        let corpus = Corpus::build(CorpusScale::Tiny);
        let small = Corpus {
            entries: corpus.entries[..2].to_vec(),
        };
        let ds = build_fusion_dataset(
            &small,
            &FusionDatasetConfig {
                configs_per_program: 3,
                ..Default::default()
            },
        );
        let path = TempPath::new("fusion.jsonl");
        write_fusion_dataset(&ds, &path).unwrap();
        let restored = read_fusion_dataset(&path).unwrap();
        assert_eq!(restored.examples.len(), ds.examples.len());
        assert_eq!(
            tpu_hlo::kernel_hash(&restored.examples[0].kernel),
            tpu_hlo::kernel_hash(&ds.examples[0].kernel)
        );
        assert_eq!(restored.examples[0].runtime_ns, ds.examples[0].runtime_ns);
    }

    #[test]
    fn tile_roundtrip() {
        let corpus = Corpus::build(CorpusScale::Tiny);
        let small = Corpus {
            entries: corpus.entries[..2].to_vec(),
        };
        let ds = build_tile_dataset(
            &small,
            &TileDatasetConfig {
                max_tiles_per_kernel: 4,
                ..Default::default()
            },
        );
        let path = TempPath::new("tile.jsonl");
        write_tile_dataset(&ds, &path).unwrap();
        let restored = read_tile_dataset(&path).unwrap();
        assert_eq!(restored.examples.len(), ds.examples.len());
    }

    #[test]
    fn read_missing_file_is_error() {
        assert!(read_fusion_dataset(Path::new("/nonexistent/x.jsonl")).is_err());
    }

    #[test]
    fn read_garbage_reports_line() {
        let path = TempPath::new("garbage.jsonl");
        std::fs::write(&path, "not json\n").unwrap();
        let err = read_fusion_dataset(&path).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }
}
