//! Writing containers: whole-graph and streaming writers.
//!
//! Both writers produce byte-identical layouts for the same graph: the
//! header and section table first, then the sections in canonical order
//! (`node_weights`, out-CSR, in-CSR, labels), each starting at a
//! 64-byte-aligned offset with zero padding between.
//!
//! [`StreamingWriter`] exists so `pcover-datagen` can emit million-node
//! containers without materializing the full edge list: out-CSR targets
//! and weights are spilled to temporary files next to the destination as
//! rows arrive, in-degrees are counted online, and `finish()` assembles
//! the in-CSR with a single streaming scatter pass — peak memory is
//! `O(16·n + 12·m)` bytes instead of the `O(48·m)`-plus-JSON-text of the
//! build-then-serialize path.

// lint: allow-file(no-index) — buffer ranges are `min`-clamped to the buffer length,
// and the scatter pass indexes node/edge arrays sized from the counted degrees
// (`in_degrees`/`out_offsets` cover exactly n nodes and m edges by construction).

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use pcover_graph::PreferenceGraph;

use crate::error::StoreError;
use crate::format::{
    align_up, Fnv1a, Header, SectionEntry, VariantHint, FLAG_LABELS, FORMAT_VERSION,
    SEC_IN_OFFSETS, SEC_IN_SOURCES, SEC_IN_WEIGHTS, SEC_LABELS, SEC_NODE_WEIGHTS, SEC_OUT_OFFSETS,
    SEC_OUT_TARGETS, SEC_OUT_WEIGHTS,
};

/// Options for container writers.
#[derive(Clone, Copy, Debug, Default)]
pub struct WriteOptions {
    /// Advisory variant metadata stamped into the header.
    pub variant: VariantHint,
}

/// What a writer produced.
#[derive(Clone, Copy, Debug)]
pub struct WriteSummary {
    /// Nodes written.
    pub nodes: u64,
    /// Directed edges written.
    pub edges: u64,
    /// Total container size in bytes.
    pub bytes: u64,
}

fn hash_f64s(values: &[f64]) -> u64 {
    let mut h = Fnv1a::new();
    for v in values {
        h.update(&v.to_le_bytes());
    }
    h.finish()
}

fn hash_u32s(values: &[u32]) -> u64 {
    let mut h = Fnv1a::new();
    for v in values {
        h.update(&v.to_le_bytes());
    }
    h.finish()
}

fn write_f64s<W: Write>(out: &mut Emitter<W>, values: &[f64]) -> Result<(), StoreError> {
    for v in values {
        out.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn write_u32s<W: Write>(out: &mut Emitter<W>, values: &[u32]) -> Result<(), StoreError> {
    for v in values {
        out.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// Encodes the labels section payload: `u32` length + UTF-8 bytes per
/// label.
fn encode_labels(labels: &[String]) -> Result<Vec<u8>, StoreError> {
    let mut out = Vec::new();
    for label in labels {
        let len = u32::try_from(label.len()).map_err(|_| StoreError::TooLarge {
            what: "label longer than u32::MAX bytes",
        })?;
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(label.as_bytes());
    }
    Ok(out)
}

/// Assigns aligned offsets to planned sections, in order. Returns the
/// total file length: the file ends right after the last payload byte
/// (no trailing padding).
fn plan_offsets(sections: &mut [SectionEntry]) -> u64 {
    let table_len =
        crate::format::HEADER_LEN + sections.len() as u64 * crate::format::SECTION_ENTRY_LEN;
    let mut cursor = align_up(table_len);
    let mut end = table_len;
    for s in sections.iter_mut() {
        s.offset = cursor;
        end = cursor + s.len;
        cursor = align_up(end);
    }
    end
}

/// A positioned writer that zero-pads up to each section's aligned start.
struct Emitter<W: Write> {
    inner: W,
    pos: u64,
}

impl<W: Write> Emitter<W> {
    fn new(inner: W) -> Self {
        Emitter { inner, pos: 0 }
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.inner.write_all(bytes)?;
        self.pos += bytes.len() as u64;
        Ok(())
    }

    fn pad_to(&mut self, offset: u64) -> Result<(), StoreError> {
        debug_assert!(offset >= self.pos, "sections must be written in order");
        const ZEROS: [u8; 64] = [0u8; 64];
        let mut gap = offset.saturating_sub(self.pos);
        while gap > 0 {
            let chunk = gap.min(ZEROS.len() as u64) as usize;
            self.write_all(&ZEROS[..chunk])?;
            gap -= chunk as u64;
        }
        Ok(())
    }
}

/// Writes `graph` as a container at `path` (atomically: the file is
/// assembled under a `.tmp` suffix and renamed into place).
///
/// # Errors
///
/// IO failures and capacity overflows as typed [`StoreError`]s.
pub fn write_graph(
    graph: &PreferenceGraph,
    path: &Path,
    options: WriteOptions,
) -> Result<WriteSummary, StoreError> {
    let n = graph.node_count() as u64;
    let m = graph.edge_count() as u64;
    let labels_payload = match graph.labels() {
        Some(labels) => Some(encode_labels(labels)?),
        None => None,
    };

    let csr = graph.csr();
    // ItemId is a transparent u32 newtype; hash/write via raw values.
    let out_targets: Vec<u32> = csr.out_targets.iter().map(|id| id.raw()).collect();
    let in_sources: Vec<u32> = csr.in_sources.iter().map(|id| id.raw()).collect();

    let mut sections = vec![
        SectionEntry {
            id: SEC_NODE_WEIGHTS,
            offset: 0,
            len: n * 8,
            checksum: hash_f64s(csr.node_weights),
        },
        SectionEntry {
            id: SEC_OUT_OFFSETS,
            offset: 0,
            len: (n + 1) * 4,
            checksum: hash_u32s(csr.out_offsets),
        },
        SectionEntry {
            id: SEC_OUT_TARGETS,
            offset: 0,
            len: m * 4,
            checksum: hash_u32s(&out_targets),
        },
        SectionEntry {
            id: SEC_OUT_WEIGHTS,
            offset: 0,
            len: m * 8,
            checksum: hash_f64s(csr.out_weights),
        },
        SectionEntry {
            id: SEC_IN_OFFSETS,
            offset: 0,
            len: (n + 1) * 4,
            checksum: hash_u32s(csr.in_offsets),
        },
        SectionEntry {
            id: SEC_IN_SOURCES,
            offset: 0,
            len: m * 4,
            checksum: hash_u32s(&in_sources),
        },
        SectionEntry {
            id: SEC_IN_WEIGHTS,
            offset: 0,
            len: m * 8,
            checksum: hash_f64s(csr.in_weights),
        },
    ];
    if let Some(payload) = &labels_payload {
        let mut h = Fnv1a::new();
        h.update(payload);
        sections.push(SectionEntry {
            id: SEC_LABELS,
            offset: 0,
            len: payload.len() as u64,
            checksum: h.finish(),
        });
    }
    let total = plan_offsets(&mut sections);

    let header = Header {
        version: FORMAT_VERSION,
        flags: if labels_payload.is_some() {
            FLAG_LABELS
        } else {
            0
        },
        node_count: n,
        edge_count: m,
        variant: options.variant,
        sections,
    };

    let tmp_path = tmp_sibling(path, "write");
    {
        let file = File::create(&tmp_path)?;
        let mut out = Emitter::new(BufWriter::new(file));
        out.write_all(&header.encode())?;
        for s in &header.sections {
            out.pad_to(s.offset)?;
            match s.id {
                SEC_NODE_WEIGHTS => write_f64s(&mut out, csr.node_weights)?,
                SEC_OUT_OFFSETS => write_u32s(&mut out, csr.out_offsets)?,
                SEC_OUT_TARGETS => write_u32s(&mut out, &out_targets)?,
                SEC_OUT_WEIGHTS => write_f64s(&mut out, csr.out_weights)?,
                SEC_IN_OFFSETS => write_u32s(&mut out, csr.in_offsets)?,
                SEC_IN_SOURCES => write_u32s(&mut out, &in_sources)?,
                SEC_IN_WEIGHTS => write_f64s(&mut out, csr.in_weights)?,
                SEC_LABELS => {
                    if let Some(payload) = &labels_payload {
                        out.write_all(payload)?;
                    }
                }
                _ => {}
            }
        }
        out.inner.flush()?;
    }
    std::fs::rename(&tmp_path, path)?;
    Ok(WriteSummary {
        nodes: n,
        edges: m,
        bytes: total,
    })
}

fn tmp_sibling(path: &Path, tag: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|s| s.to_os_string())
        .unwrap_or_default();
    name.push(format!(".{tag}.{}.tmp", std::process::id()));
    path.with_file_name(name)
}

/// Streams a container to disk one out-row at a time, without holding the
/// edge list in memory.
///
/// Contract: [`append_row`](Self::append_row) is called exactly once per
/// node in ascending node order, each row strictly ascending by target;
/// then [`finish`](Self::finish) assembles the in-CSR and the final file.
/// Contract violations and invalid weights yield
/// [`StoreError::WriterContract`] — nothing is written to `path` until
/// `finish` succeeds (spill files live next to it under `.tmp` suffixes
/// and are removed on both success and drop).
#[derive(Debug)]
pub struct StreamingWriter {
    path: PathBuf,
    options: WriteOptions,
    node_weights: Vec<f64>,
    out_offsets: Vec<u32>,
    in_degrees: Vec<u32>,
    targets_spill: SpillFile,
    weights_spill: SpillFile,
    edges: u64,
}

/// A hashing, buffered temp file that can be reopened for reading.
#[derive(Debug)]
struct SpillFile {
    path: PathBuf,
    writer: Option<BufWriter<File>>,
    hash: Fnv1a,
}

impl SpillFile {
    fn create(path: PathBuf) -> Result<Self, StoreError> {
        let file = File::create(&path)?;
        Ok(SpillFile {
            path,
            writer: Some(BufWriter::new(file)),
            hash: Fnv1a::new(),
        })
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.hash.update(bytes);
        match &mut self.writer {
            Some(w) => w.write_all(bytes)?,
            None => {
                return Err(StoreError::WriterContract {
                    message: "write after finish".into(),
                })
            }
        }
        Ok(())
    }

    /// Flushes and reopens for reading from the start.
    fn into_reader(mut self) -> Result<(BufReader<File>, u64, PathBuf), StoreError> {
        if let Some(mut w) = self.writer.take() {
            w.flush()?;
        }
        let mut file = File::open(&self.path)?;
        file.seek(SeekFrom::Start(0))?;
        Ok((BufReader::new(file), self.hash.finish(), self.path.clone()))
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        if self.writer.is_some() {
            // Finish was never reached; clean the spill up best-effort.
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

impl StreamingWriter {
    /// Starts a streaming write to `path` for a graph with the given node
    /// weights (labels are not supported on the streaming path).
    ///
    /// # Errors
    ///
    /// [`StoreError::WriterContract`] for out-of-domain node weights, IO
    /// errors creating the spill files.
    pub fn create(
        path: &Path,
        node_weights: Vec<f64>,
        options: WriteOptions,
    ) -> Result<Self, StoreError> {
        for (i, &w) in node_weights.iter().enumerate() {
            if !w.is_finite() || !(0.0..=1.0).contains(&w) {
                return Err(StoreError::WriterContract {
                    message: format!("node {i} weight {w} outside [0, 1]"),
                });
            }
        }
        let n = node_weights.len();
        if n > u32::MAX as usize {
            return Err(StoreError::TooLarge {
                what: "node count exceeds u32 index space",
            });
        }
        let mut out_offsets = Vec::with_capacity(n + 1);
        out_offsets.push(0);
        Ok(StreamingWriter {
            path: path.to_path_buf(),
            options,
            in_degrees: vec![0u32; n],
            node_weights,
            out_offsets,
            targets_spill: SpillFile::create(tmp_sibling(path, "targets"))?,
            weights_spill: SpillFile::create(tmp_sibling(path, "weights"))?,
            edges: 0,
        })
    }

    /// Number of rows appended so far (== the next source node id).
    pub fn rows_written(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Appends the out-row of the next node: `(target, weight)` pairs,
    /// strictly ascending by target.
    ///
    /// # Errors
    ///
    /// [`StoreError::WriterContract`] for too many rows, unsorted or
    /// duplicate targets, out-of-range targets, or invalid weights.
    pub fn append_row(&mut self, row: &[(u32, f64)]) -> Result<(), StoreError> {
        let n = self.node_weights.len();
        let source = self.rows_written();
        if source >= n {
            return Err(StoreError::WriterContract {
                message: format!("row {source} appended to a graph of {n} nodes"),
            });
        }
        let mut prev: Option<u32> = None;
        for &(target, weight) in row {
            if target as usize >= n {
                return Err(StoreError::WriterContract {
                    message: format!("edge {source} -> {target} out of range (n = {n})"),
                });
            }
            if prev.is_some_and(|p| p >= target) {
                return Err(StoreError::WriterContract {
                    message: format!("row {source} is not strictly ascending at target {target}"),
                });
            }
            if !(weight.is_finite() && weight > 0.0 && weight <= 1.0) {
                return Err(StoreError::WriterContract {
                    message: format!("edge {source} -> {target} weight {weight} outside (0, 1]"),
                });
            }
            prev = Some(target);
            self.targets_spill.write(&target.to_le_bytes())?;
            self.weights_spill.write(&weight.to_le_bytes())?;
            self.in_degrees[target as usize] += 1;
        }
        self.edges += row.len() as u64;
        if self.edges > u64::from(u32::MAX) {
            return Err(StoreError::TooLarge {
                what: "edge count exceeds u32 index space",
            });
        }
        let last = *self.out_offsets.last().unwrap_or(&0);
        self.out_offsets.push(last + row.len() as u32);
        Ok(())
    }

    /// Assembles the in-CSR (one streaming scatter pass over the spilled
    /// out-CSR) and writes the final container.
    ///
    /// # Errors
    ///
    /// [`StoreError::WriterContract`] when fewer rows than nodes were
    /// appended; IO errors otherwise.
    pub fn finish(self) -> Result<WriteSummary, StoreError> {
        let n = self.node_weights.len() as u64;
        let m = self.edges;
        if self.rows_written() as u64 != n {
            return Err(StoreError::WriterContract {
                message: format!("finish after {} of {n} rows", self.rows_written()),
            });
        }

        // Prefix-sum the in-degrees into in-offsets; the scatter cursor
        // starts as a copy of the row starts.
        let mut in_offsets = Vec::with_capacity(n as usize + 1);
        in_offsets.push(0u32);
        for &d in &self.in_degrees {
            let last = *in_offsets.last().unwrap_or(&0);
            in_offsets.push(last + d);
        }
        let mut cursor: Vec<u32> = in_offsets[..n as usize].to_vec();
        let mut in_sources = vec![0u32; m as usize];
        let mut in_weights = vec![0f64; m as usize];

        // Streaming scatter: read the spilled out-CSR back in chunks,
        // tracking the source node from the offsets array. Because edges
        // arrive in (source asc, target asc) order and the scatter is
        // stable, every in-row comes out sorted by source.
        let out_offsets = self.out_offsets;
        let node_weights = self.node_weights;
        let path = self.path.clone();
        let options = self.options;
        let (mut targets_reader, targets_hash, targets_path) = self.targets_spill.into_reader()?;
        let (mut weights_reader, weights_hash, weights_path) = self.weights_spill.into_reader()?;
        {
            const CHUNK_EDGES: usize = 64 * 1024;
            let mut tbuf = vec![0u8; CHUNK_EDGES * 4];
            let mut wbuf = vec![0u8; CHUNK_EDGES * 8];
            let mut source = 0u32;
            let mut consumed = 0u64;
            while consumed < m {
                let batch = CHUNK_EDGES.min((m - consumed) as usize);
                targets_reader.read_exact(&mut tbuf[..batch * 4])?;
                weights_reader.read_exact(&mut wbuf[..batch * 8])?;
                for k in 0..batch {
                    let edge_idx = consumed + k as u64;
                    while u64::from(out_offsets[source as usize + 1]) <= edge_idx {
                        source += 1;
                    }
                    let mut t4 = [0u8; 4];
                    t4.copy_from_slice(&tbuf[k * 4..k * 4 + 4]);
                    let target = u32::from_le_bytes(t4);
                    let mut w8 = [0u8; 8];
                    w8.copy_from_slice(&wbuf[k * 8..k * 8 + 8]);
                    let weight = f64::from_le_bytes(w8);
                    let slot = cursor[target as usize];
                    in_sources[slot as usize] = source;
                    in_weights[slot as usize] = weight;
                    cursor[target as usize] = slot + 1;
                }
                consumed += batch as u64;
            }
        }

        let mut sections = vec![
            SectionEntry {
                id: SEC_NODE_WEIGHTS,
                offset: 0,
                len: n * 8,
                checksum: hash_f64s(&node_weights),
            },
            SectionEntry {
                id: SEC_OUT_OFFSETS,
                offset: 0,
                len: (n + 1) * 4,
                checksum: hash_u32s(&out_offsets),
            },
            SectionEntry {
                id: SEC_OUT_TARGETS,
                offset: 0,
                len: m * 4,
                checksum: targets_hash,
            },
            SectionEntry {
                id: SEC_OUT_WEIGHTS,
                offset: 0,
                len: m * 8,
                checksum: weights_hash,
            },
            SectionEntry {
                id: SEC_IN_OFFSETS,
                offset: 0,
                len: (n + 1) * 4,
                checksum: hash_u32s(&in_offsets),
            },
            SectionEntry {
                id: SEC_IN_SOURCES,
                offset: 0,
                len: m * 4,
                checksum: hash_u32s(&in_sources),
            },
            SectionEntry {
                id: SEC_IN_WEIGHTS,
                offset: 0,
                len: m * 8,
                checksum: hash_f64s(&in_weights),
            },
        ];
        let total = plan_offsets(&mut sections);
        let header = Header {
            version: FORMAT_VERSION,
            flags: 0,
            node_count: n,
            edge_count: m,
            variant: options.variant,
            sections,
        };

        let tmp_path = tmp_sibling(&path, "stream");
        {
            let file = File::create(&tmp_path)?;
            let mut out = Emitter::new(BufWriter::new(file));
            out.write_all(&header.encode())?;
            for s in &header.sections {
                out.pad_to(s.offset)?;
                match s.id {
                    SEC_NODE_WEIGHTS => write_f64s(&mut out, &node_weights)?,
                    SEC_OUT_OFFSETS => write_u32s(&mut out, &out_offsets)?,
                    SEC_OUT_TARGETS => {
                        targets_reader.seek(SeekFrom::Start(0))?;
                        copy_stream(&mut targets_reader, &mut out, m * 4)?;
                    }
                    SEC_OUT_WEIGHTS => {
                        weights_reader.seek(SeekFrom::Start(0))?;
                        copy_stream(&mut weights_reader, &mut out, m * 8)?;
                    }
                    SEC_IN_OFFSETS => write_u32s(&mut out, &in_offsets)?,
                    SEC_IN_SOURCES => write_u32s(&mut out, &in_sources)?,
                    SEC_IN_WEIGHTS => write_f64s(&mut out, &in_weights)?,
                    _ => {}
                }
            }
            out.inner.flush()?;
        }
        drop(targets_reader);
        drop(weights_reader);
        let _ = std::fs::remove_file(&targets_path);
        let _ = std::fs::remove_file(&weights_path);
        std::fs::rename(&tmp_path, &path)?;
        Ok(WriteSummary {
            nodes: n,
            edges: m,
            bytes: total,
        })
    }
}

fn copy_stream<R: Read, W: Write>(
    reader: &mut R,
    out: &mut Emitter<W>,
    len: u64,
) -> Result<(), StoreError> {
    let mut remaining = len;
    let mut buf = vec![0u8; 1 << 16];
    while remaining > 0 {
        let chunk = remaining.min(buf.len() as u64) as usize;
        reader.read_exact(&mut buf[..chunk])?;
        out.write_all(&buf[..chunk])?;
        remaining -= chunk as u64;
    }
    Ok(())
}
