//! Opening, probing and loading `.pcov` containers.
//!
//! Two load paths share one verification pipeline (header checksum →
//! layout bounds → per-section checksums → full CSR validation in
//! `pcover-graph`):
//!
//! * **mmap** — zero-copy: the file is mapped read-only and each CSR
//!   section is cast once, at load, into a typed view straight into the
//!   mapping (`mmap::MappedCsr`); the graph's `csr` view then costs no
//!   check per call. Open cost is dominated by checksum verification (a
//!   sequential read of the file); the graph itself borrows the page
//!   cache, so repeated opens across processes share one physical copy.
//!   Little-endian unix only.
//! * **pread** — portable fallback: sections are read into owned vectors
//!   and decoded with explicit little-endian conversion. Works everywhere,
//!   costs one heap copy of the graph.

// lint: allow-file(no-index) — every slice range comes from `Header::validate_layout`,
// which checks each section's offset+len against the file (and mapping) length before
// any view is taken; the magic-read loop indexes by bytes-read, bounded by magic.len().

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::Arc;

use pcover_graph::{CsrParts, ItemId, PreferenceGraph};

use crate::error::StoreError;
use crate::format::{
    Fnv1a, Header, SectionEntry, VariantHint, HEADER_LEN, MAGIC, SECTION_ENTRY_LEN, SEC_IN_OFFSETS,
    SEC_IN_SOURCES, SEC_IN_WEIGHTS, SEC_LABELS, SEC_NODE_WEIGHTS, SEC_OUT_OFFSETS, SEC_OUT_TARGETS,
    SEC_OUT_WEIGHTS,
};
use crate::mmap;

/// How to load a container's CSR sections.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OpenMode {
    /// Zero-copy mmap when the platform supports it, pread otherwise.
    #[default]
    Auto,
    /// Require the zero-copy mmap backend; error where unsupported.
    Mmap,
    /// Force the buffered pread backend.
    Pread,
}

/// Which backend actually served a load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadPath {
    /// Zero-copy mapped sections.
    Mmap,
    /// Buffered read into owned vectors.
    Pread,
}

impl LoadPath {
    /// Stable name for reports and stats output.
    pub fn name(self) -> &'static str {
        match self {
            LoadPath::Mmap => "mmap",
            LoadPath::Pread => "pread",
        }
    }
}

/// Header-level description of a container, as dumped by `pcover probe`.
#[derive(Clone, Debug)]
pub struct ContainerInfo {
    /// Total file length in bytes.
    pub file_len: u64,
    /// Format version stamped in the header.
    pub version: u32,
    /// Number of nodes.
    pub node_count: u64,
    /// Number of directed edges.
    pub edge_count: u64,
    /// Advisory variant metadata.
    pub variant: VariantHint,
    /// Whether a labels section is present.
    pub has_labels: bool,
    /// The section table in file order.
    pub sections: Vec<SectionEntry>,
    /// Whether this build can mmap the container.
    pub mmap_supported: bool,
}

/// Whether `path` starts with the container magic. `Ok(false)` for any
/// readable file that is something else (e.g. a JSON graph).
///
/// # Errors
///
/// Only IO errors propagate; a short file is simply not a container.
pub fn is_container(path: &Path) -> Result<bool, StoreError> {
    let mut file = File::open(path)?;
    let mut magic = [0u8; 8];
    let mut read = 0;
    while read < magic.len() {
        match file.read(&mut magic[read..])? {
            0 => return Ok(false),
            k => read += k,
        }
    }
    Ok(magic == MAGIC)
}

/// Reads and fully validates header + section table against the file
/// length, without touching section payloads.
fn read_header(file: &mut File) -> Result<(Header, u64), StoreError> {
    let file_len = file.metadata()?.len();
    let prefix_len = (HEADER_LEN + 64 * SECTION_ENTRY_LEN).min(file_len);
    let mut prefix = vec![0u8; prefix_len as usize];
    file.seek(SeekFrom::Start(0))?;
    file.read_exact(&mut prefix)?;
    let header = Header::decode(&prefix)?;
    header.validate_layout(file_len)?;
    Ok((header, file_len))
}

/// Probes a container: decodes and checksums the header, validates the
/// section layout against the file length, and returns the table. Section
/// payloads are *not* hashed — use [`verify`] for a full integrity pass.
///
/// # Errors
///
/// Typed [`StoreError`]s for every malformed-header case.
pub fn probe(path: &Path) -> Result<ContainerInfo, StoreError> {
    let mut file = File::open(path)?;
    let (header, file_len) = read_header(&mut file)?;
    Ok(ContainerInfo {
        file_len,
        version: header.version,
        node_count: header.node_count,
        edge_count: header.edge_count,
        variant: header.variant,
        has_labels: header.has_labels(),
        sections: header.sections,
        mmap_supported: mmap::MMAP_SUPPORTED,
    })
}

/// Full integrity pass: header validation plus a sequential hash of every
/// section payload against its stored checksum.
///
/// # Errors
///
/// The first [`StoreError::ChecksumMismatch`] (or header error) found.
pub fn verify(path: &Path) -> Result<ContainerInfo, StoreError> {
    let mut file = File::open(path)?;
    let (header, file_len) = read_header(&mut file)?;
    for s in &header.sections {
        let bytes = read_section(&mut file, s)?;
        check_section(s, &bytes)?;
    }
    Ok(ContainerInfo {
        file_len,
        version: header.version,
        node_count: header.node_count,
        edge_count: header.edge_count,
        variant: header.variant,
        has_labels: header.has_labels(),
        sections: header.sections,
        mmap_supported: mmap::MMAP_SUPPORTED,
    })
}

/// Loads the graph stored in a container.
///
/// Every load verifies all section checksums and re-runs full CSR
/// validation, so a corrupt or adversarial file yields a typed error, never
/// a panic or an out-of-bounds access.
///
/// # Errors
///
/// [`StoreError`] for malformed containers; [`StoreError::Unsupported`]
/// when `OpenMode::Mmap` is requested on a platform without the backend.
pub fn read_graph(path: &Path, mode: OpenMode) -> Result<(PreferenceGraph, LoadPath), StoreError> {
    let mut file = File::open(path)?;
    let (header, file_len) = read_header(&mut file)?;
    match mode {
        OpenMode::Mmap => mmap_load(file, &header, file_len).map(|g| (g, LoadPath::Mmap)),
        OpenMode::Pread => pread_load(file, &header).map(|g| (g, LoadPath::Pread)),
        OpenMode::Auto => {
            if mmap::MMAP_SUPPORTED {
                mmap_load(file, &header, file_len).map(|g| (g, LoadPath::Mmap))
            } else {
                pread_load(file, &header).map(|g| (g, LoadPath::Pread))
            }
        }
    }
}

/// Loads a graph from `path` whatever its format: a `.pcov` container via
/// [`read_graph`], anything else as a JSON graph. This is the single entry
/// point CLI and serve use, so every graph-consuming surface accepts both
/// formats transparently.
///
/// # Errors
///
/// Container errors as [`read_graph`]; JSON errors wrapped in
/// [`StoreError::InvalidGraph`].
pub fn read_graph_auto(
    path: &Path,
    mode: OpenMode,
) -> Result<(PreferenceGraph, &'static str), StoreError> {
    if is_container(path)? {
        let (graph, load) = read_graph(path, mode)?;
        Ok((graph, load.name()))
    } else {
        let graph =
            pcover_graph::io::json::read_json(path, &pcover_graph::io::LoadOptions::default())?;
        Ok((graph, "json"))
    }
}

fn read_section(file: &mut File, s: &SectionEntry) -> Result<Vec<u8>, StoreError> {
    let len = usize::try_from(s.len).map_err(|_| StoreError::TooLarge {
        what: "section length exceeds usize",
    })?;
    let mut bytes = vec![0u8; len];
    file.seek(SeekFrom::Start(s.offset))?;
    file.read_exact(&mut bytes)?;
    Ok(bytes)
}

fn check_section(s: &SectionEntry, bytes: &[u8]) -> Result<(), StoreError> {
    let mut h = Fnv1a::new();
    h.update(bytes);
    let computed = h.finish();
    if computed != s.checksum {
        return Err(StoreError::ChecksumMismatch {
            section: s.id,
            stored: s.checksum,
            computed,
        });
    }
    Ok(())
}

fn required_section(header: &Header, id: u32) -> Result<&SectionEntry, StoreError> {
    // validate_layout guarantees presence; the error path is a defensive
    // typed failure rather than a panic.
    header.section(id).ok_or_else(|| StoreError::SectionTable {
        message: format!("missing section {}", crate::format::section_name(id)),
    })
}

fn decode_f64(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| {
            let mut b = [0u8; 8];
            b.copy_from_slice(c);
            f64::from_le_bytes(b)
        })
        .collect()
}

fn decode_u32(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| {
            let mut b = [0u8; 4];
            b.copy_from_slice(c);
            u32::from_le_bytes(b)
        })
        .collect()
}

fn decode_ids(bytes: &[u8]) -> Vec<ItemId> {
    bytes
        .chunks_exact(4)
        .map(|c| {
            let mut b = [0u8; 4];
            b.copy_from_slice(c);
            ItemId::new(u32::from_le_bytes(b))
        })
        .collect()
}

/// Decodes the labels section: `n` entries of `u32` length + UTF-8 bytes.
fn decode_labels(bytes: &[u8], n: usize) -> Result<Vec<String>, StoreError> {
    let fail = |message: String| StoreError::SectionTable { message };
    let mut labels = Vec::with_capacity(n);
    let mut pos = 0usize;
    for i in 0..n {
        let Some(len_bytes) = bytes.get(pos..pos + 4) else {
            return Err(fail(format!("labels section ends inside entry {i}")));
        };
        let mut b = [0u8; 4];
        b.copy_from_slice(len_bytes);
        let len = u32::from_le_bytes(b) as usize;
        pos += 4;
        let Some(text) = bytes.get(pos..pos + len) else {
            return Err(fail(format!("labels section ends inside entry {i}")));
        };
        let text = std::str::from_utf8(text)
            .map_err(|e| fail(format!("label {i} is not valid UTF-8: {e}")))?;
        labels.push(text.to_string());
        pos += len;
    }
    if pos != bytes.len() {
        return Err(fail(format!(
            "labels section has {} trailing bytes",
            bytes.len() - pos
        )));
    }
    Ok(labels)
}

fn load_labels(file: &mut File, header: &Header) -> Result<Option<Vec<String>>, StoreError> {
    if !header.has_labels() {
        return Ok(None);
    }
    let entry = required_section(header, SEC_LABELS)?;
    let bytes = read_section(file, entry)?;
    check_section(entry, &bytes)?;
    let n = usize::try_from(header.node_count).map_err(|_| StoreError::TooLarge {
        what: "node count exceeds usize",
    })?;
    Ok(Some(decode_labels(&bytes, n)?))
}

/// Buffered load: every section is read, checksummed, decoded into owned
/// vectors, and assembled through `PreferenceGraph::from_csr_parts`.
fn pread_load(mut file: File, header: &Header) -> Result<PreferenceGraph, StoreError> {
    let mut read_checked = |id: u32| -> Result<Vec<u8>, StoreError> {
        let entry = required_section(header, id)?;
        let bytes = read_section(&mut file, entry)?;
        check_section(entry, &bytes)?;
        Ok(bytes)
    };
    let node_weights = decode_f64(&read_checked(SEC_NODE_WEIGHTS)?);
    let out_offsets = decode_u32(&read_checked(SEC_OUT_OFFSETS)?);
    let out_targets = decode_ids(&read_checked(SEC_OUT_TARGETS)?);
    let out_weights = decode_f64(&read_checked(SEC_OUT_WEIGHTS)?);
    let in_offsets = decode_u32(&read_checked(SEC_IN_OFFSETS)?);
    let in_sources = decode_ids(&read_checked(SEC_IN_SOURCES)?);
    let in_weights = decode_f64(&read_checked(SEC_IN_WEIGHTS)?);
    let labels = load_labels(&mut file, header)?;
    let parts = CsrParts {
        node_weights,
        out_offsets,
        out_targets,
        out_weights,
        in_offsets,
        in_sources,
        in_weights,
    };
    Ok(PreferenceGraph::from_csr_parts(parts, labels)?)
}

/// A section's byte range in the file, which `Header::validate_layout`
/// checked against the file length.
#[cfg(all(unix, target_endian = "little"))]
fn byte_range(entry: &SectionEntry) -> Result<std::ops::Range<usize>, StoreError> {
    let too_large = |_| StoreError::TooLarge {
        what: "section extent exceeds usize",
    };
    let start = usize::try_from(entry.offset).map_err(too_large)?;
    Ok(start..start + usize::try_from(entry.len).map_err(too_large)?)
}

/// Zero-copy load: map the file, checksum the mapped section bytes, cast
/// each CSR section once into a [`mmap::MappedCsr`], and hand it to
/// `PreferenceGraph::from_csr_source` (which re-validates the full CSR
/// structure before any solver sees it).
#[cfg(all(unix, target_endian = "little"))]
fn mmap_load(
    mut file: File,
    header: &Header,
    file_len: u64,
) -> Result<PreferenceGraph, StoreError> {
    let map = mmap::Mapping::map(&file, file_len)?;
    for s in &header.sections {
        check_section(s, &map.bytes()[byte_range(s)?])?;
    }
    let labels = load_labels(&mut file, header)?;
    let source = mmap::MappedCsr::new(map, |id| byte_range(required_section(header, id)?))?;
    Ok(PreferenceGraph::from_csr_source(Arc::new(source), labels)?)
}

/// Stub on platforms without the mmap backend.
#[cfg(not(all(unix, target_endian = "little")))]
fn mmap_load(_file: File, _header: &Header, _file_len: u64) -> Result<PreferenceGraph, StoreError> {
    Err(StoreError::Unsupported {
        message: "mmap load path requires a little-endian unix target; use OpenMode::Pread",
    })
}
