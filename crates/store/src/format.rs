//! The on-disk container format: header, section table, checksums.
//!
//! A `.pcov` container is a little-endian binary file:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "PCOVCSR1"
//! 8       4     format version (u32, currently 1)
//! 12      4     flags (bit 0: labels section present)
//! 16      8     node count n (u64)
//! 24      8     edge count m (u64)
//! 32      1     variant hint (0 unspecified, 1 independent, 2 normalized)
//! 33      7     reserved, zero
//! 40      4     section count (u32)
//! 44      4     reserved, zero
//! 48      8     header checksum: FNV-1a 64 over bytes [0, 48) + the table
//! 56      32*k  section table, one entry per section:
//!                 { id u32, reserved u32, offset u64, len u64, checksum u64 }
//! ...           sections, each starting at a 64-byte-aligned offset,
//!               zero-padded gaps, each FNV-1a-64 checksummed
//! ```
//!
//! Versioning: readers accept exactly [`FORMAT_VERSION`]; any other version
//! fails with `UnsupportedVersion` (no silent best-effort decoding). Unknown
//! *sections* are tolerated on read — a future writer may append new section
//! ids without breaking old required sections — but unknown header flags are
//! rejected, since flags change the meaning of what is present.

// lint: allow-file(no-index) — header encode/decode indexes fixed offsets into a
// buffer whose length is checked once up front (HEADER_LEN + section table); the
// windows(2) pairs are always length 2 by construction.

use crate::error::StoreError;

/// Magic bytes identifying a pcover CSR container.
pub const MAGIC: [u8; 8] = *b"PCOVCSR1";

/// The container format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// Every section begins at a multiple of this alignment so a page-aligned
/// mmap base yields properly aligned `u32`/`f64` slices (and full cache
/// lines) without copying.
pub const SECTION_ALIGN: u64 = 64;

/// Header flag: the optional labels section is present.
pub const FLAG_LABELS: u32 = 1;

/// All flag bits this version understands.
pub const KNOWN_FLAGS: u32 = FLAG_LABELS;

/// Fixed-size part of the header preceding the section table.
pub const HEADER_LEN: u64 = 56;

/// Size of one section table entry.
pub const SECTION_ENTRY_LEN: u64 = 32;

/// Section id: node weights, `n × f64`.
pub const SEC_NODE_WEIGHTS: u32 = 1;
/// Section id: out-CSR row offsets, `(n + 1) × u32`.
pub const SEC_OUT_OFFSETS: u32 = 2;
/// Section id: out-CSR edge targets, `m × u32`.
pub const SEC_OUT_TARGETS: u32 = 3;
/// Section id: out-CSR edge weights, `m × f64`.
pub const SEC_OUT_WEIGHTS: u32 = 4;
/// Section id: in-CSR row offsets, `(n + 1) × u32`.
pub const SEC_IN_OFFSETS: u32 = 5;
/// Section id: in-CSR edge sources, `m × u32`.
pub const SEC_IN_SOURCES: u32 = 6;
/// Section id: in-CSR edge weights, `m × f64`.
pub const SEC_IN_WEIGHTS: u32 = 7;
/// Section id: optional node labels (`n × (u32 length + UTF-8 bytes)`).
pub const SEC_LABELS: u32 = 8;

/// The seven CSR sections every container must carry, in file order.
pub const REQUIRED_SECTIONS: [u32; 7] = [
    SEC_NODE_WEIGHTS,
    SEC_OUT_OFFSETS,
    SEC_OUT_TARGETS,
    SEC_OUT_WEIGHTS,
    SEC_IN_OFFSETS,
    SEC_IN_SOURCES,
    SEC_IN_WEIGHTS,
];

/// Human-readable section name for diagnostics (`probe`, error messages).
pub fn section_name(id: u32) -> &'static str {
    match id {
        0 => "header",
        SEC_NODE_WEIGHTS => "node_weights",
        SEC_OUT_OFFSETS => "out_offsets",
        SEC_OUT_TARGETS => "out_targets",
        SEC_OUT_WEIGHTS => "out_weights",
        SEC_IN_OFFSETS => "in_offsets",
        SEC_IN_SOURCES => "in_sources",
        SEC_IN_WEIGHTS => "in_weights",
        SEC_LABELS => "labels",
        _ => "unknown",
    }
}

/// What the writer claims about the graph's edge-weight semantics. Purely
/// informational metadata: the solver variant is still chosen at solve time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VariantHint {
    /// No claim recorded.
    #[default]
    Unspecified,
    /// Edge weights are independent acceptance probabilities.
    Independent,
    /// Each node's out-weights sum to at most 1.
    Normalized,
}

impl VariantHint {
    /// The byte stored in the header.
    pub fn to_byte(self) -> u8 {
        match self {
            VariantHint::Unspecified => 0,
            VariantHint::Independent => 1,
            VariantHint::Normalized => 2,
        }
    }

    /// Decodes the header byte; unknown values degrade to `Unspecified`
    /// (the hint is advisory, not load-bearing).
    pub fn from_byte(b: u8) -> Self {
        match b {
            1 => VariantHint::Independent,
            2 => VariantHint::Normalized,
            _ => VariantHint::Unspecified,
        }
    }

    /// Name used by `probe` output.
    pub fn name(self) -> &'static str {
        match self {
            VariantHint::Unspecified => "unspecified",
            VariantHint::Independent => "independent",
            VariantHint::Normalized => "normalized",
        }
    }
}

/// One entry of the section table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionEntry {
    /// Section id (`SEC_*`).
    pub id: u32,
    /// Absolute file offset of the first byte; multiple of [`SECTION_ALIGN`].
    pub offset: u64,
    /// Exact payload length in bytes (padding excluded).
    pub len: u64,
    /// FNV-1a 64 checksum of the payload bytes.
    pub checksum: u64,
}

/// The decoded fixed header plus section table.
#[derive(Clone, Debug)]
pub struct Header {
    /// Format version stamped in the file.
    pub version: u32,
    /// Flag bits (see `FLAG_*`).
    pub flags: u32,
    /// Number of nodes.
    pub node_count: u64,
    /// Number of directed edges.
    pub edge_count: u64,
    /// Advisory variant metadata.
    pub variant: VariantHint,
    /// Section table in file order.
    pub sections: Vec<SectionEntry>,
}

impl Header {
    /// Looks up a section by id.
    pub fn section(&self, id: u32) -> Option<&SectionEntry> {
        self.sections.iter().find(|s| s.id == id)
    }

    /// Whether the labels section is present (per flags).
    pub fn has_labels(&self) -> bool {
        self.flags & FLAG_LABELS != 0
    }

    /// Total encoded length of header + section table.
    pub fn encoded_len(&self) -> u64 {
        HEADER_LEN + self.sections.len() as u64 * SECTION_ENTRY_LEN
    }

    /// Serializes the header and section table, computing the header
    /// checksum over everything but the checksum field itself.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len() as usize);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.flags.to_le_bytes());
        out.extend_from_slice(&self.node_count.to_le_bytes());
        out.extend_from_slice(&self.edge_count.to_le_bytes());
        out.push(self.variant.to_byte());
        out.extend_from_slice(&[0u8; 7]);
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        out.extend_from_slice(&[0u8; 4]);
        // Placeholder for the checksum; patched below.
        out.extend_from_slice(&[0u8; 8]);
        for s in &self.sections {
            out.extend_from_slice(&s.id.to_le_bytes());
            out.extend_from_slice(&[0u8; 4]);
            out.extend_from_slice(&s.offset.to_le_bytes());
            out.extend_from_slice(&s.len.to_le_bytes());
            out.extend_from_slice(&s.checksum.to_le_bytes());
        }
        let checksum = header_checksum(&out);
        out[48..56].copy_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses and verifies the fixed header from `bytes` (which must hold
    /// at least the fixed part; the table may extend beyond).
    ///
    /// # Errors
    ///
    /// Typed [`StoreError`]s for truncation, bad magic, version or flag
    /// mismatch, checksum mismatch and malformed section counts.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        if bytes.len() < HEADER_LEN as usize {
            return Err(StoreError::Truncated {
                what: "fixed header",
                needed: HEADER_LEN,
                available: bytes.len() as u64,
            });
        }
        let magic: [u8; 8] = read_array(bytes, 0);
        if magic != MAGIC {
            return Err(StoreError::BadMagic { found: magic });
        }
        let version = u32::from_le_bytes(read_array(bytes, 8));
        if version != FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let flags = u32::from_le_bytes(read_array(bytes, 12));
        if flags & !KNOWN_FLAGS != 0 {
            return Err(StoreError::SectionTable {
                message: format!("unknown header flags {:#x}", flags & !KNOWN_FLAGS),
            });
        }
        let node_count = u64::from_le_bytes(read_array(bytes, 16));
        let edge_count = u64::from_le_bytes(read_array(bytes, 24));
        let variant = VariantHint::from_byte(bytes[32]);
        let section_count = u32::from_le_bytes(read_array(bytes, 40)) as usize;
        // 64 sections is far beyond anything this version writes; the cap
        // keeps a corrupt count from driving a huge read.
        if section_count == 0 || section_count > 64 {
            return Err(StoreError::SectionTable {
                message: format!("implausible section count {section_count}"),
            });
        }
        let stored_checksum = u64::from_le_bytes(read_array(bytes, 48));
        let table_len = section_count as u64 * SECTION_ENTRY_LEN;
        let total = HEADER_LEN + table_len;
        if (bytes.len() as u64) < total {
            return Err(StoreError::Truncated {
                what: "section table",
                needed: total,
                available: bytes.len() as u64,
            });
        }
        let encoded = &bytes[..total as usize];
        let computed = header_checksum(encoded);
        if computed != stored_checksum {
            return Err(StoreError::ChecksumMismatch {
                section: 0,
                stored: stored_checksum,
                computed,
            });
        }
        let mut sections = Vec::with_capacity(section_count);
        for i in 0..section_count {
            let base = HEADER_LEN as usize + i * SECTION_ENTRY_LEN as usize;
            sections.push(SectionEntry {
                id: u32::from_le_bytes(read_array(bytes, base)),
                offset: u64::from_le_bytes(read_array(bytes, base + 8)),
                len: u64::from_le_bytes(read_array(bytes, base + 16)),
                checksum: u64::from_le_bytes(read_array(bytes, base + 24)),
            });
        }
        Ok(Header {
            version,
            flags,
            node_count,
            edge_count,
            variant,
            sections,
        })
    }

    /// Structural validation of the section table against the header
    /// counts and the file length: required sections present exactly once,
    /// 64-byte alignment, in-bounds non-overlapping extents, and payload
    /// lengths that match `n`/`m`.
    ///
    /// # Errors
    ///
    /// [`StoreError::SectionTable`] / [`StoreError::MisalignedSection`] /
    /// [`StoreError::Truncated`] describing the first violation found.
    pub fn validate_layout(&self, file_len: u64) -> Result<(), StoreError> {
        let n = self.node_count;
        let m = self.edge_count;
        // The graph indexes nodes and edges with u32; capping here also
        // keeps the length arithmetic below comfortably inside u64.
        if n > u64::from(u32::MAX) {
            return Err(StoreError::TooLarge {
                what: "node count exceeds u32 index space",
            });
        }
        if m > u64::from(u32::MAX) {
            return Err(StoreError::TooLarge {
                what: "edge count exceeds u32 index space",
            });
        }
        let expected_len = |id: u32| -> Option<u64> {
            match id {
                SEC_NODE_WEIGHTS => Some(n * 8),
                SEC_OUT_OFFSETS | SEC_IN_OFFSETS => Some((n + 1) * 4),
                SEC_OUT_TARGETS | SEC_IN_SOURCES => Some(m * 4),
                SEC_OUT_WEIGHTS | SEC_IN_WEIGHTS => Some(m * 8),
                _ => None,
            }
        };
        for id in REQUIRED_SECTIONS {
            let count = self.sections.iter().filter(|s| s.id == id).count();
            if count != 1 {
                return Err(StoreError::SectionTable {
                    message: format!(
                        "section {} appears {count} times (want exactly 1)",
                        section_name(id)
                    ),
                });
            }
        }
        let labels = self.sections.iter().filter(|s| s.id == SEC_LABELS).count();
        if self.has_labels() && labels != 1 {
            return Err(StoreError::SectionTable {
                message: format!("labels flag set but {labels} labels sections present"),
            });
        }
        if !self.has_labels() && labels != 0 {
            return Err(StoreError::SectionTable {
                message: "labels section present without the labels flag".into(),
            });
        }
        let mut extents: Vec<(u64, u64, u32)> = Vec::with_capacity(self.sections.len());
        for s in &self.sections {
            if s.offset % SECTION_ALIGN != 0 {
                return Err(StoreError::MisalignedSection {
                    section: s.id,
                    offset: s.offset,
                });
            }
            if s.offset < self.encoded_len() {
                return Err(StoreError::SectionTable {
                    message: format!(
                        "section {} at offset {} overlaps the header",
                        section_name(s.id),
                        s.offset
                    ),
                });
            }
            let end = s.offset.checked_add(s.len).ok_or(StoreError::TooLarge {
                what: "section extent overflows u64",
            })?;
            if end > file_len {
                return Err(StoreError::Truncated {
                    what: section_name(s.id),
                    needed: end,
                    available: file_len,
                });
            }
            if let Some(want) = expected_len(s.id) {
                if s.len != want {
                    return Err(StoreError::SectionTable {
                        message: format!(
                            "section {} has length {} but header counts require {want}",
                            section_name(s.id),
                            s.len
                        ),
                    });
                }
            }
            extents.push((s.offset, end, s.id));
        }
        extents.sort_unstable();
        for pair in extents.windows(2) {
            if pair[1].0 < pair[0].1 {
                return Err(StoreError::SectionTable {
                    message: format!(
                        "sections {} and {} overlap",
                        section_name(pair[0].2),
                        section_name(pair[1].2)
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Reads a fixed-size array out of `bytes` at `offset`.
///
/// Callers bound-check first (all call sites sit behind explicit length
/// guards), so the copy cannot slice out of range.
fn read_array<const N: usize>(bytes: &[u8], offset: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&bytes[offset..offset + N]);
    out
}

/// FNV-1a 64 over the encoded header + table with the checksum field
/// itself zeroed (bytes 48..56).
fn header_checksum(encoded: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(&encoded[..48]);
    h.update(&[0u8; 8]);
    h.update(&encoded[56..]);
    h.finish()
}

/// Incremental FNV-1a 64-bit hasher, chosen for zero dependencies and
/// streaming use (the serve memo's config fingerprint reuses it).
#[derive(Clone, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Feeds `bytes` into the hash.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Rounds `offset` up to the next multiple of [`SECTION_ALIGN`].
pub fn align_up(offset: u64) -> u64 {
    offset.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> Header {
        let sections = vec![
            SectionEntry {
                id: SEC_NODE_WEIGHTS,
                offset: 320,
                len: 32,
                checksum: 7,
            },
            SectionEntry {
                id: SEC_OUT_OFFSETS,
                offset: 384,
                len: 20,
                checksum: 8,
            },
        ];
        Header {
            version: FORMAT_VERSION,
            flags: 0,
            node_count: 4,
            edge_count: 3,
            variant: VariantHint::Independent,
            sections,
        }
    }

    #[test]
    fn header_encode_decode_round_trip() {
        let h = sample_header();
        let bytes = h.encode();
        assert_eq!(bytes.len() as u64, h.encoded_len());
        let back = Header::decode(&bytes).expect("round trip");
        assert_eq!(back.node_count, 4);
        assert_eq!(back.edge_count, 3);
        assert_eq!(back.variant, VariantHint::Independent);
        assert_eq!(back.sections, h.sections);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample_header().encode();
        bytes[0] = b'X';
        assert!(matches!(
            Header::decode(&bytes),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut h = sample_header();
        h.version = FORMAT_VERSION + 1;
        let bytes = h.encode();
        assert!(matches!(
            Header::decode(&bytes),
            Err(StoreError::UnsupportedVersion { found, .. }) if found == FORMAT_VERSION + 1
        ));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let mut h = sample_header();
        h.flags = 0x80;
        let bytes = h.encode();
        assert!(matches!(
            Header::decode(&bytes),
            Err(StoreError::SectionTable { .. })
        ));
    }

    #[test]
    fn truncated_header_is_typed() {
        let bytes = sample_header().encode();
        assert!(matches!(
            Header::decode(&bytes[..20]),
            Err(StoreError::Truncated { .. })
        ));
        assert!(matches!(
            Header::decode(&bytes[..HEADER_LEN as usize + 10]),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn flipped_byte_fails_the_header_checksum() {
        let mut bytes = sample_header().encode();
        // Mutate the node count; the header checksum must catch it.
        bytes[16] ^= 0xff;
        assert!(matches!(
            Header::decode(&bytes),
            Err(StoreError::ChecksumMismatch { section: 0, .. })
        ));
    }

    /// A header listing every required section with correct lengths for
    /// `(n, m)`, laid out back-to-back with alignment. Returns the header
    /// and the file length it expects.
    fn full_header(n: u64, m: u64) -> (Header, u64) {
        let mut offset = 320;
        let mut sections = Vec::new();
        for id in REQUIRED_SECTIONS {
            let len = match id {
                SEC_NODE_WEIGHTS => n * 8,
                SEC_OUT_OFFSETS | SEC_IN_OFFSETS => (n + 1) * 4,
                SEC_OUT_TARGETS | SEC_IN_SOURCES => m * 4,
                _ => m * 8,
            };
            sections.push(SectionEntry {
                id,
                offset,
                len,
                checksum: 0,
            });
            offset = align_up(offset + len);
        }
        let h = Header {
            version: FORMAT_VERSION,
            flags: 0,
            node_count: n,
            edge_count: m,
            variant: VariantHint::Unspecified,
            sections,
        };
        (h, offset)
    }

    #[test]
    fn layout_rejects_misalignment_and_overlap() {
        let (mut h, file_len) = full_header(2, 1);
        h.sections[0].offset += 1; // 64-byte alignment broken
        assert!(matches!(
            h.validate_layout(file_len + 64),
            Err(StoreError::MisalignedSection { .. })
        ));

        let (mut h, file_len) = full_header(2, 1);
        h.sections[1].offset = h.sections[0].offset; // overlap
        assert!(matches!(
            h.validate_layout(file_len),
            Err(StoreError::SectionTable { .. })
        ));
    }

    #[test]
    fn layout_rejects_wrong_section_length_and_truncation() {
        let (h, offset) = full_header(2, 1);
        assert!(h.validate_layout(offset).is_ok());
        // Short file: last section truncated.
        assert!(matches!(
            h.validate_layout(offset - 70),
            Err(StoreError::Truncated { .. })
        ));
        // Wrong length for a counted section.
        let mut bad = h.clone();
        bad.sections[0].len += 8;
        assert!(matches!(
            bad.validate_layout(offset + 64),
            Err(StoreError::SectionTable { .. })
        ));
        // Duplicate required section.
        let mut bad = h.clone();
        bad.sections.push(bad.sections[0]);
        assert!(matches!(
            bad.validate_layout(offset),
            Err(StoreError::SectionTable { .. })
        ));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Known FNV-1a 64 vectors.
        let mut h = Fnv1a::new();
        h.update(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn align_up_is_monotone() {
        assert_eq!(align_up(0), 0);
        assert_eq!(align_up(1), 64);
        assert_eq!(align_up(64), 64);
        assert_eq!(align_up(65), 128);
    }
}
