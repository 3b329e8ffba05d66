//! The crate's **only** unsafe module: a read-only `mmap(2)` wrapper and
//! the byte→typed-slice casts behind the zero-copy load path.
//!
//! # Safety argument
//!
//! Everything `unsafe` in this crate lives in this file (enforced by the
//! `unsafe-scope` xtask audit rule) and reduces to three obligations:
//!
//! 1. **Mapping lifetime** — [`Mapping`] owns the region returned by a
//!    successful `mmap` and is the only place that calls `munmap` (in
//!    `Drop`). Slices derived from it borrow the `Mapping`, so the borrow
//!    checker guarantees no access after unmap.
//! 2. **Read-only sharing** — the region is mapped `PROT_READ` +
//!    `MAP_PRIVATE`: no thread can write through it, so `Send`/`Sync` for
//!    the owning type is sound (it is an immutable byte array). A
//!    concurrent writer truncating the *file* could still fault readers —
//!    which is why callers snapshot the file length once and validate every
//!    section extent against it before mapping, and the container contract
//!    declares in-place modification of a mapped container undefined at the
//!    operational (not memory-safety beyond SIGBUS) level, exactly like
//!    every other mmap consumer.
//! 3. **Typed views** — [`cast_f64`] / [`cast_u32`] / [`cast_item_ids`]
//!    reinterpret `&[u8]` as `&[f64]` / `&[u32]` / `&[ItemId]`. Soundness
//!    needs correct alignment, length divisibility, and valid bit patterns:
//!    alignment and divisibility are asserted here (and guaranteed by the
//!    container's 64-byte section alignment over a page-aligned base);
//!    every bit pattern is a valid `u32`/`f64`; and `ItemId` is
//!    `#[repr(transparent)]` over `u32`. Only little-endian unix targets
//!    compile this module (`cfg` below) — byte order on disk *is* the
//!    in-memory representation there.
//! 4. **Checked once** — `MappedCsr` casts each CSR section once, at
//!    load, and keeps its offset and length; its `csr` view rebuilds the
//!    slices unchecked from casts that passed the asserts above.
//!
//! The `extern "C"` declarations are hand-written because the build
//! vendors no `libc` crate; the symbols come from the platform libc that
//! `std` already links.

// The workspace forbids unsafe code; this crate downgrades to `deny` so
// that exactly this module can opt back in, with the audit rule pinning
// any future unsafe to this file.
#![allow(unsafe_code)]

use pcover_graph::ItemId;

#[cfg(all(unix, target_endian = "little"))]
pub(crate) use enabled::{MappedCsr, Mapping};

/// Whether the zero-copy mmap backend exists in this build.
pub(crate) const MMAP_SUPPORTED: bool = cfg!(all(unix, target_endian = "little"));

#[cfg(all(unix, target_endian = "little"))]
mod enabled {
    use std::fs::File;
    use std::io;
    use std::marker::PhantomData;
    use std::ops::Range;
    use std::os::fd::AsRawFd;

    use pcover_graph::{Csr, CsrSource, ItemId};

    use super::{cast_f64, cast_item_ids, cast_u32};
    use crate::error::StoreError;
    use crate::format::{
        SEC_IN_OFFSETS, SEC_IN_SOURCES, SEC_IN_WEIGHTS, SEC_NODE_WEIGHTS, SEC_OUT_OFFSETS,
        SEC_OUT_TARGETS, SEC_OUT_WEIGHTS,
    };

    // Hand-declared bindings for the two syscall wrappers this module
    // needs. Constants are the x86_64/aarch64 Linux *and* BSD/macOS values
    // for these particular flags (PROT_READ=1, MAP_PRIVATE=2 agree across
    // the unix family this repo builds on).
    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    /// An owned, read-only, private file mapping.
    #[derive(Debug)]
    pub(crate) struct Mapping {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the region is PROT_READ/MAP_PRIVATE — an immutable byte
    // array for this process — and `Mapping` is the unique owner of the
    // unmap, so sharing references across threads is as sound as sharing
    // `&[u8]`.
    unsafe impl Send for Mapping {}
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Maps the first `len` bytes of `file` read-only.
        pub(crate) fn map(file: &File, len: u64) -> Result<Self, StoreError> {
            let len = usize::try_from(len).map_err(|_| StoreError::TooLarge {
                what: "file length exceeds usize",
            })?;
            if len == 0 {
                // mmap(len = 0) is EINVAL; a zero-length container cannot
                // even hold a header, so this is unreachable through the
                // public API — handled defensively for completeness.
                return Err(StoreError::Unsupported {
                    message: "cannot map an empty file",
                });
            }
            // SAFETY: fd is a valid open file descriptor for the lifetime
            // of the call; addr=null lets the kernel choose placement;
            // offset 0 is page-aligned. A failed map returns MAP_FAILED
            // (-1), checked below, and ownership of a successful map is
            // transferred into the returned value whose Drop unmaps it.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(StoreError::Io(io::Error::last_os_error()));
            }
            Ok(Mapping {
                ptr: ptr as *const u8,
                len,
            })
        }

        /// The mapped bytes.
        pub(crate) fn bytes(&self) -> &[u8] {
            // SAFETY: `ptr` points at a live `len`-byte PROT_READ mapping
            // owned by `self`; the returned slice borrows `self`, so it
            // cannot outlive the mapping.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` describe exactly the region obtained
            // from `mmap`, unmapped exactly once here. A failure return is
            // ignored: the region is gone or never existed, and Drop has
            // no error channel.
            unsafe {
                munmap(self.ptr as *mut core::ffi::c_void, self.len);
            }
        }
    }

    /// Where a section that was cast to `&[T]` at load sits in the
    /// mapping: its byte offset and its length in `T`s.
    #[derive(Clone, Copy, Debug)]
    struct Section<T>(usize, usize, PhantomData<T>);

    impl<T> Section<T> {
        /// Casts `bytes[range]` with `cast`: one of the `cast_*`
        /// functions, which assert its alignment and length and view
        /// exactly the bytes they are given.
        fn checked(
            bytes: &[u8],
            range: Range<usize>,
            cast: fn(&[u8]) -> &[T],
        ) -> Result<Self, StoreError> {
            let (start, end) = (range.start, range.end as u64);
            let section = bytes.get(range).ok_or(StoreError::Truncated {
                what: "a CSR section",
                needed: end,
                available: bytes.len() as u64,
            })?;
            Ok(Section(start, cast(section).len(), PhantomData))
        }

        /// The cast slice again, unchecked.
        ///
        /// # Safety
        ///
        /// `map` must be the mapping this section was cast from.
        unsafe fn view(self, map: &Mapping) -> &[T] {
            // SAFETY: `Section::checked` made a `&[T]` of these `self.1`
            // elements at byte `self.0` of `map`, asserting alignment and
            // length; the mapping is immutable and outlives the borrow.
            unsafe { std::slice::from_raw_parts(map.ptr.add(self.0).cast(), self.1) }
        }
    }

    /// A zero-copy [`CsrSource`] over a mapped container: each CSR section
    /// is cast once at load, and `csr` rebuilds the seven slices unchecked.
    #[derive(Debug)]
    pub(crate) struct MappedCsr {
        map: Mapping,
        node_weights: Section<f64>,
        out_offsets: Section<u32>,
        out_targets: Section<ItemId>,
        out_weights: Section<f64>,
        in_offsets: Section<u32>,
        in_sources: Section<ItemId>,
        in_weights: Section<f64>,
    }

    impl MappedCsr {
        /// Casts the seven CSR sections of `map` (panicking as the `cast_*`
        /// functions do), where `range(id)` is section `id`'s byte range,
        /// already checked against the file length.
        pub(crate) fn new(
            map: Mapping,
            range: impl Fn(u32) -> Result<Range<usize>, StoreError>,
        ) -> Result<Self, StoreError> {
            let bytes = map.bytes();
            let f64s = |id| range(id).and_then(|r| Section::checked(bytes, r, cast_f64));
            let u32s = |id| range(id).and_then(|r| Section::checked(bytes, r, cast_u32));
            let ids = |id| range(id).and_then(|r| Section::checked(bytes, r, cast_item_ids));
            Ok(MappedCsr {
                node_weights: f64s(SEC_NODE_WEIGHTS)?,
                out_offsets: u32s(SEC_OUT_OFFSETS)?,
                out_targets: ids(SEC_OUT_TARGETS)?,
                out_weights: f64s(SEC_OUT_WEIGHTS)?,
                in_offsets: u32s(SEC_IN_OFFSETS)?,
                in_sources: ids(SEC_IN_SOURCES)?,
                in_weights: f64s(SEC_IN_WEIGHTS)?,
                map,
            })
        }
    }

    impl CsrSource for MappedCsr {
        fn csr(&self) -> Csr<'_> {
            let map = &self.map;
            // SAFETY: every section was cast from `self.map` in `new`.
            unsafe {
                Csr {
                    node_weights: self.node_weights.view(map),
                    out_offsets: self.out_offsets.view(map),
                    out_targets: self.out_targets.view(map),
                    out_weights: self.out_weights.view(map),
                    in_offsets: self.in_offsets.view(map),
                    in_sources: self.in_sources.view(map),
                    in_weights: self.in_weights.view(map),
                }
            }
        }
    }
}

/// Reinterprets container section bytes as `f64` values.
///
/// # Panics
///
/// Asserts 8-byte alignment and length divisibility. Both hold by
/// construction for any section handed out by the container layer
/// (64-byte-aligned offsets over a page-aligned base, length checked
/// against the header counts); the asserts are the audited backstop that
/// turns a would-be soundness bug into a deterministic panic.
pub(crate) fn cast_f64(bytes: &[u8]) -> &[f64] {
    assert_eq!(bytes.len() % std::mem::size_of::<f64>(), 0);
    assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<f64>(), 0);
    // SAFETY: alignment and length asserted above; every 8-byte pattern is
    // a valid f64; the cast slice borrows the same region as `bytes`.
    unsafe {
        std::slice::from_raw_parts(
            bytes.as_ptr().cast::<f64>(),
            bytes.len() / std::mem::size_of::<f64>(),
        )
    }
}

/// Reinterprets container section bytes as `u32` values.
///
/// # Panics
///
/// As [`cast_f64`].
pub(crate) fn cast_u32(bytes: &[u8]) -> &[u32] {
    assert_eq!(bytes.len() % std::mem::size_of::<u32>(), 0);
    assert_eq!(bytes.as_ptr() as usize % std::mem::align_of::<u32>(), 0);
    // SAFETY: alignment and length asserted above; every 4-byte pattern is
    // a valid u32; the cast slice borrows the same region as `bytes`.
    unsafe {
        std::slice::from_raw_parts(
            bytes.as_ptr().cast::<u32>(),
            bytes.len() / std::mem::size_of::<u32>(),
        )
    }
}

/// Reinterprets container section bytes as [`ItemId`] values.
///
/// # Panics
///
/// As [`cast_f64`].
pub(crate) fn cast_item_ids(bytes: &[u8]) -> &[ItemId] {
    // SAFETY: `ItemId` is `#[repr(transparent)]` over `u32`, so a valid
    // `&[u32]` view is a valid `&[ItemId]` view of the same bytes.
    let words = cast_u32(bytes);
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<ItemId>(), words.len()) }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exactly-representable constants
mod tests {
    use super::*;

    /// Byte view of a typed slice — test-only inverse of the cast helpers.
    fn as_bytes<T>(v: &[T]) -> &[u8] {
        // SAFETY: any initialized slice may be viewed as its raw bytes;
        // the view borrows `v`.
        unsafe { std::slice::from_raw_parts(v.as_ptr().cast::<u8>(), std::mem::size_of_val(v)) }
    }

    #[test]
    fn casts_round_trip_typed_views() {
        let weights: Vec<f64> = vec![0.25, 0.5, 1.0];
        assert_eq!(cast_f64(as_bytes(&weights)), &weights[..]);
        let ids: Vec<u32> = vec![1, 2, 3];
        assert_eq!(cast_u32(as_bytes(&ids)), &ids[..]);
        assert_eq!(cast_item_ids(as_bytes(&ids))[2], ItemId::new(3));
    }

    #[cfg(all(unix, target_endian = "little"))]
    #[test]
    fn mapping_reads_file_bytes_and_unmaps() {
        let dir = std::env::temp_dir().join(format!("pcover-mmap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("map.bin");
        std::fs::write(&path, b"hello mapping").expect("write");
        let file = std::fs::File::open(&path).expect("open");
        let map = Mapping::map(&file, 13).expect("map");
        assert_eq!(map.bytes(), b"hello mapping");
        drop(map); // munmap; nothing to assert beyond "no crash"
        std::fs::remove_file(&path).ok();
    }

    #[cfg(all(unix, target_endian = "little"))]
    #[test]
    fn mapping_rejects_empty_files() {
        let dir = std::env::temp_dir().join(format!("pcover-mmap-test0-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").expect("write");
        let file = std::fs::File::open(&path).expect("open");
        assert!(Mapping::map(&file, 0).is_err());
        std::fs::remove_file(&path).ok();
    }
}
