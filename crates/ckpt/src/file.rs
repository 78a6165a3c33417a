//! The checkpoint file format: versioned, checksummed, owner-stamped.
//!
//! ```text
//! +--------+---------+-------------+---------------------+----------+
//! | "ORCK" | version | fingerprint | payload (len-prefix)| fnv1a64  |
//! | 4 B    | u32 LE  | u64 LE      | u64 LE + bytes      | u64 LE   |
//! +--------+---------+-------------+---------------------+----------+
//! ```
//!
//! The footer checksum covers every preceding byte, so a torn write, a
//! bit flip or a truncation is detected *before* the payload is even
//! parsed — corruption surfaces as a typed [`CkptError`], never a
//! panic and never silently-wrong simulation state. The fingerprint
//! stamps which experiment owns the snapshot; loading under a
//! different fingerprint is rejected the same way a wrong-shape
//! network image would be, just earlier and cheaper.
//!
//! Files are written with [`write_atomic`], so a crash mid-save leaves
//! either the previous complete checkpoint or the new complete one.
//! The failpoints `ckpt.write` and `ckpt.restore` fire at the
//! respective boundaries for crash testing.

use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};

use orion_core::failpoint;
use orion_core::RunCheckpoint;
use orion_sim::snapshot::{ByteReader, ByteWriter};
use orion_sim::SnapshotError;

use crate::hash::{fnv1a64, to_hex};
use crate::io::write_atomic;

/// Leading magic bytes of every checkpoint file.
pub const CKPT_MAGIC: [u8; 4] = *b"ORCK";

/// Version of the checkpoint *file* framing (magic, fingerprint,
/// checksum). The run-state payload is versioned separately by
/// [`orion_core::RUN_CHECKPOINT_VERSION`].
pub const CKPT_SCHEMA_VERSION: u32 = 1;

/// Why a checkpoint file could not be saved or loaded. Every variant
/// is a typed, recoverable condition — corruption of any kind degrades
/// to "no checkpoint" (cycle-0 replay), never a panic.
#[derive(Debug)]
pub enum CkptError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file is shorter than its declared structure.
    Truncated,
    /// The file does not start with [`CKPT_MAGIC`].
    BadMagic,
    /// The file framing has an unknown version.
    WrongVersion(u32),
    /// The footer checksum does not match the file contents.
    ChecksumMismatch,
    /// The file belongs to a different experiment.
    WrongFingerprint {
        /// The fingerprint the caller expected.
        expected: u64,
        /// The fingerprint stamped in the file.
        found: u64,
    },
    /// The framing is intact but the run-state payload is not.
    Payload(SnapshotError),
    /// An armed failpoint injected this failure (crash testing).
    Injected(failpoint::FailpointError),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O failed: {e}"),
            CkptError::Truncated => write!(f, "checkpoint file truncated"),
            CkptError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CkptError::WrongVersion(v) => write!(f, "unknown checkpoint file version {v}"),
            CkptError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CkptError::WrongFingerprint { expected, found } => write!(
                f,
                "checkpoint belongs to a different experiment \
                 (expected fingerprint {}, found {})",
                to_hex(*expected),
                to_hex(*found)
            ),
            CkptError::Payload(e) => write!(f, "checkpoint payload invalid: {e}"),
            CkptError::Injected(e) => write!(f, "{e}"),
        }
    }
}

impl Error for CkptError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            CkptError::Payload(e) => Some(e),
            CkptError::Injected(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> CkptError {
        CkptError::Io(e)
    }
}

/// The canonical on-disk location for a cell's checkpoint under a
/// cache directory: `<cache_dir>/ckpt/<fingerprint-hex>.ckpt`.
pub fn checkpoint_path(cache_dir: &Path, fingerprint: u64) -> PathBuf {
    cache_dir
        .join("ckpt")
        .join(format!("{}.ckpt", to_hex(fingerprint)))
}

/// Encodes a checkpoint into the framed byte form (shared by
/// [`save_checkpoint`] and the tests that corrupt files surgically).
///
/// The frame is written into one buffer sized up front, so the
/// network image is copied once, straight into its final place.
pub fn encode_checkpoint(fingerprint: u64, ck: &RunCheckpoint) -> Vec<u8> {
    let payload_len = ck.encoded_len();
    let mut w = ByteWriter::with_capacity(CKPT_MAGIC.len() + 4 + 8 + 8 + payload_len + 8);
    w.bytes(&CKPT_MAGIC);
    w.u32(CKPT_SCHEMA_VERSION);
    w.u64(fingerprint);
    w.usize(payload_len);
    let start = w.len();
    ck.encode(&mut w);
    debug_assert_eq!(w.len() - start, payload_len, "encoded_len is exact");
    let sum = fnv1a64(w.as_slice());
    w.u64(sum);
    w.into_vec()
}

/// Decodes framed checkpoint bytes, validating magic, version,
/// checksum and owner before touching the payload.
///
/// # Errors
///
/// A typed [`CkptError`] for any malformation; no byte sequence
/// panics.
pub fn decode_checkpoint(bytes: &[u8], fingerprint: u64) -> Result<RunCheckpoint, CkptError> {
    // The footer is validated first: everything else is untrustworthy
    // until the checksum says the bytes are the ones that were written.
    if bytes.len() < 8 {
        return Err(CkptError::Truncated);
    }
    let (body, footer) = bytes.split_at(bytes.len() - 8);
    let mut f = ByteReader::new(footer);
    let declared = f.u64().map_err(|_| CkptError::Truncated)?;
    if fnv1a64(body) != declared {
        return Err(CkptError::ChecksumMismatch);
    }
    let mut r = ByteReader::new(body);
    let magic = r.take_bytes(4).map_err(|_| CkptError::Truncated)?;
    if magic != CKPT_MAGIC {
        return Err(CkptError::BadMagic);
    }
    let version = r.u32().map_err(|_| CkptError::Truncated)?;
    if version != CKPT_SCHEMA_VERSION {
        return Err(CkptError::WrongVersion(version));
    }
    let found = r.u64().map_err(|_| CkptError::Truncated)?;
    if found != fingerprint {
        return Err(CkptError::WrongFingerprint {
            expected: fingerprint,
            found,
        });
    }
    let len = r.count(1).map_err(|_| CkptError::Truncated)?;
    let payload = r.take_bytes(len).map_err(|_| CkptError::Truncated)?;
    if !r.is_empty() {
        return Err(CkptError::Payload(SnapshotError::Invalid("trailing bytes")));
    }
    RunCheckpoint::from_bytes(payload).map_err(CkptError::Payload)
}

/// Persists a checkpoint atomically at `path`, stamped with its
/// owner's `fingerprint`. Parent directories are created as needed.
/// Failpoint: `ckpt.write`.
///
/// # Errors
///
/// [`CkptError::Io`] from the filesystem; [`CkptError::Injected`] when
/// the `ckpt.write` failpoint is armed with the `error` action.
pub fn save_checkpoint(path: &Path, fingerprint: u64, ck: &RunCheckpoint) -> Result<(), CkptError> {
    failpoint::hit("ckpt.write").map_err(CkptError::Injected)?;
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    write_atomic(path, &encode_checkpoint(fingerprint, ck))?;
    Ok(())
}

/// Loads and validates the checkpoint at `path`, rejecting anything
/// torn, corrupted, version-skewed or owned by a different experiment.
/// Failpoint: `ckpt.restore`.
///
/// # Errors
///
/// A typed [`CkptError`]; a missing file surfaces as
/// [`CkptError::Io`] with [`std::io::ErrorKind::NotFound`].
pub fn load_checkpoint(path: &Path, fingerprint: u64) -> Result<RunCheckpoint, CkptError> {
    failpoint::hit("ckpt.restore").map_err(CkptError::Injected)?;
    let bytes = std::fs::read(path)?;
    decode_checkpoint(&bytes, fingerprint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_core::RunPhase;

    fn sample() -> RunCheckpoint {
        RunCheckpoint {
            phase: RunPhase::Measure,
            cycle: 4096,
            measure_start: 1000,
            tagged_budget: 250,
            backlog_samples: vec![1, 2, 3],
            rng: [9, 8, 7, 6],
            traffic_cursors: vec![0, 4],
            trace_cursor: 0,
            auditor_energy: 3.5e-8,
            net: (0..u8::MAX).collect(),
        }
    }

    fn temp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("orion-ckpt-file-{}-{tag}.ckpt", std::process::id()))
    }

    #[test]
    fn save_load_roundtrip() {
        let path = temp("roundtrip");
        let ck = sample();
        save_checkpoint(&path, 0xabcd, &ck).unwrap();
        assert_eq!(load_checkpoint(&path, 0xabcd).unwrap(), ck);
        assert!(!path.with_extension("ckpt.tmp").exists());
        let _ = std::fs::remove_file(&path);
    }

    /// The framing as it was built before the one-buffer encoder: the
    /// payload serialised on its own, framed into one writer, then
    /// copied into a second writer for the checksum footer.
    fn two_writer_framing(fingerprint: u64, ck: &RunCheckpoint) -> Vec<u8> {
        let payload = ck.to_bytes();
        let mut w = ByteWriter::new();
        w.bytes(&CKPT_MAGIC);
        w.u32(CKPT_SCHEMA_VERSION);
        w.u64(fingerprint);
        w.usize(payload.len());
        w.bytes(&payload);
        let body = w.into_vec();
        let mut w = ByteWriter::new();
        w.bytes(&body);
        w.u64(fnv1a64(&body));
        w.into_vec()
    }

    struct Capture(Option<RunCheckpoint>);

    impl orion_core::RunHook for Capture {
        fn every(&self) -> u64 {
            100
        }
        fn on_checkpoint(&mut self, ck: &RunCheckpoint) -> orion_core::RunControl {
            self.0 = Some(ck.clone());
            orion_core::RunControl::Stop
        }
    }

    #[test]
    fn one_buffer_encoding_matches_two_writer_framing() {
        let mut capture = Capture(None);
        orion_core::Experiment::new(orion_core::presets::vc16_onchip())
            .injection_rate(0.05)
            .seed(3)
            .warmup(150)
            .sample_packets(150)
            .shards(2)
            .run_with_hook(&mut capture, None)
            .expect("valid experiment");
        let ck = capture.0.expect("hook captured a 2-shard checkpoint");
        assert!(ck.net.len() > 1000, "a real network image");
        let bytes = encode_checkpoint(0x5eed, &ck);
        assert_eq!(bytes, two_writer_framing(0x5eed, &ck));
        assert_eq!(bytes.len(), bytes.capacity(), "sized exactly up front");
        assert_eq!(decode_checkpoint(&bytes, 0x5eed).unwrap(), ck);
        let sample = sample();
        assert_eq!(
            encode_checkpoint(7, &sample),
            two_writer_framing(7, &sample)
        );
    }

    #[test]
    fn missing_file_is_not_found() {
        let err = load_checkpoint(Path::new("/nonexistent/x.ckpt"), 1).unwrap_err();
        match err {
            CkptError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
            other => panic!("expected Io(NotFound), got {other:?}"),
        }
    }

    #[test]
    fn wrong_owner_rejected() {
        let bytes = encode_checkpoint(7, &sample());
        assert!(matches!(
            decode_checkpoint(&bytes, 8),
            Err(CkptError::WrongFingerprint {
                expected: 8,
                found: 7
            })
        ));
    }

    #[test]
    fn every_single_byte_corruption_is_detected() {
        // The checksum must catch any one-byte flip anywhere in the
        // file — including in raw payload regions the structural
        // validation cannot vet.
        let good = encode_checkpoint(42, &sample());
        assert!(decode_checkpoint(&good, 42).is_ok());
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            assert!(
                decode_checkpoint(&bad, 42).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let good = encode_checkpoint(42, &sample());
        for cut in 0..good.len() {
            assert!(
                decode_checkpoint(&good[..cut], 42).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
        // Trailing garbage shifts the footer off the real checksum.
        let mut long = good.clone();
        long.push(0);
        assert!(decode_checkpoint(&long, 42).is_err());
    }

    #[test]
    fn version_skew_rejected() {
        let ck = sample();
        let payload = ck.to_bytes();
        let mut w = ByteWriter::new();
        w.bytes(&CKPT_MAGIC);
        w.u32(CKPT_SCHEMA_VERSION + 1);
        w.u64(42);
        w.usize(payload.len());
        w.bytes(&payload);
        let body = w.into_vec();
        let sum = fnv1a64(&body);
        let mut w = ByteWriter::new();
        w.bytes(&body);
        w.u64(sum);
        assert!(matches!(
            decode_checkpoint(&w.into_vec(), 42),
            Err(CkptError::WrongVersion(v)) if v == CKPT_SCHEMA_VERSION + 1
        ));
    }

    #[test]
    fn checkpoint_path_is_content_addressed() {
        let p = checkpoint_path(Path::new("/cache"), 0xdead_beef);
        assert_eq!(
            p,
            Path::new("/cache/ckpt/00000000deadbeef.ckpt"),
            "layout is part of the on-disk contract"
        );
    }
}
