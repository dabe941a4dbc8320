//! Segment files: the on-disk unit of the append-only log.
//!
//! Record wire format (all integers big-endian):
//!
//! ```text
//! +--------+--------+----------+-------------+
//! | magic  | length | crc32    | payload     |
//! | 2 B    | 4 B    | 4 B      | length B    |
//! +--------+--------+----------+-------------+
//! ```
//!
//! The CRC covers the payload only; the magic pins record boundaries so a
//! scan can distinguish a torn tail from mid-file corruption.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::crc32::crc32;
use crate::error::StorageError;

/// Record header magic ("WB").
pub const MAGIC: u16 = 0x5742;
/// Bytes of framing per record.
pub const HEADER_LEN: usize = 2 + 4 + 4;

/// Identifies a segment file within a store directory.
pub type SegmentId = u32;

/// Builds the file path for segment `id` under `dir`.
pub fn segment_path(dir: &Path, id: SegmentId) -> PathBuf {
    dir.join(format!("seg-{id:010}.wlog"))
}

/// An open segment being appended to.
pub struct SegmentWriter {
    id: SegmentId,
    file: BufWriter<File>,
    /// Bytes written (including framing).
    len: u64,
}

impl SegmentWriter {
    /// Creates (or truncates) segment `id` in `dir`.
    pub fn create(dir: &Path, id: SegmentId) -> Result<SegmentWriter, StorageError> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(segment_path(dir, id))?;
        Ok(SegmentWriter {
            id,
            file: BufWriter::new(file),
            len: 0,
        })
    }

    /// Opens an existing segment for appending at `offset` (recovery path).
    pub fn open_at(dir: &Path, id: SegmentId, offset: u64) -> Result<SegmentWriter, StorageError> {
        let file = OpenOptions::new().write(true).open(segment_path(dir, id))?;
        // Drop any torn tail beyond the recovered offset.
        file.set_len(offset)?;
        let mut file = file;
        file.seek(SeekFrom::Start(offset))?;
        Ok(SegmentWriter {
            id,
            file: BufWriter::new(file),
            len: offset,
        })
    }

    /// Appends one framed record; returns its starting offset.
    ///
    /// The header is assembled on the stack so the record goes down in two
    /// `write_all` calls (header, payload) instead of four — fewer syscalls
    /// whenever the `BufWriter` is bypassed or spills mid-record. The
    /// on-disk format is unchanged (see the byte-level regression test).
    pub fn append(&mut self, payload: &[u8]) -> Result<u64, StorageError> {
        let offset = self.len;
        let magic = MAGIC.to_be_bytes();
        let len = (payload.len() as u32).to_be_bytes();
        let crc = crc32(payload).to_be_bytes();
        let header: [u8; HEADER_LEN] = [
            magic[0], magic[1], len[0], len[1], len[2], len[3], crc[0], crc[1], crc[2], crc[3],
        ];
        self.file.write_all(&header)?;
        self.file.write_all(payload)?;
        self.len += (HEADER_LEN + payload.len()) as u64;
        Ok(offset)
    }

    /// Flushes buffered writes to the OS.
    pub fn flush(&mut self) -> Result<(), StorageError> {
        self.file.flush()?;
        Ok(())
    }

    /// Flushes and fsyncs to stable storage.
    pub fn sync(&mut self) -> Result<(), StorageError> {
        self.file.flush()?;
        self.file.get_ref().sync_data()?;
        Ok(())
    }

    /// Segment id.
    pub fn id(&self) -> SegmentId {
        self.id
    }

    /// Current length in bytes (including framing).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Positional read that never moves a shared cursor, so one cached handle
/// can serve concurrent readers.
#[cfg(unix)]
pub(crate) fn pread_exact(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
pub(crate) fn pread_exact(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    // Fallback: clone the handle so the shared reader's cursor is untouched.
    let mut clone = file.try_clone()?;
    clone.seek(SeekFrom::Start(offset))?;
    clone.read_exact(buf)
}

/// Reads one record at a known offset in a segment.
pub fn read_record_at(dir: &Path, id: SegmentId, offset: u64) -> Result<Vec<u8>, StorageError> {
    let file = File::open(segment_path(dir, id))?;
    read_record_from(&file, offset)
}

/// Reads one record at a known offset through an already-open handle
/// (positional reads; the handle's cursor is untouched). This is what lets
/// `read_range`/`iter` reuse one handle per segment instead of re-opening
/// the file per record.
pub fn read_record_from(file: &File, offset: u64) -> Result<Vec<u8>, StorageError> {
    let mut header = [0u8; HEADER_LEN];
    pread_exact(file, &mut header, offset)?;
    let magic = u16::from_be_bytes([header[0], header[1]]);
    if magic != MAGIC {
        return Err(StorageError::CorruptRecord {
            id: offset,
            what: "bad magic",
        });
    }
    let len = u32::from_be_bytes([header[2], header[3], header[4], header[5]]) as usize;
    let expected_crc = u32::from_be_bytes([header[6], header[7], header[8], header[9]]);
    let mut payload = vec![0u8; len];
    pread_exact(file, &mut payload, offset + HEADER_LEN as u64)?;
    if crc32(&payload) != expected_crc {
        return Err(StorageError::CorruptRecord {
            id: offset,
            what: "checksum mismatch",
        });
    }
    Ok(payload)
}

/// How a segment scan terminated.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TailState {
    /// The scan consumed the file exactly: every byte belongs to an intact
    /// record.
    Clean,
    /// The file ends mid-record (partial header, or a payload running past
    /// EOF). This is the signature of an interrupted write and is safe to
    /// truncate away at recovery.
    Torn,
    /// Bytes that are present but wrong: a full header with bad magic, or a
    /// complete payload whose CRC does not match. This is corruption, not a
    /// crash artifact, and must not be silently dropped.
    Corrupt {
        /// Byte offset of the damaged record.
        offset: u64,
        /// Human-readable cause.
        what: &'static str,
    },
}

/// The outcome of scanning a segment during recovery.
pub struct SegmentScan {
    /// `(offset, payload_len)` of every intact record, in order.
    pub records: Vec<(u64, u32)>,
    /// Offset of the first byte after the last intact record — the safe
    /// truncation/append point.
    pub valid_len: u64,
    /// Why the scan stopped (or that it cleanly consumed the file).
    pub tail: TailState,
}

impl SegmentScan {
    /// True if trailing bytes after `valid_len` were found, whatever their
    /// cause.
    pub fn has_trailing_bytes(&self) -> bool {
        self.tail != TailState::Clean
    }
}

/// Scans a segment from the start, stopping at the first torn/corrupt
/// record. Everything before the stop point is intact; [`SegmentScan::tail`]
/// distinguishes a torn write from genuine corruption.
pub fn scan_segment(dir: &Path, id: SegmentId) -> Result<SegmentScan, StorageError> {
    let mut file = File::open(segment_path(dir, id))?;
    let file_len = file.metadata()?.len();
    let mut records = Vec::new();
    let mut offset = 0u64;
    let tail = loop {
        if offset == file_len {
            break TailState::Clean;
        }
        if offset + HEADER_LEN as u64 > file_len {
            break TailState::Torn; // partial header
        }
        let mut header = [0u8; HEADER_LEN];
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(&mut header)?;
        let magic = u16::from_be_bytes([header[0], header[1]]);
        if magic != MAGIC {
            break TailState::Corrupt {
                offset,
                what: "bad magic",
            };
        }
        let len = u32::from_be_bytes([header[2], header[3], header[4], header[5]]);
        let expected_crc = u32::from_be_bytes([header[6], header[7], header[8], header[9]]);
        let end = offset + HEADER_LEN as u64 + len as u64;
        if end > file_len {
            break TailState::Torn; // payload runs past EOF
        }
        let mut payload = vec![0u8; len as usize];
        file.read_exact(&mut payload)?;
        if crc32(&payload) != expected_crc {
            break TailState::Corrupt {
                offset,
                what: "checksum mismatch",
            };
        }
        records.push((offset, len));
        offset = end;
    };
    Ok(SegmentScan {
        records,
        valid_len: offset,
        tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "wedge-seg-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_and_read_back() {
        let dir = tempdir();
        let mut w = SegmentWriter::create(&dir, 0).unwrap();
        let o1 = w.append(b"first").unwrap();
        let o2 = w.append(b"second record").unwrap();
        w.flush().unwrap();
        assert_eq!(read_record_at(&dir, 0, o1).unwrap(), b"first");
        assert_eq!(read_record_at(&dir, 0, o2).unwrap(), b"second record");
    }

    #[test]
    fn on_disk_bytes_are_exactly_magic_len_crc_payload() {
        // Regression for the header-on-the-stack rewrite: the wire format
        // must stay byte-identical to the four-write_all original.
        let dir = tempdir();
        let mut w = SegmentWriter::create(&dir, 0).unwrap();
        let payloads: [&[u8]; 3] = [b"", b"x", b"hello wedgeblock"];
        let mut expect: Vec<u8> = Vec::new();
        for p in payloads {
            w.append(p).unwrap();
            expect.extend_from_slice(&MAGIC.to_be_bytes());
            expect.extend_from_slice(&(p.len() as u32).to_be_bytes());
            expect.extend_from_slice(&crc32(p).to_be_bytes());
            expect.extend_from_slice(p);
        }
        w.flush().unwrap();
        let on_disk = std::fs::read(segment_path(&dir, 0)).unwrap();
        assert_eq!(on_disk, expect);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let dir = tempdir();
        let mut w = SegmentWriter::create(&dir, 0).unwrap();
        let o = w.append(b"").unwrap();
        w.flush().unwrap();
        assert_eq!(read_record_at(&dir, 0, o).unwrap(), b"");
    }

    #[test]
    fn scan_finds_all_records() {
        let dir = tempdir();
        let mut w = SegmentWriter::create(&dir, 3).unwrap();
        for i in 0..10u32 {
            w.append(format!("rec-{i}").as_bytes()).unwrap();
        }
        w.flush().unwrap();
        let scan = scan_segment(&dir, 3).unwrap();
        assert_eq!(scan.records.len(), 10);
        assert_eq!(scan.tail, TailState::Clean);
        assert_eq!(scan.valid_len, w.len());
    }

    #[test]
    fn scan_stops_at_torn_payload() {
        let dir = tempdir();
        let mut w = SegmentWriter::create(&dir, 1).unwrap();
        w.append(b"intact-1").unwrap();
        w.append(b"intact-2").unwrap();
        w.append(b"this record will be torn").unwrap();
        w.flush().unwrap();
        let full = w.len();
        drop(w);
        // Chop 5 bytes off the final record's payload.
        let path = segment_path(&dir, 1);
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(full - 5).unwrap();
        let scan = scan_segment(&dir, 1).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.tail, TailState::Torn);
    }

    #[test]
    fn scan_stops_at_corrupt_crc() {
        let dir = tempdir();
        let mut w = SegmentWriter::create(&dir, 2).unwrap();
        let o0 = w.append(b"good").unwrap();
        let o1 = w.append(b"to be corrupted").unwrap();
        w.append(b"unreachable after corruption").unwrap();
        w.flush().unwrap();
        drop(w);
        // Flip one payload byte of the middle record.
        let path = segment_path(&dir, 2);
        let mut data = std::fs::read(&path).unwrap();
        let payload_start = (o1 as usize) + HEADER_LEN;
        data[payload_start] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let scan = scan_segment(&dir, 2).unwrap();
        assert_eq!(scan.records, vec![(o0, 4)]);
        assert_eq!(
            scan.tail,
            TailState::Corrupt {
                offset: o1,
                what: "checksum mismatch"
            }
        );
    }

    #[test]
    fn open_at_truncates_and_appends() {
        let dir = tempdir();
        let mut w = SegmentWriter::create(&dir, 0).unwrap();
        w.append(b"keep").unwrap();
        let torn_from = w.len();
        w.append(b"discard-me").unwrap();
        w.flush().unwrap();
        drop(w);
        let mut w = SegmentWriter::open_at(&dir, 0, torn_from).unwrap();
        let o = w.append(b"replacement").unwrap();
        w.sync().unwrap();
        assert_eq!(o, torn_from);
        assert_eq!(read_record_at(&dir, 0, o).unwrap(), b"replacement");
        let scan = scan_segment(&dir, 0).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.tail, TailState::Clean);
    }

    #[test]
    fn read_at_bad_offset_is_error() {
        let dir = tempdir();
        let mut w = SegmentWriter::create(&dir, 0).unwrap();
        w.append(b"only").unwrap();
        w.flush().unwrap();
        // Offset 3 lands mid-record: magic check must fail (or read error).
        assert!(read_record_at(&dir, 0, 3).is_err());
    }
}
