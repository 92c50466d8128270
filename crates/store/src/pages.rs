//! The on-disk container: a fixed header followed by CRC-guarded pages of
//! varint-length-prefixed records.
//!
//! ```text
//! file   := header page*
//! header := magic[8]="SERRSTO1" format:u32 kind:u32 app:u32 header_crc:u32
//! page   := payload_len:u32 records:u32 first_index:u64
//!           payload_crc:u32 page_header_crc:u32 payload[payload_len]
//! payload:= (varint(len) bytes[len])*        -- `records` of them
//! ```
//!
//! All integers little-endian. `first_index` is the prefix sum of record
//! counts over the preceding pages, so any page states which record indices
//! it holds without decoding its predecessors — a reader can both seek and
//! detect a dropped page.
//!
//! Recovery contract: a damaged or missing header is a typed error (the
//! file is not a usable store); damage at or after the first page degrades
//! to the longest valid prefix — the scan stops at the first page whose
//! header CRC, payload CRC, prefix sum, or record framing fails, and
//! reports the byte offset so a journal can truncate and resume there.
//! Nothing in this module panics on foreign bytes.

use crate::crc32::crc32;
use crate::varint;
use serr_types::SerrError;
use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// On-disk format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// Leading magic, byte-for-byte.
pub const MAGIC: [u8; 8] = *b"SERRSTO1";

/// Byte length of the file header.
pub const HEADER_LEN: usize = 24;

/// Byte length of a page header.
pub const PAGE_HEADER_LEN: usize = 24;

/// Byte range of the `format` field inside the header — exposed so chaos
/// tooling can forge a stale-version file with a *valid* checksum (the
/// interesting corruption CRC alone cannot catch).
pub const FORMAT_VERSION_RANGE: std::ops::Range<usize> = 8..12;

/// Default page payload target for batch-written stores.
pub const DEFAULT_PAGE_LIMIT: usize = 64 * 1024;

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    let mut raw = [0u8; 4];
    raw.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(raw)
}

fn read_u64_at(bytes: &[u8], at: usize) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(raw)
}

/// Decoded file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Container format version (see [`FORMAT_VERSION`]).
    pub format: u32,
    /// Application stream kind (what the records mean).
    pub kind: u32,
    /// Application-level schema version for that kind.
    pub app: u32,
}

/// Encodes a file header for stream `kind` at application version `app`.
#[must_use]
pub fn encode_header(kind: u32, app: u32) -> [u8; HEADER_LEN] {
    let mut out = [0u8; HEADER_LEN];
    out[..8].copy_from_slice(&MAGIC);
    out[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    out[12..16].copy_from_slice(&kind.to_le_bytes());
    out[16..20].copy_from_slice(&app.to_le_bytes());
    let crc = crc32(&out[..20]);
    out[20..24].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Overwrites the header's format-version field *and* refreshes the header
/// CRC, producing a structurally valid header that claims `version`. Chaos
/// and test support: exercises the reader's version check in isolation from
/// its checksum check.
///
/// No-op on buffers shorter than a header.
pub fn forge_format_version(bytes: &mut [u8], version: u32) {
    if bytes.len() < HEADER_LEN {
        return;
    }
    bytes[FORMAT_VERSION_RANGE].copy_from_slice(&version.to_le_bytes());
    let crc = crc32(&bytes[..20]);
    bytes[20..24].copy_from_slice(&crc.to_le_bytes());
}

/// Validates and decodes the header at the front of `bytes`.
///
/// # Errors
///
/// [`SerrError::StoreCorrupt`] on short input, bad magic, or a failed
/// header checksum; [`SerrError::StoreVersion`] when the format version is
/// not [`FORMAT_VERSION`].
pub fn decode_header(bytes: &[u8], site: &str) -> Result<Header, SerrError> {
    if bytes.len() < HEADER_LEN {
        return Err(SerrError::store_corrupt(
            site,
            format!("file is {} bytes, header needs {HEADER_LEN}", bytes.len()),
        ));
    }
    if bytes[..8] != MAGIC {
        return Err(SerrError::store_corrupt(site, "bad magic"));
    }
    let stored = read_u32(bytes, 20);
    let actual = crc32(&bytes[..20]);
    if stored != actual {
        return Err(SerrError::store_corrupt(
            site,
            format!("header checksum mismatch (stored {stored:08x}, computed {actual:08x})"),
        ));
    }
    let format = read_u32(bytes, 8);
    if format != FORMAT_VERSION {
        return Err(SerrError::StoreVersion {
            site: site.to_owned(),
            found: format,
            expected: FORMAT_VERSION,
        });
    }
    Ok(Header { format, kind: read_u32(bytes, 12), app: read_u32(bytes, 16) })
}

/// Frames `payload` holding `records` records whose first global index is
/// `first_index` into a page (header + payload).
#[must_use]
pub fn encode_page(first_index: u64, records: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(PAGE_HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&records.to_le_bytes());
    out.extend_from_slice(&first_index.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    let header_crc = crc32(&out[..20]);
    out.extend_from_slice(&header_crc.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// One page's metadata as seen by [`recover`] / [`inspect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageInfo {
    /// Byte offset of the page header in the file.
    pub offset: usize,
    /// Payload length in bytes.
    pub payload_len: u32,
    /// Records in this page.
    pub records: u32,
    /// Global index of the page's first record (prefix sum).
    pub first_index: u64,
    /// Stored payload CRC-32.
    pub payload_crc: u32,
}

/// Result of scanning a store image: the valid prefix plus where (and
/// whether) damage stopped the scan.
#[derive(Debug)]
pub struct Recovered<'a> {
    /// The decoded file header.
    pub header: Header,
    /// Every record in the valid prefix, borrowed from the input image.
    pub records: Vec<&'a [u8]>,
    /// Per-page metadata for the valid prefix.
    pub pages: Vec<PageInfo>,
    /// Byte length of the valid prefix (header + valid pages) — a journal
    /// truncates its file to this before resuming appends.
    pub valid_len: usize,
    /// Why the scan stopped early, if it did.
    pub damage: Option<String>,
}

impl Recovered<'_> {
    /// True when a torn or damaged tail was dropped.
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.damage.is_some()
    }
}

/// Scans the store image in `bytes`, returning the longest valid prefix.
///
/// # Errors
///
/// Typed header errors per [`decode_header`]; page-level damage is not an
/// error — the scan stops there and reports the valid prefix.
pub fn recover<'a>(bytes: &'a [u8], site: &str) -> Result<Recovered<'a>, SerrError> {
    let header = decode_header(bytes, site)?;
    let mut records: Vec<&'a [u8]> = Vec::new();
    let mut pages = Vec::new();
    let mut offset = HEADER_LEN;
    let mut damage = None;

    'scan: while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        if remaining < PAGE_HEADER_LEN {
            damage = Some(format!("torn page header at {offset} ({remaining} bytes)"));
            break;
        }
        let head = &bytes[offset..offset + PAGE_HEADER_LEN];
        let stored_header_crc = read_u32(head, 20);
        if stored_header_crc != crc32(&head[..20]) {
            damage = Some(format!("page header checksum mismatch at {offset}"));
            break;
        }
        let payload_len = read_u32(head, 0) as usize;
        let page_records = read_u32(head, 4);
        let first_index = read_u64_at(head, 8);
        let payload_crc = read_u32(head, 16);
        if first_index != records.len() as u64 {
            damage = Some(format!(
                "page at {offset} claims first record {first_index}, expected {}",
                records.len()
            ));
            break;
        }
        let payload_start = offset + PAGE_HEADER_LEN;
        if payload_len > bytes.len() - payload_start {
            damage = Some(format!("torn page payload at {offset}"));
            break;
        }
        let payload = &bytes[payload_start..payload_start + payload_len];
        if crc32(payload) != payload_crc {
            damage = Some(format!("page payload checksum mismatch at {offset}"));
            break;
        }
        let mut cursor = payload;
        let mut page_parsed: Vec<&'a [u8]> = Vec::with_capacity(page_records as usize);
        for _ in 0..page_records {
            let Ok(len) = varint::read_u64(&mut cursor) else {
                damage = Some(format!("bad record length varint in page at {offset}"));
                break 'scan;
            };
            let Ok(len) = usize::try_from(len) else {
                damage = Some(format!("oversized record length in page at {offset}"));
                break 'scan;
            };
            if len > cursor.len() {
                damage = Some(format!("record overruns page payload at {offset}"));
                break 'scan;
            }
            let (rec, rest) = cursor.split_at(len);
            page_parsed.push(rec);
            cursor = rest;
        }
        if !cursor.is_empty() {
            damage = Some(format!("trailing bytes after last record in page at {offset}"));
            break;
        }
        records.extend_from_slice(&page_parsed);
        pages.push(PageInfo {
            offset,
            payload_len: payload_len as u32,
            records: page_records,
            first_index,
            payload_crc,
        });
        offset = payload_start + payload_len;
    }

    let valid_len =
        pages.last().map_or(HEADER_LEN, |p| p.offset + PAGE_HEADER_LEN + p.payload_len as usize);
    Ok(Recovered { header, records, pages, valid_len, damage })
}

/// Batch writer: accumulates records into pages of roughly
/// [`DEFAULT_PAGE_LIMIT`] payload bytes, then emits the whole store image.
#[derive(Debug)]
pub struct StoreBuilder {
    out: Vec<u8>,
    page: Vec<u8>,
    page_records: u32,
    total_records: u64,
    page_limit: usize,
}

impl StoreBuilder {
    /// Starts a store image for stream `kind` at application version `app`.
    #[must_use]
    pub fn new(kind: u32, app: u32) -> StoreBuilder {
        StoreBuilder::with_page_limit(kind, app, DEFAULT_PAGE_LIMIT)
    }

    /// As [`StoreBuilder::new`] with an explicit page payload target (records
    /// are never split across pages, so a single large record makes a large
    /// page).
    #[must_use]
    pub fn with_page_limit(kind: u32, app: u32, page_limit: usize) -> StoreBuilder {
        StoreBuilder {
            out: encode_header(kind, app).to_vec(),
            page: Vec::new(),
            page_records: 0,
            total_records: 0,
            page_limit: page_limit.max(1),
        }
    }

    /// Appends one record.
    pub fn push_record(&mut self, record: &[u8]) {
        varint::write_u64(&mut self.page, record.len() as u64);
        self.page.extend_from_slice(record);
        self.page_records += 1;
        if self.page.len() >= self.page_limit {
            self.flush_page();
        }
    }

    fn flush_page(&mut self) {
        if self.page_records == 0 {
            return;
        }
        let first_index = self.total_records;
        self.total_records += u64::from(self.page_records);
        let page = encode_page(first_index, self.page_records, &self.page);
        self.out.extend_from_slice(&page);
        self.page.clear();
        self.page_records = 0;
    }

    /// Flushes the open page and returns the complete store image.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        self.flush_page();
        self.out
    }
}

/// Writes `bytes` to `path` atomically: a `.tmp` sibling is written and
/// fsynced, then renamed over the destination, so readers observe either
/// the old file or the complete new one — never a torn intermediate.
///
/// # Errors
///
/// [`SerrError::Io`] naming the failing step.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SerrError> {
    let site = path.display().to_string();
    let tmp = path.with_extension("tmp");
    let write = || -> std::io::Result<()> {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, path)
    };
    write().map_err(|e| {
        let _ = fs::remove_file(&tmp);
        SerrError::io(format!("write store {site}"), e.to_string())
    })
}

/// What [`PageJournal::open`] found on disk.
#[derive(Debug)]
pub struct JournalRecovery {
    /// Every record in the valid prefix, in append order.
    pub records: Vec<Vec<u8>>,
    /// True when a torn or damaged tail was truncated away.
    pub truncated: bool,
    /// True when the file did not exist (or was empty) and was created.
    pub created: bool,
}

/// Append-mode store: one fsynced page per [`PageJournal::append`] call, so
/// a crash tears at most the page being written — which recovery then
/// truncates back to the last valid boundary.
#[derive(Debug)]
pub struct PageJournal {
    file: fs::File,
    next_index: u64,
}

impl PageJournal {
    /// Opens (creating if absent) the journal at `path` for stream `kind`
    /// at application version `app`, recovering existing contents and
    /// truncating any torn tail so subsequent appends land on a page
    /// boundary.
    ///
    /// # Errors
    ///
    /// [`SerrError::Io`] on filesystem failure; [`SerrError::StoreCorrupt`]
    /// / [`SerrError::StoreVersion`] when an existing non-empty file has a
    /// damaged or foreign header (the caller decides whether to reset it);
    /// [`SerrError::StoreCorrupt`] when the header belongs to a different
    /// stream `kind` or application version.
    pub fn open(
        path: &Path,
        kind: u32,
        app: u32,
    ) -> Result<(PageJournal, JournalRecovery), SerrError> {
        let site = path.display().to_string();
        let io = |step: &str| {
            let s = site.clone();
            let step = step.to_owned();
            move |e: std::io::Error| SerrError::io(format!("{step} {s}"), e.to_string())
        };
        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(io("open journal store"))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io("read journal store"))?;

        if bytes.is_empty() {
            file.write_all(&encode_header(kind, app)).map_err(io("write journal header"))?;
            file.sync_all().map_err(io("sync journal header"))?;
            let journal = PageJournal { file, next_index: 0 };
            return Ok((
                journal,
                JournalRecovery { records: Vec::new(), truncated: false, created: true },
            ));
        }

        let rec = recover(&bytes, &site)?;
        if rec.header.kind != kind || rec.header.app != app {
            return Err(SerrError::store_corrupt(
                site,
                format!(
                    "stream kind/app {}/{} does not match expected {kind}/{app}",
                    rec.header.kind, rec.header.app
                ),
            ));
        }
        let truncated = rec.truncated();
        let next_index = rec.records.len() as u64;
        let records: Vec<Vec<u8>> = rec.records.iter().map(|r| r.to_vec()).collect();
        let valid_len = rec.valid_len as u64;
        if truncated {
            file.set_len(valid_len).map_err(io("truncate torn journal tail"))?;
            file.sync_all().map_err(io("sync truncated journal"))?;
        }
        file.seek(SeekFrom::Start(valid_len)).map_err(io("seek journal end"))?;
        Ok((
            PageJournal { file, next_index },
            JournalRecovery { records, truncated, created: false },
        ))
    }

    /// Records appended so far (recovered + appended this session).
    #[must_use]
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Appends `records` as one page and fsyncs it.
    ///
    /// # Errors
    ///
    /// [`SerrError::Io`] on write or sync failure.
    pub fn append(&mut self, records: &[&[u8]]) -> Result<(), SerrError> {
        if records.is_empty() {
            return Ok(());
        }
        let mut payload = Vec::new();
        for rec in records {
            varint::write_u64(&mut payload, rec.len() as u64);
            payload.extend_from_slice(rec);
        }
        let count = u32::try_from(records.len()).map_err(|_| {
            SerrError::store_corrupt("journal append", "more than u32::MAX records in one page")
        })?;
        let page = encode_page(self.next_index, count, &payload);
        self.file
            .write_all(&page)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| SerrError::io("append journal page", e.to_string()))?;
        self.next_index += u64::from(count);
        Ok(())
    }
}

/// Full diagnostic scan of a store file, for `serr store inspect`.
#[derive(Debug)]
pub struct StoreReport {
    /// Decoded header.
    pub header: Header,
    /// File length in bytes.
    pub file_len: u64,
    /// Valid pages, in order.
    pub pages: Vec<PageInfo>,
    /// Total records across valid pages.
    pub records: u64,
    /// Description of tail damage, if the scan stopped early.
    pub damage: Option<String>,
    /// Byte length of the valid prefix.
    pub valid_len: u64,
}

/// Scans `path` and reports header fields, per-page CRCs, and record
/// counts without interpreting record contents.
///
/// # Errors
///
/// [`SerrError::Io`] when the file cannot be read, plus the header errors
/// of [`recover`].
pub fn inspect(path: &Path) -> Result<StoreReport, SerrError> {
    let site = path.display().to_string();
    let bytes =
        fs::read(path).map_err(|e| SerrError::io(format!("read store {site}"), e.to_string()))?;
    let rec = recover(&bytes, &site)?;
    Ok(StoreReport {
        header: rec.header,
        file_len: bytes.len() as u64,
        records: rec.records.len() as u64,
        pages: rec.pages,
        damage: rec.damage,
        valid_len: rec.valid_len as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn build(records: &[Vec<u8>], page_limit: usize) -> Vec<u8> {
        let mut b = StoreBuilder::with_page_limit(7, 3, page_limit);
        for r in records {
            b.push_record(r);
        }
        b.finish()
    }

    #[test]
    fn empty_store_is_just_a_header() {
        let image = StoreBuilder::new(1, 2).finish();
        assert_eq!(image.len(), HEADER_LEN);
        let rec = recover(&image, "t").expect("recover");
        assert_eq!(rec.header, Header { format: FORMAT_VERSION, kind: 1, app: 2 });
        assert!(rec.records.is_empty());
        assert!(!rec.truncated());
    }

    #[test]
    fn multi_page_store_round_trips_with_prefix_sums() {
        let records: Vec<Vec<u8>> = (0..100u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let image = build(&records, 32); // force many pages
        let rec = recover(&image, "t").expect("recover");
        assert!(rec.pages.len() > 5, "expected multiple pages, got {}", rec.pages.len());
        assert_eq!(rec.records.len(), 100);
        for (got, want) in rec.records.iter().zip(&records) {
            assert_eq!(got, &want.as_slice());
        }
        let mut cum = 0u64;
        for p in &rec.pages {
            assert_eq!(p.first_index, cum);
            cum += u64::from(p.records);
        }
        assert_eq!(rec.valid_len, image.len());
    }

    #[test]
    fn torn_tail_degrades_to_prefix() {
        let records: Vec<Vec<u8>> = (0..40u32).map(|i| vec![i as u8; 5]).collect();
        let image = build(&records, 64);
        let full = recover(&image, "t").expect("recover");
        let second_page = full.pages[1].offset;
        // Cut mid-way through the second page.
        let cut = &image[..second_page + PAGE_HEADER_LEN + 3];
        let rec = recover(cut, "t").expect("recover");
        assert!(rec.truncated());
        assert_eq!(rec.records.len() as u32, full.pages[0].records);
        assert_eq!(rec.valid_len, second_page);
    }

    #[test]
    fn header_damage_is_a_typed_error() {
        let mut image = build(&[vec![1, 2, 3]], 64);
        image[3] ^= 0x40; // magic
        assert!(matches!(recover(&image, "t"), Err(SerrError::StoreCorrupt { .. })));

        let mut image = build(&[vec![1, 2, 3]], 64);
        image[17] ^= 0x01; // app version byte -> header CRC mismatch
        assert!(matches!(recover(&image, "t"), Err(SerrError::StoreCorrupt { .. })));
    }

    #[test]
    fn forged_stale_version_is_a_typed_version_error() {
        let mut image = build(&[vec![9; 4]], 64);
        forge_format_version(&mut image, FORMAT_VERSION + 7);
        match recover(&image, "t") {
            Err(SerrError::StoreVersion { found, expected, .. }) => {
                assert_eq!(found, FORMAT_VERSION + 7);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("expected StoreVersion, got {other:?}"),
        }
    }

    #[test]
    fn mid_file_flip_stops_scan_at_damaged_page() {
        let records: Vec<Vec<u8>> = (0..60u32).map(|i| vec![i as u8; 7]).collect();
        let image = build(&records, 64);
        let full = recover(&image, "t").expect("recover");
        assert!(full.pages.len() >= 3);
        let victim = full.pages[1];
        let mut dirty = image.clone();
        dirty[victim.offset + PAGE_HEADER_LEN + 2] ^= 0x10;
        let rec = recover(&dirty, "t").expect("recover");
        assert!(rec.truncated());
        assert_eq!(rec.pages.len(), 1);
        assert_eq!(rec.valid_len, victim.offset);
    }

    #[test]
    fn page_journal_appends_recovers_and_truncates_torn_tail() {
        let dir = std::env::temp_dir().join(format!("serr-store-pj-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("j.store");
        let _ = std::fs::remove_file(&path);

        let (mut j, rec) = PageJournal::open(&path, 4, 1).expect("open fresh");
        assert!(rec.created && rec.records.is_empty());
        for i in 0..10u8 {
            j.append(&[&[i; 9][..]]).expect("append");
        }
        drop(j);

        // Tear the last page.
        let len = std::fs::metadata(&path).expect("meta").len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).expect("open");
        f.set_len(len - 5).expect("tear");
        drop(f);

        let (mut j, rec) = PageJournal::open(&path, 4, 1).expect("reopen");
        assert!(rec.truncated);
        assert_eq!(rec.records.len(), 9);
        assert_eq!(j.next_index(), 9);
        j.append(&[&[99u8; 9][..]]).expect("append after recovery");
        drop(j);

        let (_, rec) = PageJournal::open(&path, 4, 1).expect("final open");
        assert!(!rec.truncated);
        assert_eq!(rec.records.len(), 10);
        assert_eq!(rec.records[9], vec![99u8; 9]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn page_journal_rejects_mismatched_kind() {
        let dir = std::env::temp_dir().join(format!("serr-store-kind-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("k.store");
        let _ = std::fs::remove_file(&path);
        let (j, _) = PageJournal::open(&path, 4, 1).expect("open");
        drop(j);
        assert!(matches!(PageJournal::open(&path, 5, 1), Err(SerrError::StoreCorrupt { .. })));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn write_atomic_then_recover_round_trips() {
        let dir = std::env::temp_dir().join(format!("serr-store-at-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("a.store");
        let records: Vec<Vec<u8>> = vec![b"alpha".to_vec(), b"beta".to_vec()];
        let image = build(&records, 1024);
        write_atomic(&path, &image).expect("write");
        assert!(!path.with_extension("tmp").exists());
        let bytes = std::fs::read(&path).expect("read");
        let rec = recover(&bytes, "a.store").expect("recover");
        assert_eq!(rec.header.kind, 7);
        assert_eq!(rec.records, records);
        assert!(!rec.truncated());
        let _ = std::fs::remove_file(&path);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn build_recover_round_trips(
            records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..50),
            page_limit in 1usize..256,
        ) {
            let image = build(&records, page_limit);
            let rec = recover(&image, "t").expect("recover");
            prop_assert!(!rec.truncated());
            prop_assert_eq!(rec.records.len(), records.len());
            for (got, want) in rec.records.iter().zip(&records) {
                prop_assert_eq!(*got, want.as_slice());
            }
        }

        #[test]
        fn recovery_never_panics_on_mutations(
            records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..24), 1..20),
            page_limit in 1usize..128,
            flips in proptest::collection::vec((any::<u16>(), 0u8..8), 1..6),
            cut in any::<u16>(),
        ) {
            let mut image = build(&records, page_limit);
            for (pos, bit) in flips {
                let i = pos as usize % image.len();
                image[i] ^= 1 << bit;
            }
            let cut = cut as usize % (image.len() + 1);
            let image = &image[..cut];
            // Must return a typed error or a degraded prefix — never panic.
            if let Ok(rec) = recover(image, "fuzz") {
                prop_assert!(rec.records.len() <= records.len() + image.len());
            }
        }

        #[test]
        fn truncation_always_yields_a_valid_prefix(
            records in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..16), 1..30),
            page_limit in 1usize..64,
            cut in any::<u16>(),
        ) {
            let image = build(&records, page_limit);
            let cut = HEADER_LEN + (cut as usize % (image.len() - HEADER_LEN + 1));
            let rec = recover(&image[..cut], "t").expect("header intact");
            // Whatever survived must be an exact prefix of the originals.
            for (got, want) in rec.records.iter().zip(&records) {
                prop_assert_eq!(*got, want.as_slice());
            }
            prop_assert!(rec.valid_len <= cut);
        }
    }
}
