//! The JSONL checkpoint journal.
//!
//! One line is appended per *finished* cell (success or exhausted
//! retries). A sweep killed mid-run leaves a valid prefix — at worst one
//! torn final line, which the loader ignores — so a re-invocation skips
//! every journaled success and re-runs only incomplete cells. Failed
//! records are loaded for reporting but never satisfy a cell: failures
//! are retried on resume. A record also names the sweep and the
//! experiment setup it ran under ([`crate::SweepConfig::setup`]), and
//! satisfies a cell only in the same sweep under the same setup: a
//! resume at another scale re-runs every cell instead of returning the
//! old scale's results.
//!
//! Record shape (`status` is `"ok"` or `"failed"`):
//!
//! ```json
//! {"v":2,"sweep":"fig8","setup":"{...}","cell":"proj_1/IDA-E20/r1","attempts":1,"status":"ok","payload":{...}}
//! {"v":2,"sweep":"fig8","setup":"{...}","cell":"usr_1/Baseline/r1","attempts":3,"status":"failed","error":"..."}
//! ```
//!
//! The payload is stored and re-read as raw JSON text, so a resumed
//! sweep emits cached results byte-identically.

use crate::jsonv;
use ida_obs::json::JsonObj;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// Journal format version. Version 1 records carry no setup; they are
/// skipped, so their cells run once more.
pub const JOURNAL_VERSION: u64 = 2;

/// One journal record, as loaded from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Cell ID.
    pub cell: String,
    /// Attempts the original run took.
    pub attempts: u32,
    /// `Ok(raw payload JSON)` or `Err(error message)`.
    pub result: Result<String, String>,
}

/// Append-only journal writer. Each record is written as one line and
/// flushed immediately, so a killed process loses at most the line in
/// flight.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    sweep: String,
    setup: String,
}

impl JournalWriter {
    /// Open `path` for appending (creating it if absent), to record cells
    /// of `sweep` run under `setup`.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be opened.
    pub fn open(path: &Path, sweep: &str, setup: &str) -> std::io::Result<Self> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JournalWriter {
            file,
            sweep: sweep.to_string(),
            setup: setup.to_string(),
        })
    }

    /// Append a success record carrying the cell's raw JSON payload.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn record_ok(
        &mut self,
        cell_id: &str,
        attempts: u32,
        payload: &str,
    ) -> std::io::Result<()> {
        let line = self
            .header(cell_id, attempts)
            .str("status", "ok")
            .raw("payload", payload)
            .finish();
        self.append(&line)
    }

    /// Append a failure record carrying the final error message.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors.
    pub fn record_failed(
        &mut self,
        cell_id: &str,
        attempts: u32,
        error: &str,
    ) -> std::io::Result<()> {
        let line = self
            .header(cell_id, attempts)
            .str("status", "failed")
            .str("error", error)
            .finish();
        self.append(&line)
    }

    fn header(&self, cell_id: &str, attempts: u32) -> JsonObj {
        JsonObj::new()
            .u64("v", JOURNAL_VERSION)
            .str("sweep", &self.sweep)
            .str("setup", &self.setup)
            .str("cell", cell_id)
            .u64("attempts", attempts as u64)
    }

    fn append(&mut self, line: &str) -> std::io::Result<()> {
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.flush()
    }
}

/// Load the journal at `path` for sweep `sweep` under `setup`, returning
/// the last record per cell ID. Missing files yield an empty map;
/// unparsable or torn lines and records from other sweeps or setups are
/// skipped.
///
/// # Errors
///
/// Fails only on I/O errors reading an existing file.
pub fn load(
    path: &Path,
    sweep: &str,
    setup: &str,
) -> std::io::Result<HashMap<String, JournalRecord>> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(HashMap::new()),
        Err(e) => return Err(e),
    };
    let mut records = HashMap::new();
    for line in BufReader::new(file).split(b'\n') {
        let line = line?;
        let Ok(line) = std::str::from_utf8(&line) else {
            continue;
        };
        if let Some(rec) = parse_line(line, sweep, setup) {
            records.insert(rec.cell.clone(), rec);
        }
    }
    Ok(records)
}

fn parse_line(line: &str, sweep: &str, setup: &str) -> Option<JournalRecord> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    let raw = jsonv::raw_fields(line).ok()?;
    let field = |k: &str| jsonv::parse(raw.get(k)?).ok();
    if field("v")?.as_u64()? != JOURNAL_VERSION {
        return None;
    }
    if field("sweep")?.as_str()? != sweep || field("setup")?.as_str()? != setup {
        return None;
    }
    let cell = field("cell")?.as_str()?.to_string();
    let attempts = field("attempts")?.as_u64()? as u32;
    let result = match field("status")?.as_str()? {
        "ok" => Ok(raw.get("payload")?.to_string()),
        "failed" => Err(field("error")?.as_str()?.to_string()),
        _ => return None,
    };
    Some(JournalRecord {
        cell,
        attempts,
        result,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ida-sweep-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn write_then_load_round_trips() {
        let path = tmp("roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut w = JournalWriter::open(&path, "fig8", "{}").unwrap();
        w.record_ok("w1/Baseline/r1", 1, r#"{"mean_ns":12.5}"#)
            .unwrap();
        w.record_failed("w2/IDA-E20/r1", 3, "panicked: boom")
            .unwrap();
        let recs = load(&path, "fig8", "{}").unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(
            recs["w1/Baseline/r1"].result.as_deref(),
            Ok(r#"{"mean_ns":12.5}"#)
        );
        assert_eq!(recs["w1/Baseline/r1"].attempts, 1);
        assert_eq!(
            recs["w2/IDA-E20/r1"].result,
            Err("panicked: boom".to_string())
        );
    }

    #[test]
    fn torn_final_line_is_ignored() {
        let path = tmp("torn.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut w = JournalWriter::open(&path, "s", "{}").unwrap();
        w.record_ok("a/x/r1", 1, "{}").unwrap();
        w.record_ok("b/x/r1", 1, "{}").unwrap();
        // Simulate a kill mid-append: truncate into the second record.
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.len() - 7;
        std::fs::write(&path, &text[..cut]).unwrap();
        let recs = load(&path, "s", "{}").unwrap();
        assert_eq!(recs.len(), 1);
        assert!(recs.contains_key("a/x/r1"));
    }

    #[test]
    fn missing_file_is_empty() {
        let recs = load(&tmp("nonexistent.jsonl"), "s", "{}").unwrap();
        assert!(recs.is_empty());
    }

    #[test]
    fn records_from_other_sweeps_are_skipped() {
        let path = tmp("mixed.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut w = JournalWriter::open(&path, "fig8", r#"{"requests":300}"#).unwrap();
        w.record_ok("a/x/r1", 1, "{}").unwrap();
        let mut w = JournalWriter::open(&path, "fig8", r#"{"requests":600}"#).unwrap();
        w.record_ok("b/x/r1", 1, "{}").unwrap();
        assert!(load(&path, "fig9", r#"{"requests":300}"#)
            .unwrap()
            .is_empty());
        // A record satisfies only the setup it ran under.
        let at_300 = load(&path, "fig8", r#"{"requests":300}"#).unwrap();
        assert_eq!(at_300.keys().collect::<Vec<_>>(), ["a/x/r1"]);
        let at_600 = load(&path, "fig8", r#"{"requests":600}"#).unwrap();
        assert_eq!(at_600.keys().collect::<Vec<_>>(), ["b/x/r1"]);
        assert!(load(&path, "fig8", "{}").unwrap().is_empty());
        // A record from before the setup was journaled is skipped.
        let v1 =
            r#"{"v":1,"sweep":"fig8","cell":"c/x/r1","attempts":1,"status":"ok","payload":{}}"#;
        assert!(parse_line(v1, "fig8", "{}").is_none());
    }

    #[test]
    fn later_records_win() {
        let path = tmp("dup.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut w = JournalWriter::open(&path, "s", "{}").unwrap();
        w.record_failed("a/x/r1", 2, "first try").unwrap();
        w.record_ok("a/x/r1", 1, r#"{"v":2}"#).unwrap();
        let recs = load(&path, "s", "{}").unwrap();
        assert_eq!(recs["a/x/r1"].result.as_deref(), Ok(r#"{"v":2}"#));
    }
}
