//! CSV interchange for transfer logs.
//!
//! The paper's §7 argues the method applies to any transfer tool whose
//! logs expose the same fields ("FTP, rsync, scp, bbcp, FDT, XDD"). This
//! module is the interop seam: a plain CSV schema for
//! [`TransferRecord`]s that external logs can be
//! converted into, and that our tools emit.
//!
//! Schema (header required):
//! `id,src,dst,start,end,bytes,files,dirs,concurrency,parallelism,faults`
//! with times in seconds and bytes as a float.

use crate::id::{EndpointId, TransferId};
use crate::record::TransferRecord;
use crate::time::SimTime;
use crate::units::Bytes;
use std::fmt;
use std::io::BufRead;

/// The expected header line.
pub const CSV_HEADER: &str = "id,src,dst,start,end,bytes,files,dirs,concurrency,parallelism,faults";

/// Errors produced when parsing a log CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// The first line did not match [`CSV_HEADER`].
    BadHeader,
    /// A data line had the wrong number of fields.
    WrongFieldCount {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        got: usize,
    },
    /// A field failed to parse.
    BadField {
        /// 1-based line number.
        line: usize,
        /// Column name.
        column: &'static str,
    },
    /// A record's end time precedes its start time.
    NegativeDuration {
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::BadHeader => write!(f, "header must be exactly: {CSV_HEADER}"),
            CsvError::WrongFieldCount { line, got } => {
                write!(f, "line {line}: expected 11 fields, got {got}")
            }
            CsvError::BadField { line, column } => {
                write!(f, "line {line}: cannot parse column '{column}'")
            }
            CsvError::NegativeDuration { line } => {
                write!(f, "line {line}: end precedes start")
            }
        }
    }
}

impl std::error::Error for CsvError {}

/// Serialize records to CSV (with header).
pub fn records_to_csv(records: &[TransferRecord]) -> String {
    let mut out = String::with_capacity(64 * (records.len() + 1));
    out.push_str(CSV_HEADER);
    out.push('\n');
    for r in records {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{}\n",
            r.id.0,
            r.src.0,
            r.dst.0,
            r.start.as_secs(),
            r.end.as_secs(),
            r.bytes.as_f64(),
            r.files,
            r.dirs,
            r.concurrency,
            r.parallelism,
            r.faults
        ));
    }
    out
}

/// Parse one data line (1-based `line_no`, header is line 1). The line is
/// expected pre-trimmed and non-empty.
pub fn parse_csv_line(line: &str, line_no: usize) -> Result<TransferRecord, CsvError> {
    let mut fields = [""; 11];
    let mut got = 0usize;
    for f in line.split(',') {
        if got < 11 {
            fields[got] = f;
        }
        got += 1;
    }
    if got != 11 {
        return Err(CsvError::WrongFieldCount { line: line_no, got });
    }
    fn p<T: std::str::FromStr>(v: &str, line: usize, column: &'static str) -> Result<T, CsvError> {
        v.trim().parse().map_err(|_| CsvError::BadField { line, column })
    }
    // `f64::from_str` accepts `nan`, `inf` and `-inf`; a timestamp must be
    // a real time.
    fn time(v: &str, line: usize, column: &'static str) -> Result<f64, CsvError> {
        let t: f64 = p(v, line, column)?;
        if t.is_finite() {
            Ok(t)
        } else {
            Err(CsvError::BadField { line, column })
        }
    }
    let start = time(fields[3], line_no, "start")?;
    let end = time(fields[4], line_no, "end")?;
    if end < start {
        return Err(CsvError::NegativeDuration { line: line_no });
    }
    let bytes: f64 = p(fields[5], line_no, "bytes")?;
    if bytes.is_nan() || bytes < 0.0 || !bytes.is_finite() {
        return Err(CsvError::BadField { line: line_no, column: "bytes" });
    }
    // Moving bytes takes time: a zero-duration record would have a rate of
    // 0 (see `TransferRecord::rate`) and train as a real target.
    if end == start && bytes > 0.0 {
        return Err(CsvError::BadField { line: line_no, column: "end" });
    }
    Ok(TransferRecord {
        id: TransferId(p(fields[0], line_no, "id")?),
        src: EndpointId(p(fields[1], line_no, "src")?),
        dst: EndpointId(p(fields[2], line_no, "dst")?),
        start: SimTime::seconds(start),
        end: SimTime::seconds(end),
        bytes: Bytes::new(bytes),
        files: p(fields[6], line_no, "files")?,
        dirs: p(fields[7], line_no, "dirs")?,
        concurrency: p(fields[8], line_no, "concurrency")?,
        parallelism: p(fields[9], line_no, "parallelism")?,
        faults: p(fields[10], line_no, "faults")?,
    })
}

/// Errors from the streaming reader: either the underlying I/O failed or a
/// line failed to parse.
#[derive(Debug)]
pub enum CsvStreamError {
    /// The reader failed.
    Io(std::io::Error),
    /// A line failed to parse (same variants and line numbers as
    /// [`records_from_csv`]).
    Parse(CsvError),
}

impl fmt::Display for CsvStreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvStreamError::Io(e) => write!(f, "csv read: {e}"),
            CsvStreamError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CsvStreamError {}

impl From<CsvError> for CsvStreamError {
    fn from(e: CsvError) -> Self {
        CsvStreamError::Parse(e)
    }
}

impl From<std::io::Error> for CsvStreamError {
    fn from(e: std::io::Error) -> Self {
        CsvStreamError::Io(e)
    }
}

/// A streaming, line-by-line reader of transfer-log CSV.
///
/// Yields one [`TransferRecord`] per data line without materializing the
/// file: memory use is one line buffer regardless of log size. Blank
/// lines are skipped (but still counted, so error line numbers are
/// identical to [`records_from_csv`]'s: the header is line 1, the first
/// data line is line 2). The header is validated lazily on the first
/// `next()` call.
pub struct CsvReader<R: BufRead> {
    reader: R,
    /// Reused line buffer.
    line: String,
    /// 1-based number of the last line read.
    line_no: usize,
    /// Header seen and validated.
    header_done: bool,
    /// A parse error ends the stream (matching the fail-fast batch parser).
    failed: bool,
}

impl<R: BufRead> CsvReader<R> {
    /// Wrap a buffered reader positioned at the start of the CSV.
    pub fn new(reader: R) -> Self {
        CsvReader { reader, line: String::new(), line_no: 0, header_done: false, failed: false }
    }

    /// Read the next raw line into the buffer. `Ok(false)` at EOF.
    fn read_line(&mut self) -> std::io::Result<bool> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line)?;
        if n == 0 {
            return Ok(false);
        }
        self.line_no += 1;
        Ok(true)
    }
}

impl<R: BufRead> Iterator for CsvReader<R> {
    type Item = Result<TransferRecord, CsvStreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        if !self.header_done {
            match self.read_line() {
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e.into()));
                }
                Ok(false) => {
                    self.failed = true;
                    return Some(Err(CsvError::BadHeader.into()));
                }
                Ok(true) => {
                    if self.line.trim() != CSV_HEADER {
                        self.failed = true;
                        return Some(Err(CsvError::BadHeader.into()));
                    }
                    self.header_done = true;
                }
            }
        }
        loop {
            match self.read_line() {
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e.into()));
                }
                Ok(false) => return None,
                Ok(true) => {
                    let trimmed = self.line.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    return match parse_csv_line(trimmed, self.line_no) {
                        Ok(r) => Some(Ok(r)),
                        Err(e) => {
                            self.failed = true;
                            Some(Err(e.into()))
                        }
                    };
                }
            }
        }
    }
}

/// Parse records from CSV produced by [`records_to_csv`] (or converted
/// from another tool's log). Blank lines are ignored.
///
/// This is the batch convenience over [`CsvReader`]; both produce the
/// same records and the same error line numbers.
pub fn records_from_csv(s: &str) -> Result<Vec<TransferRecord>, CsvError> {
    let mut out = Vec::new();
    for item in CsvReader::new(s.as_bytes()) {
        match item {
            Ok(r) => out.push(r),
            Err(CsvStreamError::Parse(e)) => return Err(e),
            // In-memory readers cannot fail on I/O.
            Err(CsvStreamError::Io(e)) => unreachable!("io error reading &str: {e}"),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64) -> TransferRecord {
        TransferRecord {
            id: TransferId(id),
            src: EndpointId(3),
            dst: EndpointId(7),
            start: SimTime::seconds(10.5),
            end: SimTime::seconds(99.25),
            bytes: Bytes::gb(1.5),
            files: 42,
            dirs: 6,
            concurrency: 4,
            parallelism: 2,
            faults: 1,
        }
    }

    #[test]
    fn round_trip() {
        let records = vec![rec(0), rec(1), rec(2)];
        let csv = records_to_csv(&records);
        let back = records_from_csv(&csv).expect("parse");
        assert_eq!(records, back);
    }

    #[test]
    fn empty_log_round_trips() {
        let csv = records_to_csv(&[]);
        assert_eq!(records_from_csv(&csv).unwrap(), vec![]);
    }

    #[test]
    fn rejects_bad_header() {
        assert_eq!(records_from_csv("nope\n1,2,3"), Err(CsvError::BadHeader));
        assert_eq!(records_from_csv(""), Err(CsvError::BadHeader));
    }

    #[test]
    fn rejects_wrong_field_count() {
        let csv = format!("{CSV_HEADER}\n1,2,3\n");
        assert_eq!(records_from_csv(&csv), Err(CsvError::WrongFieldCount { line: 2, got: 3 }));
    }

    #[test]
    fn rejects_unparsable_field() {
        let csv = format!("{CSV_HEADER}\n1,2,3,abc,5,6,7,8,9,10,11\n");
        assert_eq!(records_from_csv(&csv), Err(CsvError::BadField { line: 2, column: "start" }));
    }

    #[test]
    fn rejects_non_finite_timestamps() {
        // Each bad value sits on line 3, after one good record, in each
        // timestamp column; both parsers must name the line and column.
        for bad in ["nan", "inf", "-inf", "NaN", "infinity"] {
            for (column, line) in [
                ("start", format!("1,2,3,{bad},10,100,1,1,1,1,0")),
                ("end", format!("1,2,3,0,{bad},100,1,1,1,1,0")),
            ] {
                let csv = format!("{CSV_HEADER}\n0,2,3,0,10,100,1,1,1,1,0\n{line}\n");
                let want = CsvError::BadField { line: 3, column };
                assert_eq!(records_from_csv(&csv), Err(want.clone()), "{bad} in {column}");
                let streamed: Vec<_> = CsvReader::new(csv.as_bytes()).collect();
                assert_eq!(streamed.len(), 2, "{bad} in {column}: stream must stop at the error");
                assert!(streamed[0].is_ok());
                match &streamed[1] {
                    Err(CsvStreamError::Parse(e)) => assert_eq!(e, &want, "{bad} in {column}"),
                    other => panic!("{bad} in {column}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn rejects_zero_duration_with_bytes() {
        // The bad record sits on line 3, after one good record; both
        // parsers must name the line and the `end` column.
        let csv = format!("{CSV_HEADER}\n0,2,3,0,10,100,1,1,1,1,0\n1,2,3,10,10,100,1,1,1,1,0\n");
        let want = CsvError::BadField { line: 3, column: "end" };
        assert_eq!(records_from_csv(&csv), Err(want.clone()));
        let streamed: Vec<_> = CsvReader::new(csv.as_bytes()).collect();
        assert_eq!(streamed.len(), 2, "stream must stop at the error");
        assert!(streamed[0].is_ok());
        match &streamed[1] {
            Err(CsvStreamError::Parse(e)) => assert_eq!(e, &want),
            other => panic!("{other:?}"),
        }
        // An empty transfer takes no time and stays valid.
        let empty = format!("{CSV_HEADER}\n1,2,3,10,10,0,1,1,1,1,0\n");
        assert_eq!(records_from_csv(&empty).expect("parse").len(), 1);
    }

    #[test]
    fn rejects_negative_duration() {
        let csv = format!("{CSV_HEADER}\n1,2,3,100,50,6,7,8,9,10,11\n");
        assert_eq!(records_from_csv(&csv), Err(CsvError::NegativeDuration { line: 2 }));
    }

    #[test]
    fn skips_blank_lines() {
        let csv = format!("{}\n\n{}\n", CSV_HEADER, "1,2,3,0,10,100,1,1,1,1,0");
        assert_eq!(records_from_csv(&csv).unwrap().len(), 1);
    }

    #[test]
    fn errors_display_usefully() {
        let e = CsvError::BadField { line: 9, column: "bytes" };
        assert!(e.to_string().contains("line 9"));
        assert!(e.to_string().contains("bytes"));
    }

    #[test]
    fn streaming_reader_yields_same_records_as_batch() {
        let records = vec![rec(0), rec(1), rec(2)];
        let csv = records_to_csv(&records);
        let streamed: Vec<TransferRecord> =
            CsvReader::new(csv.as_bytes()).map(|r| r.expect("parse")).collect();
        assert_eq!(streamed, records);
        assert_eq!(streamed, records_from_csv(&csv).unwrap());
    }

    #[test]
    fn streaming_reader_error_line_numbers_match_batch() {
        // Every malformed input must fail identically (variant AND line
        // number) through both paths.
        let bad_inputs = [
            format!("{CSV_HEADER}\n1,2,3\n"),
            format!("{CSV_HEADER}\n1,2,3,abc,5,6,7,8,9,10,11\n"),
            format!("{CSV_HEADER}\n1,2,3,100,50,6,7,8,9,10,11\n"),
            format!("{CSV_HEADER}\n\n\n1,2,3,nope,5,6,7,8,9,10,11\n"),
            format!("{CSV_HEADER}\n1,2,3,0,10,100,1,1,1,1,0\n1,2,3,0,10,100,1,1,1,1\n"),
            "nope\n1,2,3".to_string(),
            String::new(),
        ];
        for csv in &bad_inputs {
            let batch_err = records_from_csv(csv).expect_err("batch must fail");
            let stream_err =
                CsvReader::new(csv.as_bytes()).find_map(|r| r.err()).expect("stream must fail");
            match stream_err {
                CsvStreamError::Parse(e) => assert_eq!(e, batch_err, "input: {csv:?}"),
                CsvStreamError::Io(e) => panic!("unexpected io error: {e}"),
            }
        }
    }

    #[test]
    fn streaming_reader_stops_after_first_error() {
        let csv = format!("{CSV_HEADER}\n1,2,3\n1,2,3,0,10,100,1,1,1,1,0\n");
        let items: Vec<_> = CsvReader::new(csv.as_bytes()).collect();
        assert_eq!(items.len(), 1, "stream must end at the first error");
        assert!(items[0].is_err());
    }

    #[test]
    fn streaming_reader_handles_missing_trailing_newline() {
        let csv = format!("{CSV_HEADER}\n1,2,3,0,10,100,1,1,1,1,0");
        let rows: Vec<_> = CsvReader::new(csv.as_bytes()).collect::<Result<_, _>>().expect("parse");
        assert_eq!(rows.len(), 1);
    }
}
