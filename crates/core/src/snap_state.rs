//! Little-endian state blobs for operator snapshots.
//!
//! Every [`crate::Dco`] implementation serializes its *non-row* state —
//! rotations, spectra, codebooks, codes, calibrated models, the config
//! fields its query path reads — into one byte blob via [`StateWriter`],
//! and restores from it via [`StateReader`]. The pre-rotated row matrix
//! itself travels separately (the `rows` section of a snapshot container,
//! served zero-copy as [`ddc_vecs::SharedRows`]), so the blob stays small
//! and heap-resident while the bulk data is mapped.
//!
//! Numbers are stored bitwise (`to_le_bytes` / `from_le_bytes`), which is
//! what makes a restored operator *bit-identical* to the one that was
//! saved — the engine parity suite pins this across every operator.
//!
//! Blobs are self-labeling: each starts with the operator name, so feeding
//! a DDCopq blob to a DDCres restore fails with a clear message instead of
//! misparsing. All reads are bounds-checked and surface
//! [`crate::CoreError::Config`] with the offending byte offset.

use crate::CoreError;

/// Serializes operator state into a little-endian byte blob.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// An empty blob labeled with the operator `name` (checked by
    /// [`StateReader::expect_name`] on restore).
    pub fn new(name: &str) -> StateWriter {
        let mut w = StateWriter { buf: Vec::new() };
        w.put_str(name);
        w
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` (as `u64`).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f32` bitwise.
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` bitwise.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a length-prefixed `f32` slice, bitwise.
    pub fn put_f32s(&mut self, v: &[f32]) {
        self.put_usize(v.len());
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Appends a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// The finished blob.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked reader over a blob written by [`StateWriter`].
#[derive(Debug)]
pub struct StateReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> StateReader<'a> {
    /// A reader over `bytes`; `what` names the operator being restored in
    /// error messages.
    pub fn new(bytes: &'a [u8], what: &'static str) -> StateReader<'a> {
        StateReader {
            bytes,
            pos: 0,
            what,
        }
    }

    /// The operator name this reader reports errors under.
    pub fn what(&self) -> &'static str {
        self.what
    }

    fn err(&self, detail: String) -> CoreError {
        CoreError::Config(format!(
            "{} state blob: {detail} (at byte {})",
            self.what, self.pos
        ))
    }

    fn take(&mut self, n: usize) -> crate::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| {
                self.err(format!(
                    "truncated: needed {n} more bytes, {} remain",
                    self.bytes.len() - self.pos
                ))
            })?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    /// [`CoreError::Config`] on truncation.
    pub fn take_u64(&mut self) -> crate::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a `usize`, rejecting values beyond the platform word.
    ///
    /// # Errors
    /// [`CoreError::Config`] on truncation or overflow.
    pub fn take_usize(&mut self) -> crate::Result<usize> {
        let v = self.take_u64()?;
        usize::try_from(v).map_err(|_| self.err(format!("length {v} exceeds the platform word")))
    }

    /// Reads a count of items that each occupy at least `min_bytes` of
    /// the rest of the blob — the one read for every count that sizes an
    /// allocation, so a forged count fails here instead of reaching
    /// `Vec::with_capacity`.
    ///
    /// # Errors
    /// [`CoreError::Config`] on truncation, or when `count · min_bytes`
    /// exceeds the bytes left.
    pub fn take_count(&mut self, min_bytes: usize) -> crate::Result<usize> {
        let n = self.take_usize()?;
        if n > self.remaining() / min_bytes.max(1) {
            return Err(self.err(format!(
                "implausible count {n}: {} bytes remain, each item takes at least {min_bytes}",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads an `f32` bitwise.
    ///
    /// # Errors
    /// [`CoreError::Config`] on truncation.
    pub fn take_f32(&mut self) -> crate::Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads an `f64` bitwise.
    ///
    /// # Errors
    /// [`CoreError::Config`] on truncation.
    pub fn take_f64(&mut self) -> crate::Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a bool byte.
    ///
    /// # Errors
    /// [`CoreError::Config`] on truncation or a byte that is neither 0
    /// nor 1.
    pub fn take_bool(&mut self) -> crate::Result<bool> {
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(self.err(format!("invalid bool byte {b:#04x}"))),
        }
    }

    /// Reads a length-prefixed `f32` vector.
    ///
    /// # Errors
    /// [`CoreError::Config`] on truncation or an implausible length.
    pub fn take_f32s(&mut self) -> crate::Result<Vec<f32>> {
        let n = self.take_count(4)?;
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4")))
            .collect())
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    /// [`CoreError::Config`] on truncation.
    pub fn take_bytes(&mut self) -> crate::Result<Vec<u8>> {
        let n = self.take_count(1)?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// [`CoreError::Config`] on truncation or invalid UTF-8.
    pub fn take_str(&mut self) -> crate::Result<String> {
        let raw = self.take_bytes()?;
        String::from_utf8(raw).map_err(|_| self.err("invalid UTF-8 string".into()))
    }

    /// Reads the leading operator-name label and checks it matches — the
    /// guard against restoring a blob under the wrong spec.
    ///
    /// # Errors
    /// [`CoreError::Config`] when the label names a different operator.
    pub fn expect_name(&mut self, name: &str) -> crate::Result<()> {
        let got = self.take_str()?;
        if got != name {
            return Err(self.err(format!(
                "blob was written by operator `{got}`, expected `{name}`"
            )));
        }
        Ok(())
    }

    /// Bytes not yet consumed. Lets a restore path probe for an optional
    /// trailing field (the metric suffix newer writers append) while still
    /// accepting blobs from writers that predate it.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Asserts the blob was fully consumed — trailing bytes mean a
    /// writer/reader skew and are rejected rather than ignored.
    ///
    /// # Errors
    /// [`CoreError::Config`] naming the number of trailing bytes.
    pub fn finish(self) -> crate::Result<()> {
        if self.pos != self.bytes.len() {
            let extra = self.bytes.len() - self.pos;
            return Err(self.err(format!("{extra} trailing bytes after the last field")));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_field_kind() {
        let mut w = StateWriter::new("Test");
        w.put_u64(u64::MAX - 3);
        w.put_usize(42);
        w.put_f32(f32::from_bits(0x7FC0_0001)); // a specific NaN payload
        w.put_f64(-0.0);
        w.put_bool(true);
        w.put_f32s(&[1.5, -2.25, 0.0]);
        w.put_bytes(&[9, 8, 7]);
        w.put_str("hello");
        let blob = w.into_bytes();

        let mut r = StateReader::new(&blob, "Test");
        r.expect_name("Test").unwrap();
        assert!(r.remaining() > 0);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.take_usize().unwrap(), 42);
        assert_eq!(r.take_f32().unwrap().to_bits(), 0x7FC0_0001);
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_f32s().unwrap(), vec![1.5, -2.25, 0.0]);
        assert_eq!(r.take_bytes().unwrap(), vec![9, 8, 7]);
        assert_eq!(r.take_str().unwrap(), "hello");
        assert_eq!(r.remaining(), 0);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_skew_are_rejected_with_offsets() {
        let blob = StateWriter::new("A").into_bytes();
        let mut r = StateReader::new(&blob, "A");
        r.expect_name("A").unwrap();
        let err = r.take_u64().unwrap_err().to_string();
        assert!(err.contains("truncated"), "{err}");
        assert!(err.contains("at byte"), "{err}");

        // Wrong operator label.
        let mut r = StateReader::new(&blob, "B");
        let err = r.expect_name("B").unwrap_err().to_string();
        assert!(err.contains("written by operator `A`"), "{err}");

        // Trailing bytes.
        let mut blob2 = blob.clone();
        blob2.push(0);
        let mut r = StateReader::new(&blob2, "A");
        r.expect_name("A").unwrap();
        let err = r.finish().unwrap_err().to_string();
        assert!(err.contains("trailing"), "{err}");

        // Bad bool byte.
        let mut w = StateWriter::new("A");
        w.put_u64(2); // will be read as a bool byte stream
        let blob3 = w.into_bytes();
        let mut r = StateReader::new(&blob3, "A");
        r.expect_name("A").unwrap();
        assert!(r.take_bool().unwrap_err().to_string().contains("bool"));
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_left() {
        let mut w = StateWriter::new("A");
        w.put_usize(3);
        w.put_bytes(&[0; 16]); // 8-byte length + 16 bytes = 24 after the count
        let blob = w.into_bytes();
        for (min_bytes, ok) in [(8, true), (9, false), (0, true)] {
            let mut r = StateReader::new(&blob, "A");
            r.expect_name("A").unwrap();
            let got = r.take_count(min_bytes);
            assert_eq!(got.is_ok(), ok, "min_bytes {min_bytes}: {got:?}");
            if let Err(e) = got {
                assert!(e.to_string().contains("implausible count 3"), "{e}");
            }
        }
    }

    #[test]
    fn implausible_lengths_do_not_allocate() {
        // A length prefix claiming 2^60 floats must fail fast, not OOM.
        let mut w = StateWriter::new("A");
        w.put_u64(1 << 60);
        let blob = w.into_bytes();
        let mut r = StateReader::new(&blob, "A");
        r.expect_name("A").unwrap();
        assert!(r
            .take_f32s()
            .unwrap_err()
            .to_string()
            .contains("implausible"));
    }
}
