//! The record frame, `[magic 0xA5][len u32 LE][crc32 u32 LE][payload]` —
//! the one place that lays a frame out and the one place that checks one.
//!
//! Every reader (the volatile tail, random device reads, the recovery
//! scanner's read-ahead buffer) hands [`read`] a byte source and gets
//! back the validated payload; the error reasons are part of the
//! contract, because the scanner's torn-tail rule and the fuzz tests
//! match on [`MspError::LogCorrupt`].

use msp_types::MspError;

use crate::crc::crc32;
use crate::tail::MAX_RESERVED_FRAME;

/// Marker byte opening every record frame.
pub(crate) const FRAME_MAGIC: u8 = 0xA5;

/// Frame header: magic (1) + len (4) + crc (4).
pub(crate) const FRAME_HEADER: usize = 9;

/// Upper bound on a single record's payload: the largest frame the append
/// pipeline can stage, less the header. The writer refuses anything
/// longer and a reader treats a longer decoded length as corruption.
pub(crate) const MAX_RECORD: u32 = (MAX_RESERVED_FRAME - FRAME_HEADER) as u32;

/// Lay `payload` out as one frame.
pub(crate) fn encode(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.push(FRAME_MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Read and validate the frame at `lsn`, returning its payload. `src`
/// copies bytes at an absolute log offset into the buffer it is given and
/// returns how many were available (short at the end of its medium).
pub(crate) fn read(
    lsn: u64,
    mut src: impl FnMut(u64, &mut [u8]) -> Result<usize, MspError>,
) -> Result<Vec<u8>, MspError> {
    let corrupt = |reason: &str| MspError::LogCorrupt {
        offset: lsn,
        reason: reason.into(),
    };
    let mut header = [0u8; FRAME_HEADER];
    if src(lsn, &mut header)? < FRAME_HEADER {
        return Err(corrupt("truncated frame header"));
    }
    if header[0] != FRAME_MAGIC {
        return Err(corrupt("bad frame magic"));
    }
    let len = u32::from_le_bytes(header[1..5].try_into().expect("slice"));
    let crc = u32::from_le_bytes(header[5..9].try_into().expect("slice"));
    if len > MAX_RECORD {
        return Err(corrupt("oversized frame"));
    }
    let mut payload = vec![0u8; len as usize];
    if src(lsn + FRAME_HEADER as u64, &mut payload)? < payload.len() {
        return Err(corrupt("truncated frame payload"));
    }
    if crc32(&payload) != crc {
        return Err(corrupt("crc mismatch"));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_slice(buf: &[u8]) -> impl FnMut(u64, &mut [u8]) -> Result<usize, MspError> + '_ {
        move |off, out| {
            let avail = buf.get(off as usize..).unwrap_or(&[]);
            let n = avail.len().min(out.len());
            out[..n].copy_from_slice(&avail[..n]);
            Ok(n)
        }
    }

    fn reason(buf: &[u8]) -> String {
        match read(0, from_slice(buf)) {
            Err(MspError::LogCorrupt { offset: 0, reason }) => reason,
            other => panic!("expected LogCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn encode_then_read_round_trips() {
        for payload in [&b""[..], b"x", &[7u8; 1000]] {
            let frame = encode(payload);
            assert_eq!(frame.len(), FRAME_HEADER + payload.len());
            assert_eq!(read(0, from_slice(&frame)).unwrap(), payload);
        }
    }

    #[test]
    fn each_defect_keeps_its_reason() {
        let good = encode(b"payload");
        assert_eq!(reason(&good[..4]), "truncated frame header");
        let mut bad = good.clone();
        bad[0] = 0x5A;
        assert_eq!(reason(&bad), "bad frame magic");
        let mut bad = good.clone();
        bad[1..5].copy_from_slice(&(MAX_RECORD + 1).to_le_bytes());
        assert_eq!(reason(&bad), "oversized frame");
        assert_eq!(reason(&good[..good.len() - 1]), "truncated frame payload");
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert_eq!(reason(&bad), "crc mismatch");
    }
}
