//! Errors produced while parsing, writing, or replaying captures.

use std::error::Error;
use std::fmt;

use stepstone_flow::Timestamp;

/// Errors produced by the wire-ingestion layer.
///
/// Every malformed input maps to a variant here — corrupt captures must
/// never panic the reader (the workspace no-panic invariant), they
/// surface as `Err` values the caller can report.
#[derive(Debug)]
#[non_exhaustive]
pub enum IngestError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The first bytes match neither a pcap magic nor a pcapng section
    /// header.
    BadMagic,
    /// The capture ends in the middle of a header, block, or packet
    /// record.
    Truncated {
        /// Byte offset at which the reader ran out of input.
        offset: usize,
        /// What was being parsed when the input ended.
        what: &'static str,
    },
    /// A structurally invalid pcapng block or pcap record.
    Malformed {
        /// Byte offset of the offending structure.
        offset: usize,
        /// What was wrong.
        reason: String,
    },
    /// The capture's link layer is one the frame decoder does not
    /// understand (only Ethernet, raw-IP, and null/loopback captures
    /// are supported).
    UnsupportedLinkType(u32),
    /// A timestamp cannot be represented in the output format (classic
    /// pcap stores unsigned 32-bit seconds).
    TimestampOutOfRange(Timestamp),
    /// A packet's recorded size is below the minimum frame its 5-tuple
    /// encapsulation needs.
    FrameTooSmall {
        /// The requested wire length.
        requested: u32,
        /// The minimum length the headers alone occupy.
        minimum: u32,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "capture i/o failed: {e}"),
            IngestError::BadMagic => write!(f, "not a pcap or pcapng capture"),
            IngestError::Truncated { offset, what } => {
                write!(f, "capture truncated at byte {offset} while reading {what}")
            }
            IngestError::Malformed { offset, reason } => {
                write!(f, "malformed capture structure at byte {offset}: {reason}")
            }
            IngestError::UnsupportedLinkType(lt) => {
                write!(f, "unsupported capture link type {lt}")
            }
            IngestError::TimestampOutOfRange(ts) => {
                write!(f, "timestamp {ts} is not representable in classic pcap")
            }
            IngestError::FrameTooSmall { requested, minimum } => {
                write!(
                    f,
                    "packet size {requested} is below the {minimum}-byte encapsulation minimum"
                )
            }
        }
    }
}

impl Error for IngestError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IngestError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for IngestError {
    fn from(e: std::io::Error) -> Self {
        IngestError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_mention_the_failure() {
        assert!(IngestError::BadMagic.to_string().contains("pcap"));
        let t = IngestError::Truncated {
            offset: 12,
            what: "record header",
        };
        assert!(t.to_string().contains("byte 12"), "{t}");
        assert!(IngestError::UnsupportedLinkType(147)
            .to_string()
            .contains("147"));
        let e = IngestError::FrameTooSmall {
            requested: 10,
            minimum: 42,
        };
        assert!(e.to_string().contains("42"), "{e}");
        assert!(IngestError::TimestampOutOfRange(Timestamp::from_micros(-1))
            .to_string()
            .contains("pcap"));
    }

    #[test]
    fn io_errors_convert_and_chain() {
        let e: IngestError = std::io::Error::other("boom").into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("boom"));
    }
}
