// Package segstore is the append-only on-disk segment store behind the
// serving layer: one compact columnar segment per closed analysis bin,
// holding that bin's BinRecord — the one record the serving layer builds per
// close and derives its feed delta and snapshots from: the bin's
// delay/forwarding alarms in wire form, its per-AS events, the per-AS
// magnitude points appended by the incremental close, and the raw per-AS
// deviation/responsibility sums the magnitude window math needs.
//
// # Files and commit protocol
//
// A store directory holds two files:
//
//	segments.dat   16-byte header, then segment payloads back to back
//	manifest.log   16-byte header, then fixed 32-byte committed entries
//
// A commit is strictly ordered:
//
//  1. append the encoded segment payload to segments.dat
//  2. fsync segments.dat
//  3. append a 32-byte manifest entry {offset, length, payload CRC-32C,
//     bin, entry magic, entry CRC-32C} to manifest.log
//  4. fsync manifest.log
//
// The manifest is the commit record: a segment exists if and only if a
// valid manifest entry describes it. Because the payload is durable
// before its entry is written, a crash at ANY byte of the sequence
// leaves either (a) a data tail no entry points at, or (b) a torn or
// missing manifest entry — both recoverable.
//
// # Recovery state machine
//
// Open scans manifest entries in order and stops at the first invalid
// one: short entry, bad entry magic or entry CRC, non-contiguous offset,
// entry pointing past the end of segments.dat, non-increasing bin, or a
// payload whose CRC-32C does not match. Everything before the cut is the
// committed prefix; everything after — the torn manifest tail and the
// unreferenced data tail — is truncated away, both files are fsynced,
// and appends resume at the truncated tails. Recovery is idempotent: a
// crash during recovery truncation just re-runs it on the next open.
//
// # Reads
//
// Committed payloads are read zero-copy through a read-only shared mmap
// of segments.dat on Linux (remapped lazily as the file grows), with a
// plain ReadAt fallback elsewhere and on non-os filesystems. Decoding is
// defensive: any mutated or truncated payload yields a *CorruptError,
// never a panic — pinned by FuzzSegmentRoundTrip.
//
// # Crash injection
//
// The store runs on a narrow FS/File interface. DirFS is the real
// os-backed implementation; MemFS is an in-memory implementation whose
// write/sync journal lets the crash-injection harness replay a commit up
// to every byte offset and sync point and prove each cut recovers to
// exactly the committed prefix.
package segstore
