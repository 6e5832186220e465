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
// A store directory holds one file:
//
//	segments.dat   16-byte header {magic, format version 2}, then frames
//	               [32-byte entry | segment payload] back to back
//
// The entry is {payload offset, length, payload CRC-32C, bin, entry magic,
// entry CRC-32C}; the offset is the frame's own, so a frame that was
// shifted or copied elsewhere is invalid. A commit encodes entry and
// payload into one buffer and issues
//
//  1. one WriteAt of the frame at the committed tail
//  2. one fsync
//
// and the bin is durable when Append returns. A segment exists if and only
// if a valid entry sits in front of a payload matching that entry's
// CRC-32C. Nothing orders the entry against its payload on disk, and
// nothing needs to: write-back may land any subset of a torn frame's
// pages, but recovery checksums every payload against its entry, so a
// frame counts only when all of it arrived. (Format version 1 kept the
// entries in a second file and spent a second fsync ordering "payload
// before entry" — a guarantee the CRC check already gave.) The first
// failed write or sync poisons the Store: the kernel's view of those pages
// is undefined, so every later Append returns the same error, and the way
// forward is to reopen, which recovers the committed prefix.
//
// A version-1 directory is refused by the header's version check and left
// untouched. There is no migration and no second reader: the store holds
// the output of a deterministic run that can be repeated into an empty
// directory, which is cheaper than carrying two formats.
//
// # Recovery state machine
//
// Open reads the file once, front to back, frame by frame, and stops at
// the first that fails: fewer than 32 bytes left, bad entry magic or
// entry CRC, an offset that is not the frame's own, a payload running
// past the end of the file, a non-increasing bin, or a payload whose
// CRC-32C does not match. Everything before the cut is the committed
// prefix; everything after is truncated away in one truncate and one
// fsync, and appends resume there. Recovery is idempotent: a crash during
// the truncation just re-runs it on the next open. A read-only open does
// the same walk and truncates nothing.
//
// # Reads
//
// A committed payload is read one way on every platform and filesystem:
// one File.ReadAt into the store's buffer, then a decode. The serving
// layer reads records only at a writer's restart boot — off the timed
// paths — so a copy per read costs nothing that matters.
//
// # Payload codec
//
// A payload's layout is written once: one function per row kind
// (delayRows, fwdRows, eventRows, seriesRows) visits its columns in wire
// order through a codec that either appends each field or reads it back,
// so AppendRecord and DecodeRecord cannot disagree. Decoding reads through
// a bounds-checked cursor whose first failure sticks: any mutated or
// truncated payload yields a *CorruptError, never a panic — pinned by
// FuzzSegmentRoundTrip — and TestSegmentCorpusGolden pins the bytes to the
// fields. Row strings carry a u16 length; AppendRecord, and so Append,
// refuses a record with a longer one (ErrLongString) and writes nothing.
//
// # Crash injection
//
// The store runs on a narrow FS/File interface. DirFS, the os-backed
// implementation, is the only one the package exports; the seam exists for
// the tests. Their in-memory FS (memfs_test.go) journals writes and syncs,
// so the crash-injection harness replays a commit up to every byte offset
// and sync point — and with any leading part of the frame missing while
// the rest landed — and proves each state recovers to exactly the
// committed prefix. A wrapper over it fails or short-writes the n-th
// operation.
package segstore
