package segstore

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"
)

const (
	dataName = "segments.dat"

	fileHeaderSize = 16
	entrySize      = 32
	entryMagic     = uint32(0x314E414D) // "MAN1"

	// Version 1 kept the entries in a second file, manifest.log. A v1
	// directory is refused, untouched: the store is a cache of a run that
	// can be repeated, so there is no migration and no second reader.
	formatVersion = uint32(2)
)

var (
	dataMagic = [8]byte{'P', 'P', 'S', 'E', 'G', 'D', 'A', 'T'}

	castagnoli = crc32.MakeTable(crc32.Castagnoli)

	errVersion = errors.New("segstore: unsupported format version")
)

// entry is the 32-byte commit record in front of each payload.
type entry struct {
	off    int64  // payload offset in segments.dat (its own frame: entry offset + entrySize)
	length uint32 // payload length
	crc    uint32 // CRC-32C of the payload
	bin    int64  // bin unix seconds
}

// RecoveryInfo describes what Open found and repaired.
type RecoveryInfo struct {
	Bins      int   // committed segments recovered
	Truncated int64 // bytes dropped after the last valid frame (torn tail)
}

// Store is an open segment store. It is not safe for concurrent use; the
// publisher serializes commits on the analysis goroutine.
type Store struct {
	data     File
	entries  []entry
	dataEnd  int64  // end offset of the committed prefix
	buf      []byte // Append's frame; Payload's bytes (see release)
	rec      RecoveryInfo
	failed   error // first Append I/O error; sticky
	readonly bool
}

// Open opens (creating if needed) a store rooted at an OS directory.
func Open(dir string) (*Store, error) {
	fsys, err := DirFS(dir)
	if err != nil {
		return nil, err
	}
	return OpenFS(fsys)
}

// OpenReadOnly opens an existing store without mutating it: recovery is
// virtual (a torn tail is ignored, not truncated) and Append is rejected.
// Because committed data is append-only, a read-only store is safe to open
// on a directory another process is actively committing to — it serves the
// prefix that was durable at open time: the entry point for tools that
// read a live writer's committed records.
func OpenReadOnly(dir string) (*Store, error) {
	fsys, err := DirFSReadOnly(dir)
	if err != nil {
		return nil, err
	}
	return openFS(fsys, true)
}

// OpenFS opens a store on an arbitrary filesystem, running recovery: the
// committed prefix is the longest run of valid frames; a torn tail is
// truncated away.
func OpenFS(fsys FS) (*Store, error) {
	return openFS(fsys, false)
}

func openFS(fsys FS, readonly bool) (*Store, error) {
	s := &Store{readonly: readonly}
	var err error
	if s.data, err = fsys.OpenFile(dataName); err != nil {
		return nil, err
	}
	if err := s.recover(); err != nil {
		s.data.Close()
		return nil, err
	}
	return s, nil
}

// initHeader validates or (re)writes the 16-byte file header and returns
// the file size. A file shorter than one header cannot hold any committed
// state (the header is synced at creation before any commit), so a torn
// header resets the file — or, on a read-only open, just means an empty
// committed prefix.
func initHeader(f File, readonly bool) (int64, error) {
	size, err := f.Size()
	if err != nil {
		return 0, err
	}
	var hdr [fileHeaderSize]byte
	if size < fileHeaderSize {
		if readonly {
			return fileHeaderSize, nil
		}
		copy(hdr[:], dataMagic[:])
		binary.LittleEndian.PutUint32(hdr[8:], formatVersion)
		if err := f.Truncate(0); err != nil {
			return 0, err
		}
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		return fileHeaderSize, nil
	}
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return 0, err
	}
	if [8]byte(hdr[:8]) != dataMagic {
		return 0, fmt.Errorf("segstore: %q is not a segment store file", hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != formatVersion {
		return 0, fmt.Errorf("%w %d: this build reads only version %d and does not migrate; use an empty directory",
			errVersion, v, formatVersion)
	}
	return size, nil
}

// recover walks the frames front to back in one sequential read, stops at
// the first one that does not validate, and truncates the file there.
func (s *Store) recover() error {
	size, err := initHeader(s.data, s.readonly)
	if err != nil {
		return err
	}

	body := size - fileHeaderSize
	r := bufio.NewReaderSize(io.NewSectionReader(s.data, fileHeaderSize, body), int(min(body, 64<<10)))
	pos := int64(fileHeaderSize)
	lastBin := int64(-1 << 62)
	var eb [entrySize]byte
	for pos+entrySize <= size {
		if _, err := io.ReadFull(r, eb[:]); err != nil {
			return fmt.Errorf("segstore: reading entry at %d: %w", pos, err)
		}
		e, ok := parseEntry(eb[:])
		if !ok || e.off != pos+entrySize || e.off+int64(e.length) > size || e.bin <= lastBin {
			break
		}
		if _, err := io.ReadFull(r, s.frame(int(e.length))); err != nil {
			return fmt.Errorf("segstore: reading segment at %d: %w", e.off, err)
		}
		if crc32.Checksum(s.buf, castagnoli) != e.crc {
			break
		}
		s.entries = append(s.entries, e)
		pos = e.off + int64(e.length)
		lastBin = e.bin
	}

	s.dataEnd = pos
	s.rec = RecoveryInfo{Bins: len(s.entries), Truncated: size - pos}
	// Truncate the torn tail so appends resume on a clean prefix. This is
	// idempotent: a crash mid-truncation leaves a (shorter) torn tail the
	// next open truncates again. A read-only open never truncates: the torn
	// tail is simply outside the served prefix (and on a live writer's
	// directory it is usually not torn at all, just newer than this open).
	if s.readonly || s.rec.Truncated == 0 {
		return nil
	}
	if err := s.data.Truncate(pos); err != nil {
		return err
	}
	return s.data.Sync()
}

// parseEntry validates the fixed 32-byte entry layout:
// off u64 | len u32 | payload crc u32 | bin i64 | magic u32 | entry crc u32.
func parseEntry(b []byte) (entry, bool) {
	if binary.LittleEndian.Uint32(b[24:]) != entryMagic {
		return entry{}, false
	}
	if crc32.Checksum(b[:28], castagnoli) != binary.LittleEndian.Uint32(b[28:]) {
		return entry{}, false
	}
	return entry{
		off:    int64(binary.LittleEndian.Uint64(b[0:])),
		length: binary.LittleEndian.Uint32(b[8:]),
		crc:    binary.LittleEndian.Uint32(b[12:]),
		bin:    int64(binary.LittleEndian.Uint64(b[16:])),
	}, true
}

func appendEntry(dst []byte, e entry) []byte {
	start := len(dst)
	dst = le64(dst, uint64(e.off))
	dst = le32(dst, e.length)
	dst = le32(dst, e.crc)
	dst = le64(dst, uint64(e.bin))
	dst = le32(dst, entryMagic)
	dst = le32(dst, crc32.Checksum(dst[start:start+28], castagnoli))
	return dst
}

// Recovery reports what Open found and repaired.
func (s *Store) Recovery() RecoveryInfo { return s.rec }

// Len is the number of committed segments.
func (s *Store) Len() int { return len(s.entries) }

// LastBin returns the newest committed bin, if any.
func (s *Store) LastBin() (time.Time, bool) {
	if len(s.entries) == 0 {
		return time.Time{}, false
	}
	return unixUTC(s.entries[len(s.entries)-1].bin), true
}

// Append commits one closed bin as one frame — entry, then payload — in one
// write and one fsync. On return the record is durable. Bins must be
// strictly increasing. After a failed write or sync the kernel's view of
// those pages is undefined (a retried fsync can report success for data it
// dropped), so the first such error is sticky: every later Append returns
// it. Reads keep working; reopening recovers the committed prefix. A record
// AppendRecord refuses (ErrLongString) is an error too, but not a sticky
// one: nothing of it was written.
func (s *Store) Append(rec *BinRecord) error {
	if s.readonly {
		return errors.New("segstore: store is open read-only")
	}
	if s.failed != nil {
		return s.failed
	}
	if len(s.entries) > 0 && rec.Bin.Unix() <= s.entries[len(s.entries)-1].bin {
		return fmt.Errorf("segstore: bin %s not after last committed bin %s",
			rec.Bin.UTC().Format(time.RFC3339), unixUTC(s.entries[len(s.entries)-1].bin).Format(time.RFC3339))
	}
	var err error
	if s.buf, err = AppendRecord(resize(s.buf, entrySize), rec); err != nil {
		return err
	}
	payload := s.buf[entrySize:]
	e := entry{
		off:    s.dataEnd + entrySize,
		length: uint32(len(payload)),
		crc:    crc32.Checksum(payload, castagnoli),
		bin:    rec.Bin.Unix(),
	}
	appendEntry(s.buf[:0], e)
	if _, err := s.data.WriteAt(s.buf, s.dataEnd); err != nil {
		s.failed = fmt.Errorf("segstore: writing segment: %w", err)
		return s.failed
	}
	if err := s.data.Sync(); err != nil {
		s.failed = fmt.Errorf("segstore: syncing segment: %w", err)
		return s.failed
	}
	s.entries = append(s.entries, e)
	s.dataEnd = e.off + int64(e.length)
	s.buf = release(s.buf, len(s.buf))
	return nil
}

// frame returns the store's buffer resized to n bytes, released first when
// it is oversized for them.
func (s *Store) frame(n int) []byte {
	s.buf = resize(release(s.buf, n), n)
	return s.buf
}

// Payload returns the raw committed payload bytes of segment i, read into
// the store's buffer: do not retain the slice across Append, Payload or
// Record calls.
func (s *Store) Payload(i int) ([]byte, error) {
	e := s.entries[i]
	b := s.frame(int(e.length))
	if n, err := s.data.ReadAt(b, e.off); n != len(b) {
		return nil, fmt.Errorf("segstore: reading segment %d: %w", i, cmp.Or(err, io.ErrUnexpectedEOF))
	}
	return b, nil
}

// Record decodes committed segment i into rec, reusing rec's slices.
func (s *Store) Record(i int, rec *BinRecord) error {
	b, err := s.Payload(i)
	if err != nil {
		return err
	}
	return DecodeRecord(b, rec)
}

// Close releases the file. It does not sync: every Append already left
// the store durable.
func (s *Store) Close() error { return s.data.Close() }
