package segstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// synthRecord builds a deterministic record for bin index i with a mix of
// populated and empty sections.
func synthRecord(i int) *BinRecord {
	bin := time.Date(2015, 5, 1, i, 0, 0, 0, time.UTC)
	rec := &BinRecord{
		Bin:      bin,
		FirstBin: time.Date(2015, 5, 1, 0, 0, 0, 0, time.UTC),
		Results:  int64(1000 * (i + 1)),
	}
	if i%3 != 0 {
		for j := 0; j < i%4+1; j++ {
			rec.Delay = append(rec.Delay, DelayRow{
				Bin:       bin,
				Link:      fmt.Sprintf("10.0.%d.1-10.0.%d.2", j, j+1),
				MedianMS:  float64(i) + 0.25,
				RefMS:     float64(i) + 0.125,
				ShiftMS:   0.125,
				Deviation: float64(j) * 1.5,
				Probes:    int32(10 + j),
				ASes:      int32(j),
			})
		}
	}
	if i%2 == 0 {
		rec.Fwd = append(rec.Fwd, FwdRow{
			Bin: bin, Router: fmt.Sprintf("192.0.2.%d", i), Dst: "198.51.100.0",
			TopHop: "203.0.113.9", Rho: -0.5, TopR: 0.75,
		})
	}
	if i%5 == 1 {
		rec.Events = append(rec.Events, EventRow{Bin: bin, ASN: uint32(64500 + i), Type: 1, Magnitude: 12.5})
	}
	for j := 0; j < i%3; j++ {
		rec.Mag = append(rec.Mag, SeriesRow{Bin: bin, ASN: uint32(64500 + j), Family: uint8(j % 2), V: float64(i) / 4})
		rec.Raw = append(rec.Raw, SeriesRow{Bin: bin, ASN: uint32(64500 + j), Family: uint8(j % 2), V: float64(i) * 2})
	}
	return rec
}

// encode is AppendRecord for a record that must encode.
func encode(t testing.TB, rec *BinRecord) []byte {
	t.Helper()
	b, err := AppendRecord(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func synthRecords(n int) []*BinRecord {
	out := make([]*BinRecord, n)
	for i := range out {
		out[i] = synthRecord(i)
	}
	return out
}

func TestRecordRoundTrip(t *testing.T) {
	for i, rec := range synthRecords(12) {
		enc := encode(t, rec)
		var got BinRecord
		if err := DecodeRecord(enc, &got); err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(normalize(rec), normalize(&got)) {
			t.Fatalf("record %d: round trip mismatch\n in: %+v\nout: %+v", i, rec, &got)
		}
		// Re-encoding the decoded record must reproduce the bytes.
		if re := encode(t, &got); !bytes.Equal(enc, re) {
			t.Fatalf("record %d: re-encode differs", i)
		}
	}
}

// normalize maps a record to a DeepEqual-friendly form (nil and empty
// slices compare equal; times collapse to unix seconds UTC).
func normalize(r *BinRecord) *BinRecord {
	c := *r
	if len(c.Delay) == 0 {
		c.Delay = nil
	}
	if len(c.Fwd) == 0 {
		c.Fwd = nil
	}
	if len(c.Events) == 0 {
		c.Events = nil
	}
	if len(c.Mag) == 0 {
		c.Mag = nil
	}
	if len(c.Raw) == 0 {
		c.Raw = nil
	}
	c.Bin = c.Bin.UTC()
	c.FirstBin = c.FirstBin.UTC()
	return &c
}

func TestRecordRoundTripNaN(t *testing.T) {
	rec := &BinRecord{
		Bin:      time.Unix(3600, 0).UTC(),
		FirstBin: time.Unix(0, 0).UTC(),
		Mag:      []SeriesRow{{Bin: time.Unix(3600, 0).UTC(), ASN: 1, Family: FamilyDelay, V: math.NaN()}},
	}
	enc := encode(t, rec)
	var got BinRecord
	if err := DecodeRecord(enc, &got); err != nil {
		t.Fatal(err)
	}
	// NaN payloads must survive bit-for-bit (magnitudes can be NaN).
	if re := encode(t, &got); !bytes.Equal(enc, re) {
		t.Fatal("NaN payload did not round-trip bit-identically")
	}
}

func TestStoreAppendReopen(t *testing.T) {
	for _, backend := range []string{"mem", "dir"} {
		t.Run(backend, func(t *testing.T) {
			var open func() (*Store, error)
			switch backend {
			case "mem":
				fs := NewMemFS()
				open = func() (*Store, error) { return OpenFS(fs) }
			case "dir":
				dir := t.TempDir()
				open = func() (*Store, error) { return Open(dir) }
			}
			recs := synthRecords(10)

			st, err := open()
			if err != nil {
				t.Fatal(err)
			}
			if st.Len() != 0 {
				t.Fatalf("fresh store has %d segments", st.Len())
			}
			for _, rec := range recs[:6] {
				if err := st.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			// Out-of-order bins are rejected.
			if err := st.Append(recs[2]); err == nil {
				t.Fatal("append of non-increasing bin succeeded")
			}
			checkStore(t, st, recs[:6])
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			// Reopen: committed prefix intact, appends resume.
			st, err = open()
			if err != nil {
				t.Fatal(err)
			}
			if ri := st.Recovery(); ri.Bins != 6 || ri.Truncated != 0 {
				t.Fatalf("clean reopen recovery = %+v", ri)
			}
			for _, rec := range recs[6:] {
				if err := st.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			checkStore(t, st, recs)
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAppendRefusesLongString: a row string longer than its u16 length
// field can state is refused whole rather than committed truncated, where
// a restart or a replica would restore a different row than the one
// published. Nothing is written, the store stays readable and not
// poisoned, and a reopen recovers the same prefix.
func TestAppendRefusesLongString(t *testing.T) {
	long := strings.Repeat("x", 70_000)
	for _, tc := range []struct {
		name string
		set  func(*BinRecord)
	}{
		{"link", func(r *BinRecord) { r.Delay = []DelayRow{{Bin: r.Bin, Link: long}} }},
		{"router", func(r *BinRecord) { r.Fwd = []FwdRow{{Bin: r.Bin, Router: long}} }},
		{"dst", func(r *BinRecord) { r.Fwd = []FwdRow{{Bin: r.Bin, Dst: long}} }},
		{"top hop", func(r *BinRecord) { r.Fwd = []FwdRow{{Bin: r.Bin, TopHop: long}} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := NewMemFS()
			st, err := OpenFS(fs)
			if err != nil {
				t.Fatal(err)
			}
			recs := synthRecords(3)
			for _, rec := range recs[:2] {
				if err := st.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			bad := *recs[2]
			tc.set(&bad)
			stop := fs.StartJournal()
			if err := st.Append(&bad); !errors.Is(err, ErrLongString) {
				t.Fatalf("Append of a %d-byte %s: error %v, want ErrLongString", len(long), tc.name, err)
			}
			if ops := stop(); len(ops) != 0 {
				t.Fatalf("refused Append issued %d file operations", len(ops))
			}
			checkStore(t, st, recs[:2])
			st.Close()

			if st, err = OpenFS(fs); err != nil {
				t.Fatal(err)
			}
			if ri := st.Recovery(); ri.Bins != 2 || ri.Truncated != 0 {
				t.Fatalf("reopen recovery = %+v, want 2 bins and no torn tail", ri)
			}
			checkStore(t, st, recs[:2])
			if err := st.Append(recs[2]); err != nil {
				t.Fatalf("Append after a refused record: %v", err)
			}
			checkStore(t, st, recs)
			st.Close()
		})
	}
}

func checkStore(t *testing.T, st *Store, want []*BinRecord) {
	t.Helper()
	if st.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(want))
	}
	last, ok := st.LastBin()
	if len(want) == 0 {
		if ok {
			t.Fatal("LastBin ok on empty store")
		}
		return
	}
	if !ok || !last.Equal(want[len(want)-1].Bin) {
		t.Fatalf("LastBin = %v %v, want %v", last, ok, want[len(want)-1].Bin)
	}
	var rec BinRecord
	for i, w := range want {
		if err := st.Record(i, &rec); err != nil {
			t.Fatalf("Record(%d): %v", i, err)
		}
		if !reflect.DeepEqual(normalize(w), normalize(&rec)) {
			t.Fatalf("Record(%d) mismatch\nwant %+v\n got %+v", i, w, &rec)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	enc := encode(t, synthRecord(5))
	cases := map[string][]byte{
		"empty":     {},
		"short":     enc[:3],
		"bad magic": append([]byte{1, 2, 3, 4}, enc[4:]...),
		"truncated": enc[:len(enc)-1],
		"trailing":  append(append([]byte{}, enc...), 0),
		// Counts start at byte 32 (after magic, flags, bin, firstBin, results).
		"huge count": func() []byte { b := append([]byte{}, enc...); b[32] = 0xff; b[33] = 0xff; b[34] = 0xff; return b }(),
	}
	for name, b := range cases {
		var rec BinRecord
		err := DecodeRecord(b, &rec)
		if err == nil {
			t.Fatalf("%s: decode succeeded", name)
		}
		var ce *CorruptError
		if !asCorrupt(err, &ce) {
			t.Fatalf("%s: error %v is not a *CorruptError", name, err)
		}
	}
}

// TestDecodeRejectsCountsThatFitOnlyAlone pins that the row counts are
// checked together: on a 1 MiB payload each of the five counts claims the
// whole payload at its row kind's minimal size, which each count alone
// fits. Decoding must stop inside the header's count fields, before any
// row is allocated, not at the payload's end after allocating rows for
// five payloads.
func TestDecodeRejectsCountsThatFitOnlyAlone(t *testing.T) {
	b := make([]byte, 1<<20)
	binary.LittleEndian.PutUint32(b, payloadMagic)
	// Counts start at byte 32 (after magic, flags, bin, firstBin, results).
	for i, minRow := range []int{minDelayRow, minFwdRow, minEventRow, minSeriesRow, minSeriesRow} {
		binary.LittleEndian.PutUint32(b[32+4*i:], uint32(len(b)/minRow))
	}
	var rec BinRecord
	err := DecodeRecord(b, &rec)
	var ce *CorruptError
	if !asCorrupt(err, &ce) {
		t.Fatalf("error %v is not a *CorruptError", err)
	}
	if ce.Offset >= 52 {
		t.Errorf("decode failed at byte %d (%v), want inside the count fields (< 52)", ce.Offset, err)
	}
	if cap(rec.Delay)+cap(rec.Fwd)+cap(rec.Events)+cap(rec.Mag)+cap(rec.Raw) != 0 {
		t.Errorf("rows allocated before the counts were rejected")
	}
}

func asCorrupt(err error, target **CorruptError) bool {
	ce, ok := err.(*CorruptError)
	if ok {
		*target = ce
	}
	return ok
}

func TestForeignFileRejected(t *testing.T) {
	fs := NewMemFS()
	f, _ := fs.OpenFile(dataName)
	f.WriteAt([]byte("this is definitely not a segment store file"), 0)
	if _, err := OpenFS(fs); err == nil {
		t.Fatal("open of a foreign file succeeded")
	}
}

// TestV1DirectoryRefused: a directory written by format version 1 (a
// segments.dat of bare payloads plus a manifest.log of entries) fails both
// opens with the version error and is left exactly as it was — nothing
// truncated, nothing rewritten, nothing created.
func TestV1DirectoryRefused(t *testing.T) {
	dir := t.TempDir()
	v1Header := func(magic string) []byte {
		hdr := make([]byte, fileHeaderSize)
		copy(hdr, magic)
		binary.LittleEndian.PutUint32(hdr[8:], 1)
		return hdr
	}
	payload := encode(t, synthRecord(1))
	want := map[string][]byte{
		dataName: append(v1Header("PPSEGDAT"), payload...),
		"manifest.log": appendEntry(v1Header("PPSEGMAN"), entry{
			off: fileHeaderSize, length: uint32(len(payload)),
			crc: crc32.Checksum(payload, castagnoli), bin: synthRecord(1).Bin.Unix(),
		}),
	}
	for name, b := range want {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if st, err := Open(dir); !errors.Is(err, errVersion) {
		t.Fatalf("Open of a v1 directory: store %v, error %v; want the version error", st, err)
	}
	if st, err := OpenReadOnly(dir); !errors.Is(err, errVersion) {
		t.Fatalf("OpenReadOnly of a v1 directory: store %v, error %v; want the version error", st, err)
	}

	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != len(want) {
		t.Fatalf("directory holds %d files after the refused opens, want %d: %v", len(des), len(want), des)
	}
	for name, b := range want {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("%s modified by a refused open", name)
		}
	}
}

// TestOversizedFrameIsReleased: the store's one buffer follows the release
// rule. After a backfill-sized frame (1 000 magnitude rows) and ten quiet
// closes, neither Append, nor Payload, nor a reopen's recovery walk keeps
// more than 4× the bytes of a quiet frame; a steady run of quiet frames
// keeps reusing the buffer it has.
func TestOversizedFrameIsReleased(t *testing.T) {
	quiet := func(i int) *BinRecord {
		rec := synthRecord(0)
		rec.Bin = rec.Bin.Add(time.Duration(i) * time.Hour)
		return rec
	}
	big := quiet(0)
	for a := 0; a < 1000; a++ {
		big.Mag = append(big.Mag, SeriesRow{Bin: big.FirstBin, ASN: uint32(64500 + a), V: 0.5})
	}
	fs := NewMemFS()
	st, err := OpenFS(fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(big); err != nil {
		t.Fatal(err)
	}
	bigCap := cap(st.buf)
	quietFrame := entrySize + len(encode(t, quiet(1)))
	if bigCap <= 4*quietFrame {
		t.Fatalf("the big frame's buffer (%d B) is not oversized for a quiet frame (%d B)", bigCap, quietFrame)
	}
	checkBuf := func(what string) {
		t.Helper()
		if c := cap(st.buf); c > 4*quietFrame {
			t.Errorf("%s: the store buffer holds %d B, more than 4× a quiet frame's %d B", what, c, quietFrame)
		}
	}
	var steady []byte
	for i := 1; i <= 10; i++ {
		if err := st.Append(quiet(i)); err != nil {
			t.Fatal(err)
		}
		checkBuf(fmt.Sprintf("quiet append %d", i))
		if i > 2 && &st.buf[:1][0] != &steady[:1][0] {
			t.Errorf("quiet append %d reallocated the buffer a steady frame fits", i)
		}
		steady = st.buf
	}
	if _, err := st.Payload(0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Payload(1); err != nil {
		t.Fatal(err)
	}
	checkBuf("quiet read after the big one")

	st, err = OpenFS(fs)
	if err != nil {
		t.Fatal(err)
	}
	checkBuf("reopen")
}
