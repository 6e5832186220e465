package segstore

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// corpus returns the checked-in segments and their file names, in name
// order: payloads captured from fixed-seed ddos/ixp runs (written by
// -update-segcorpus in internal/serve's restart test).
func corpus(t testing.TB) (names []string, segs [][]byte) {
	t.Helper()
	names, _ = filepath.Glob(filepath.Join("testdata", "corpus", "*.seg"))
	if len(names) == 0 {
		t.Fatal("no segments in testdata/corpus")
	}
	for i, path := range names {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		names[i], segs = filepath.Base(path), append(segs, b)
	}
	return names, segs
}

// TestSegmentCorpusGolden pins SEG1's bytes to BinRecord's fields across
// builds. Every checked-in segment must decode and re-encode byte for byte
// (the fuzz target skips a seed that fails to decode), and two digests
// must hold: one over the field values the corpus decodes to, one over the
// encodings of synthRecords(8). A layout change that moves bytes between
// fields, even one made alike in encoder and decoder, changes a digest. A
// deliberate format change re-records both from the failure message.
func TestSegmentCorpusGolden(t *testing.T) {
	const (
		wantFields = "163054f478c48ab85dcbed6b1f0ee7f0c8aa27491e028e925282c5e7511d6e77"
		wantBytes  = "624228e5fe0abf10fe80185315b22649acbc8b6ce10f9e79780a17c3909f4ca8"
	)
	names, segs := corpus(t)
	fields := sha256.New()
	for i, name := range names {
		var rec BinRecord
		if err := DecodeRecord(segs[i], &rec); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(encode(t, &rec), segs[i]) {
			t.Fatalf("%s: decoded segment re-encodes differently", name)
		}
		fmt.Fprintf(fields, "%s %+v\n", name, rec)
	}
	enc := sha256.New()
	for _, rec := range synthRecords(8) {
		enc.Write(encode(t, rec))
	}
	if got := fmt.Sprintf("%x", fields.Sum(nil)); got != wantFields {
		t.Errorf("corpus field digest = %s, want %s", got, wantFields)
	}
	if got := fmt.Sprintf("%x", enc.Sum(nil)); got != wantBytes {
		t.Errorf("synthRecords(8) encoding digest = %s, want %s", got, wantBytes)
	}
}

// FuzzSegmentRoundTrip pins the codec's two safety properties:
//
//  1. encode∘decode identity — any payload that decodes re-encodes to the
//     exact same bytes (the encoding is canonical), and decoding those
//     bytes again yields the same record;
//  2. decode of arbitrary mutated/truncated bytes never panics and always
//     fails with a typed *CorruptError.
//
// The seed corpus is synthetic records plus the checked-in segments.
func FuzzSegmentRoundTrip(f *testing.F) {
	for _, rec := range synthRecords(8) {
		f.Add(encode(f, rec))
	}
	_, segs := corpus(f)
	for _, b := range segs {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec BinRecord
		err := DecodeRecord(data, &rec)
		if err != nil {
			if _, ok := err.(*CorruptError); !ok {
				t.Fatalf("decode error %T is not *CorruptError: %v", err, err)
			}
			return
		}
		re := encode(t, &rec)
		if !bytes.Equal(re, data) {
			t.Fatalf("decoded payload re-encodes differently (%d vs %d bytes)", len(re), len(data))
		}
		var rec2 BinRecord
		if err := DecodeRecord(re, &rec2); err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
	})
}
