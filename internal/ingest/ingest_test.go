package ingest

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pinpoint/internal/trace"
)

// makeResults builds n synthetic traceroute results with varied shapes:
// multiple hops, timeouts, per-packet reply mixes — whole-second timestamps
// so the Unix-seconds wire format round-trips them exactly.
func makeResults(n int) []trace.Result {
	base := time.Date(2015, 11, 28, 0, 0, 0, 0, time.UTC)
	dst := netip.MustParseAddr("193.0.14.129")
	rs := make([]trace.Result, n)
	for i := range rs {
		hop2 := []trace.Reply{
			{From: netip.AddrFrom4([4]byte{192, 0, 2, byte(i % 250)}), RTT: 3.5 + float64(i%97)/8},
			{Timeout: true},
		}
		if i%7 == 0 { // an entirely unresponsive middle packet run
			hop2 = []trace.Reply{{Timeout: true}, {Timeout: true}, {Timeout: true}}
		}
		rs[i] = trace.Result{
			MsmID:   5000 + i%3,
			PrbID:   1 + i%17,
			Time:    base.Add(time.Duration(i) * 7 * time.Second),
			Src:     netip.AddrFrom4([4]byte{10, 0, byte(i % 200), 1}),
			Dst:     dst,
			ParisID: i % 16,
			Hops: []trace.Hop{
				{Index: 1, Replies: []trace.Reply{{From: netip.AddrFrom4([4]byte{10, 0, byte(i % 200), 254}), RTT: 0.4 + float64(i%13)/16}}},
				{Index: 2, Replies: hop2},
				{Index: 4, Replies: []trace.Reply{{From: dst, RTT: 11.25 + float64(i%29)/4}}},
			},
		}
	}
	return rs
}

// encodeDump writes rs as NDJSON; blankEvery > 0 interleaves blank lines.
func encodeDump(t *testing.T, rs []trace.Result, blankEvery int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i, r := range rs {
		if blankEvery > 0 && i%blankEvery == 0 {
			buf.WriteByte('\n')
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// dumpFiles writes each data to its own file in t's temporary directory and
// returns their paths, in order.
func dumpFiles(t testing.TB, data ...[]byte) []string {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, len(data))
	for i, d := range data {
		paths[i] = filepath.Join(dir, fmt.Sprintf("part%d.ndjson", i))
		if err := os.WriteFile(paths[i], d, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

func gzipBytes(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

type collected struct {
	results []trace.Result
	batches []int // batch sizes in delivery order
}

func collect(t *testing.T, data []byte, opts Options) (collected, Stats) {
	t.Helper()
	var c collected
	st, err := Files(context.Background(), dumpFiles(t, data), opts, func(rs []trace.Result) error {
		c.results = append(c.results, rs...)
		c.batches = append(c.batches, len(rs))
		return nil
	})
	if err != nil {
		t.Fatalf("Files(workers=%d): %v", opts.Workers, err)
	}
	return c, st
}

// TestDecodeWorkerEquivalence is the package's core property: the delivered
// stream — results, their order AND the batch boundaries — is bit-identical
// to a sequential decode for every worker count.
func TestDecodeWorkerEquivalence(t *testing.T) {
	orig := makeResults(2000)
	dump := encodeDump(t, orig, 9)

	seq, seqStats := collect(t, dump, Options{Workers: 1, chunk: 64})
	if !reflect.DeepEqual(seq.results, orig) {
		t.Fatalf("sequential decode does not reproduce the encoded results (%d vs %d)",
			len(seq.results), len(orig))
	}
	if seqStats.Results != len(orig) {
		t.Fatalf("stats.Results = %d, want %d", seqStats.Results, len(orig))
	}

	for _, workers := range []int{2, 3, 4, 8} {
		par, parStats := collect(t, dump, Options{Workers: workers, chunk: 64})
		if !reflect.DeepEqual(par.results, seq.results) {
			t.Errorf("workers=%d: result stream differs from sequential", workers)
		}
		if !reflect.DeepEqual(par.batches, seq.batches) {
			t.Errorf("workers=%d: batch boundaries differ: %v vs %v", workers, par.batches, seq.batches)
		}
		if parStats != seqStats {
			t.Errorf("workers=%d: stats differ: %+v vs %+v", workers, parStats, seqStats)
		}
	}
}

// TestMatchesReferenceReader cross-checks the pipeline against the
// independent straight-line decoder (Reader): two implementations of
// the same wire format must agree result for result.
func TestMatchesReferenceReader(t *testing.T) {
	dump := encodeDump(t, makeResults(500), 7)
	want, err := NewReader(bytes.NewReader(dump)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := collect(t, dump, Options{Workers: 4})
	if !reflect.DeepEqual(got.results, want) {
		t.Fatalf("ingest pipeline disagrees with the reference Reader (%d vs %d results)",
			len(got.results), len(want))
	}
}

func TestGzipAutoDetect(t *testing.T) {
	orig := makeResults(300)
	plain := encodeDump(t, orig, 0)
	gz := gzipBytes(t, plain)

	want, _ := collect(t, plain, Options{Workers: 2})
	got, st := collect(t, gz, Options{Workers: 2})
	if !reflect.DeepEqual(got.results, want.results) {
		t.Fatal("gzip decode differs from plain decode")
	}
	if st.Bytes != int64(len(plain))-int64(len(orig)) {
		// Bytes counts decompressed payload without the newline terminators.
		t.Errorf("stats.Bytes = %d, want %d", st.Bytes, len(plain)-len(orig))
	}
}

func TestFilesMultiFileOrderAndAttribution(t *testing.T) {
	dir := t.TempDir()
	orig := makeResults(90)
	p1 := filepath.Join(dir, "a.ndjson")
	p2 := filepath.Join(dir, "b.ndjson.gz")
	p3 := filepath.Join(dir, "c.ndjson")
	if err := os.WriteFile(p1, encodeDump(t, orig[:30], 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p2, gzipBytes(t, encodeDump(t, orig[30:60], 0)), 0o644); err != nil {
		t.Fatal(err)
	}
	// File 3 has a bad line in the middle for error attribution.
	tail := encodeDump(t, orig[60:], 0)
	lines := bytes.SplitAfter(tail, []byte("\n"))
	var withBad []byte
	for i, l := range lines {
		if i == 5 {
			withBad = append(withBad, []byte("not json\n")...)
		}
		withBad = append(withBad, l...)
	}
	if err := os.WriteFile(p3, withBad, 0o644); err != nil {
		t.Fatal(err)
	}

	var got []trace.Result
	var lineErrs []LineError
	st, err := Files(context.Background(), []string{p1, p2, p3}, Options{Workers: 3, chunk: 8,
		OnError: func(le *LineError) error {
			lineErrs = append(lineErrs, *le)
			return nil
		},
	}, func(rs []trace.Result) error {
		got = append(got, rs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Errorf("multi-file decode lost or reordered results: %d vs %d", len(got), len(orig))
	}
	if st.Skipped != 1 || len(lineErrs) != 1 {
		t.Fatalf("skipped = %d, line errors = %d, want 1/1", st.Skipped, len(lineErrs))
	}
	if le := lineErrs[0]; le.File != p3 || le.Line != 6 {
		t.Errorf("bad line attributed to %s:%d, want %s:6", le.File, le.Line, p3)
	}
}

func TestDefaultPolicyAbortsWithLineError(t *testing.T) {
	orig := makeResults(40)
	dump := encodeDump(t, orig, 0)
	dump = append(dump, []byte("{\"src_addr\":\"nope\"}\n")...)

	for _, workers := range []int{1, 4} {
		var got []trace.Result
		_, err := Files(context.Background(), dumpFiles(t, dump), Options{Workers: workers, chunk: 8},
			func(rs []trace.Result) error {
				got = append(got, rs...)
				return nil
			})
		var le *LineError
		if !errors.As(err, &le) {
			t.Fatalf("workers=%d: err = %v, want *LineError", workers, err)
		}
		if le.Line != len(orig)+1 {
			t.Errorf("workers=%d: error at line %d, want %d", workers, le.Line, len(orig)+1)
		}
		var ae *trace.AddrError
		if !errors.As(err, &ae) || ae.Field != "src_addr" {
			t.Errorf("workers=%d: underlying error not an AddrError(src_addr): %v", workers, err)
		}
		// The failing chunk's batch is withheld; everything before it arrived.
		if len(got) != len(orig)-len(orig)%8 && len(got) != len(orig) {
			t.Errorf("workers=%d: delivered %d results before abort", workers, len(got))
		}
	}
}

func TestOnErrorAbort(t *testing.T) {
	dump := []byte("junk\n")
	sentinel := errors.New("stop here")
	_, err := Files(context.Background(), dumpFiles(t, dump), Options{Workers: 2,
		OnError: func(*LineError) error { return sentinel },
	}, func([]trace.Result) error { return nil })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestValidateRejectsStructurallyInvalid(t *testing.T) {
	// Decodes fine but hop indices are not ascending.
	line := `{"src_addr":"1.1.1.1","dst_addr":"2.2.2.2","result":[{"hop":2,"result":[{"x":"*"}]},{"hop":1,"result":[{"x":"*"}]}]}`
	_, err := Files(context.Background(), dumpFiles(t, []byte(line+"\n")), Options{Workers: 1, validate: true},
		func([]trace.Result) error { return nil })
	var le *LineError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LineError from validation", err)
	}
	if !strings.Contains(le.Err.Error(), "ascending") {
		t.Errorf("unexpected validation error: %v", le.Err)
	}
	// Without Validate the same line is accepted.
	if _, err := Files(context.Background(), dumpFiles(t, []byte(line+"\n")), Options{Workers: 1},
		func([]trace.Result) error { return nil }); err != nil {
		t.Errorf("non-validating decode rejected the line: %v", err)
	}
}

func TestConsumerErrorAborts(t *testing.T) {
	dump := encodeDump(t, makeResults(100), 0)
	sentinel := errors.New("consumer says no")
	for _, workers := range []int{1, 4} {
		calls := 0
		_, err := Files(context.Background(), dumpFiles(t, dump), Options{Workers: workers, chunk: 16},
			func([]trace.Result) error {
				calls++
				if calls == 2 {
					return sentinel
				}
				return nil
			})
		if !errors.Is(err, sentinel) {
			t.Errorf("workers=%d: err = %v, want consumer sentinel", workers, err)
		}
		if calls != 2 {
			t.Errorf("workers=%d: fn called %d times after abort, want 2", workers, calls)
		}
	}
}

func TestContextCancel(t *testing.T) {
	dump := encodeDump(t, makeResults(100), 0)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := Files(ctx, dumpFiles(t, dump), Options{Workers: workers},
			func([]trace.Result) error { return nil })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

func TestEmptyAndBlankInput(t *testing.T) {
	for _, input := range []string{"", "\n\n\n"} {
		st, err := Files(context.Background(), dumpFiles(t, []byte(input)), Options{Workers: 2},
			func([]trace.Result) error {
				t.Fatal("fn called for empty input")
				return nil
			})
		if err != nil {
			t.Fatalf("input %q: %v", input, err)
		}
		if st.Results != 0 || st.Skipped != 0 {
			t.Errorf("input %q: stats %+v", input, st)
		}
	}
}

// TestReadErrorSurfacesAfterDeliveredResults reads a directory after a
// dump: it opens, and its first read fails.
func TestReadErrorSurfacesAfterDeliveredResults(t *testing.T) {
	orig := makeResults(20)
	dir := t.TempDir()
	var got []trace.Result
	_, err := Files(context.Background(), append(dumpFiles(t, encodeDump(t, orig, 0)), dir), Options{Workers: 2, chunk: 4},
		func(rs []trace.Result) error {
			got = append(got, rs...)
			return nil
		})
	var pe *fs.PathError
	if !errors.As(err, &pe) || pe.Op != "read" || pe.Path != dir {
		t.Fatalf("err = %v, want wrapped read error on %s", err, dir)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Errorf("results scanned before the read error were not delivered (%d/%d)", len(got), len(orig))
	}
}

// TestOversizedLineSkippable pins the lenient-policy contract for lines
// beyond MaxLineBytes: the line is drained (the stream stays aligned on
// the next newline), reported as ErrLineTooLong through OnError, and
// every surrounding result still decodes — identically for any worker
// count. The default policy aborts with the same typed error.
func TestOversizedLineSkippable(t *testing.T) {
	orig := makeResults(30)
	head := encodeDump(t, orig[:10], 0)
	tail := encodeDump(t, orig[10:], 0)
	huge := bytes.Repeat([]byte("x"), MaxLineBytes+4096)
	dump := append(append(append([]byte(nil), head...), append(huge, '\n')...), tail...)

	for _, workers := range []int{1, 4} {
		var got []trace.Result
		var lineErrs []LineError
		st, err := Files(context.Background(), dumpFiles(t, dump),
			Options{Workers: workers, chunk: 4, OnError: func(le *LineError) error {
				lineErrs = append(lineErrs, *le)
				return nil
			}},
			func(rs []trace.Result) error {
				got = append(got, rs...)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, orig) {
			t.Errorf("workers=%d: results around the oversized line lost (%d/%d)",
				workers, len(got), len(orig))
		}
		if st.Skipped != 1 || len(lineErrs) != 1 {
			t.Fatalf("workers=%d: skipped=%d lineErrs=%d, want 1/1", workers, st.Skipped, len(lineErrs))
		}
		if le := lineErrs[0]; le.Line != 11 || !errors.Is(le.Err, ErrLineTooLong) {
			t.Errorf("workers=%d: error = %v at line %d, want ErrLineTooLong at 11", workers, le.Err, le.Line)
		}
	}

	// Default strict policy: abort, typed.
	_, err := Files(context.Background(), dumpFiles(t, dump), Options{Workers: 2},
		func([]trace.Result) error { return nil })
	if !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("strict policy err = %v, want ErrLineTooLong", err)
	}
}

func TestFileStdinDash(t *testing.T) {
	// Path "-" must read stdin; substitute a pipe for the test.
	orig := makeResults(10)
	dump := encodeDump(t, orig, 0)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldStdin := os.Stdin
	os.Stdin = r
	defer func() { os.Stdin = oldStdin }()
	go func() {
		w.Write(dump)
		w.Close()
	}()
	var got []trace.Result
	st, err := Files(context.Background(), []string{"-"}, Options{Workers: 2}, func(rs []trace.Result) error {
		got = append(got, rs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Results != len(orig) || !reflect.DeepEqual(got, orig) {
		t.Errorf("stdin decode delivered %d results, want %d", len(got), len(orig))
	}
}

func TestFilesMissingFileAfterDeliveredPrefix(t *testing.T) {
	dir := t.TempDir()
	orig := makeResults(12)
	p1 := filepath.Join(dir, "a.ndjson")
	if err := os.WriteFile(p1, encodeDump(t, orig, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	var got []trace.Result
	_, err := Files(context.Background(), []string{p1, filepath.Join(dir, "missing.ndjson")},
		Options{Workers: 2}, func(rs []trace.Result) error {
			got = append(got, rs...)
			return nil
		})
	if err == nil || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("err = %v, want wrapped fs.ErrNotExist", err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Errorf("results of the readable prefix were not delivered (%d/%d)", len(got), len(orig))
	}
}

// TestTruncatedGzipSurfacesReadError pins that a mid-stream decompression
// failure is reported as the stream error — NOT as a phantom decode error
// on the partial trailing fragment, which is not a line of the input.
func TestTruncatedGzipSurfacesReadError(t *testing.T) {
	orig := makeResults(200)
	gz := gzipBytes(t, encodeDump(t, orig, 0))
	trunc := gz[:len(gz)-500]
	for _, workers := range []int{1, 4} {
		var got []trace.Result
		_, err := Files(context.Background(), dumpFiles(t, trunc), Options{Workers: workers},
			func(rs []trace.Result) error {
				got = append(got, rs...)
				return nil
			})
		if err == nil {
			t.Fatalf("workers=%d: truncated gzip accepted", workers)
		}
		var le *LineError
		if errors.As(err, &le) {
			t.Errorf("workers=%d: truncation misreported as a line error: %v", workers, err)
		}
		if len(got) > len(orig) || !reflect.DeepEqual(got, orig[:len(got)]) {
			t.Errorf("workers=%d: delivered prefix corrupted (%d results)", workers, len(got))
		}
	}
}

func TestSplitPaths(t *testing.T) {
	cases := map[string][]string{
		"a.ndjson": {"a.ndjson"},
		"a,b.gz,":  {"a", "b.gz"},
		" a , b ":  {"a", "b"},
		",":        nil,
		"":         nil,
		"-":        {"-"},
	}
	for in, want := range cases {
		if got := SplitPaths(in); !reflect.DeepEqual(got, want) {
			t.Errorf("SplitPaths(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestCorruptGzip(t *testing.T) {
	data := append([]byte{0x1f, 0x8b}, []byte("definitely not a gzip stream")...)
	_, err := Files(context.Background(), dumpFiles(t, data), Options{Workers: 2},
		func([]trace.Result) error { return nil })
	if err == nil {
		t.Fatal("corrupt gzip accepted")
	}
}

// TestLenientStatsDeterministic pins that Skipped/Results accounting is
// identical across worker counts when the policy skips bad lines.
func TestLenientStatsDeterministic(t *testing.T) {
	orig := makeResults(200)
	dump := encodeDump(t, orig, 0)
	lines := bytes.SplitAfter(dump, []byte("\n"))
	var corrupted []byte
	for i, l := range lines {
		if i%23 == 11 {
			corrupted = append(corrupted, []byte("{\"src_addr\":\"zz\"}\n")...)
		}
		corrupted = append(corrupted, l...)
	}
	skip := func(*LineError) error { return nil }
	var ref Stats
	for i, workers := range []int{1, 2, 8} {
		st, err := Files(context.Background(), dumpFiles(t, corrupted),
			Options{Workers: workers, chunk: 32, OnError: skip},
			func([]trace.Result) error { return nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if st.Skipped == 0 || st.Results != len(orig) {
			t.Fatalf("workers=%d: stats %+v", workers, st)
		}
		if i == 0 {
			ref = st
		} else if st != ref {
			t.Errorf("workers=%d: stats %+v differ from sequential %+v", workers, st, ref)
		}
	}
}

// sanity-check the helper's variety so edge shapes stay covered
func TestMakeResultsShapes(t *testing.T) {
	rs := makeResults(20)
	sawUnresponsive := false
	for _, r := range rs {
		if err := r.Validate(); err != nil {
			t.Fatalf("fixture result invalid: %v", err)
		}
		if r.Hops[1].Unresponsive() {
			sawUnresponsive = true
		}
	}
	if !sawUnresponsive {
		t.Error("fixture lacks unresponsive hops")
	}
	if fmt.Sprint(rs[0].Time) == fmt.Sprint(rs[1].Time) {
		t.Error("fixture timestamps do not advance")
	}
}
