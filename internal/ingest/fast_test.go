package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"pinpoint/internal/ident"
	"pinpoint/internal/trace"
)

// TestLineNumberParityWithReader is the counting-convention regression
// test: on a fixture with blank lines and a bad line, the line numbers
// ingest reports through *LineError match the ones the reference Reader
// reports in its errors — blank lines advance both counters identically.
func TestLineNumberParityWithReader(t *testing.T) {
	good := encodeDump(t, makeResults(6), 0)
	lines := strings.Split(strings.TrimRight(string(good), "\n"), "\n")
	// Layout: blanks before, between and around two bad lines.
	fixture := "\n" + lines[0] + "\n\n\n" + lines[1] + "\nnot json\n" + lines[2] + "\n\n{bad\n\n" + lines[3] + "\n"

	var ingestLines []int
	opts := Options{Workers: 1, OnError: func(le *LineError) error {
		ingestLines = append(ingestLines, le.Line)
		return nil
	}}
	c, st := collect(t, []byte(fixture), opts)
	if len(c.results) != 4 {
		t.Fatalf("delivered %d results, want 4", len(c.results))
	}

	var readerLines []int
	rd := NewReader(strings.NewReader(fixture))
	for {
		_, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			var n int
			if _, serr := fmt.Sscanf(err.Error(), "line %d:", &n); serr != nil {
				t.Fatalf("cannot extract line number from %q: %v", err, serr)
			}
			readerLines = append(readerLines, n)
		}
	}

	want := []int{6, 9}
	if fmt.Sprint(ingestLines) != fmt.Sprint(want) {
		t.Errorf("ingest error lines = %v, want %v", ingestLines, want)
	}
	if fmt.Sprint(readerLines) != fmt.Sprint(want) {
		t.Errorf("reader error lines = %v, want %v", readerLines, want)
	}
	if st.Lines != 11 {
		t.Errorf("Stats.Lines = %d, want 11 (blank lines count)", st.Lines)
	}
}

// TestOversizedLineNumberParityWithReader pins that an oversized line gets
// the same line number — and is equally skippable — in both the ingest
// pipeline and the reference Reader.
func TestOversizedLineNumberParityWithReader(t *testing.T) {
	good := encodeDump(t, makeResults(2), 0)
	lines := strings.Split(strings.TrimRight(string(good), "\n"), "\n")
	huge := strings.Repeat("y", MaxLineBytes+1)
	fixture := "\n" + lines[0] + "\n" + huge + "\n" + lines[1] + "\n"

	var ingestLines []int
	opts := Options{Workers: 1, OnError: func(le *LineError) error {
		if !errors.Is(le.Err, ErrLineTooLong) {
			return le.Err
		}
		ingestLines = append(ingestLines, le.Line)
		return nil
	}}
	c, _ := collect(t, []byte(fixture), opts)
	if len(c.results) != 2 {
		t.Fatalf("delivered %d results, want 2", len(c.results))
	}

	rd := NewReader(strings.NewReader(fixture))
	var readerLines []int
	for {
		_, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			if !errors.Is(err, ErrLineTooLong) {
				t.Fatalf("unexpected reader error: %v", err)
			}
			var n int
			if _, serr := fmt.Sscanf(err.Error(), "line %d:", &n); serr != nil {
				t.Fatalf("cannot extract line number from %q: %v", err, serr)
			}
			readerLines = append(readerLines, n)
		}
	}

	if len(ingestLines) != 1 || ingestLines[0] != 3 {
		t.Errorf("ingest oversized line = %v, want [3]", ingestLines)
	}
	if len(readerLines) != 1 || readerLines[0] != 3 {
		t.Errorf("reader oversized line = %v, want [3]", readerLines)
	}
}

// TestViewsMatchResults pins the view decode target to the Result one: over
// a dump with blank lines, an undecodable line and a line that only
// Validate rejects, FilesViews delivers — for every worker count, strict
// or lenient, Validate on or off — the same batches, the same Stats and the
// same LineErrors as Files, and each view is the one ident.Interner.View
// builds from the corresponding Result.
func TestViewsMatchResults(t *testing.T) {
	lines := strings.Split(strings.TrimRight(string(encodeDump(t, makeResults(600), 0)), "\n"), "\n")
	lines[100] = "not json"
	lines[333] = `{"src_addr":"10.0.0.1","dst_addr":"10.0.0.2","result":[{"hop":2,"result":[{"x":"*"}]},{"hop":1,"result":[]}]}`
	lines[40] += "\n\n"
	paths := dumpFiles(t, []byte(strings.Join(lines, "\n")+"\n"))

	type outcome struct {
		batches []int
		errs    []string
		st      Stats
		err     string
	}
	for _, validate := range []bool{false, true} {
		for _, strict := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				name := fmt.Sprintf("validate=%t strict=%t workers=%d", validate, strict, workers)
				var want, got outcome
				opts := func(o *outcome) Options {
					opts := Options{Workers: workers, chunk: 64, validate: validate}
					if !strict {
						opts.OnError = func(le *LineError) error {
							o.errs = append(o.errs, le.Error())
							return nil
						}
					}
					return opts
				}
				var results []trace.Result
				st, err := Files(context.Background(), paths, opts(&want), func(rs []trace.Result) error {
					results = append(results, rs...)
					want.batches = append(want.batches, len(rs))
					return nil
				})
				want.st, want.err = st, fmt.Sprint(err)

				reg := ident.NewRegistry()
				var views []trace.View
				st, err = FilesViews(context.Background(), paths, opts(&got), reg, func(vs []trace.View) error {
					views = append(views, vs...)
					got.batches = append(got.batches, len(vs))
					return nil
				})
				got.st, got.err = st, fmt.Sprint(err)

				if strict {
					// Stats of an aborted parallel run count what the chunker
					// had scanned, which may run ahead of delivery.
					want.st.Lines, want.st.Bytes, got.st.Lines, got.st.Bytes = 0, 0, 0, 0
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s: outcomes differ:\nresults: %+v\nviews:   %+v", name, want, got)
					continue
				}
				if strict == (want.err == "<nil>") || (!strict && len(want.errs) == 0) {
					t.Errorf("%s: fixture did not exercise the error policy: %+v", name, want)
				}
				in := ident.NewInterner(reg)
				for i := range results {
					var v trace.View
					in.View(&results[i], &v)
					if !reflect.DeepEqual(v, views[i]) {
						t.Fatalf("%s: view %d differs:\nfrom result: %+v\ndecoded:     %+v", name, i, v, views[i])
					}
				}
			}
		}
	}
}
