package ingest

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"pinpoint/internal/trace"
)

// Reader reads results from a JSONL stream, one line at a time on the
// caller's goroutine. It is the straight-line reference the pipeline's
// tests compare against (TestMatchesReferenceReader,
// TestLineNumberParityWithReader): it decodes through encoding/json, not
// trace.Decoder's scanner, and shares no code with the chunker.
//
// Line accounting matches the chunker's: blank lines and oversized-drained
// lines advance the reported line number, an oversized line (over
// MaxLineBytes) is drained to the next newline and reported as a
// line-numbered error wrapping ErrLineTooLong, and the stream stays
// readable past it.
type Reader struct {
	br   *bufio.Reader
	line int
	acc  []byte // continuation buffer for lines spanning reader buffers
	err  error  // sticky stream-level read error
}

// NewReader returns a JSONL reader over r. Lines up to MaxLineBytes are
// accepted.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 256*1024)}
}

// Read returns the next result, or io.EOF at end of stream. Line-scoped
// failures (malformed JSON, an oversized line) return an error starting
// "line N:" with the 1-based line number and leave the stream positioned
// at the next line, so callers may skip and continue; errors.Is(err,
// ErrLineTooLong) identifies drained oversized lines. Stream-level read
// errors are sticky.
func (r *Reader) Read() (trace.Result, error) {
	if r.err != nil {
		return trace.Result{}, r.err
	}
	r.acc = r.acc[:0]
	for {
		frag, rerr := r.br.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			r.acc = append(r.acc, frag...)
			if len(r.acc) <= MaxLineBytes {
				continue
			}
			// Oversized line: drain to the next newline so the stream stays
			// aligned, then report it with its line number.
			r.acc = r.acc[:0]
			for rerr == bufio.ErrBufferFull {
				frag, rerr = r.br.ReadSlice('\n')
			}
			if rerr != nil && rerr != io.EOF {
				r.err = rerr
			}
			r.line++
			return trace.Result{}, fmt.Errorf("line %d: %w", r.line, ErrLineTooLong)
		}
		if rerr != nil && rerr != io.EOF {
			r.err = rerr
			return trace.Result{}, rerr
		}
		b := frag
		if rerr == nil {
			b = b[:len(b)-1] // strip the newline
		}
		if len(r.acc) > 0 {
			r.acc = append(r.acc, b...)
			b = r.acc
		}
		if n := len(b); n > 0 && b[n-1] == '\r' { // CRLF dumps
			b = b[:n-1]
		}
		if len(b) > 0 || rerr == nil {
			r.line++
			if len(b) > MaxLineBytes {
				// The final fragment pushed the line over the limit.
				return trace.Result{}, fmt.Errorf("line %d: %w", r.line, ErrLineTooLong)
			}
			if len(b) > 0 {
				var res trace.Result
				if err := json.Unmarshal(b, &res); err != nil {
					return trace.Result{}, fmt.Errorf("line %d: %w", r.line, err)
				}
				return res, nil
			}
		}
		r.acc = r.acc[:0]
		if rerr == io.EOF {
			return trace.Result{}, io.EOF
		}
	}
}

// ReadAll drains the stream into a slice.
func (r *Reader) ReadAll() ([]trace.Result, error) {
	var out []trace.Result
	for {
		res, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, res)
	}
}

// readerLine is one encoded result, for the Reader's own tests.
func readerLine(t *testing.T) string {
	t.Helper()
	b, err := json.Marshal(makeResults(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestReaderSkipsBlankLinesAndReportsLineNumbers(t *testing.T) {
	data := "\n\n" + readerLine(t) + "\n\nnot json\n"
	rd := NewReader(strings.NewReader(data))
	if _, err := rd.Read(); err != nil {
		t.Fatalf("first read: %v", err)
	}
	_, err := rd.Read()
	if err == nil || err == io.EOF {
		t.Fatalf("expected decode error, got %v", err)
	}
	if !strings.Contains(err.Error(), "line") {
		t.Errorf("error should mention line number: %v", err)
	}
}

func TestReaderEOF(t *testing.T) {
	rd := NewReader(strings.NewReader(""))
	if _, err := rd.Read(); err != io.EOF {
		t.Errorf("empty stream: got %v, want io.EOF", err)
	}
}

func TestReaderExactLineNumbers(t *testing.T) {
	// Blank lines count toward line numbers: the bad line below is line 5.
	data := "\n\n" + readerLine(t) + "\n\nnot json\n" + readerLine(t) + "\n"
	rd := NewReader(strings.NewReader(data))
	if _, err := rd.Read(); err != nil {
		t.Fatalf("first read: %v", err)
	}
	_, err := rd.Read()
	if err == nil || !strings.Contains(err.Error(), "line 5") {
		t.Fatalf("bad line should be reported as line 5, got: %v", err)
	}
	// Line-scoped errors leave the stream readable.
	if _, err := rd.Read(); err != nil {
		t.Fatalf("read after bad line: %v", err)
	}
	if _, err := rd.Read(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestReaderOversizedLineRecoverable(t *testing.T) {
	huge := strings.Repeat("x", MaxLineBytes+2)
	data := readerLine(t) + "\n" + huge + "\n" + readerLine(t) + "\n"
	rd := NewReader(strings.NewReader(data))
	if _, err := rd.Read(); err != nil {
		t.Fatalf("first read: %v", err)
	}
	_, err := rd.Read()
	if err == nil || !errors.Is(err, ErrLineTooLong) {
		t.Fatalf("want ErrLineTooLong, got: %v", err)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("oversized line should be reported as line 2, got: %v", err)
	}
	// The drain left the stream aligned on the next line.
	if _, err := rd.Read(); err != nil {
		t.Fatalf("read after oversized line: %v", err)
	}
	if _, err := rd.Read(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}
