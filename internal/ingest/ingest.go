// Package ingest is the streaming wire-format ingestion pipeline: it reads
// RIPE Atlas-format NDJSON traceroute dumps (plain or gzip, single file,
// stdin or multi-file) and decodes them into batches — the real-data twin of
// the internal/atlas measurement generator, and the second parallel producer
// that can feed the sharded engine. One pipeline serves two decode targets:
// interned trace.View through trace.Decoder's scanner (FilesViews: the
// analyzer's replay path) and trace.Result through the reference decoder
// (Files: cmd/bench and tests).
//
// Parallel decoding preserves the determinism guarantee of the rest of the
// pipeline. A run is one pipeline.Ordered call: the chunker cuts the line
// stream into chunks of whole lines, Options.Workers workers decode chunks,
// and the decoded batches are delivered strictly in input order. The
// delivered stream — batch boundaries included — is bit-identical for every
// worker count, because chunk cutting is a function of the input alone and a
// line's decoded value is a function of that line alone — the per-worker
// decoder state (address memo, scratch buffers) is pure memoization and
// cannot leak across lines into the output.
//
// Real dumps are full of measurement artifacts (timeouts, late and error
// packets, replies without RTTs). The per-reply leniency lives in package
// trace: Result.UnmarshalJSON defines it, and trace.Decoder's scanner
// applies the same rules or declines the line to it, so every decode
// error is Result.UnmarshalJSON's. This package's error policy
// (Options.OnError) governs whole lines that fail to decode at all:
// by default the first bad line aborts the stream with a *LineError, or a
// caller-supplied hook may count/log and skip it. Policy decisions are made
// at delivery time on the ordered stream, so they too are independent of
// the worker count.
package ingest

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"

	"pinpoint/internal/ident"
	"pinpoint/internal/pipeline"
	"pinpoint/internal/trace"
)

// DefaultChunkSize is how many non-blank lines one decode chunk holds; each
// chunk yields at most one delivered batch (bad lines shrink it). It
// matches the engine's extraction batch, so an ingest run hands the
// analyzer engine-sized batches.
const DefaultChunkSize = 256

// MaxLineBytes bounds a single NDJSON line. Blank and oversized lines both
// advance line numbers. An oversized line is drained (the stream stays
// aligned on the next newline) and reported through the error policy as a
// *LineError wrapping ErrLineTooLong, so a lenient OnError can skip it and
// keep going.
const MaxLineBytes = 16 * 1024 * 1024

// ErrLineTooLong reports a line exceeding MaxLineBytes; it reaches the
// error policy wrapped in a *LineError.
var ErrLineTooLong = fmt.Errorf("line exceeds the %d MiB limit", MaxLineBytes/(1024*1024))

// Stats summarizes one ingestion run. When a run aborts early, Lines and
// Bytes count what the chunker had scanned — with parallel workers that can
// be slightly ahead of what was delivered.
type Stats struct {
	Lines   int   // physical lines scanned, including blank and failed ones
	Results int   // results delivered to the consumer
	Skipped int   // non-blank lines dropped by the error policy
	Bytes   int64 // decompressed payload bytes scanned (line terminators excluded)
}

// LineError locates a decode (or validation) failure in the input stream.
type LineError struct {
	File string // input path ("-" for stdin)
	Line int    // 1-based line number within File
	Err  error
}

// Error implements error.
func (e *LineError) Error() string {
	return fmt.Sprintf("ingest: %s:%d: %v", e.File, e.Line, e.Err)
}

// Unwrap exposes the underlying decode error for errors.Is/As.
func (e *LineError) Unwrap() error { return e.Err }

// Options configures an ingestion run. The zero value decodes with
// GOMAXPROCS workers and a strict error policy.
type Options struct {
	// Workers is how many workers decode chunks concurrently. 0 means
	// GOMAXPROCS; 1 reads, decodes and delivers inline on the caller's
	// goroutine. The delivered stream is identical for every value.
	Workers int

	// OnError is the per-line error policy, invoked in input order. nil
	// aborts the stream at the first bad line (the run error is a
	// *LineError). A non-nil hook returning nil skips the line and
	// continues; returning an error aborts the stream with that error.
	// On abort, the batch of the chunk containing the offending line is
	// withheld, so consumers never observe results past an abort point.
	OnError func(*LineError) error

	// chunk, when positive, replaces DefaultChunkSize; tests lower it to
	// cut a small dump into many chunks.
	chunk int

	// validate, set by tests, additionally rejects results that decode but
	// violate the structural invariants of trace.Result.Validate (valid
	// endpoints, ascending hop indices); the violation is reported through
	// the same error policy as a decode failure.
	validate bool
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.chunk <= 0 {
		o.chunk = DefaultChunkSize
	}
	return o
}

// SplitPaths splits a comma-separated dump-path list (the CLIs' -input
// syntax), trimming whitespace and dropping empty segments so a trailing
// comma cannot become an opaque open("") failure mid-run. The result may
// be empty; callers decide how to reject that.
func SplitPaths(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Files decodes several dumps in order as one logical stream, delivering
// the results in input order as batches to fn (per-file gzip detection by
// magic bytes, per-file line numbering in errors; path "-" reads stdin). A
// non-nil error from fn aborts the run and is returned. Files are opened
// lazily as the stream reaches them, so an unreadable later file surfaces
// only after the preceding files' results were delivered — the same
// behavior as catting the files through one reader. Each line decodes
// through the reference decoder, Result.UnmarshalJSON: Files serves
// cmd/bench and the tests, and production replays through FilesViews.
func Files(ctx context.Context, paths []string, opts Options, fn func([]trace.Result) error) (Stats, error) {
	return run(ctx, paths, opts, newResultDecoder, fn)
}

// FilesViews is Files with interned views as the decode target: addresses
// go from wire text to ids of reg inside the decode workers (one
// ident.Interner each) and no trace.Result is built. Error policy,
// validation, batch boundaries and Stats are those of Files on the same
// input. A batch's views share three column allocations.
func FilesViews(ctx context.Context, paths []string, opts Options, reg *ident.Registry, fn func([]trace.View) error) (Stats, error) {
	return run(ctx, paths, opts, viewDecoders(reg), fn)
}

// lineChunk is the unit of worker handoff: up to DefaultChunkSize non-blank
// lines copied out of the reader's buffer (read slices die on the next read),
// with their 1-based line numbers for error attribution. errs carries
// read-level per-line failures the chunker itself detected (oversized
// lines); decode workers merge them with decode failures in line order.
type lineChunk struct {
	file  string
	buf   []byte // concatenated line payloads
	ends  []int  // end offset of line i in buf
	lines []int  // line number of line i within file
	errs  []LineError
}

// chunkPool recycles chunk buffers once a decode worker has drained them.
var chunkPool = sync.Pool{New: func() any { return new(lineChunk) }}

// decodedChunk is a worker's output: the chunk's results in line order plus
// any per-line failures.
type decodedChunk[T any] struct {
	results []T
	errs    []LineError
}

// lineDecoder is one decode worker's target, closed over the worker's private
// state (scratch buffers, address memos). line decodes one wire line into
// dst, checking its structure when asked; seal, when set, runs once per
// chunk over the lines that decoded.
type lineDecoder[T any] struct {
	line func(line []byte, validate bool, dst *T) error
	seal func(batch []T)
}

// newResultDecoder targets trace.Result through the reference decoder,
// Result.UnmarshalJSON, which shares no code with the scanner that
// viewDecoders runs: Files is the oracle FilesViews is tested against.
func newResultDecoder() lineDecoder[trace.Result] {
	return lineDecoder[trace.Result]{line: func(line []byte, validate bool, dst *trace.Result) error {
		err := dst.UnmarshalJSON(line)
		if err == nil && validate {
			err = dst.Validate()
		}
		return err
	}}
}

// viewDecoders targets trace.View. Lines decode into a scratch view whose
// columns are appended to chunk-long accumulators; seal copies those into
// three exact-size, pointer-free allocations and points each view of the
// batch at its share, so a delivered batch owns its memory.
func viewDecoders(reg *ident.Registry) func() lineDecoder[trace.View] {
	return func() lineDecoder[trace.View] {
		var (
			dec  trace.Decoder
			in   = ident.NewInterner(reg)
			v    trace.View
			hops []trace.ViewHop
			from []uint32
			rtt  []float64
		)
		line := func(line []byte, validate bool, dst *trace.View) error {
			err := dec.DecodeView(line, in, &v)
			if err == nil && validate {
				err = v.Validate()
			}
			if err != nil {
				return err
			}
			hops, from, rtt = append(hops, v.Hops...), append(from, v.From...), append(rtt, v.RTT...)
			*dst = v // the columns still alias the scratch; seal reads their lengths
			return nil
		}
		seal := func(batch []trace.View) {
			h, f, r := slices.Clone(hops), slices.Clone(from), slices.Clone(rtt)
			hops, from, rtt = hops[:0], from[:0], rtt[:0]
			for i := range batch {
				b := &batch[i]
				nh, nr := len(b.Hops), len(b.From)
				b.Hops, h = h[:nh:nh], h[nh:]
				b.From, f = f[:nr:nr], f[nr:]
				b.RTT, r = r[:nr:nr], r[nr:]
			}
		}
		return lineDecoder[trace.View]{line, seal}
	}
}

// decodeChunk decodes every line of c through the worker's lineDecoder.
// Results go into a fresh slice — the consumer may retain delivered
// batches, mirroring atlas.RunChunks — and failures (the chunker's
// read-level ones plus decode ones) become LineErrors in line order.
func decodeChunk[T any](d lineDecoder[T], c *lineChunk, validate bool) ([]T, []LineError) {
	results := make([]T, 0, len(c.ends))
	var errs []LineError
	if len(c.errs) > 0 {
		errs = append(errs, c.errs...)
	}
	start := 0
	for i, end := range c.ends {
		line := c.buf[start:end]
		start = end
		// In place: a local T would escape through the func value.
		n := len(results)
		results = results[:n+1]
		if err := d.line(line, validate, &results[n]); err != nil {
			var zero T
			results[n] = zero
			results = results[:n]
			errs = append(errs, LineError{File: c.file, Line: c.lines[i], Err: err})
		}
	}
	if d.seal != nil {
		d.seal(results)
	}
	// Chunker and decode errors each arrive line-ascending; restore the
	// global line order across the two lists (at most one error per line,
	// so the sort is deterministic).
	if len(c.errs) > 0 && len(errs) > len(c.errs) {
		sort.Slice(errs, func(i, j int) bool { return errs[i].Line < errs[j].Line })
	}
	return results, errs
}

// deliver applies the error policy (in line order) and hands the chunk's
// batch to fn. It runs on the ordered stream — the caller's goroutine —
// for every worker count, which is what makes abort/skip decisions and
// Stats deterministic.
func deliver[T any](st *Stats, opts Options, results []T, errs []LineError, fn func([]T) error) error {
	for i := range errs {
		if opts.OnError == nil {
			return &errs[i]
		}
		if err := opts.OnError(&errs[i]); err != nil {
			return err
		}
		st.Skipped++
	}
	if len(results) == 0 {
		return nil
	}
	st.Results += len(results)
	return fn(results)
}

// chunker owns the read side: it opens files, detects gzip, scans lines
// and cuts chunks. Exactly one goroutine runs it, so chunk contents and
// order are a function of the input alone, never of scheduling — the root of
// the worker-count equivalence guarantee.
type chunker struct {
	paths []string
	size  int
	lines int
	bytes int64
	err   error // first open/read error; reported after ordered delivery
}

// run scans all files, calling emit for each cut chunk. emit returning
// false stops the scan.
func (ck *chunker) run(emit func(*lineChunk) bool) {
	for _, path := range ck.paths {
		if !ck.scan(path, emit) {
			return
		}
	}
}

// scan chunks one file ("-" is stdin). It returns false when emission was
// stopped or a read error ended the stream; complete lines scanned before a
// read error are still emitted (the error surfaces after their ordered
// delivery).
func (ck *chunker) scan(path string, emit func(*lineChunk) bool) bool {
	var r io.Reader = os.Stdin
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			ck.err = fmt.Errorf("ingest: %w", err)
			return false
		}
		closers = append(closers, f)
		r = f
	}
	// One buffered reader serves both the gzip magic peek and, for plain
	// files, line scanning itself — no second copy through a nested
	// bufio on the chunker, the pipeline's serial stage. Only decompressed
	// gzip output needs its own line buffer.
	lr := bufio.NewReaderSize(r, 256*1024)
	if magic, err := lr.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		zr, err := gzip.NewReader(lr)
		if err != nil {
			ck.err = fmt.Errorf("ingest: %s: %w", path, err)
			return false
		}
		closers = append(closers, zr)
		lr = bufio.NewReaderSize(zr, 256*1024)
	}
	line := 0
	c := newChunk(path)
	flush := func() bool {
		if len(c.ends) == 0 && len(c.errs) == 0 {
			return true
		}
		out := c
		c = newChunk(path)
		return emit(out)
	}
	full := func() bool { return len(c.ends) >= ck.size || len(c.errs) >= ck.size }
	var acc []byte // continuation buffer for lines spanning reader buffers
	for {
		frag, rerr := lr.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			acc = append(acc, frag...)
			if len(acc) <= MaxLineBytes {
				continue
			}
			// Oversized line: drain to the next newline so the stream stays
			// aligned, report it through the error policy, keep scanning.
			drained := int64(len(acc))
			acc = acc[:0]
			for rerr == bufio.ErrBufferFull {
				frag, rerr = lr.ReadSlice('\n')
				drained += int64(len(frag))
			}
			if rerr == nil {
				drained-- // the newline terminator is not payload
			}
			line++
			ck.lines++
			ck.bytes += drained
			c.errs = append(c.errs, LineError{File: path, Line: line, Err: ErrLineTooLong})
			if full() && !flush() {
				chunkPool.Put(c)
				return false
			}
			if rerr == io.EOF {
				break
			}
			if rerr != nil {
				ck.err = fmt.Errorf("ingest: %s: %w", path, rerr)
				break
			}
			continue
		}
		if rerr != nil && rerr != io.EOF {
			// Read/decompression failure mid-line (e.g. truncated gzip):
			// the trailing fragment is not a complete line — drop it so the
			// stream error surfaces instead of a phantom JSON failure on a
			// line that never existed in the input.
			ck.err = fmt.Errorf("ingest: %s: %w", path, rerr)
			break
		}
		b := frag
		if rerr == nil {
			b = b[:len(b)-1] // strip the newline
		}
		if len(acc) > 0 {
			acc = append(acc, b...)
			b = acc
		}
		if n := len(b); n > 0 && b[n-1] == '\r' { // CRLF dumps
			b = b[:n-1]
		}
		if len(b) > 0 || rerr == nil {
			line++
			ck.lines++
			ck.bytes += int64(len(b))
			if len(b) > MaxLineBytes {
				// The final fragment pushed the line over the limit (the
				// in-flight check above only fires between buffer refills).
				c.errs = append(c.errs, LineError{File: path, Line: line, Err: ErrLineTooLong})
			} else if len(b) > 0 {
				c.buf = append(c.buf, b...)
				c.ends = append(c.ends, len(c.buf))
				c.lines = append(c.lines, line)
			}
			if full() && !flush() {
				chunkPool.Put(c)
				return false
			}
		}
		acc = acc[:0]
		if rerr == io.EOF {
			break
		}
	}
	if !flush() {
		chunkPool.Put(c)
		return false
	}
	chunkPool.Put(c)
	return ck.err == nil
}

func newChunk(file string) *lineChunk {
	c := chunkPool.Get().(*lineChunk)
	c.file = file
	c.buf = c.buf[:0]
	c.ends = c.ends[:0]
	c.lines = c.lines[:0]
	c.errs = c.errs[:0]
	return c
}

// run is the one decode loop, a pipeline.Ordered call: the chunker produces,
// each worker decodes chunks through its own lineDecoder, and deliver applies
// the error policy and hands the batches to fn in input order on the caller's
// goroutine. A canceled ctx is reported ahead of a read error.
func run[T any](ctx context.Context, paths []string, opts Options, newDec func() lineDecoder[T], fn func([]T) error) (Stats, error) {
	opts = opts.withDefaults()
	ck := &chunker{paths: paths, size: opts.chunk}
	var st Stats
	err := pipeline.Ordered(ctx, opts.Workers, ck.run,
		func() func(*lineChunk) decodedChunk[T] {
			dec := newDec()
			return func(c *lineChunk) decodedChunk[T] {
				results, errs := decodeChunk(dec, c, opts.validate)
				chunkPool.Put(c)
				return decodedChunk[T]{results, errs}
			}
		},
		func(c decodedChunk[T]) error { return deliver(&st, opts, c.results, c.errs, fn) })
	// Ordered returns after the chunker has exited, so its counters and read
	// error are safely visible here.
	st.Lines, st.Bytes = ck.lines, ck.bytes
	if err == nil {
		err = ck.err
	}
	return st, err
}
