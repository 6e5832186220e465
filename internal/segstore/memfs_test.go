package segstore

import (
	"fmt"
	"io"
	"sync"
)

// The crash-injection harness: an in-memory FS whose write/sync journal
// replays a commit cut at any byte or sync point.

// Op is one journaled filesystem operation: either a write of Data at Off
// or (Sync=true) a durability barrier. The crash harness replays a
// recorded journal with a byte budget to materialize every intermediate
// on-disk state a crash could expose.
type Op struct {
	Name string
	Off  int64
	Data []byte
	Sync bool
}

// Cost is the number of cut points the op contributes: one per written
// byte, one for a sync.
func (o Op) Cost() int {
	if o.Sync {
		return 1
	}
	return len(o.Data)
}

// MemFS is an in-memory FS. All methods are safe for concurrent use,
// though the store serializes its own access.
type MemFS struct {
	mu      sync.Mutex
	files   map[string]*memFile
	journal []Op
	record  bool
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{files: make(map[string]*memFile)}
}

type memFile struct {
	fs   *MemFS
	name string
	buf  []byte
}

func (m *MemFS) OpenFile(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		f = &memFile{fs: m, name: name}
		m.files[name] = f
	}
	return f, nil
}

// Clone deep-copies the filesystem contents (the journal is not cloned).
func (m *MemFS) Clone() *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := NewMemFS()
	for name, f := range m.files {
		c.files[name] = &memFile{fs: c, name: name, buf: append([]byte(nil), f.buf...)}
	}
	return c
}

// StartJournal begins recording write and sync operations. The returned
// stop function ends recording and returns the journal.
func (m *MemFS) StartJournal() (stop func() []Op) {
	m.mu.Lock()
	m.journal = nil
	m.record = true
	m.mu.Unlock()
	return func() []Op {
		m.mu.Lock()
		defer m.mu.Unlock()
		m.record = false
		j := m.journal
		m.journal = nil
		return j
	}
}

// JournalCost sums the cut points of a journal: one per written byte plus
// one per sync.
func JournalCost(ops []Op) int {
	total := 0
	for _, op := range ops {
		total += op.Cost()
	}
	return total
}

// ApplyOps replays ops onto the filesystem with a cut-point budget: ops
// apply in order while budget lasts; a write caught by the cut applies
// only its first remaining-budget bytes; everything after is dropped.
// Combined with enumerating budget = 0..JournalCost(ops), this
// materializes every crash state that is a prefix of the journal; states
// where a write's tail landed without its head (write-back is not ordered
// within one write) are built by the hole-cut test on top of it.
func ApplyOps(m *MemFS, ops []Op, budget int) {
	for _, op := range ops {
		if budget <= 0 {
			return
		}
		if op.Sync {
			budget--
			continue
		}
		n := len(op.Data)
		if n > budget {
			n = budget
		}
		f, err := m.OpenFile(op.Name)
		if err != nil {
			panic(fmt.Sprintf("segstore: ApplyOps open %s: %v", op.Name, err))
		}
		if _, err := f.WriteAt(op.Data[:n], op.Off); err != nil {
			panic(fmt.Sprintf("segstore: ApplyOps write %s: %v", op.Name, err))
		}
		budget -= n
	}
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("segstore: memfs: negative offset %d", off)
	}
	if off >= int64(len(f.buf)) {
		return 0, io.EOF
	}
	n := copy(p, f.buf[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("segstore: memfs: negative offset %d", off)
	}
	end := off + int64(len(p))
	if end > int64(len(f.buf)) {
		grown := make([]byte, end)
		copy(grown, f.buf)
		f.buf = grown
	}
	copy(f.buf[off:], p)
	if f.fs.record {
		f.fs.journal = append(f.fs.journal, Op{Name: f.name, Off: off, Data: append([]byte(nil), p...)})
	}
	return len(p), nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if size < 0 {
		return fmt.Errorf("segstore: memfs: negative truncate %d", size)
	}
	if size < int64(len(f.buf)) {
		f.buf = f.buf[:size]
	} else if size > int64(len(f.buf)) {
		grown := make([]byte, size)
		copy(grown, f.buf)
		f.buf = grown
	}
	return nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.record {
		f.fs.journal = append(f.fs.journal, Op{Name: f.name, Sync: true})
	}
	return nil
}

func (f *memFile) Close() error { return nil }

func (f *memFile) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return int64(len(f.buf)), nil
}
