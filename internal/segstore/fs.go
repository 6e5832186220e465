package segstore

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// FS is the narrow filesystem surface the store runs on. DirFS is the real
// thing; MemFS backs the crash-injection harness.
type FS interface {
	// OpenFile opens name for read/write, creating it (durably, for DirFS:
	// the directory entry is fsynced) if it does not exist.
	OpenFile(name string) (File, error)
}

// File is the per-file surface: positioned reads and writes, truncate,
// and a durability barrier. The store only ever appends (WriteAt at the
// known tail) and truncates during recovery.
type File interface {
	io.ReaderAt
	io.Closer
	WriteAt(p []byte, off int64) (int, error)
	Truncate(size int64) error
	Sync() error
	Size() (int64, error)
}

// ---------------------------------------------------------------------------
// DirFS: the os-backed implementation.

// DirFS roots an FS at an OS directory, creating it if needed.
func DirFS(dir string) (FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &dirFS{dir: dir}, nil
}

// DirFSReadOnly roots an FS at an existing OS directory without creating
// anything: files open O_RDONLY and a missing file or directory is an
// error. Writes through the returned files fail at the OS level; the store
// layer never attempts them on a read-only open.
func DirFSReadOnly(dir string) (FS, error) {
	if st, err := os.Stat(dir); err != nil {
		return nil, err
	} else if !st.IsDir() {
		return nil, fmt.Errorf("segstore: %s is not a directory", dir)
	}
	return &dirFS{dir: dir, readonly: true}, nil
}

type dirFS struct {
	dir      string
	readonly bool
}

func (d *dirFS) OpenFile(name string) (File, error) {
	path := filepath.Join(d.dir, name)
	if d.readonly {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		return &dirFile{f: f}, nil
	}
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if os.IsNotExist(statErr) {
		// A freshly created file is only durable once its directory entry
		// is synced; without this a crash could lose the file itself
		// after commits into it were acknowledged as durable.
		if err := syncDir(d.dir); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &dirFile{f: f}, nil
}

func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer df.Close()
	return df.Sync()
}

type dirFile struct{ f *os.File }

func (d *dirFile) ReadAt(p []byte, off int64) (int, error)  { return d.f.ReadAt(p, off) }
func (d *dirFile) WriteAt(p []byte, off int64) (int, error) { return d.f.WriteAt(p, off) }
func (d *dirFile) Truncate(size int64) error                { return d.f.Truncate(size) }
func (d *dirFile) Sync() error                              { return d.f.Sync() }
func (d *dirFile) Close() error                             { return d.f.Close() }

func (d *dirFile) Size() (int64, error) {
	st, err := d.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// ---------------------------------------------------------------------------
// MemFS: in-memory files with a write/sync journal for crash simulation.

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
