package segstore

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// FS is the narrow filesystem surface the store runs on. DirFS is the one
// implementation outside tests; the crash-injection tests substitute an
// in-memory one with a write/sync journal (memfs_test.go).
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
