package segstore

import (
	"errors"
	"testing"
)

// faultFS wraps an FS and fails one chosen operation: the first brick of
// fault injection through the FS interface (test-only; production code has
// no hook). Arm it after Open, so the header write is not counted.
type faultFS struct {
	FS
	failWrite int // fail the n-th WriteAt from now (1-based; 0 = never)
	failSync  int // fail the n-th Sync from now
	landed    int // bytes a failing WriteAt writes before it errors (ENOSPC)
}

var errInjected = errors.New("injected I/O error")

func (f *faultFS) OpenFile(name string) (File, error) {
	inner, err := f.FS.OpenFile(name)
	if err != nil {
		return nil, err
	}
	size, err := inner.Size()
	return &faultFile{File: inner, fs: f, synced: size}, err
}

type faultFile struct {
	File
	fs     *faultFS
	synced int64 // file size at the last successful Sync
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fs.failWrite > 0 {
		if f.fs.failWrite--; f.fs.failWrite == 0 {
			n, _ := f.File.WriteAt(p[:f.fs.landed], off)
			return n, errInjected
		}
	}
	return f.File.WriteAt(p, off)
}

// Sync, when it fails, takes the worst case the kernel allows: the dirty
// pages are dropped, so everything appended since the last good sync is
// gone from the file.
func (f *faultFile) Sync() error {
	if f.fs.failSync > 0 {
		if f.fs.failSync--; f.fs.failSync == 0 {
			f.File.Truncate(f.synced)
			return errInjected
		}
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	size, err := f.File.Size()
	f.synced = size
	return err
}

// TestFailedAppendPoisonsStore: after the first failed write or sync the
// store refuses every further Append with that same error — it does not
// retry at the same offset over pages whose state is unknown — while reads
// of the committed prefix keep working, and reopening the underlying
// filesystem recovers exactly the bins committed before the failure.
func TestFailedAppendPoisonsStore(t *testing.T) {
	recs := synthRecords(6)
	cases := map[string]faultFS{
		"write error":    {failWrite: 3},
		"short write":    {failWrite: 3, landed: 40},
		"one-byte write": {failWrite: 1, landed: 1},
		"sync error":     {failSync: 3},
		"first sync":     {failSync: 1},
	}
	for name, fault := range cases {
		t.Run(name, func(t *testing.T) {
			mem := NewMemFS()
			ffs := &faultFS{FS: mem}
			st, err := OpenFS(ffs)
			if err != nil {
				t.Fatal(err)
			}
			ffs.failWrite, ffs.failSync, ffs.landed = fault.failWrite, fault.failSync, fault.landed
			committed := max(fault.failWrite, fault.failSync) - 1
			for i := 0; i < committed; i++ {
				if err := st.Append(recs[i]); err != nil {
					t.Fatal(err)
				}
			}
			first := st.Append(recs[committed])
			if !errors.Is(first, errInjected) {
				t.Fatalf("Append over the injected fault returned %v", first)
			}
			// The fault is spent; only the store's own stickiness refuses now.
			for _, r := range recs[committed:] {
				if err := st.Append(r); err != first {
					t.Fatalf("Append after a failed commit returned %v, want the first error %v", err, first)
				}
			}
			checkStore(t, st, recs[:committed])
			st.Close()

			re, err := OpenFS(mem)
			if err != nil {
				t.Fatal(err)
			}
			checkStore(t, re, recs[:committed])
			if wantTorn := fault.landed > 0; (re.Recovery().Truncated > 0) != wantTorn {
				t.Fatalf("recovery = %+v, torn tail expected: %v", re.Recovery(), wantTorn)
			}
			if err := re.Append(recs[committed]); err != nil {
				t.Fatalf("append after reopen: %v", err)
			}
			re.Close()
		})
	}
}
