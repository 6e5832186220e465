package segstore

import (
	"bytes"
	"reflect"
	"testing"
)

// journalAppend commits recs[:committed] to a fresh MemFS and then
// recs[committed] under a journal: pre is the on-disk state a crash falls
// back onto, ops the in-flight commit.
func journalAppend(t *testing.T, recs []*BinRecord, committed int) (pre *MemFS, ops []Op) {
	t.Helper()
	base := NewMemFS()
	st, err := OpenFS(base)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < committed; i++ {
		if err := st.Append(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	pre = base.Clone()
	stop := base.StartJournal()
	if err := st.Append(recs[committed]); err != nil {
		t.Fatal(err)
	}
	return pre, stop()
}

// TestAppendIsOneWriteOneSync pins the commit protocol by count, which no
// host can blur: one Append is exactly one write at the committed tail
// followed by one sync, both on segments.dat.
func TestAppendIsOneWriteOneSync(t *testing.T) {
	recs := synthRecords(3)
	for committed := range recs {
		pre, ops := journalAppend(t, recs, committed)
		f, _ := pre.OpenFile(dataName)
		tail, _ := f.Size()
		if len(ops) != 2 ||
			ops[0].Sync || ops[0].Name != dataName || ops[0].Off != tail ||
			!ops[1].Sync || ops[1].Name != dataName {
			t.Fatalf("committed=%d: Append journal is not one write at %d + one sync on %s: %+v", committed, tail, dataName, ops)
		}
	}
}

// TestCrashInjectionEveryCut is the fault-point harness: for every number
// of already-committed bins, it journals one full commit (the frame write
// and its sync) and replays it cut at EVERY byte offset and sync point.
// Each cut must reopen without error or panic to exactly the committed
// prefix — the in-flight bin is either fully present (the cut fell after
// the frame's last byte) or fully absent; never half-visible — and the
// reopened store must accept the next append and survive another reopen.
func TestCrashInjectionEveryCut(t *testing.T) {
	recs := synthRecords(5)
	for committed := 0; committed < len(recs)-1; committed++ {
		pre, ops := journalAppend(t, recs, committed)

		total := JournalCost(ops)
		if total == 0 {
			t.Fatalf("committed=%d: empty commit journal", committed)
		}
		sawPartial, sawFull := false, false
		for cut := 0; cut <= total; cut++ {
			crashed := pre.Clone()
			ApplyOps(crashed, ops, cut)
			n := verifyCrashRecovery(t, crashed, recs, committed, cut)
			if n == committed {
				sawPartial = true
			} else {
				sawFull = true
			}
		}
		// Sanity on the harness itself: both outcomes must be reachable —
		// early cuts lose the bin, the final cut keeps it.
		if !sawPartial || !sawFull {
			t.Fatalf("committed=%d: cut sweep degenerate (partial=%v full=%v)", committed, sawPartial, sawFull)
		}
	}
}

// verifyCrashRecovery opens a crashed filesystem and checks the recovery
// contract. Returns the number of bins recovered.
func verifyCrashRecovery(t *testing.T, crashed *MemFS, recs []*BinRecord, committed, cut int) int {
	t.Helper()
	st, err := OpenFS(crashed)
	if err != nil {
		t.Fatalf("committed=%d cut=%d: reopen failed: %v", committed, cut, err)
	}
	n := st.Len()
	if n != committed && n != committed+1 {
		t.Fatalf("committed=%d cut=%d: recovered %d bins", committed, cut, n)
	}
	var rec BinRecord
	for i := 0; i < n; i++ {
		if err := st.Record(i, &rec); err != nil {
			t.Fatalf("committed=%d cut=%d: decode recovered bin %d: %v", committed, cut, i, err)
		}
		if !reflect.DeepEqual(normalize(recs[i]), normalize(&rec)) {
			t.Fatalf("committed=%d cut=%d: recovered bin %d differs from committed record", committed, cut, i)
		}
	}
	// Resume ingest: the next uncovered bin must commit cleanly on the
	// truncated tail and survive a further reopen.
	next := recs[n]
	if err := st.Append(next); err != nil {
		t.Fatalf("committed=%d cut=%d: append after recovery: %v", committed, cut, err)
	}
	st.Close()

	st2, err := OpenFS(crashed)
	if err != nil {
		t.Fatalf("committed=%d cut=%d: reopen after resumed append: %v", committed, cut, err)
	}
	if st2.Len() != n+1 {
		t.Fatalf("committed=%d cut=%d: resumed append not durable: %d bins", committed, cut, st2.Len())
	}
	if err := st2.Record(n, &rec); err != nil {
		t.Fatalf("committed=%d cut=%d: decode resumed bin: %v", committed, cut, err)
	}
	if !reflect.DeepEqual(normalize(next), normalize(&rec)) {
		t.Fatalf("committed=%d cut=%d: resumed bin differs", committed, cut)
	}
	st2.Close()
	return n
}

// TestCrashHoleCuts covers what a prefix cut cannot: write-back is not
// ordered within one write, so a crash before the sync can leave any part
// of the frame on disk without the rest. For every k the un-synced frame
// is materialised twice at full length — "the tail landed, the head did
// not" (first k bytes still zero, rest written) and its mirror, "the file
// grew but the tail's blocks did not arrive" (first k bytes written, rest
// zero). Each state must recover to the pre-commit prefix; a hole over
// bytes that were zero anyway changes nothing and is the complete frame.
func TestCrashHoleCuts(t *testing.T) {
	recs := synthRecords(5)
	for committed := 0; committed < len(recs)-1; committed++ {
		pre, ops := journalAppend(t, recs, committed)
		frame := ops[0]
		for k := 1; k < len(frame.Data); k++ {
			headLost := append(make([]byte, k), frame.Data[k:]...)
			tailLost := append(frame.Data[:k:k], make([]byte, len(frame.Data)-k)...)
			for _, holed := range [][]byte{headLost, tailLost} {
				crashed := pre.Clone()
				f, _ := crashed.OpenFile(frame.Name)
				f.WriteAt(holed, frame.Off)
				want := committed
				if bytes.Equal(holed, frame.Data) {
					want++
				}
				if n := verifyCrashRecovery(t, crashed, recs, committed, -k); n != want {
					t.Fatalf("committed=%d hole at %d: recovered %d bins, want %d", committed, k, n, want)
				}
			}
		}
	}
}

// TestShiftedFrameInvalid: an entry names its own payload offset, so a
// valid frame found anywhere but where it was committed — stale bytes, a
// copied block — is not a commit. The third frame is copied over the
// second (its original still follows, so the offset it names is inside the
// file): recovery must stop after the first.
func TestShiftedFrameInvalid(t *testing.T) {
	recs := synthRecords(3)
	_, second := journalAppend(t, recs, 1)
	fs, third := journalAppend(t, recs, 2)
	ApplyOps(fs, third, JournalCost(third))
	f, _ := fs.OpenFile(dataName)
	f.WriteAt(third[0].Data, second[0].Off)

	st, err := OpenFS(fs)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	checkStore(t, st, recs[:1])
}

// TestCrashDuringRecoveryTruncation crashes again while recovery itself is
// truncating the torn tail: recovery must be idempotent.
func TestCrashDuringRecoveryTruncation(t *testing.T) {
	recs := synthRecords(4)
	pre, ops := journalAppend(t, recs, 2)

	// Crash mid-commit (half the frame written), then recover — which
	// truncates — then reopen again: same committed prefix both times.
	crashed := pre.Clone()
	ApplyOps(crashed, ops, JournalCost(ops)/2)
	st1, err := OpenFS(crashed)
	if err != nil {
		t.Fatal(err)
	}
	n := st1.Len()
	st1.Close()
	st2, err := OpenFS(crashed)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != n {
		t.Fatalf("recovery not idempotent: %d then %d bins", n, st2.Len())
	}
	if ri := st2.Recovery(); ri.Truncated != 0 {
		t.Fatalf("second recovery still truncating: %+v", ri)
	}
	st2.Close()
}

// TestRecoveryDetectsBitFlips flips every byte of a committed store in
// turn; reopen must never panic and never surface a record that fails to
// decode — a flipped committed prefix is either caught by checksum
// (shrinking the prefix) or, for flips in already-validated regions we
// re-read later, still decodes (flips in the file header can fail the open
// instead, which is also acceptable). This is the torn-tail-detection
// property of the entry and payload checksums beyond pure prefix cuts.
func TestRecoveryDetectsBitFlips(t *testing.T) {
	recs := synthRecords(3)
	base := NewMemFS()
	st, err := OpenFS(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	f, _ := base.OpenFile(dataName)
	size, _ := f.Size()
	for off := int64(0); off < size; off++ {
		flipped := base.Clone()
		ff, _ := flipped.OpenFile(dataName)
		orig := make([]byte, 1)
		ff.ReadAt(orig, off)
		ff.WriteAt([]byte{orig[0] ^ 0xa5}, off)

		st2, err := OpenFS(flipped)
		if err != nil {
			continue // header flip: refusing to open is fine
		}
		var rec BinRecord
		for i := 0; i < st2.Len(); i++ {
			if err := st2.Record(i, &rec); err != nil {
				t.Fatalf("byte %d flipped: recovered bin %d undecodable: %v", off, i, err)
			}
		}
		st2.Close()
	}
}
