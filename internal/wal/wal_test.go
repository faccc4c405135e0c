package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// collect replays dir into memory, copying payloads (they alias the scan
// buffer).
func collect(t *testing.T, dir string) ([]Record, ScanResult) {
	t.Helper()
	var recs []Record
	res, err := Scan(dir, func(r Record) error {
		recs = append(recs, Record{Seq: r.Seq, Type: r.Type,
			Payload: append([]byte(nil), r.Payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return recs, res
}

func TestAppendScanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, 100)
	for i := range want {
		want[i] = []byte(fmt.Sprintf(`{"i":%d}`, i))
		seq, err := l.Append(Type(1+i%9), want[i])
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq %d, want %d", seq, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, res := collect(t, dir)
	if res.Torn {
		t.Fatalf("unexpected tear: %+v", res)
	}
	if len(recs) != len(want) || res.LastSeq != uint64(len(want)) {
		t.Fatalf("got %d records lastSeq %d, want %d", len(recs), res.LastSeq, len(want))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || r.Type != Type(1+i%9) || !bytes.Equal(r.Payload, want[i]) {
			t.Fatalf("record %d mismatch: %+v", i, r)
		}
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	for round := 0; round < 3; round++ {
		l, err := Open(Options{Dir: dir, Fsync: FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := l.Append(TypeObserve, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	recs, res := collect(t, dir)
	if len(recs) != 30 || res.LastSeq != 30 {
		t.Fatalf("got %d records lastSeq %d after reopens", len(recs), res.LastSeq)
	}
}

func TestSegmentRollAndScanFrom(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if _, err := l.Append(TypeObserve, []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	recs, res := collect(t, dir)
	if len(recs) != n || res.Torn {
		t.Fatalf("full scan got %d records torn=%v", len(recs), res.Torn)
	}
	// ScanFrom must deliver exactly the suffix, regardless of segment cuts.
	for _, after := range []uint64{0, 1, 50, 199, 200, 500} {
		var got []uint64
		res, err := ScanFrom(dir, after, func(r Record) error {
			got = append(got, r.Seq)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if after < n {
			want = n - int(after)
		}
		if len(got) != want || res.Records != want {
			t.Fatalf("ScanFrom(%d): %d records, want %d", after, len(got), want)
		}
		if want > 0 && (got[0] != after+1 || got[len(got)-1] != n) {
			t.Fatalf("ScanFrom(%d): range [%d,%d]", after, got[0], got[len(got)-1])
		}
	}
}

// TestTornTailTruncation corrupts the log at every suffix boundary and
// checks that a scan never fails and Open repairs to exactly the valid
// prefix.
func TestTornTailTruncation(t *testing.T) {
	build := func(t *testing.T) (string, string) {
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir, Fsync: FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if _, err := l.Append(TypeSubmit, []byte(fmt.Sprintf("payload-%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		segs, _ := listSegments(dir)
		return dir, filepath.Join(dir, segs[0].name)
	}

	dir, seg := build(t)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	frame := len(data) / 20

	for cut := len(data) - 1; cut > len(data)-2*frame; cut-- {
		dir, seg = build(t)
		if err := os.WriteFile(seg, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, res := collect(t, dir)
		if wantTorn := cut%frame != 0; res.Torn != wantTorn {
			t.Fatalf("cut=%d: torn=%v, want %v", cut, res.Torn, wantTorn)
		}
		// Open must truncate to a clean log holding every untouched record.
		l, err := Open(Options{Dir: dir, Fsync: FsyncOff})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		wantRecs := cut / frame
		if got := l.LastSeq(); got != uint64(wantRecs) {
			t.Fatalf("cut=%d: LastSeq %d, want %d", cut, got, wantRecs)
		}
		// And the log must be appendable right where it left off.
		if _, err := l.Append(TypeRound, []byte("resumed")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		recs, res := collect(t, dir)
		if res.Torn || len(recs) != wantRecs+1 {
			t.Fatalf("cut=%d: after repair got %d records torn=%v", cut, len(recs), res.Torn)
		}
	}
}

// TestBitFlipDetected flips one byte mid-log: the scan must stop cleanly at
// the flipped frame, never deliver garbage.
func TestBitFlipDetected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(TypeSubmit, []byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0].name)
	data, _ := os.ReadFile(path)
	frame := len(data) / 10
	data[5*frame+frameHeader+frameMeta+3] ^= 0xff // payload byte of record 6
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, res := collect(t, dir)
	if !res.Torn || len(recs) != 5 || res.LastSeq != 5 {
		t.Fatalf("got %d records lastSeq %d torn=%v, want 5/5/true", len(recs), res.LastSeq, res.Torn)
	}
}

func TestCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: FsyncOff, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := l.Append(TypeObserve, []byte("0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	ckptSeq, err := l.Checkpoint([]byte(`{"snapshot":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if ckptSeq != 51 {
		t.Fatalf("checkpoint seq %d, want 51", ckptSeq)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(TypeObserve, []byte("post")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recs, res := collect(t, dir)
	if res.Torn {
		t.Fatalf("tear after compaction: %+v", res)
	}
	if len(recs) != 6 || recs[0].Type != TypeCheckpoint || recs[0].Seq != 51 {
		t.Fatalf("compacted log holds %d records, first %v@%d", len(recs), recs[0].Type, recs[0].Seq)
	}
	last, err := LastCheckpoint(dir)
	if err != nil || last != 51 {
		t.Fatalf("LastCheckpoint = %d, %v", last, err)
	}
	// The compacted log must reopen and keep appending.
	l2, err := Open(Options{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := l2.Append(TypeRound, []byte("x")); err != nil || seq != 57 {
		t.Fatalf("append after reopen: seq %d err %v", seq, err)
	}
	l2.Close()
}

// TestGroupCommitConcurrent hammers AppendSync from many goroutines: every
// record must land durably with a unique sequence, and group commit must
// batch (fewer fsyncs than appends).
func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: FsyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 16, 50
	var wg sync.WaitGroup
	seqs := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, err := l.AppendSync(TypeSubmit, []byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Errorf("AppendSync: %v", err)
					return
				}
				seqs[w] = append(seqs[w], seq)
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.DurableSeq != workers*per {
		t.Fatalf("durable %d, want %d", st.DurableSeq, workers*per)
	}
	if st.Fsyncs >= st.Appends {
		t.Fatalf("no batching: %d fsyncs for %d appends", st.Fsyncs, st.Appends)
	}
	seen := make(map[uint64]bool)
	for _, ws := range seqs {
		for _, s := range ws {
			if seen[s] {
				t.Fatalf("duplicate sequence %d", s)
			}
			seen[s] = true
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, res := collect(t, dir)
	if res.Torn || len(recs) != workers*per {
		t.Fatalf("scan got %d records torn=%v", len(recs), res.Torn)
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncEach, FsyncGroup, FsyncOff} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(Options{Dir: dir, Fsync: pol})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				if _, err := l.AppendSync(TypeSubmit, []byte("x")); err != nil {
					t.Fatal(err)
				}
			}
			st := l.Stats()
			switch pol {
			case FsyncEach:
				if st.Fsyncs < 10 {
					t.Fatalf("each: %d fsyncs for 10 appends", st.Fsyncs)
				}
			case FsyncOff:
				if st.Fsyncs != 0 {
					t.Fatalf("off: %d fsyncs", st.Fsyncs)
				}
				if st.DurableSeq != 0 {
					t.Fatalf("off: durable %d without a Sync", st.DurableSeq)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if recs, res := collect(t, dir); res.Torn || len(recs) != 10 {
				t.Fatalf("scan got %d torn=%v", len(recs), res.Torn)
			}
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncEach, FsyncGroup, FsyncOff} {
		got, err := ParseFsyncPolicy(pol.String())
		if err != nil || got != pol {
			t.Fatalf("round trip %v: %v, %v", pol, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("always"); err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

func TestOversizePayloadRejected(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(TypeCheckpoint, make([]byte, maxFrameBody)); err == nil {
		t.Fatal("oversize payload accepted")
	}
}

// TestFsyncOffWritesAtFlushBytes checks the pending buffer's bound: under
// FsyncOff (no fsync, no roll in sight) appended frames reach the segment
// file, where Scan sees them before Close, once flushBytes are pending; the
// file ends on a frame boundary; and the buffer's capacity stays bounded
// over many rounds' worth of appends.
func TestFsyncOffWritesAtFlushBytes(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte{0xB1}, 49) // an observe-sized record
	frame := frameHeader + frameMeta + len(payload)
	perFlush := (flushBytes + frame - 1) / frame // appends that reach the bound

	for i := 1; i < perFlush; i++ {
		if _, err := l.Append(TypeObserve, payload); err != nil {
			t.Fatal(err)
		}
	}
	if recs, res := collect(t, dir); len(recs) != 0 || res.Torn {
		t.Fatalf("%d records on disk (torn=%v) below the flush bound", len(recs), res.Torn)
	}
	if _, err := l.Append(TypeObserve, payload); err != nil {
		t.Fatal(err)
	}
	recs, res := collect(t, dir)
	if len(recs) != perFlush || res.Torn || res.LastSeq != uint64(perFlush) {
		t.Fatalf("after %d appends: %d records on disk, torn=%v, last seq %d",
			perFlush, len(recs), res.Torn, res.LastSeq)
	}

	const rounds = 200 // each round: 150 observes
	for i := 0; i < rounds*150; i++ {
		if _, err := l.Append(TypeObserve, payload); err != nil {
			t.Fatal(err)
		}
		if c := cap(l.buf); c > 2*(flushBytes+frame) {
			t.Fatalf("append %d: pending buffer capacity %d", i, c)
		}
	}
	if _, res := collect(t, dir); res.Torn || res.LastSeq+uint64(len(l.buf)/frame) != l.LastSeq() {
		t.Fatalf("disk holds through seq %d (torn=%v), %d frames pending, log at %d",
			res.LastSeq, res.Torn, len(l.buf)/frame, l.LastSeq())
	}
}

// TestCheckpointBufferReleased checks that a checkpoint-sized frame does not
// leave its capacity behind in the pending buffer. The log is fresh, so the
// checkpoint also opens the empty segment Open created.
func TestCheckpointBufferReleased(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Checkpoint(make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if c := cap(l.buf); c > 4*flushBytes {
		t.Fatalf("pending buffer kept %d bytes of capacity after a checkpoint", c)
	}
}

// TestCheckpointOnEmptyLog checks that the first record of a log can be a
// checkpoint, as when a daemon restores a snapshot into a new WAL directory:
// here a log opened and closed without records, whose empty segment the
// checkpoint must reuse, and which keeps appending after it.
func TestCheckpointOnEmptyLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: FsyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = Open(Options{Dir: dir, Fsync: FsyncGroup}); err != nil {
		t.Fatal(err)
	}
	if seq, err := l.Checkpoint([]byte("snap")); err != nil || seq != 1 {
		t.Fatalf("checkpoint: seq %d, %v", seq, err)
	}
	if _, err := l.AppendSync(TypeSubmit, []byte("x")); err != nil {
		t.Fatalf("append after checkpoint: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	recs, res := collect(t, dir)
	if res.Torn || len(recs) != 2 || recs[0].Type != TypeCheckpoint || recs[1].Type != TypeSubmit {
		t.Fatalf("log holds %+v (torn=%v)", recs, res.Torn)
	}
	if ckpt, err := LastCheckpoint(dir); err != nil || ckpt != 1 {
		t.Fatalf("last checkpoint %d (%v), want 1", ckpt, err)
	}
}
