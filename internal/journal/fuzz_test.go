package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzJournalLoad throws arbitrary bytes at the journal replay path and
// checks its crash-recovery contract: Load never panics, never reports more
// than one tolerated torn tail, never reads past the file, folds without
// panicking, is idempotent, and a journal reopened for appending after any
// damage accepts and replays a fresh record.
func FuzzJournalLoad(f *testing.F) {
	// A genuine record (correct CRC) produced by the real writer, plus the
	// classic damage shapes around it.
	dir := f.TempDir()
	seedPath := filepath.Join(dir, "seed.journal")
	w, err := Open(seedPath, false)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := w.Append(Record{Key: "k", Status: StatusOK, Value: []byte(`{"loss":1e-6}`)}); err != nil {
		f.Fatal(err)
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("not json at all\n"))
	f.Add(append(bytes.Repeat(valid, 2), valid[:len(valid)/2]...)) // torn tail
	f.Add(bytes.Replace(valid, []byte("1e-6"), []byte("2e-6"), 1)) // CRC mismatch
	f.Add([]byte("{\"key\":\"a\",\"status\":\"ok\"}\n\n\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, stats, err := Load(path)
		if err != nil {
			t.Fatalf("Load returned a non-I/O error on arbitrary bytes: %v", err)
		}
		if stats.CorruptTrailing > 1 {
			t.Fatalf("more than one torn tail: %+v", stats)
		}
		if stats.NextOffset < 0 || stats.NextOffset > int64(len(data)) {
			t.Fatalf("NextOffset %d outside [0, %d]", stats.NextOffset, len(data))
		}
		Completed(recs) // must fold whatever decoded without panicking

		recs2, stats2, err := Load(path)
		if err != nil || len(recs2) != len(recs) || stats2 != stats {
			t.Fatalf("replay not idempotent: %d/%+v vs %d/%+v (err %v)",
				len(recs), stats, len(recs2), stats2, err)
		}

		// Crash recovery: reopening for append (which newline-terminates any
		// torn tail) and writing one record must yield exactly one more
		// replayable record — the damage never swallows the new append.
		w, err := Open(path, true)
		if err != nil {
			t.Fatalf("Open(resume) after damage: %v", err)
		}
		if _, err := w.Append(Record{Key: "recovered", Status: StatusOK, Value: []byte(`{}`)}); err != nil {
			t.Fatalf("append after damage: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		recs3, _, err := Load(path)
		if err != nil || len(recs3) != len(recs)+1 {
			t.Fatalf("after recovery append: %d records (err %v), want %d", len(recs3), err, len(recs)+1)
		}
	})
}

// foldOp is one record of a FuzzJournalFold sequence, by index: key and
// worker into the sequence's names, status into ok/fail/claimed, epoch
// 0–3, and deadline into released/past/future.
type foldOp struct{ key, worker, status, epoch, deadline int }

var (
	foldStatuses  = []Status{StatusOK, StatusFail, StatusClaimed}
	foldDeadlines = []int64{0, 1_000, 2_000} // released, past, future
)

// encodeFold is decodeFold's inverse: a header byte choosing 2–3 keys and
// 2–3 workers, then two bytes per record.
func encodeFold(keys, workers int, ops ...foldOp) []byte {
	b := []byte{byte(keys-2) | byte(workers-2)<<1}
	for _, op := range ops {
		b = append(b, byte(op.key+3*op.worker+9*op.status), byte(op.epoch+4*op.deadline))
	}
	return b
}

// decodeFold turns fuzz bytes into a short record sequence. Every ok
// record carries a distinct value, so a wrong winner cannot hide.
func decodeFold(data []byte) []Record {
	if len(data) == 0 {
		return nil
	}
	keys, workers := 2+int(data[0]&1), 2+int(data[0]>>1&1)
	var recs []Record
	for i := 1; i+1 < len(data) && len(recs) < 32; i += 2 {
		b0, b1 := int(data[i]), int(data[i+1])
		rec := Record{
			Key:    fmt.Sprintf("k%d", b0%3%keys),
			Worker: fmt.Sprintf("w%d", b0/3%3%workers),
			Status: foldStatuses[b0/9%3],
			Epoch:  int64(b1 % 4),
		}
		switch rec.Status {
		case StatusOK:
			rec.Value = json.RawMessage(fmt.Sprint(len(recs)))
		case StatusClaimed:
			rec.Deadline = foldDeadlines[b1/4%3]
		}
		recs = append(recs, rec)
	}
	return recs
}

// FuzzJournalFold checks that every reader of the fencing fold agrees:
// Completed equals the done values of the record-by-record fold, and
// compaction keeps both the completed values and, for every cell still
// open, its claim — so a compacted journal resumes and leases exactly as
// the full one would. Each Apply's reported change must also match what it
// did to the cell, since the fleet view counts by it, and a claim Apply
// accepts never carries an epoch below the cell's prior highest.
func FuzzJournalFold(f *testing.F) {
	const ok, fail, claimed = 0, 1, 2
	const released, past, future = 0, 1, 2
	// The TestCompletedEpochFencing cases.
	f.Add(encodeFold(2, 2, foldOp{0, 0, ok, 1, 0}, foldOp{0, 1, ok, 3, 0}, foldOp{0, 0, ok, 2, 0}))
	f.Add(encodeFold(2, 2, foldOp{0, 0, ok, 2, 0}, foldOp{0, 0, ok, 2, 0}))
	f.Add(encodeFold(2, 2, foldOp{0, 0, ok, 3, 0}, foldOp{0, 0, fail, 2, 0}, foldOp{0, 0, fail, 3, 0}))
	f.Add(encodeFold(2, 2, foldOp{0, 0, claimed, 3, past}))
	// A zombie completion, then a fail at the live holder's epoch.
	f.Add(encodeFold(3, 3, foldOp{0, 0, claimed, 1, past}, foldOp{0, 1, claimed, 2, future},
		foldOp{0, 0, ok, 1, 0}, foldOp{0, 1, fail, 2, 0}, foldOp{1, 2, claimed, 1, released}))
	// A steal and release, then the robbed holder's late renewal.
	f.Add(encodeFold(2, 2, foldOp{0, 0, claimed, 1, future}, foldOp{0, 1, claimed, 2, future},
		foldOp{0, 1, claimed, 2, released}, foldOp{0, 0, claimed, 1, future}))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs := decodeFold(data)
		cells := map[string]*Cell{}
		for _, rec := range recs {
			c := cells[rec.Key]
			if c == nil {
				c = &Cell{}
				cells[rec.Key] = c
			}
			before := *c
			ch := c.Apply(rec)
			kept := c.Winner == before.Winner && c.Claim == before.Claim
			switch {
			case (ch == ChangeNone || ch == ChangeFenced || ch == ChangeFailed) && !kept,
				ch == ChangeCompleted && (before.Done() || !c.Done()),
				ch == ChangeReplaced && !before.Done(),
				ch == ChangeReopened && (!before.Done() || c.Done()),
				(ch == ChangeClaimed || ch == ChangeStolen) && rec.Epoch < before.Epoch:
				t.Fatalf("%+v reported change %d: cell %+v -> %+v", rec, ch, before, *c)
			}
		}
		done := Completed(recs)
		for key, c := range cells {
			v, ok := done[key]
			if ok != c.Done() || ok && !bytes.Equal(v, c.Winner.Value) {
				t.Fatalf("Completed[%s] = %s (%t), fold winner %+v", key, v, ok, c.Winner)
			}
		}
		if len(done) > len(cells) {
			t.Fatalf("Completed has %d keys, the fold %d", len(done), len(cells))
		}

		compacted := compactRecords(recs)
		if got := Completed(compacted); !maps.EqualFunc(got, done, func(a, b json.RawMessage) bool { return bytes.Equal(a, b) }) {
			t.Fatalf("Completed after compaction = %v, want %v", got, done)
		}
		refold := Cells{}
		for _, rec := range compacted {
			refold.Apply(rec)
		}
		for key, c := range cells {
			if c.Done() {
				continue
			}
			want, got := c.Claim, (*Record)(nil)
			if r := refold[key]; r != nil {
				got = r.Claim
			}
			if (want == nil) != (got == nil) || want != nil &&
				(want.Worker != got.Worker || want.Epoch != got.Epoch || want.Deadline != got.Deadline) {
				t.Fatalf("open cell %s: claim %+v, after compaction %+v", key, want, got)
			}
		}
		if again := compactRecords(compacted); !reflect.DeepEqual(again, compacted) {
			t.Fatalf("compaction is not a fixed point:\n%+v\n%+v", compacted, again)
		}
	})
}
