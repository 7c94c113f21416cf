package fleetstatus

import (
	"encoding/json"
	"maps"
	"path/filepath"
	"testing"
	"time"

	"lrd/internal/core"
	"lrd/internal/journal"
)

// TestStatusAgreesWithLeaseStore replays record sequences into one journal
// and checks, after every record, that the fleet view reads it the way the
// lease store does: the same cells done, and every open cell held by the
// same worker.
func TestStatusAgreesWithLeaseStore(t *testing.T) {
	claim := func(key, w string, epoch int64, d time.Duration) journal.Record {
		return journal.Record{Key: key, Status: journal.StatusClaimed, Worker: w, Epoch: epoch, Deadline: deadline(d)}
	}
	release := func(key, w string, epoch int64) journal.Record {
		return journal.Record{Key: key, Status: journal.StatusClaimed, Worker: w, Epoch: epoch}
	}
	ok := func(key, w string, epoch int64) journal.Record {
		return journal.Record{Key: key, Status: journal.StatusOK, Worker: w, Epoch: epoch, Value: json.RawMessage(`"` + w + `"`)}
	}
	fail := func(key, w string, epoch int64) journal.Record {
		return journal.Record{Key: key, Status: journal.StatusFail, Worker: w, Epoch: epoch, Error: "transient"}
	}
	cases := []struct {
		name string
		recs []journal.Record
		// want checks the final status, for the sequences that pin one.
		want func(t *testing.T, st Status)
	}{
		{
			// x's lease expires and y takes the cell over; x's zombie
			// completion lands, then y logs a failed attempt at its own
			// epoch, which reopens the cell under y's live lease.
			name: "fail after zombie ok",
			recs: []journal.Record{
				claim("c", "x", 1, -time.Second),
				claim("c", "y", 2, time.Minute),
				ok("c", "x", 1),
				fail("c", "y", 2),
			},
			want: func(t *testing.T, st Status) {
				if st.CellsDone != 0 || st.CellsInFlight != 1 {
					t.Fatalf("done/inflight = %d/%d, want 0/1", st.CellsDone, st.CellsInFlight)
				}
				for _, w := range st.Workers {
					if w.Worker == "y" && w.LiveLeases != 1 {
						t.Fatalf("y = %+v, want 1 live lease", w)
					}
				}
			},
		},
		{
			name: "zombie ok before the thief's ok",
			recs: []journal.Record{
				claim("c", "x", 1, -time.Second),
				claim("c", "y", 2, time.Minute),
				ok("c", "x", 1),
				ok("c", "y", 2),
			},
		},
		{
			name: "fold lifecycle",
			recs: []journal.Record{
				claim("a", "w1", 1, time.Second),
				claim("a", "w1", 1, 2*time.Second),
				ok("a", "w1", 1),
				claim("b", "w1", 1, time.Second),
				release("b", "w1", 1),
				claim("b", "w2", 2, 30*time.Second),
				fail("b", "w2", 2),
			},
		},
		{
			name: "steal and zombie fencing",
			recs: []journal.Record{
				claim("c", "victim", 1, -time.Second),
				claim("c", "thief", 2, time.Minute),
				ok("c", "thief", 2),
				ok("c", "victim", 1),
				claim("c", "victim", 1, time.Minute),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fleet.journal")
			ls, err := core.OpenLeaseStore(path, core.LeaseStoreOptions{Worker: "probe", TTL: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			defer ls.Close()
			agg := New(path, Options{Now: func() time.Time { return fixedNow }})
			var keys []string
			seen := map[string]bool{}
			for _, rec := range tc.recs {
				if !seen[rec.Key] {
					seen[rec.Key] = true
					keys = append(keys, rec.Key)
				}
			}
			var st Status
			for i, rec := range tc.recs {
				writeRecords(t, path, []journal.Record{rec})
				if st, err = agg.Status(); err != nil {
					t.Fatal(err)
				}
				done, inFlight, held := 0, 0, map[string]int{}
				for _, key := range keys {
					_, lsDone := ls.Lookup(key)
					if c := agg.cells[key]; (c != nil && c.Done()) != lsDone {
						t.Fatalf("after record %d: cell %s done in the lease store: %t, in the fleet view: %t", i, key, lsDone, !lsDone)
					}
					if lsDone {
						done++
					}
					if w, ok := ls.Holder(key); ok {
						held[w]++
						inFlight++
					}
				}
				if st.CellsDone != done || st.CellsInFlight != inFlight {
					t.Fatalf("after record %d: done/inflight: fleet view %d/%d, lease store %d/%d",
						i, st.CellsDone, st.CellsInFlight, done, inFlight)
				}
				live := map[string]int{}
				for _, w := range st.Workers {
					if w.LiveLeases > 0 {
						live[w.Worker] = w.LiveLeases
					}
				}
				if !maps.Equal(live, held) {
					t.Fatalf("after record %d: live leases per worker: fleet view %v, lease store %v", i, live, held)
				}
			}
			if tc.want != nil {
				tc.want(t, st)
			}
		})
	}
}
