package journal

import "encoding/json"

// Change reports what one record did to its cell's folded state.
type Change uint8

const (
	// ChangeNone: the record altered nothing the fold tracks — a claim
	// that lost the race at an equal or older epoch, a stale claim below
	// the cell's highest epoch (such as a late renewal of a lost lease),
	// or a release from someone other than the holder.
	ChangeNone Change = iota
	// ChangeCompleted: an ok record completed an open cell.
	ChangeCompleted
	// ChangeReplaced: an ok record at or above the winning epoch replaced
	// the value of a cell that was already done.
	ChangeReplaced
	// ChangeFenced: an ok record below the winning epoch lost — a
	// zombie's completion.
	ChangeFenced
	// ChangeReopened: a fail record at or above the winning epoch cleared
	// the cell's value.
	ChangeReopened
	// ChangeFailed: a fail record that left the cell as it was.
	ChangeFailed
	// ChangeClaimed: a claim took an unclaimed cell, or its holder
	// re-claimed it at a higher epoch.
	ChangeClaimed
	// ChangeStolen: a claim at a higher epoch superseded another worker's
	// claim.
	ChangeStolen
	// ChangeRenewed: the holder re-appended its claim at the claim's own
	// epoch; the deadline moved only if the new one is later.
	ChangeRenewed
	// ChangeReleased: the holder gave the claim back at the claim's own
	// epoch.
	ChangeReleased
)

// Cell is the folded state of one journal key: the winning ok record, the
// current lease claim, and the highest fencing epoch any record carried.
// Every reader of the journal — Completed, Compact, the lease store, the
// fleet view — folds records through Apply, so all agree on which cells
// are done and who holds the rest.
type Cell struct {
	// Winner is the winning ok record; nil while the cell is open.
	Winner *Record
	// Claim is the current lease claim, expired or not; nil when the cell
	// was never claimed or its claim was released or consumed.
	Claim *Record
	// Epoch is the highest fencing epoch seen for the cell.
	Epoch int64
}

// Done reports whether the cell holds a winning completion.
func (c *Cell) Done() bool { return c.Winner != nil }

// HeldBy reports whether the cell's claim is worker's lease at epoch.
func (c *Cell) HeldBy(worker string, epoch int64) bool {
	return c.Claim != nil && c.Claim.Worker == worker && c.Claim.Epoch == epoch
}

// Apply folds one record into the cell and reports what it changed. The
// rules, applied in file order:
//
//   - an ok record at an epoch ≥ the winner's replaces it, and consumes the
//     claim when its epoch is ≥ the claim's;
//   - a fail record at an epoch ≥ the winner's reopens the cell;
//   - a claim with Deadline ≤ 0 releases the claim only when it comes from
//     the holder at the claim's own epoch;
//   - any other claim from the holder at the claim's epoch is a renewal,
//     which only ever extends the deadline;
//   - a claim below the highest epoch seen so far is stale — for example
//     a renewal appended after its lease was stolen and released — and
//     neither takes nor supersedes a claim;
//   - otherwise a claim takes an unclaimed cell or supersedes a claim at a
//     lower epoch, and loses to a claim at an equal or higher epoch.
func (c *Cell) Apply(rec Record) Change {
	prior := c.Epoch
	if rec.Epoch > c.Epoch {
		c.Epoch = rec.Epoch
	}
	switch rec.Status {
	case StatusOK:
		if c.Winner != nil && rec.Epoch < c.Winner.Epoch {
			return ChangeFenced
		}
		ch := ChangeCompleted
		if c.Winner != nil {
			ch = ChangeReplaced
		}
		c.Winner = &rec
		if c.Claim != nil && rec.Epoch >= c.Claim.Epoch {
			c.Claim = nil
		}
		return ch
	case StatusFail:
		if c.Winner != nil && rec.Epoch >= c.Winner.Epoch {
			c.Winner = nil
			return ChangeReopened
		}
		return ChangeFailed
	case StatusClaimed:
		held := c.HeldBy(rec.Worker, rec.Epoch)
		switch {
		case rec.Deadline <= 0:
			if held {
				c.Claim = nil
				return ChangeReleased
			}
		case held:
			if rec.Deadline > c.Claim.Deadline {
				c.Claim = &rec
			}
			return ChangeRenewed
		case rec.Epoch < prior:
			// Stale: taking the cell here would hand it back below the
			// fencing floor a newer lease already set.
		case c.Claim == nil:
			c.Claim = &rec
			return ChangeClaimed
		case rec.Epoch > c.Claim.Epoch:
			ch := ChangeClaimed
			if c.Claim.Worker != rec.Worker {
				ch = ChangeStolen
			}
			c.Claim = &rec
			return ch
		}
	}
	return ChangeNone
}

// Cells is a journal folded per key.
type Cells map[string]*Cell

// Apply folds rec into its key's cell, creating the cell on first sight.
func (cs Cells) Apply(rec Record) Change {
	c := cs[rec.Key]
	if c == nil {
		c = &Cell{}
		cs[rec.Key] = c
	}
	return c.Apply(rec)
}

// Completed folds records into the per-key outcome a resumed sweep should
// trust: the value of each done cell's winning ok record (see Cell.Apply).
// The record written under the highest lease epoch wins regardless of file
// order, so a zombie worker that appends a stale completion after its
// lease was stolen can never overwrite the newer holder's result; within
// an epoch the last record in file order wins. A fail record at or above
// the winning epoch drops the value; claims never complete a cell.
func Completed(records []Record) map[string]json.RawMessage {
	cells := Cells{}
	for _, rec := range records {
		cells.Apply(rec)
	}
	done := make(map[string]json.RawMessage, len(cells))
	for k, c := range cells {
		if c.Done() {
			done[k] = c.Winner.Value
		}
	}
	return done
}
