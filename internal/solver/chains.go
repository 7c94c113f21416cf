package solver

import (
	"runtime"
	"sync"
	"sync/atomic"

	"lrd/internal/fft"
)

// The lower and upper bound chains (Q_L and Q_H of Eq. 18) are independent
// within a Lindley step: each convolves its own occupancy pmf with its own
// increment pmf into its own buffers. From concurrentStepMinBins on, Step
// offers the upper chain to a helper goroutine and runs the lower one
// itself. Each chain performs the same floating-point operations in the
// same order wherever it runs, so the result is bit-identical to stepping
// the chains one after the other.

// concurrentStepMinBins is the resolution M from which Step offers the upper
// chain to a helper. It keeps every step of the dense sweeps, which stop at
// M = 1024 and already keep every core busy with one solve per worker, on
// the inline path. On an idle 2-vCPU Xeon a hand-off also pays at M = 512
// and 1024; whether it does for a saturated sweep has not been measured.
const concurrentStepMinBins = 2048

// chainArgs are one bound chain's Lindley step arguments (see
// lindleyStepInto).
type chainArgs struct {
	q, w []float64
	m    int
	conv *fft.Scratch
	out  []float64
}

func (a chainArgs) step() ([]float64, float64) {
	return lindleyStepInto(a.q, a.w, a.m, a.conv, a.out)
}

// Hand-off states of a chainStep. A step stores chainOffered; then exactly
// one of the stepping goroutine (back to chainFree) and a helper (on to
// chainTaken) wins the chain with a compare-and-swap and runs it.
const (
	chainFree int32 = iota
	chainOffered
	chainTaken
)

// chainStep offers one chain's step to a helper: its arguments, the claim
// on it, its results, and the completion signal.
type chainStep struct {
	chainArgs
	state    atomic.Int32
	drift    float64
	done     sync.WaitGroup
	panicked any // a panic raised on the helper, re-raised by wait
}

// offer publishes c's arguments as claimable and passes c to an idle
// helper, starting a new one if every helper is busy and fewer than
// GOMAXPROCS−1 exist. It never blocks. Whether or not a helper gets c, the
// caller must settle it with reclaim or wait.
func (c *chainStep) offer(args chainArgs) {
	c.chainArgs = args
	c.done.Add(1)
	c.state.Store(chainOffered)
	select {
	case stepJobs <- c:
		return
	default:
	}
	for {
		n := stepHelpers.Load()
		if int(n) >= runtime.GOMAXPROCS(0)-1 {
			return
		}
		if stepHelpers.CompareAndSwap(n, n+1) {
			go stepHelper(c)
			return
		}
	}
}

// reclaim takes back an offered chain that no helper has started,
// reporting whether it did. After a true result the caller runs the chain
// itself; after false a helper has it and the caller must wait.
func (c *chainStep) reclaim() bool {
	if c.state.CompareAndSwap(chainOffered, chainFree) {
		c.done.Done()
		return true
	}
	return false
}

// runOnHelper runs the chain on a helper if it is still on offer, carrying
// a panic back to the waiting step instead of crashing the process. A
// helper can receive c after the stepping goroutine reclaimed it, even
// after c was offered again for a later step; the claim makes sure each
// offer runs once.
func (c *chainStep) runOnHelper() {
	if !c.state.CompareAndSwap(chainOffered, chainTaken) {
		return
	}
	defer func() {
		c.panicked = recover()
		c.done.Done()
	}()
	c.out, c.drift = c.step()
}

// wait blocks until a helper has finished the chain and re-raises its
// panic.
func (c *chainStep) wait() {
	c.done.Wait()
	if p := c.panicked; p != nil {
		c.panicked = nil
		panic(p)
	}
}

// stepChains runs one Lindley step of both bound chains and returns their
// stepped pmfs and drifts. At M ≥ concurrentStepMinBins the upper chain is
// offered to a helper through slot, the hand-off record reused across
// steps (nil allocates one), while this goroutine steps the lower chain;
// if no helper has started the upper chain by then, this goroutine runs it
// too. So a step waits only for a chain that a helper has begun. On a
// saturated machine such a helper may be descheduled mid-chain, and the
// step then waits for it to be rescheduled.
func stepChains(lower, upper chainArgs, slot *chainStep) (ql []float64, driftL float64, qh []float64, driftH float64) {
	if upper.m < concurrentStepMinBins {
		ql, driftL = lower.step()
		qh, driftH = upper.step()
		return
	}
	if slot == nil {
		slot = new(chainStep)
	}
	slot.offer(upper)
	settled := false
	defer func() {
		// A panicking lower chain must not unwind while a helper still
		// writes into the solve's buffers.
		if !settled && !slot.reclaim() {
			slot.wait()
		}
	}()
	ql, driftL = lower.step()
	settled = true
	if slot.reclaim() {
		qh, driftH = upper.step()
		return
	}
	slot.wait()
	return ql, driftL, slot.out, slot.drift
}

var (
	// stepJobs is unbuffered: a send succeeds only when a helper is
	// blocked receiving, that is, idle.
	stepJobs = make(chan *chainStep)
	// stepHelpers counts the helper goroutines started so far. They are
	// started on demand, at most GOMAXPROCS−1 of them, and live for the
	// rest of the process.
	stepHelpers atomic.Int32
)

// stepHelper runs its first chain, then every chain sent on stepJobs.
func stepHelper(c *chainStep) {
	for ; ; c = <-stepJobs {
		c.runOnHelper()
	}
}
