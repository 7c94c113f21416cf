package resilient

import (
	"math"
	"time"

	"lrd/internal/obs"
)

// latencyHist holds successful request latencies, in seconds, in an
// obs.Histogram, the lock-free log₂ histogram behind /metrics. Its
// factor-of-two resolution is plenty for a hedge trigger, and observing
// allocates nothing.
type latencyHist struct {
	h obs.Histogram
}

// minHedgeSamples gates the adaptive hedge delay: below this many
// observations the quantile is noise and the static HedgeAfter rules.
const minHedgeSamples = 8

func (h *latencyHist) observe(d time.Duration) {
	if d <= 0 {
		return
	}
	h.h.Observe(d.Seconds())
}

// quantile returns an upper bound on the q-th latency quantile (the top of
// its bucket), or ok=false before minHedgeSamples observations.
func (h *latencyHist) quantile(q float64) (time.Duration, bool) {
	bound, n := h.h.QuantileBound(q)
	if n < minHedgeSamples {
		return 0, false
	}
	// The top bucket's bound is +Inf: cap the bound at 2⁶² ns (about 146
	// years) so it converts to a Duration.
	return time.Duration(math.Min(bound*float64(time.Second), 1<<62)), true
}
