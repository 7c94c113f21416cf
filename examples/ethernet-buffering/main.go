// Ethernet buffering: the "buffer ineffectiveness" phenomenon.
//
// For short-range dependent traffic the loss rate decays exponentially in
// the buffer size (the classical Anick–Mitra–Sondhi result), so adding
// buffer is cheap insurance. For LAN traffic with correlation over many
// time scales (the Bellcore measurements, H ≈ 0.9) the decay flattens
// dramatically. This example puts the two side by side: a Bellcore-like
// LRD source solved with the paper's procedure versus an exponential
// on/off source with the same mean and utilization in closed form.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"lrd"
)

func main() {
	// Bellcore-like Ethernet source: wide, spiky marginal, H = 0.9.
	tr, err := lrd.SynthesizeTrace(lrd.TraceConfig{
		Name:     "ethernet",
		Hurst:    0.9,
		Bins:     1 << 14,
		BinWidth: 0.01,
		Quantile: lrd.LognormalQuantile(1.3, 1.3),
	}, rand.New(rand.NewSource(9)))
	if err != nil {
		log.Fatal(err)
	}
	tm, err := lrd.BuildTraceModel(tr, 0.9)
	if err != nil {
		log.Fatal(err)
	}

	const util = 0.4 // the paper's Bellcore operating point
	meanRate := tm.Marginal.Mean()
	service := meanRate / util

	// SRD baseline: exponential on/off with the same mean rate, peak at
	// 2.5× the service... use peak = marginal max for comparability, and
	// on/off rates chosen to match the mean epoch duration of the trace.
	peak := tm.Marginal.Max()
	pOn := meanRate / peak
	cycle := tm.MeanEpoch * 2 // one on+off cycle spans two model epochs
	amsQ := lrd.AMSQueue{
		OnRate:      peak,
		OffToOn:     1 / (cycle * (1 - pOn)), // mean off period = cycle·(1−pOn)
		OnToOff:     1 / (cycle * pOn),       // mean on period  = cycle·pOn
		ServiceRate: service,
	}
	if err := amsQ.Validate(); err != nil {
		log.Fatal(err)
	}

	buffers := []float64{0.1, 0.3, 1, 3, 10}
	fmt.Printf("utilization %.0f%%, mean rate %.3g Mb/s, service %.3g Mb/s\n\n", util*100, meanRate, service)
	fmt.Printf("%10s  %16s  %16s\n", "buffer", "LRD loss (model)", "SRD bound (AMS)")
	var lrdLosses []float64
	for _, b := range buffers {
		src, err := tm.Source(math.Inf(1)) // fully correlated
		if err != nil {
			log.Fatal(err)
		}
		m, err := lrd.NewModelNormalized(lrd.NewFluidSource(src), util, b)
		if err != nil {
			log.Fatal(err)
		}
		res, err := lrd.Solve(m, lrd.SolverConfig{})
		if err != nil {
			log.Fatal(err)
		}
		lrdLosses = append(lrdLosses, res.Loss)
		fmt.Printf("%9.4gs  %16.4g  %16.4g\n", b, res.Loss, amsQ.LossUpperBound(b*service))
	}

	first, last := lrdLosses[0], math.Max(lrdLosses[len(lrdLosses)-1], 1e-10)
	fmt.Printf("\n100× more buffer reduced the LRD loss only %.3gx;\n", first/last)
	srdFirst := amsQ.LossUpperBound(buffers[0] * service)
	srdLast := amsQ.LossUpperBound(buffers[len(buffers)-1] * service)
	fmt.Printf("the exponential on/off baseline drops %.3gx over the same range.\n", srdFirst/math.Max(srdLast, 1e-300))
	fmt.Println("Large buffers only help short-range dependent traffic (paper §IV).")
}
