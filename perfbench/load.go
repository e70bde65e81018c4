package main

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Tally counts operations attempted and failed. A failed operation is a
// non-2xx answer (refusals such as 429 and 408 included) or a transport
// error; it also counts as missing every latency limit.
type Tally struct {
	Attempted, Failed int
}

func (t *Tally) add(o Tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
}

// FailedFrac is Failed over Attempted (0 when nothing was attempted).
func (t Tally) FailedFrac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

// OpenLoopResult is what an open-loop phase measured.
type OpenLoopResult struct {
	Tally
	// Latencies are in ms, indexed by request, each from the time the
	// request was due; a failed request is +Inf.
	Latencies []float64
	// Lateness is in ms: how long after its due time each request was
	// sent, which shows when the generator itself fell behind.
	Lateness []float64
}

// append adds another phase's requests to r.
func (r *OpenLoopResult) append(o OpenLoopResult) {
	r.add(o.Tally)
	r.Latencies = append(r.Latencies, o.Latencies...)
	r.Lateness = append(r.Lateness, o.Lateness...)
}

// timerGranule is the resolution of sleeps on the hosts this runs on:
// a shorter sleep overshoots by up to one granule.
const timerGranule = time.Millisecond

// runOpenLoop sends requests on a fixed schedule: request i is due at
// start + i/rate, whether or not earlier requests have completed, using
// up to workers concurrent requests, until dur has passed or ctx ends.
// Each latency is timed from the due
// time, so a stall also charges the requests queued behind it. To keep
// timer overshoot out of the latencies, the generator sleeps whole
// granules only and may send up to one granule early; an early request
// is timed from when it was sent.
func runOpenLoop(ctx context.Context, rate float64, dur time.Duration, workers int, op func(i int) error) OpenLoopResult {
	n := int(rate * dur.Seconds())
	interval := float64(time.Second) / rate
	start := time.Now()
	var next atomic.Int64
	var mu sync.Mutex
	res := OpenLoopResult{Latencies: make([]float64, n), Lateness: make([]float64, n)}
	for i := range res.Latencies {
		res.Latencies[i] = math.NaN() // not sent: ctx ended first
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				if d := time.Until(due).Truncate(timerGranule); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				err := op(i)
				lat := ms(time.Since(earlier(due, sent)))
				mu.Lock()
				res.Attempted++
				if err != nil {
					res.Failed++
					lat = math.Inf(1)
				}
				res.Latencies[i] = lat
				res.Lateness[i] = ms(max(0, sent.Sub(due)))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sent := 0
	for i, lat := range res.Latencies {
		if !math.IsNaN(lat) {
			res.Latencies[sent], res.Lateness[sent] = lat, res.Lateness[i]
			sent++
		}
	}
	res.Latencies, res.Lateness = res.Latencies[:sent], res.Lateness[:sent]
	return res
}

// ClosedLoopResult is what a closed-loop phase measured.
type ClosedLoopResult struct {
	Tally
	// Completed counts successful operations.
	Completed int
	Elapsed   time.Duration
}

// PerSecond is successful operations per second.
func (r ClosedLoopResult) PerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Elapsed.Seconds()
}

// capacity is the median of the phases' successful operations per
// second.
func capacity(phases []ClosedLoopResult) float64 {
	rates := make([]float64, len(phases))
	for i, p := range phases {
		rates[i] = p.PerSecond()
	}
	return median(rates)
}

// runClosedLoop runs clients that each send their next request only
// after the previous one completed, until dur has passed.
func runClosedLoop(ctx context.Context, dur time.Duration, clients int, op func(client, i int) error) ClosedLoopResult {
	start := time.Now()
	deadline := start.Add(dur)
	var mu sync.Mutex
	var res ClosedLoopResult
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t Tally
			completed := 0
			for i := 0; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
				t.Attempted++
				if err := op(c, i); err != nil {
					t.Failed++
					continue
				}
				completed++
			}
			mu.Lock()
			res.add(t)
			res.Completed += completed
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res
}

func earlier(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
