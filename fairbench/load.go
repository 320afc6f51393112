package main

import (
	"math"
	"slices"
	"sync"
	"time"
)

// opFunc issues request i of client c and reports its outcome.
type opFunc func(c, i int) outcome

// outcome is one request: its latency (send to the last byte of the reply,
// without the answer check), the queries it answered, whether it succeeded
// (transport, status and answer check all passed), and optional tagged
// parts whose latencies are also recorded under their tags.
type outcome struct {
	lat     time.Duration
	queries int
	ok      bool
	parts   []part
}

// part is a tagged share of a request's latency: the whole request under
// its entry role, or one of a bulk-batch round's batches under its engine.
type part struct {
	tag string
	lat time.Duration
}

// loopResult is one closed-loop phase.
type loopResult struct {
	lat       []float64            // µs per request
	end       []time.Duration      // per request: when it returned, from the phase start
	byTag     map[string][]float64 // µs per request, by tag
	queries   int                  // queries answered
	attempted int
	failed    int
	elapsed   time.Duration // from the common start to the last reply
}

// closedLoop runs clients goroutines, each sending its next request only
// after the previous one returned, until dur has passed since their common
// start. It waits for every client before returning.
func closedLoop(clients int, dur time.Duration, op opFunc) loopResult {
	results := make([]loopResult, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline) || i == 0; i++ {
				results[c].record(op(c, i), time.Since(start))
			}
		}(c)
	}
	wg.Wait()
	return mergeAll(results)
}

// lockStep is closedLoop with the clients in step: each round sends one
// request per client at once and waits for all of them. Free-running
// clients drift between overlapping and staggered requests, and a batch's
// latency differs between the two by up to 40% for seconds at a time, which
// made run medians jump; in step, the overlap is the same in every round.
func lockStep(clients int, dur time.Duration, op opFunc) loopResult {
	results := make([]loopResult, clients)
	start := time.Now()
	deadline := start.Add(dur)
	for i := 0; time.Now().Before(deadline) || i == 0; i++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				results[c].record(op(c, i), time.Since(start))
			}(c)
		}
		wg.Wait()
	}
	return mergeAll(results)
}

// record adds one request's outcome, returned done after the phase start.
func (r *loopResult) record(o outcome, done time.Duration) {
	r.lat = append(r.lat, float64(o.lat.Nanoseconds())/1e3)
	r.end = append(r.end, done)
	for _, p := range o.parts {
		if r.byTag == nil {
			r.byTag = map[string][]float64{}
		}
		r.byTag[p.tag] = append(r.byTag[p.tag], float64(p.lat.Nanoseconds())/1e3)
	}
	r.attempted++
	if o.ok {
		r.queries += o.queries
	} else {
		r.failed++
	}
	r.elapsed = done
}

func mergeAll(results []loopResult) loopResult {
	out := loopResult{byTag: map[string][]float64{}}
	for _, r := range results {
		out.merge(r)
	}
	return out
}

func (l *loopResult) merge(r loopResult) {
	l.lat = append(l.lat, r.lat...)
	l.end = append(l.end, r.end...)
	for k, v := range r.byTag {
		l.byTag[k] = append(l.byTag[k], v...)
	}
	l.queries += r.queries
	l.attempted += r.attempted
	l.failed += r.failed
	l.elapsed = max(l.elapsed, r.elapsed)
}

// timeWindows is the number of windows the timed phase is cut into; at the
// benchmark's 20 s runs a window spans one patch-churn round, so every
// window holds the same share of reads that contend with a PATCH.
const timeWindows = 10

// windows cuts the phase's latencies into n equal windows by completion
// time and returns the windows that hold any.
func (l loopResult) windows(n int) [][]float64 {
	span := l.elapsed / time.Duration(n)
	if span <= 0 {
		return [][]float64{l.lat}
	}
	all := make([][]float64, n)
	for k, at := range l.end {
		i := min(int(at/span), n-1)
		all[i] = append(all[i], l.lat[k])
	}
	var out [][]float64
	for _, w := range all {
		if len(w) > 0 {
			out = append(out, w)
		}
	}
	return out
}

// qps is queries answered per second of the phase.
func (l loopResult) qps() float64 {
	if l.elapsed <= 0 {
		return 0
	}
	return float64(l.queries) / l.elapsed.Seconds()
}

// quantile is the nearest-rank q-quantile of xs (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// trimmedMean is the mean of xs without its highest and lowest 5% (0 for
// an empty slice): a mean that one GC pause or descheduling does not move.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	cut := len(s) / 20
	s = s[cut : len(s)-cut]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}
