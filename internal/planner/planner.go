// Package planner is the statistics-free adaptive batch planner behind
// Designer.SuggestBatch. For every batch it decides — from cheap runtime
// observables only, never from offline tuning tables — how the queries reach
// the engine kernel:
//
//   - Dedup: identical queries (bit-for-bit) are answered once and the
//     answer fans back out to every duplicate slot. Real traffic is
//     duplicate-heavy (many users probing the same handful of hot
//     directions), and for the exact engine one collapsed duplicate saves a
//     millisecond-scale NLP solve.
//   - Locality order: surviving queries are sorted so angular neighbors are
//     adjacent (2D: the polar angle; d > 2: sign pattern, then dominant
//     coordinate, then normalized leading coordinates), which lets the
//     resumable kernels (engine.Engine.SuggestBatchSorted) re-enter the
//     index from the previous query's cursor instead of re-descending.
//   - Chunking: the schedule is cut into contiguous chunks sized from the
//     kernel-cost EWMA and handed out through a shared queue, so slow chunks
//     don't straggle and nanosecond-cheap batches skip the fan-out entirely.
//
// The observables are the batch itself (size, dimension) plus two EWMAs the
// planner feeds back after every batch: kernel nanoseconds per query and the
// observed duplicate rate. That is the whole "statistics": greedy decisions
// from what the last batches actually cost, in the spirit of the
// greedy-beats-optimal, no-statistics query planning lesson. Every decision
// is advisory — the schedule is a permutation plus fan-out, and the kernels
// validate their cursors — so answers are byte-identical to the naive
// per-query loop regardless of what the planner picks.
package planner

import (
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"

	"fairrank/internal/geom"
)

// Planning thresholds. These are deliberately coarse: the feedback EWMAs do
// the per-workload adaptation, the constants only bound the regimes.
const (
	// minPlanBatch is the batch size below which planning (hashing, sorting,
	// permutation bookkeeping) cannot pay for itself; smaller batches pass
	// through to the stateless kernel on the caller's goroutine.
	minPlanBatch = 16
	// minSortBatch is the schedule size below which locality sorting is not
	// attempted at all.
	minSortBatch = 64
	// sortCmpNs approximates one comparison of the locality sort; sorting
	// costs ~log2(B) of these per query and must be clearly cheaper than the
	// kernel work it hopes to save.
	sortCmpNs = 24.0
	// sortPayFactor: sort only when the kernel EWMA exceeds the estimated
	// per-query sort cost by this factor, so nanosecond-cheap kernels (the
	// warm 2D index) never pay a sort that costs more than the lookup.
	sortPayFactor = 4.0
	// targetChunkNs sizes chunks so each queue claim hands a worker roughly
	// this much kernel work: large enough to amortize the claim and scratch
	// reuse, small enough that the shared queue evens out per-chunk skew.
	targetChunkNs = 200e3
	// serialCutoffNs: batches whose estimated total kernel work is below
	// this run on the caller's goroutine — spawning workers costs more than
	// it saves.
	serialCutoffNs = 32e3
	// defaultKernelNs seeds the cost model before the first observation; it
	// is deliberately high (a mid-range engine) so the first batches probe
	// the planned path and the EWMA corrects from there.
	defaultKernelNs = 2000.0
	// minDupRate is the duplicate-rate EWMA below which dedup hashing is
	// skipped (all-unique workloads shouldn't pay per-slot map inserts).
	minDupRate = 0.02
	// dedupPayNs approximates the per-slot cost of the dedup pass (hash,
	// map probe, fan-out copy). Dedup runs only when the kernel work it is
	// expected to save — dup rate × kernel EWMA — exceeds it, so a
	// nanosecond-cheap kernel (the 2D index at ~100ns/query) never pays
	// more for hashing than the lookups it would collapse, while the grid
	// and exact engines (micro- to millisecond kernels) always do.
	dedupPayNs = 120.0
	// dupProbePeriod: every dupProbePeriod-th batch re-measures the
	// duplicate rate so the EWMA tracks workload shifts even while dedup
	// itself is gated off.
	dupProbePeriod = 32
	// dupSampleSize caps the probe's hashing: a prefix sample is enough to
	// estimate the duplicate rate, so probe batches cost O(sample), not
	// O(batch).
	dupSampleSize = 64
	// ewmaAlpha is the feedback smoothing factor: one observation moves the
	// estimate 30% of the way, so a workload shift settles within a few
	// batches without single-batch noise whipsawing the plan.
	ewmaAlpha = 0.3
	// minChunk floors the chunk size so the queue never degrades into
	// per-query claims.
	minChunk = 8
)

// State is the per-Designer planner state: the feedback EWMAs and the
// cumulative counters exposed through /metrics. The zero value is ready to
// use. All fields are atomics — SuggestBatch is called concurrently and the
// EWMA updates are racy-but-monotone-harmless by design (a lost update is
// one lost observation).
type State struct {
	ewmaKernelNs atomic.Uint64 // float64 bits; 0 = no observation yet
	ewmaDupRate  atomic.Uint64 // float64 bits
	dupObs       atomic.Int64  // dedup passes observed; 0 = dup rate unknown

	batches        atomic.Int64
	plannedBatches atomic.Int64
	sortedBatches  atomic.Int64
	slots          atomic.Int64
	dedupedSlots   atomic.Int64
	resumeHits     atomic.Int64
	lastChunk      atomic.Int64
}

// Stats is a point-in-time copy of the planner counters.
type Stats struct {
	Batches        int64   // SuggestBatch calls planned or passed through
	PlannedBatches int64   // batches that got a schedule (dedup/sort/chunks)
	SortedBatches  int64   // planned batches whose schedule was locality-sorted
	Slots          int64   // query slots seen
	DedupedSlots   int64   // slots answered by duplicate fan-out
	ResumeHits     int64   // kernel cursor reuses reported by resumable kernels
	LastChunkSize  int64   // chunk size of the most recent planned batch
	KernelNsEWMA   float64 // smoothed kernel cost per kept query
	DupRateEWMA    float64 // smoothed duplicate-slot fraction
}

// Stats snapshots the counters.
func (st *State) Stats() Stats {
	return Stats{
		Batches:        st.batches.Load(),
		PlannedBatches: st.plannedBatches.Load(),
		SortedBatches:  st.sortedBatches.Load(),
		Slots:          st.slots.Load(),
		DedupedSlots:   st.dedupedSlots.Load(),
		ResumeHits:     st.resumeHits.Load(),
		LastChunkSize:  st.lastChunk.Load(),
		KernelNsEWMA:   math.Float64frombits(st.ewmaKernelNs.Load()),
		DupRateEWMA:    math.Float64frombits(st.ewmaDupRate.Load()),
	}
}

// kernelNs returns the smoothed kernel cost per query, or the optimistic
// prior before any observation.
func (st *State) kernelNs() float64 {
	if v := math.Float64frombits(st.ewmaKernelNs.Load()); v > 0 {
		return v
	}
	return defaultKernelNs
}

// Plan is one batch's schedule. A zero Reps/SlotOf (pass-through) means the
// kernel runs over the caller's queries in their original order; otherwise
// the batch layer gathers Queries, runs the kernel over them chunk by chunk,
// and scatters raw answer k back to every original slot i with SlotOf[i] == k.
type Plan struct {
	// Queries is the kernel schedule: deduplicated queries in locality
	// order. Nil for pass-through plans.
	Queries []geom.Vector
	// Reps[k] is the original slot whose query Queries[k] is; that slot
	// receives the kernel's answer verbatim (duplicate slots get copies).
	Reps []int
	// SlotOf[i] is the schedule position answering original slot i.
	SlotOf []int
	// ChunkSize and Workers are the execution shape: ceil(len/ChunkSize)
	// contiguous chunks claimed from a shared queue by Workers goroutines
	// (Workers == 1: everything runs on the caller's goroutine).
	ChunkSize int
	Workers   int
	// Sorted records that the schedule is in locality order (resumable
	// kernels profit; correctness never depends on it).
	Sorted bool
	// Deduped records that duplicate hashing ran (even if nothing repeated).
	Deduped bool

	dupSlots int
}

// PassThrough reports that the plan keeps the caller's order and slots.
func (p *Plan) PassThrough() bool { return p.Queries == nil }

// Describe summarizes the plan's decisions in one short line — the trace
// annotation for the "planner" stage of a batch request. It appends into a
// stack buffer rather than calling fmt.Sprintf, which boxes every int of 256
// or more into an allocated interface: the note would then cost more
// allocations for a large batch than for a small one.
func (p *Plan) Describe() string {
	var buf [128]byte
	b := buf[:0]
	if p.PassThrough() {
		b = append(b, "pass-through chunk="...)
		b = strconv.AppendInt(b, int64(p.ChunkSize), 10)
	} else {
		b = append(b, "kernel_slots="...)
		b = strconv.AppendInt(b, int64(len(p.Queries)), 10)
		b = append(b, " dup_slots="...)
		b = strconv.AppendInt(b, int64(p.dupSlots), 10)
		b = append(b, " sorted="...)
		b = strconv.AppendBool(b, p.Sorted)
		b = append(b, " chunk="...)
		b = strconv.AppendInt(b, int64(p.ChunkSize), 10)
	}
	b = append(b, " workers="...)
	return string(strconv.AppendInt(b, int64(p.Workers), 10))
}

// Plan decides one batch's schedule from the current observables. qs is not
// modified; the returned plan references it only through indices.
func (st *State) Plan(qs []geom.Vector) Plan {
	b := len(qs)
	batchNo := st.batches.Add(1)
	st.slots.Add(int64(b))

	kns := st.kernelNs()
	if b < minPlanBatch {
		return st.chunked(Plan{}, b, kns)
	}

	// Dedup when the kernel work duplicates would save (dup rate × kernel
	// EWMA) exceeds the hashing cost — never before the first observation,
	// which hashes to seed the dup-rate EWMA. While the gate is off, the
	// periodic probe re-samples the duplicate rate cheaply so a workload
	// drifting from unique to duplicate-heavy is noticed within
	// dupProbePeriod batches.
	dupRate := math.Float64frombits(st.ewmaDupRate.Load())
	tryDedup := st.dupObs.Load() == 0 ||
		(dupRate >= minDupRate && dupRate*kns >= dedupPayNs)
	if !tryDedup && batchNo%dupProbePeriod == 0 {
		dupRate = st.probeDupRate(qs)
		tryDedup = dupRate >= minDupRate && dupRate*kns >= dedupPayNs
	}

	// Sort when the kernel is expensive enough that saving index descents
	// can pay for the comparisons. Pass-through batches skip the gather, so
	// sorting also requires the dedup pass (which builds the permutation
	// arrays anyway); a kernel worth sorting for dwarfs the hash cost.
	sortCost := sortCmpNs * math.Log2(float64(b))
	trySort := b >= minSortBatch && kns >= sortPayFactor*sortCost

	if !tryDedup && !trySort {
		return st.chunked(Plan{}, b, kns)
	}

	p := Plan{
		Reps:   make([]int, 0, b),
		SlotOf: make([]int, b),
	}
	first := firstSlots(qs)
	for i := range qs {
		if j := first[i]; j != i {
			p.SlotOf[i] = p.SlotOf[j]
			p.dupSlots++
			continue
		}
		p.SlotOf[i] = len(p.Reps)
		p.Reps = append(p.Reps, i)
	}
	p.Deduped = true
	st.observeDupRate(float64(p.dupSlots) / float64(b))

	if p.dupSlots == 0 && !trySort {
		// The hash pass found nothing and sorting isn't worth it: drop the
		// schedule and pass the batch through untouched.
		return st.chunked(Plan{}, b, kns)
	}

	if trySort {
		// SlotOf holds insertion-order positions; sorting permutes Reps, so
		// translate old position → new position through the representative
		// slot each old position pointed at.
		oldReps := append([]int(nil), p.Reps...)
		sortReps(p.Reps, qs)
		newPosOfRep := make([]int, b)
		for k, rep := range p.Reps {
			newPosOfRep[rep] = k
		}
		oldToNew := make([]int, len(oldReps))
		for oldPos, rep := range oldReps {
			oldToNew[oldPos] = newPosOfRep[rep]
		}
		for i, old := range p.SlotOf {
			p.SlotOf[i] = oldToNew[old]
		}
		p.Sorted = true
		st.sortedBatches.Add(1)
	}

	p.Queries = make([]geom.Vector, len(p.Reps))
	for k, rep := range p.Reps {
		p.Queries[k] = qs[rep]
	}
	st.plannedBatches.Add(1)
	return st.chunked(p, len(p.Reps), kns)
}

// chunked fills the execution shape of a plan: serial below the cutoff,
// otherwise EWMA-sized chunks with at least two per worker so the shared
// queue can even out skew.
func (st *State) chunked(p Plan, kept int, kns float64) Plan {
	workers := runtime.GOMAXPROCS(0)
	if workers > kept {
		workers = kept
	}
	est := kns * float64(kept)
	if workers <= 1 || est < serialCutoffNs {
		p.Workers, p.ChunkSize = 1, kept
		if p.ChunkSize < 1 {
			p.ChunkSize = 1
		}
		st.lastChunk.Store(int64(p.ChunkSize))
		return p
	}
	chunk := int(targetChunkNs / kns)
	if maxc := (kept + 2*workers - 1) / (2 * workers); chunk > maxc {
		chunk = maxc
	}
	if chunk < minChunk {
		chunk = minChunk
	}
	if chunk > kept {
		chunk = kept
	}
	if need := (kept + chunk - 1) / chunk; workers > need {
		workers = need
	}
	p.Workers, p.ChunkSize = workers, chunk
	st.lastChunk.Store(int64(chunk))
	return p
}

// Observe feeds one executed batch back into the planner: the kernel phase's
// wall time over the kept queries drives the cost EWMA, and the resume-hit
// count reported by the kernels lands in the counters.
func (st *State) Observe(p *Plan, kept int, kernelNs float64, resumeHits int64) {
	if kept > 0 && kernelNs > 0 {
		st.observeEWMA(&st.ewmaKernelNs, kernelNs/float64(kept))
	}
	if p.dupSlots > 0 {
		st.dedupedSlots.Add(int64(p.dupSlots))
	}
	if resumeHits > 0 {
		st.resumeHits.Add(resumeHits)
	}
}

// probeDupRate estimates the batch's duplicate fraction from a prefix sample
// and folds it into the EWMA, returning the updated estimate. It costs
// O(dupSampleSize) regardless of batch size, so the planner keeps tracking
// workload drift even while the cost gate keeps full dedup off.
func (st *State) probeDupRate(qs []geom.Vector) float64 {
	n := len(qs)
	if n > dupSampleSize {
		n = dupSampleSize
	}
	dups := 0
	for i, j := range firstSlots(qs[:n]) {
		if j != i {
			dups++
		}
	}
	st.observeDupRate(float64(dups) / float64(n))
	return math.Float64frombits(st.ewmaDupRate.Load())
}

// observeDupRate folds one observed duplicate fraction into its EWMA.
func (st *State) observeDupRate(rate float64) {
	st.dupObs.Add(1)
	st.observeEWMA(&st.ewmaDupRate, rate)
}

// observeEWMA blends x into the float64-bits atomic. Load-blend-store
// without CAS: a concurrent update loses one observation, never corrupts
// the estimate.
func (st *State) observeEWMA(a *atomic.Uint64, x float64) {
	prev := math.Float64frombits(a.Load())
	next := x
	if prev > 0 {
		next = ewmaAlpha*x + (1-ewmaAlpha)*prev
	}
	a.Store(math.Float64bits(next))
}

// firstSlots maps every query to the slot of the first query with the
// identical bit pattern (itself when it is the first): the duplicate
// classes dedup collapses. It probes an open-addressing table of slots keyed
// by a hash of the raw bits and compares candidates bit for bit, so it costs
// two allocations whatever the batch size (a map keyed by byte strings paid
// one per distinct query).
func firstSlots(qs []geom.Vector) []int {
	size := 1
	for size < 2*len(qs) {
		size <<= 1
	}
	table := make([]int32, size) // slot+1; 0 = empty
	mask := uint64(size - 1)
	first := make([]int, len(qs))
	for i, q := range qs {
		for h := hashBits(q) & mask; ; h = (h + 1) & mask {
			e := table[h]
			if e == 0 {
				table[h] = int32(i + 1)
				first[i] = i
				break
			}
			if j := int(e - 1); sameBits(qs[j], q) {
				first[i] = j
				break
			}
		}
	}
	return first
}

// hashBits mixes a query's raw float bits (and its length) into 64 bits.
func hashBits(q geom.Vector) uint64 {
	const m = 0x9e3779b97f4a7c15
	h := uint64(len(q)) * m
	for _, c := range q {
		h = (h ^ math.Float64bits(c)) * m
		h ^= h >> 32
	}
	return h
}

// sameBits reports whether two queries are bit-identical (-0 and +0
// differ, as do NaN payloads — the same rule as the cache key).
func sameBits(a, b geom.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sortReps orders the representative slots for angular locality. 2D sorts by
// the polar angle — the 2D index's one axis. Higher dimensions bucket by the
// coordinate sign pattern, then the dominant coordinate, then the two
// leading normalized coordinates: a cheap proxy that lands angular neighbors
// in the same grid-cell neighborhood without paying a full polar conversion
// per comparison. Ties fall back to the slot index, making the schedule a
// deterministic function of the batch.
func sortReps(reps []int, qs []geom.Vector) {
	type sk struct {
		rep    int
		bucket uint64
		a, b   uint64
	}
	keys := make([]sk, len(reps))
	for i, rep := range reps {
		k := sk{rep: rep}
		q := qs[rep]
		switch {
		case len(q) == 2:
			k.a = orderedBits(math.Atan2(q[1], q[0]))
		case len(q) > 2:
			var signs uint64
			dom, mag, norm2 := 0, 0.0, 0.0
			for j, c := range q {
				if c < 0 && j < 56 {
					signs |= 1 << uint(j)
				}
				norm2 += c * c
				if a := math.Abs(c); a > mag {
					mag, dom = a, j
				}
			}
			k.bucket = signs<<8 | uint64(dom&0xff)
			if norm := math.Sqrt(norm2); norm > 0 {
				k.a = orderedBits(q[0] / norm)
				k.b = orderedBits(q[1] / norm)
			}
		default:
			k.bucket = math.MaxUint64 // malformed queries sort last, together
		}
		keys[i] = k
	}
	slices.SortFunc(keys, func(x, y sk) int {
		switch {
		case x.bucket != y.bucket:
			return cmpU64(x.bucket, y.bucket)
		case x.a != y.a:
			return cmpU64(x.a, y.a)
		case x.b != y.b:
			return cmpU64(x.b, y.b)
		default:
			return x.rep - y.rep
		}
	})
	for i, k := range keys {
		reps[i] = k.rep
	}
}

func cmpU64(a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// orderedBits maps a float64 to a uint64 whose unsigned order matches the
// float order (negatives reversed below positives); NaNs land at the extremes
// consistently, giving the sort a total order over any input.
func orderedBits(f float64) uint64 {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		return ^bits
	}
	return bits | 1<<63
}
