package operators

import (
	"math"

	"github.com/adm-project/adm/internal/storage"
)

// This file implements the three adaptive join algorithms the paper
// cites as the data-operator substrate (§2): the symmetric pipelined
// hash join of Wilschut & Apers [31], XJoin [29] with a reactive
// phase that works on spilled partitions while the sources stall, and
// the blocking classic hash join as the baseline they beat on
// time-to-first-tuple. All run over TimedSources and report
// timestamped outputs.

// RunBlockingHashJoin executes a classic hash join over timed
// sources: the build side must fully arrive before the first probe.
func RunBlockingHashJoin(l, r *TimedSource, lcol, rcol int) RunResult {
	res := newRunResult()
	now := 0.0
	table := map[joinK][]TimedTuple{}
	mem := 0
	// Build phase: wait for every left tuple.
	for !l.Done() {
		if t, ok := l.PollAt(now); ok {
			v := t.Tuple[lcol]
			if !v.IsNull() {
				table[keyOf(v)] = append(table[keyOf(v)], t)
			}
			mem++
			if mem > res.MaxMemTuples {
				res.MaxMemTuples = mem
			}
			continue
		}
		next, _ := l.NextArrival()
		res.IdleMS += next - now
		now = next
	}
	// Probe phase: stream the right side.
	for !r.Done() {
		t, ok := r.PollAt(now)
		if !ok {
			next, _ := r.NextArrival()
			res.IdleMS += next - now
			now = next
			continue
		}
		v := t.Tuple[rcol]
		if v.IsNull() {
			continue
		}
		res.Comparisons++
		for _, b := range table[keyOf(v)] {
			res.emit(TimedOutput{Tuple: concat(b.Tuple, t.Tuple), At: now, LSeq: b.Seq, RSeq: t.Seq})
		}
	}
	res.CompletionMS = now
	return res
}

// RunSymmetricHashJoin executes the pipelined (symmetric) hash join:
// both sides build as they arrive, each new tuple immediately probes
// the opposite table, so results stream from the first match — the
// non-blocking behaviour adaptive query processing is built on.
// Memory is unbounded (both tables live in RAM).
func RunSymmetricHashJoin(l, r *TimedSource, lcol, rcol int) RunResult {
	res := newRunResult()
	now := 0.0
	hl := map[joinK][]TimedTuple{}
	hr := map[joinK][]TimedTuple{}
	mem := 0
	for !l.Done() || !r.Done() {
		progressed := false
		if t, ok := l.PollAt(now); ok {
			progressed = true
			v := t.Tuple[lcol]
			if !v.IsNull() {
				k := keyOf(v)
				hl[k] = append(hl[k], t)
				res.Comparisons++
				for _, m := range hr[k] {
					res.emit(TimedOutput{Tuple: concat(t.Tuple, m.Tuple), At: now, LSeq: t.Seq, RSeq: m.Seq})
				}
			}
			mem++
		}
		if t, ok := r.PollAt(now); ok {
			progressed = true
			v := t.Tuple[rcol]
			if !v.IsNull() {
				k := keyOf(v)
				hr[k] = append(hr[k], t)
				res.Comparisons++
				for _, m := range hl[k] {
					res.emit(TimedOutput{Tuple: concat(m.Tuple, t.Tuple), At: now, LSeq: m.Seq, RSeq: t.Seq})
				}
			}
			mem++
		}
		if mem > res.MaxMemTuples {
			res.MaxMemTuples = mem
		}
		if !progressed {
			next := math.Inf(1)
			if a, ok := l.NextArrival(); ok {
				next = math.Min(next, a)
			}
			if a, ok := r.NextArrival(); ok {
				next = math.Min(next, a)
			}
			if math.IsInf(next, 1) {
				break
			}
			res.IdleMS += next - now
			now = next
		}
	}
	res.CompletionMS = now
	return res
}

// XJoinConfig parameterises RunXJoin.
type XJoinConfig struct {
	// MemTuplesPerSide caps each side's in-memory hash table; excess
	// tuples spill to "disk" partitions.
	MemTuplesPerSide int
	// ReactiveBatch is how many spilled tuples one reactive step
	// processes while the sources are stalled.
	ReactiveBatch int
	// ReactiveStepMS is the simulated cost of one reactive step.
	ReactiveStepMS float64
}

// DefaultXJoinConfig returns a small-memory configuration.
func DefaultXJoinConfig() XJoinConfig {
	return XJoinConfig{MemTuplesPerSide: 128, ReactiveBatch: 32, ReactiveStepMS: 1}
}

// RunXJoin executes an XJoin-style three-stage join: stage 1 is the
// symmetric in-memory join over bounded tables with overflow spilled;
// stage 2 (reactive) joins spilled tuples against the opposite
// in-memory table whenever both sources are stalled — producing
// results during delays the blocking join would waste; stage 3
// (cleanup) completes all remaining pairs after the sources end.
// Duplicate results are suppressed with a (LSeq,RSeq) pair set, the
// role the original plays with timestamp ranges.
func RunXJoin(l, r *TimedSource, lcol, rcol int, cfg XJoinConfig) RunResult {
	if cfg.MemTuplesPerSide <= 0 {
		cfg = DefaultXJoinConfig()
	}
	res := newRunResult()
	now := 0.0
	type side struct {
		mem     map[joinK][]TimedTuple
		memN    int
		disk    []TimedTuple
		diskIdx map[joinK][]TimedTuple // hash over spilled tuples
		col     int
		cur     int // reactive-stage cursor into disk
	}
	L := &side{mem: map[joinK][]TimedTuple{}, diskIdx: map[joinK][]TimedTuple{}, col: lcol}
	R := &side{mem: map[joinK][]TimedTuple{}, diskIdx: map[joinK][]TimedTuple{}, col: rcol}
	seen := map[uint64]struct{}{}
	pairKey := func(ls, rs int) uint64 { return uint64(ls)<<32 | uint64(uint32(rs)) }
	emit := func(lt, rt TimedTuple, at float64) {
		k := pairKey(lt.Seq, rt.Seq)
		if _, dup := seen[k]; dup {
			return
		}
		seen[k] = struct{}{}
		res.emit(TimedOutput{Tuple: concat(lt.Tuple, rt.Tuple), At: at, LSeq: lt.Seq, RSeq: rt.Seq})
	}

	admit := func(s, o *side, t TimedTuple, leftSide bool) {
		v := t.Tuple[s.col]
		if v.IsNull() {
			return
		}
		k := keyOf(v)
		// Probe opposite memory table.
		res.Comparisons++
		for _, m := range o.mem[k] {
			if leftSide {
				emit(t, m, now)
			} else {
				emit(m, t, now)
			}
		}
		if s.memN < cfg.MemTuplesPerSide {
			s.mem[k] = append(s.mem[k], t)
			s.memN++
		} else {
			s.disk = append(s.disk, t)
			s.diskIdx[k] = append(s.diskIdx[k], t)
		}
		if s.memN > res.MaxMemTuples {
			res.MaxMemTuples = s.memN
		}
	}

	reactive := func(deadline float64) {
		// Join spilled tuples against the opposite memory table,
		// advancing a cursor through each disk run so every spilled
		// tuple is covered; charging simulated time per step. The
		// stage ends when the cursors exhaust the spilled runs or the
		// next arrival is due.
		for now+cfg.ReactiveStepMS <= deadline && (L.cur < len(L.disk) || R.cur < len(R.disk)) {
			for i := 0; i < cfg.ReactiveBatch && L.cur < len(L.disk); i++ {
				t := L.disk[L.cur]
				L.cur++
				k := keyOf(t.Tuple[L.col])
				res.Comparisons++
				// Arrival already probed the opposite memory table;
				// the pairs stage 1 cannot have seen are disk×disk.
				for _, m := range R.diskIdx[k] {
					emit(t, m, now+cfg.ReactiveStepMS)
				}
			}
			for i := 0; i < cfg.ReactiveBatch && R.cur < len(R.disk); i++ {
				t := R.disk[R.cur]
				R.cur++
				k := keyOf(t.Tuple[R.col])
				res.Comparisons++
				for _, m := range L.diskIdx[k] {
					emit(m, t, now+cfg.ReactiveStepMS)
				}
			}
			now += cfg.ReactiveStepMS
		}
		if now < deadline {
			res.IdleMS += deadline - now
			now = deadline
		}
	}

	for !l.Done() || !r.Done() {
		progressed := false
		if t, ok := l.PollAt(now); ok {
			admit(L, R, t, true)
			progressed = true
		}
		if t, ok := r.PollAt(now); ok {
			admit(R, L, t, false)
			progressed = true
		}
		if !progressed {
			next := math.Inf(1)
			if a, ok := l.NextArrival(); ok {
				next = math.Min(next, a)
			}
			if a, ok := r.NextArrival(); ok {
				next = math.Min(next, a)
			}
			if math.IsInf(next, 1) {
				break
			}
			// Stage 2: sources stalled until `next` — do reactive work.
			reactive(next)
		}
	}
	// Stage 3: cleanup — every remaining pair combination, through the
	// dedup set. Memory and disk contents of each side join the
	// opposite side's full contents.
	allOf := func(s *side) []TimedTuple {
		var out []TimedTuple
		for _, b := range s.mem {
			out = append(out, b...)
		}
		return append(out, s.disk...)
	}
	lAll, rAll := allOf(L), allOf(R)
	rByKey := map[joinK][]TimedTuple{}
	for _, t := range rAll {
		rByKey[keyOf(t.Tuple[R.col])] = append(rByKey[keyOf(t.Tuple[R.col])], t)
	}
	for _, lt := range lAll {
		res.Comparisons++
		for _, rt := range rByKey[keyOf(lt.Tuple[L.col])] {
			emit(lt, rt, now)
		}
	}
	res.CompletionMS = now
	return res
}

// ---------------------------------------------------------------------------
// Ripple join for online aggregation [14].

// RipplePoint is one point of the running-estimate trajectory.
type RipplePoint struct {
	At       float64
	Sampled  int // total tuples consumed from both sides
	Estimate float64
	// Fraction of the full cross product inspected.
	Fraction float64
	// HalfWidth is a CLT-style half-confidence-interval on the
	// estimate (0 until enough contribution variance is observed) —
	// the shrinking error bar online aggregation shows the user.
	HalfWidth float64
}

// RippleResult is the outcome of a ripple-join run.
type RippleResult struct {
	Trajectory []RipplePoint
	FinalSum   float64
	// Exact is the true aggregate (available because the run completes).
	Exact float64
}

// RunRippleJoin executes a square ripple join computing
// SUM(valCol of L) over matching pairs (lcol = rcol), emitting a
// scaled running estimate after every sampling step. The estimator is
// the classic |L||R|/(l·r) scale-up of the partial sum; as sampling
// completes, the estimate converges to the exact answer.
func RunRippleJoin(l, r *TimedSource, lcol, rcol, valCol int, reportEvery int) RippleResult {
	res := RippleResult{}
	now := 0.0
	var seenL, seenR []TimedTuple
	partial := 0.0
	totL := l.Remaining()
	totR := r.Remaining()
	if reportEvery < 1 {
		reportEvery = 16
	}
	consumed := 0
	// Welford accumulator over per-step contributions, for the
	// CLT-style confidence half-width (an approximation in the spirit
	// of, not identical to, the Haas ripple-join estimator).
	var deltaMean, deltaM2 float64
	step := func(t TimedTuple, mine *[]TimedTuple, others []TimedTuple, leftSide bool) {
		before := partial
		*mine = append(*mine, t)
		for _, o := range others {
			var lv, rv storage.Value
			var lt storage.Tuple
			if leftSide {
				lv, rv, lt = t.Tuple[lcol], o.Tuple[rcol], t.Tuple
			} else {
				lv, rv, lt = o.Tuple[lcol], t.Tuple[rcol], o.Tuple
			}
			if lv.IsNull() || rv.IsNull() {
				continue
			}
			if storage.Equal(lv, rv) {
				if f, ok := lt[valCol].AsFloat(); ok {
					partial += f
				}
			}
		}
		consumed++
		delta := partial - before
		dm := delta - deltaMean
		deltaMean += dm / float64(consumed)
		deltaM2 += dm * (delta - deltaMean)
		if consumed%reportEvery == 0 {
			lN, rN := len(seenL), len(seenR)
			if lN > 0 && rN > 0 {
				scale := (float64(totL) / float64(lN)) * (float64(totR) / float64(rN))
				half := 0.0
				if consumed > 1 {
					variance := deltaM2 / float64(consumed-1)
					n := float64(consumed)
					total := float64(totL + totR)
					fpc := 1 - n/total
					if fpc < 0 {
						fpc = 0
					}
					half = 1.96 * scale * math.Sqrt(n*variance*fpc)
				}
				res.Trajectory = append(res.Trajectory, RipplePoint{
					At:        now,
					Sampled:   consumed,
					Estimate:  partial * scale,
					Fraction:  float64(lN*rN) / float64(totL*totR),
					HalfWidth: half,
				})
			}
		}
	}
	for !l.Done() || !r.Done() {
		progressed := false
		// Square growth: prefer the side with fewer samples.
		preferL := len(seenL) <= len(seenR)
		tryOrder := []*TimedSource{l, r}
		if !preferL {
			tryOrder[0], tryOrder[1] = r, l
		}
		for _, src := range tryOrder {
			if t, ok := src.PollAt(now); ok {
				if src == l {
					step(t, &seenL, seenR, true)
				} else {
					step(t, &seenR, seenL, false)
				}
				progressed = true
				break
			}
		}
		if !progressed {
			next := math.Inf(1)
			if a, ok := l.NextArrival(); ok {
				next = math.Min(next, a)
			}
			if a, ok := r.NextArrival(); ok {
				next = math.Min(next, a)
			}
			if math.IsInf(next, 1) {
				break
			}
			now = next
		}
	}
	res.FinalSum = partial
	res.Exact = partial // the run sampled everything
	// Final trajectory point at full coverage.
	res.Trajectory = append(res.Trajectory, RipplePoint{
		At: now, Sampled: consumed, Estimate: partial, Fraction: 1,
	})
	return res
}
