// Morsel-driven parallel execution: the exchange layer that widens
// the batch pipeline across GOMAXPROCS workers. The design follows
// the morsel model (Leis et al.): sources hand out small batches
// ("morsels") to whichever worker is free, so skewed partitions never
// stall the pipeline; the hash join runs as a partitioned build (each
// worker scatters its morsels into W radix partitions, then each
// partition's rows are stored once and chained by hash, independently)
// followed by a partitioned probe against the immutable partitions.
//
// The data plane is batch-native (see batch.go): workers pull into
// sync.Pool-recycled Batches, heap sources decode whole pinned pages
// under one latch acquisition, join keys are comparable structs (no
// per-tuple key formatting or allocation), and probe output is carved
// from per-worker value arenas. Every phase runs its workers through
// fanOut, the package's one goroutine launch: at one worker the phase
// runs inline on the caller's goroutine, so a serial statement and a
// parallel one are the same code.
//
// The build phase honours the Scenario 3 safe-point protocol: an
// optional callback observes the cumulative build cardinality at
// batch granularity from every worker; when any worker's observation
// trips the misestimate check, all workers finish their in-flight
// batch and drain at the phase barrier, and the consumed prefix is
// handed back so the re-optimiser can replan without losing work. The
// prefix counts tuples, not batches, so replay granularity is
// unchanged from the scalar executor.
package operators

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"github.com/adm-project/adm/internal/storage"
)

// ParallelConfig tunes the exchange layer.
type ParallelConfig struct {
	// Workers is the worker-goroutine count; <=0 means GOMAXPROCS.
	Workers int
	// MorselSize is the batch granularity for sources that cut their
	// own morsels; <=0 means DefaultBatchSize. Heap sources use page
	// granularity regardless.
	MorselSize int
	// OnWorker, when non-nil, is invoked from each worker goroutine as
	// it finishes a phase with the number of tuples it processed (the
	// query engine's panic-injection test hook). It must be safe for
	// concurrent use.
	OnWorker func(worker int, phase string, rows int)
	// Limit, when > 0, is a cooperative output quota: workers stop
	// claiming batches as soon as the combined output reaches Limit
	// rows, so a satisfied downstream LIMIT cancels the rest of the
	// scan instead of finishing it. A stream emits exactly min(Limit,
	// rows); a probe may return more (in-flight batches complete), which
	// callers truncate. <= 0 means unlimited.
	Limit int
	// Cancel, when non-nil, is polled by every worker between batches:
	// a non-nil return cancels the statement cooperatively (the error
	// latches into the shared failFlag, all workers drain at the phase
	// barrier, and it surfaces as the statement error). This is how
	// per-statement deadlines and dead-client detection reach the
	// morsel pipelines. Must be safe for concurrent use and cheap — it
	// runs once per claimed batch.
	Cancel func() error
	// Budget, when non-nil, meters the bytes each phase materialises
	// (drained rows, build tables, probe output, sort runs); overflow
	// cancels the statement with ErrMemBudget through the same
	// cooperative path.
	Budget *MemBudget
}

// WorkerCount resolves the effective worker count.
func (c ParallelConfig) WorkerCount() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ---------------------------------------------------------------------------
// Batch sources.

// BatchSource is the engine's one operator protocol: it hands out
// batches of tuples to concurrent workers. NextBatch must be safe for
// concurrent use; it resets and refills b and returns the tuple count,
// 0 with nil error meaning exhausted. Each tuple is handed out exactly
// once, so a partially-consumed source can keep serving the remainder
// to a later phase (how replanning resumes the aborted build side).
// Tuple values must stay valid after b is reused — sources decode
// arena-style or serve stable slices, so consumers may retain tuples
// without copying.
type BatchSource interface {
	NextBatch(b *Batch) (int, error)
}

// HeapBatches serves a heap file page-by-page: workers claim page
// indexes from an atomic cursor over a snapshot of the page list and
// decode each page into their own batch under one read-latch
// acquisition, so the underlying file stays shareable with concurrent
// writers. With a kernel attached, the page read runs it inside the
// claiming worker: first as a veto over the page image's zone summary
// — a vetoed page costs its pin and the check, no visibility pass and
// no copy — then over the image's column vectors, so only survivors
// become rows: the scan+filter pipeline the paper's database machines
// pushed to the disk head, here pushed below the row boundary.
type HeapBatches struct {
	file   *storage.HeapView
	kernel *FilterKernel
	rids   bool
	pages  []storage.PageID
	next   atomic.Int64
}

// NewHeapBatches snapshots file's pages for parallel consumption. The
// kernel, shared by all workers, may be nil: no filtering. With rids
// every batch carries its tuples' RIDs (Batch.RIDs), read from the same
// image of the page as the tuples.
func NewHeapBatches(file *storage.HeapView, kernel *FilterKernel, rids bool) *HeapBatches {
	return &HeapBatches{file: file, kernel: kernel, rids: rids, pages: file.PageIDs()}
}

// NextBatch implements BatchSource; one batch is one page (post
// filter, when a kernel is fused).
func (h *HeapBatches) NextBatch(b *Batch) (int, error) {
	for {
		i := h.next.Add(1) - 1
		if i >= int64(len(h.pages)) {
			b.Reset()
			return 0, nil
		}
		var rids *[]storage.RID
		if h.rids {
			b.RIDs, rids = b.RIDs[:0], &b.RIDs
		}
		var err error
		b.Tuples, err = h.file.ReadPage(h.pages[i], b.Tuples[:0], rids, b.pass.bind(h.kernel))
		if err != nil {
			return 0, err
		}
		if len(b.Tuples) > 0 {
			return len(b.Tuples), nil
		}
	}
}

// SliceBatches serves a tuple slice in fixed-size batches claimed by
// an atomic cursor.
type SliceBatches struct {
	tuples []storage.Tuple
	size   int
	pos    atomic.Int64
}

// NewSliceBatches wraps tuples; size <= 0 means DefaultBatchSize.
func NewSliceBatches(tuples []storage.Tuple, size int) *SliceBatches {
	if size <= 0 {
		size = DefaultBatchSize
	}
	return &SliceBatches{tuples: tuples, size: size}
}

// NextBatch implements BatchSource.
func (s *SliceBatches) NextBatch(b *Batch) (int, error) {
	end := s.pos.Add(int64(s.size))
	start := end - int64(s.size)
	if start >= int64(len(s.tuples)) {
		b.Reset()
		return 0, nil
	}
	if end > int64(len(s.tuples)) {
		end = int64(len(s.tuples))
	}
	b.Tuples = append(b.Tuples[:0], s.tuples[start:end]...)
	return len(b.Tuples), nil
}

// FilterBatches applies a predicate inside the consuming worker by
// compacting each batch in place, so filtering parallelises with the
// scan at zero copies.
type FilterBatches struct {
	src  BatchSource
	pred Predicate
}

// NewFilterBatches wraps src with pred.
func NewFilterBatches(src BatchSource, pred Predicate) *FilterBatches {
	return &FilterBatches{src: src, pred: pred}
}

// NextBatch implements BatchSource.
func (f *FilterBatches) NextBatch(b *Batch) (int, error) {
	for {
		n, err := f.src.NextBatch(b)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, nil
		}
		if k := filterInPlace(b, f.pred); k > 0 {
			return k, nil
		}
	}
}

// ChainBatches serves all of a, then all of b (the replay stream of a
// replanned join: consumed prefix first, then the untouched remainder
// of the aborted source).
type ChainBatches struct {
	a, b  BatchSource
	aDone atomic.Bool
}

// NewChainBatches concatenates two sources.
func NewChainBatches(a, b BatchSource) *ChainBatches { return &ChainBatches{a: a, b: b} }

// NextBatch implements BatchSource.
func (c *ChainBatches) NextBatch(b *Batch) (int, error) {
	if !c.aDone.Load() {
		n, err := c.a.NextBatch(b)
		if err != nil || n > 0 {
			return n, err
		}
		c.aDone.Store(true)
	}
	return c.b.NextBatch(b)
}

// ---------------------------------------------------------------------------
// Drains.

// Count drains src on the calling goroutine and returns its tuple count.
func Count(src BatchSource) (n int, err error) {
	b := GetBatch()
	defer PutBatch(b)
	for {
		k, err := src.NextBatch(b)
		if err != nil || k == 0 {
			return n, err
		}
		n += k
	}
}

// RowEmitter takes a stream's rows; an error fails the stream.
type RowEmitter interface {
	EmitRows(rows []storage.Tuple) error
}

// stream is one StreamParallelBatches run: the failure latch, and the
// lock that serialises the emitter and guards the emitted count.
type stream struct {
	fail    failFlag
	mu      sync.Mutex
	emitted int
	full    atomic.Bool // emitted reached the limit
}

// put hands rows, cut to what the limit leaves, to emit under the lock.
func (s *stream) put(emit RowEmitter, limit int, rows []storage.Tuple) error {
	s.mu.Lock()
	defer s.mu.Unlock() // a panicking emitter must not wedge its peers
	if limit > 0 {
		rows = rows[:min(len(rows), limit-s.emitted)]
		s.full.Store(s.emitted+len(rows) >= limit)
	}
	s.emitted += len(rows)
	return emit.EmitRows(rows)
}

// StreamParallelBatches hands every tuple of src to emit as cfg workers
// claim it, one call at a time with a batch valid only for the call, so
// the stream is never held whole; the order is arbitrary. With cfg.Limit
// > 0 it emits exactly min(Limit, rows), and workers then stop claiming.
func StreamParallelBatches(src BatchSource, cfg ParallelConfig, emit RowEmitter) error {
	s := &stream{}
	fanOut(cfg.WorkerCount(), &s.fail, "scan", func(i int) {
		b := GetBatch()
		defer PutBatch(b)
		rows := 0
		for !s.fail.failed() && !s.full.Load() && !cfg.interrupted(&s.fail) {
			n, err := src.NextBatch(b)
			if err == nil && n > 0 {
				rows += n
				err = s.put(emit, cfg.Limit, b.Tuples)
			}
			if err != nil {
				s.fail.set(err)
			}
			if err != nil || n == 0 {
				break
			}
		}
		if cfg.OnWorker != nil {
			cfg.OnWorker(i, "scan", rows)
		}
	})
	return s.fail.err()
}

// DrainParallelBatches collects what StreamParallelBatches emits,
// charging it to cfg.Budget.
func DrainParallelBatches(src BatchSource, cfg ParallelConfig) ([]storage.Tuple, error) {
	c := &collector{budget: cfg.Budget}
	if err := StreamParallelBatches(src, cfg, c); err != nil {
		return nil, err
	}
	return c.rows, nil
}

// collector is DrainParallelBatches's emitter.
type collector struct {
	rows   []storage.Tuple
	budget *MemBudget
}

func (c *collector) EmitRows(rows []storage.Tuple) (err error) {
	if c.rows = append(c.rows, rows...); c.budget != nil {
		err = c.budget.Charge(TupleBytes(rows))
	}
	return err
}

// ---------------------------------------------------------------------------
// Join keys. The first executor rendered every key to a string
// (fmt.Sprintf per tuple — the single hottest call on the join path);
// keys are now comparable structs hashed directly.

// joinK is a hash/equality key over a Value, normalised so mixed
// numeric kinds (and bools) match per Compare semantics: any value with
// a float image keys by that image (-0 folded into +0), strings key by
// content. NaN and NULL get classes of their own — a float NaN can
// never be found again in a map, and NULL groups (but never joins) —
// so neither can collide with a user string. It is what "equal" means
// to the join and to GROUP BY, compared on every hash hit in a
// hashIndex.
type joinK struct {
	f     float64
	s     string
	class uint8
}

// joinK classes.
const (
	keyStr uint8 = iota
	keyNum
	keyNaN
	keyNull
)

// keyOf derives the key of any value, NULL included (GROUP BY puts all
// NULLs in one group).
func keyOf(v storage.Value) joinK {
	if f, ok := v.AsFloat(); ok {
		if math.IsNaN(f) {
			return joinK{class: keyNaN}
		}
		if f == 0 {
			f = 0 // fold -0 into +0 so both hash to one partition
		}
		return joinK{f: f, class: keyNum}
	}
	if v.Kind == storage.KindNull {
		return joinK{class: keyNull}
	}
	return joinK{s: v.Str}
}

// joinKeyOf derives a join key; ok is false for NULL (never joins).
func joinKeyOf(v storage.Value) (joinK, bool) {
	k := keyOf(v)
	return k, k.class != keyNull
}

// hash radix-partitions a key: a number by one multiply-xorshift over
// its bits, a string by FNV-1a. In-process only, never persisted.
func (k joinK) hash() uint32 {
	if k.class == keyNum {
		b := math.Float64bits(k.f) * 0x9e3779b97f4a7c15
		return uint32(b ^ b>>32)
	}
	return fnv32(k.s)
}

// ---------------------------------------------------------------------------
// Partitioned parallel hash join.

// ErrBuildAborted is returned by ParallelBuildBatches when the safe-point
// callback vetoed continuing; the consumed prefix accompanies it.
var ErrBuildAborted = errors.New("operators: parallel build aborted at safe point")

// BuildTable is the immutable partitioned hash table produced by
// ParallelBuildBatches; once built it is probed lock-free by any number of
// workers.
type BuildTable struct {
	parts []buildPart
	col   int // the build key column (< 0: constKey)
	rows  int
}

// Rows returns the number of build tuples in the table (the memory
// proxy the adaptive report tracks).
func (t *BuildTable) Rows() int { return t.rows }

// hashIndex is the flat hash index joins and GROUP BY share: slots (build
// rows, groups) and their hashes, chained by bucket (the top bits of a
// multiplicative mix over len(heads), a power of two ≥ the slots); heads
// and next hold 1 + a slot, 0 ending a chain. Keys are the owner's.
type hashIndex struct {
	hash        []uint32
	heads, next []int32
	shift       uint32
}

func (x *hashIndex) bucket(h uint32) uint32 { return (h * 0x9e3779b1) >> x.shift }

// chain returns 1 + the first slot on h's chain (0: none).
func (x *hashIndex) chain(h uint32) int32 { return x.heads[x.bucket(h)] }

// link makes a power of two ≥ max(slots, atLeast) buckets and chains
// every slot, back to front so each chain runs in slot order.
func (x *hashIndex) link(atLeast int) {
	for x.shift = 32; 1<<(32-x.shift) < max(len(x.hash), atLeast); x.shift-- {
	}
	x.heads = make([]int32, 1<<(32-x.shift))
	for s := len(x.hash) - 1; s >= 0; s-- {
		b := x.bucket(x.hash[s])
		x.next[s], x.heads[b] = x.heads[b], int32(s+1)
	}
}

// add appends a slot hashed h, doubling the buckets when they fill.
func (x *hashIndex) add(h uint32) int {
	s := len(x.hash)
	x.hash, x.next = append(x.hash, h), append(x.next, 0)
	if s == len(x.heads) {
		x.link(2 * s)
	} else {
		b := x.bucket(h)
		x.next[s], x.heads[b] = x.heads[b], int32(s+1)
	}
	return s
}

// buildPart is one partition: slot r of its index is rows[r].
type buildPart struct {
	rows []storage.Tuple
	hashIndex
}

// partBuf is one worker's scatter output for one partition. Tuples
// are aliased, not copied: batch sources guarantee stable values.
type partBuf struct {
	hash []uint32
	tups []storage.Tuple
}

// scatterPool recycles the build's per-worker scatter buffers (a partBuf
// per partition) across statements. One of over maxKeptScatter row slots
// (28 bytes each) is dropped, so a huge build cannot pin its size.
var scatterPool = sync.Pool{New: func() any { return new([]partBuf) }}

const maxKeptScatter = 8 << 10

// putScatters empties the buffers of tuple references and pools them.
func putScatters(bufs []*[]partBuf) {
	for _, s := range bufs {
		kept := 0
		for i := range *s {
			p := &(*s)[i]
			clear(p.tups)
			p.hash, p.tups = p.hash[:0], p.tups[:0]
			kept += cap(p.tups)
		}
		if kept <= maxKeptScatter {
			scatterPool.Put(s)
		}
	}
}

// constKey is the key every row shares when a build or probe column is
// negative: the cartesian attach, run as a hash join on one bucket so
// it feeds the same sinks as any other join. (The two loops test the
// column themselves: handing the key back through a helper measured 10%
// off the probe.)
var constKey = joinK{class: keyNum}

// ParallelBuildBatches consumes src with cfg workers and assembles the
// partitioned hash table on col (col < 0: every row under one constant
// key). safePoint, when non-nil, is called (possibly concurrently)
// after every batch with the cumulative build row count; returning
// false aborts the build: every claimed batch is still fully absorbed,
// workers drain at the barrier, and (nil, consumedPrefix,
// ErrBuildAborted) is returned. The caller can then replan and replay
// the prefix, resuming src for the remainder.
func ParallelBuildBatches(src BatchSource, col int, cfg ParallelConfig,
	safePoint func(rows int) bool) (*BuildTable, []storage.Tuple, error) {
	w := cfg.WorkerCount()
	scatter := make([]*[]partBuf, w)    // [worker][partition], pooled
	nulls := make([][]storage.Tuple, w) // null keys never join but must replay
	for i := range scatter {
		scatter[i] = scatterPool.Get().(*[]partBuf)
		if len(*scatter[i]) < w {
			*scatter[i] = make([]partBuf, w)
		}
	}
	defer putScatters(scatter) // on every path: the table and the prefix are copies
	var consumed atomic.Int64
	var aborted atomic.Bool
	var fail failFlag
	fanOut(w, &fail, "build", func(i int) {
		b := GetBatch()
		defer PutBatch(b)
		local := (*scatter[i])[:w]
		rows := 0
		for !aborted.Load() && !fail.failed() {
			if cfg.interrupted(&fail) {
				break
			}
			n, err := src.NextBatch(b)
			if err != nil {
				fail.set(err)
				break
			}
			if n == 0 {
				break
			}
			if cfg.charge(&fail, b.Tuples) {
				break
			}
			for _, t := range b.Tuples {
				k := constKey
				if col >= 0 {
					var ok bool
					if k, ok = joinKeyOf(t[col]); !ok {
						nulls[i] = append(nulls[i], t)
						continue
					}
				}
				h := k.hash()
				p := int(h % uint32(w))
				local[p].hash = append(local[p].hash, h)
				local[p].tups = append(local[p].tups, t)
			}
			rows += n
			total := consumed.Add(int64(n))
			if safePoint != nil && !safePoint(int(total)) {
				aborted.Store(true)
				break
			}
		}
		if cfg.OnWorker != nil {
			cfg.OnWorker(i, "build", rows)
		}
	}) // the safe-point barrier: no worker is mid-tuple past here
	if err := fail.err(); err != nil {
		return nil, nil, err
	}
	if aborted.Load() {
		var prefix []storage.Tuple
		for i := 0; i < w; i++ {
			for _, part := range (*scatter[i])[:w] {
				prefix = append(prefix, part.tups...)
			}
			prefix = append(prefix, nulls[i]...)
		}
		return nil, prefix, ErrBuildAborted
	}
	// Assemble each partition (disjoint, so without locks): concatenate
	// the workers' rows in arrival order, then chain them.
	parts := make([]buildPart, w)
	fanOut(w, &fail, "assemble", func(p int) {
		n := 0
		for i := 0; i < w; i++ {
			n += len((*scatter[i])[p].tups)
		}
		bp := &parts[p]
		bp.rows, bp.hash, bp.next = make([]storage.Tuple, 0, n), make([]uint32, 0, n), make([]int32, n)
		for i := 0; i < w; i++ {
			bp.rows = append(bp.rows, (*scatter[i])[p].tups...)
			bp.hash = append(bp.hash, (*scatter[i])[p].hash...)
		}
		bp.link(0)
	})
	if err := fail.err(); err != nil {
		return nil, nil, err
	}
	return &BuildTable{parts: parts, col: col, rows: int(consumed.Load())}, nil, nil
}

// Probe sinks. A probe match is never concatenated into a joined row:
// the probe loop hands each match to its worker's sink as the pair
// (build tuple, probe tuple), and the sink reads the columns it needs
// through PairCols. There are two sinks — aggAccum (joins.go), which
// folds the pair into worker-local aggregate state, and probeOut,
// which copies the mapped columns into an arena — so what a join
// materialises is decided by what consumes it, not by the join.

// PairCol addresses one column of a probe match.
type PairCol struct {
	// Probe selects the probe tuple; false selects the build tuple.
	Probe bool
	Idx   int
}

func (c PairCol) of(b, p storage.Tuple) storage.Value {
	if c.Probe {
		return p[c.Idx]
	}
	return b[c.Idx]
}

// PairEq is a residual join equality checked on the pair before the
// sink sees it, on join keys like the hash condition: NULL matches
// nothing, NaN only NaN.
type PairEq struct{ A, B PairCol }

// pairSink is one worker's consumer of probe matches.
type pairSink interface {
	pair(b, p storage.Tuple)
	// taken reports what the sink materialised since the previous
	// call: output rows (the LIMIT quota counts them) and their values
	// (the MemBudget meters them).
	taken() (rows int, vals []storage.Value)
}

// probeOut is the projection sink: the mapped columns of every match
// back-to-back in vals, tuple boundaries in ends. materialize carves
// the tuple headers once the arena is final, so a probe allocates
// O(log n) arena growths instead of one allocation per output row.
type probeOut struct {
	cols []PairCol // output columns in order; nil = the whole pair, build columns first
	vals storage.Tuple
	ends []int
	// seenVals, seenEnds are taken's high-water marks.
	seenVals, seenEnds int
}

func (o *probeOut) reset() {
	o.vals, o.ends, o.seenVals, o.seenEnds = o.vals[:0], o.ends[:0], 0, 0
}

func (o *probeOut) pair(b, p storage.Tuple) {
	if o.cols == nil {
		o.vals = append(append(o.vals, b...), p...)
	} else {
		for _, c := range o.cols {
			o.vals = append(o.vals, c.of(b, p))
		}
	}
	o.ends = append(o.ends, len(o.vals))
}

func (o *probeOut) taken() (int, []storage.Value) {
	rows, vals := len(o.ends)-o.seenEnds, o.vals[o.seenVals:]
	o.seenVals, o.seenEnds = len(o.vals), len(o.ends)
	return rows, vals
}

// materialize appends the accumulated tuples to dst. The arena is
// owned by the returned tuples; the probeOut must be reset (not
// reused in place) if more output is needed.
func (o *probeOut) materialize(dst []storage.Tuple) []storage.Tuple {
	start := 0
	for _, end := range o.ends {
		dst = append(dst, o.vals[start:end:end])
		start = end
	}
	return dst
}

// probe is the one probe loop: every tuple of rows is looked up in the
// table on col (col < 0: the constant key, so it meets every build row)
// and each match that passes the residual equalities is handed to sink
// as the pair (build tuple, probe tuple). A chain entry matches when
// its stored hash, then its joinK, equals the probe key's.
func (t *BuildTable) probe(rows []storage.Tuple, col int, on []PairEq, sink pairSink) {
	np := uint32(len(t.parts))
	for _, p := range rows {
		k := constKey
		if col >= 0 {
			var ok bool
			if k, ok = joinKeyOf(p[col]); !ok {
				continue
			}
		}
		h := k.hash()
		part := &t.parts[h%np]
	match:
		for r := part.chain(h); r != 0; r = part.next[r-1] {
			b := part.rows[r-1]
			if part.hash[r-1] != h || (t.col >= 0 && keyOf(b[t.col]) != k) || (t.col < 0 && k != constKey) {
				continue
			}
			for _, eq := range on {
				if ak, ok := joinKeyOf(eq.A.of(b, p)); !ok || ak != keyOf(eq.B.of(b, p)) {
					continue match
				}
			}
			sink.pair(b, p)
		}
	}
}

// ProbeProject streams src through the table with cfg workers into the
// projection sink: each output tuple holds only cols of its match, in
// that order (nil cols = the whole pair), so a join that is projected
// never materialises its wide row. Matches failing a residual equality
// in on are dropped. The result order is nondeterministic; cfg.Limit
// is honoured as a cooperative quota.
func (t *BuildTable) ProbeProject(src BatchSource, col int, cfg ParallelConfig,
	on []PairEq, cols []PairCol) ([]storage.Tuple, error) {
	outs := make([]probeOut, cfg.WorkerCount())
	sinks := make([]pairSink, len(outs))
	for i := range outs {
		outs[i].cols = cols
		sinks[i] = &outs[i]
	}
	if err := t.parallelProbe(src, col, cfg, on, sinks); err != nil {
		return nil, err
	}
	n := 0
	for i := range outs {
		n += len(outs[i].ends)
	}
	rows := make([]storage.Tuple, 0, n)
	for i := range outs {
		rows = outs[i].materialize(rows)
	}
	return rows, nil
}

// ProbeAggregate streams src through the table with cfg workers into
// the aggregate sink: every match is folded straight into its worker's
// partial accumulator and the partials merge at the barrier, so the
// joined relation is never built. groupCol and aggs index a conceptual
// row that m maps onto the pair (m[i] locates position i). Output is
// ParallelHashAggregateBatches's: one row per group, laid out by out, in
// nondeterministic group order.
func (t *BuildTable) ProbeAggregate(src BatchSource, col int, cfg ParallelConfig,
	on []PairEq, m []PairCol, groupCol int, aggs []AggSpec, out []int) ([]storage.Tuple, error) {
	partials, sinks := aggSinks(cfg.WorkerCount(), groupCol, aggs, m)
	if err := t.parallelProbe(src, col, cfg, on, sinks); err != nil {
		return nil, err
	}
	return mergePartials(partials, out), nil
}

// parallelProbe runs one probe worker per sink.
func (t *BuildTable) parallelProbe(src BatchSource, col int, cfg ParallelConfig,
	on []PairEq, sinks []pairSink) error {
	return feedSinks(src, cfg, "probe", sinks, func(rows []storage.Tuple, sink pairSink) {
		t.probe(rows, col, on, sink)
	})
}

// feedSinks runs one worker per sink: each claims batches from src and
// passes them to feed with its own sink, until the source is exhausted,
// the statement fails or is cancelled, or the sinks together hold
// cfg.Limit rows.
func feedSinks(src BatchSource, cfg ParallelConfig, phase string, sinks []pairSink,
	feed func(rows []storage.Tuple, sink pairSink)) error {
	var produced atomic.Int64
	var fail failFlag
	fanOut(len(sinks), &fail, phase, func(i int) {
		b := GetBatch()
		defer PutBatch(b)
		rows := 0
		for !fail.failed() {
			if cfg.Limit > 0 && produced.Load() >= int64(cfg.Limit) {
				break
			}
			if cfg.interrupted(&fail) {
				break
			}
			n, err := src.NextBatch(b)
			if err != nil {
				fail.set(err)
				return
			}
			if n == 0 {
				break
			}
			feed(b.Tuples, sinks[i])
			out, vals := sinks[i].taken()
			if cfg.chargeVals(&fail, vals) {
				break
			}
			rows += n
			if cfg.Limit > 0 {
				produced.Add(int64(out))
			}
		}
		if cfg.OnWorker != nil {
			cfg.OnWorker(i, phase, rows)
		}
	})
	return fail.err()
}

// ---------------------------------------------------------------------------
// Parallel aggregation.

// ParallelHashAggregateBatches computes grouped aggregates over src
// with cfg workers: the aggregate sink fed by a scan instead of a probe
// — worker-local partial accumulators, merged at the barrier. Merging
// is exact for COUNT/SUM/AVG/MIN/MAX (integer sums stay exact in
// float64 below 2^53; float SUM/AVG may differ between runs in the
// last ulps because addition order varies). Output rows are laid
// out by out (see aggAccum.rows), in nondeterministic group order.
func ParallelHashAggregateBatches(src BatchSource, groupCol int, aggs []AggSpec, out []int,
	cfg ParallelConfig) ([]storage.Tuple, error) {
	partials, sinks := aggSinks(cfg.WorkerCount(), groupCol, aggs, nil)
	err := feedSinks(src, cfg, "aggregate", sinks, func(rows []storage.Tuple, sink pairSink) {
		for _, t := range rows {
			sink.pair(nil, t)
		}
	})
	if err != nil {
		return nil, err
	}
	return mergePartials(partials, out), nil
}

// aggSinks builds one partial accumulator per worker.
func aggSinks(workers, groupCol int, aggs []AggSpec, m []PairCol) ([]*aggAccum, []pairSink) {
	partials := make([]*aggAccum, workers)
	sinks := make([]pairSink, workers)
	for i := range partials {
		partials[i] = newAggAccum(groupCol, aggs, m)
		sinks[i] = partials[i]
	}
	return partials, sinks
}

// mergePartials folds the workers' partial accumulators into the first
// and renders its rows laid out by out.
func mergePartials(partials []*aggAccum, out []int) []storage.Tuple {
	final := partials[0]
	for _, p := range partials[1:] {
		final.merge(p)
	}
	return final.rows(out)
}

// ---------------------------------------------------------------------------
// Shared plumbing.

// fanOut runs body(0) … body(workers-1) to completion, each under
// containPanic: the one worker loop of the exchange layer, and its only
// goroutine launch. At one worker the body runs on the calling
// goroutine, so a serial statement pays no goroutine or barrier.
func fanOut(workers int, fail *failFlag, phase string, body func(worker int)) {
	if workers == 1 {
		defer containPanic(fail, 0, phase)
		body(0)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer containPanic(fail, i, phase)
			body(i)
		}(i)
	}
	wg.Wait()
}

// PanicError is a panic captured inside a parallel worker.
// Every worker defers containPanic, so a panicking worker latches one
// of these in the shared failFlag and exits; its peers drain
// cooperatively at the phase barrier and the parallel operator
// returns this error instead of killing the process. The query layer
// recognises it and re-runs the query once at one worker.
type PanicError struct {
	Worker int
	Phase  string
	Value  any
	Stack  []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("operators: worker %d panicked in %s phase: %v", e.Worker, e.Phase, e.Value)
}

// containPanic is deferred first around every worker body (fanOut): it
// converts a panic into a latched PanicError, which cancels the
// phase cooperatively instead of unwinding past the goroutine and
// crashing the process.
func containPanic(fail *failFlag, worker int, phase string) {
	if v := recover(); v != nil {
		fail.set(&PanicError{Worker: worker, Phase: phase, Value: v, Stack: debug.Stack()})
	}
}

// failFlag latches the first error across workers; failed() is the
// cheap cooperative-cancellation check workers poll between morsels.
type failFlag struct {
	flag atomic.Bool
	mu   sync.Mutex
	e    error
}

func (f *failFlag) failed() bool { return f.flag.Load() }

func (f *failFlag) set(err error) {
	f.mu.Lock()
	if f.e == nil {
		f.e = err
	}
	f.mu.Unlock()
	f.flag.Store(true)
}

func (f *failFlag) err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.e
}

// fnv32 is FNV-1a over the join key, the radix-partition hash.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
