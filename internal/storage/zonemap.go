// Zone maps: per-page, per-column min/max summaries that let scans
// skip whole pages before decoding them — the "move the computation to
// the data" half of the vectorized filter path. A zone entry is a
// conservative superset of the page's contents across EVERY record
// version (MVCC visibility stays a post-filter concern: a page whose
// zone cannot match a predicate holds no matching version, visible or
// not, so pruning it is sound under any snapshot).
//
// Consistency protocol. Writers bracket every page mutation with
// invalidations: once BEFORE the mutation becomes observable (so the
// entry is absent while the write is in flight) and once AFTER it
// completes (so the write's return is a fence past which no stale
// entry survives). Builds run without holding the zone latch across
// page reads (the latch-order hierarchy places ZoneMaps.mu below the
// page latch): the builder records a per-page generation, decodes the
// page, and installs the entry only if the generation is unchanged.
// The post-mutation invalidation is what makes the generation check
// sound — a builder that read the generation after the writer's first
// invalidation but decoded the pre-write image installs a summary
// missing the new value, and only the second bump (which both deletes
// the entry and outdates the builder's generation) removes it. A
// reader can therefore observe a missing entry for a write still in
// flight (it scans the page — always sound) but never a surviving
// entry that omits an acknowledged write. Quarantining a page also
// invalidates its entry (HeapFile registers ZoneMaps.invalidate with
// BufferManager.OnQuarantine), so a page that goes unreadable after
// its entry was built is scanned — and reports ErrQuarantined —
// instead of being pruned on the strength of a summary taken before
// it went bad.
//
// Deletions and MVCC Xmax stamping do not invalidate: they only remove
// values or rewrite version headers, so the existing entry remains a
// superset and pruning stays sound (just occasionally pessimistic).
package storage

import (
	"errors"
	"math"
	"strings"
	"sync"
)

// ColZone summarises one column over every record version on a page.
// The flags record which value categories appear; the ranges are valid
// only when the corresponding flag is set. An over-approximate zone is
// always sound — pruning happens only when NO category could satisfy
// the predicate.
type ColZone struct {
	HasNull bool // any NULL
	HasNum  bool // any int/float/bool with a non-NaN float image
	HasNaN  bool // any float NaN
	HasBool bool // any bool (subset of HasNum; bools order above strings)
	HasStr  bool // any string
	// HasOther marks value kinds this summary does not model; a zone
	// carrying it never prunes.
	HasOther bool
	MinF     float64 // min/max float image over HasNum values
	MaxF     float64
	MinS     string // min/max over HasStr values
	MaxS     string
}

// absorb folds one value into the zone.
func (z *ColZone) absorb(v Value) {
	switch v.Kind {
	case KindNull:
		z.HasNull = true
	case KindString:
		if !z.HasStr {
			z.MinS, z.MaxS = v.Str, v.Str
		} else if v.Str < z.MinS {
			z.MinS = v.Str
		} else if v.Str > z.MaxS {
			z.MaxS = v.Str
		}
		z.HasStr = true
	case KindInt, KindFloat, KindBool:
		f, _ := v.AsFloat()
		if math.IsNaN(f) {
			z.HasNaN = true
			return
		}
		if !z.HasNum {
			z.MinF, z.MaxF = f, f
		} else if f < z.MinF {
			z.MinF = f
		} else if f > z.MaxF {
			z.MaxF = f
		}
		z.HasNum = true
		if v.Kind == KindBool {
			z.HasBool = true
		}
	default:
		z.HasOther = true
	}
}

// BuildColZones summarises decoded tuples into per-column zones. The
// zone width is the narrowest tuple's width, so every summarised column
// is present in every row; a non-nil empty slice means the page holds
// no rows at all (prunable under any predicate). A page containing a
// zero-width tuple yields nil — no summary: an empty slice there would
// read as "no rows" and prune the page's other, non-empty tuples.
func BuildColZones(ts []Tuple) []ColZone {
	if len(ts) == 0 {
		return []ColZone{}
	}
	width := len(ts[0])
	for _, t := range ts[1:] {
		if len(t) < width {
			width = len(t)
		}
	}
	if width == 0 {
		return nil
	}
	zones := make([]ColZone, width)
	for _, t := range ts {
		for c := 0; c < width; c++ {
			zones[c].absorb(t[c])
		}
	}
	// The absorbed strings are substrings of the page's decode arena;
	// clone so an installed entry retains only its min/max bytes, not a
	// page worth of string data.
	for c := range zones {
		if zones[c].HasStr {
			zones[c].MinS = strings.Clone(zones[c].MinS)
			zones[c].MaxS = strings.Clone(zones[c].MaxS)
		}
	}
	return zones
}

// ZoneMaps holds a heap file's per-page zone entries. The zero value
// is ready to use.
type ZoneMaps struct {
	mu      sync.Mutex
	entries map[PageID][]ColZone
	// gen counts invalidations per page; the builder re-checks it at
	// install time so a build racing a writer never installs a summary
	// of the pre-write image.
	gen map[PageID]uint64
}

// invalidate drops a page's entry and bumps its generation. Writers
// call this both BEFORE and AFTER mutating the page, and quarantine
// calls it when a page goes unreadable (see the package comment).
func (z *ZoneMaps) invalidate(id PageID) {
	z.mu.Lock()
	delete(z.entries, id)
	if z.gen == nil {
		z.gen = map[PageID]uint64{}
	}
	z.gen[id]++
	z.mu.Unlock()
}

// generation reads a page's current invalidation count.
func (z *ZoneMaps) generation(id PageID) uint64 {
	z.mu.Lock()
	defer z.mu.Unlock()
	return z.gen[id]
}

// install publishes a freshly built entry unless the page was
// invalidated since the builder read gen.
func (z *ZoneMaps) install(id PageID, gen uint64, zones []ColZone) {
	z.mu.Lock()
	if z.gen[id] == gen {
		if z.entries == nil {
			z.entries = map[PageID][]ColZone{}
		}
		z.entries[id] = zones
	}
	z.mu.Unlock()
}

// snapshot returns the entries for ids under one latch acquisition.
func (z *ZoneMaps) snapshot(ids []PageID) [][]ColZone {
	out := make([][]ColZone, len(ids))
	z.mu.Lock()
	for i, id := range ids {
		out[i] = z.entries[id]
	}
	z.mu.Unlock()
	return out
}

// reset drops every entry and generation (recovery reinstall).
func (z *ZoneMaps) reset() {
	z.mu.Lock()
	z.entries, z.gen = nil, nil
	z.mu.Unlock()
}

// BuildZoneMaps (re)builds the file's zone entries from its current
// pages. Safe to run concurrently with readers and writers: each page
// is decoded under its read latch only (never the zone latch), and the
// generation check drops summaries of pages that were written
// mid-build. Quarantined pages are skipped and left without an entry —
// an unreadable page is never trusted, so scans still touch (and
// report) it. Any other read or decode failure is returned to the
// caller, which on the durable path feeds the DB failure spine.
func (h *HeapFile) BuildZoneMaps() error {
	var buf []Tuple
	v := h.Blind()
	for _, id := range h.PageIDs() {
		gen := h.zm.generation(id)
		ts, err := v.PageTuplesInto(id, buf[:0])
		if errors.Is(err, ErrQuarantined) {
			continue
		}
		if err != nil {
			return err
		}
		buf = ts
		if zones := BuildColZones(ts); zones != nil {
			h.zm.install(id, gen, zones)
		}
	}
	return nil
}
