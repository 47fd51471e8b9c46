// Zone summaries: per-column min/max and value-category flags over a
// page's rows, which let a filtered read veto a whole page before it
// judges a single version — the "move the computation to the data"
// half of the vectorized filter path. A summary covers EVERY row of its
// page image, every version that is not tombstoned (MVCC visibility
// stays a post-filter concern: a page whose summary cannot match a
// predicate holds no matching version, visible or not, so vetoing it is
// sound under any snapshot).
//
// A summary is a field of the page's decode image (decodedPage.zones),
// and a summary and its rows are one immutable object: the first veto
// that asks builds it from the image's own rows and publishes it on the
// image, an Xmax stamp shares it (the rows are unchanged), an insert
// derives its image's summary from its parent's (shared when the new
// row changes no column, widened by the row otherwise), and a
// tombstone, Compact and the redo appliers drop it with the image. No
// summary outlives or predates the rows it describes, so none needs
// invalidating; a quarantined page fails in GetPage before any summary
// is read, so a veto never passes over corruption.
package storage

import (
	"math"
	"slices"
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
	return zones
}

// summary returns the image's zone summary, building and publishing it
// on the first ask. Its strings alias the image's rows, which it lives
// and dies with.
func (d *decodedPage) summary() []ColZone {
	if z := d.zones.Load(); z != nil {
		return *z
	}
	z := BuildColZones(d.tuples)
	d.zones.Store(&z)
	return z
}

// widened is the summary of an image an insert derives from one
// summarised by z, whose new row is t: z itself when t lies inside every
// column's range and flags, a copy with t absorbed otherwise. nil — no
// summary, the next ask builds one — when z is nil, summarises no rows
// (or no columns), or t is narrower than it.
func widened(z *[]ColZone, t Tuple) *[]ColZone {
	if z == nil || len(*z) == 0 || len(t) < len(*z) {
		return nil
	}
	out := z
	for c, old := range *z {
		w := old
		if w.absorb(t[c]); w == old {
			continue
		}
		if out == z {
			cp := slices.Clone(*z)
			out = &cp
		}
		(*out)[c] = w
	}
	return out
}
