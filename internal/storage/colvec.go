package storage

import (
	"math"
	"sync/atomic"
)

// ValueClass is how a filter kernel's vector sees one field: numeric
// when AsFloat is ok (Int, Float or Bool), NULL, or other (a string).
type ValueClass uint8

// Value classes.
const (
	ClassNum ValueClass = iota
	ClassNull
	ClassOther
)

// ColVec is one column of a page image as a filter reads it, one entry
// per row: its class, its AsFloat image (0 unless numeric) — the
// coercion Compare applies — and whether every row is numeric.
// Read-only: it aliases the page's vectors.
type ColVec struct {
	Class  []ValueClass
	F      []float64
	AllNum bool
}

// colVec is one column's vectors, shared by the images of one decode
// chain (a fresh decode and the images its inserts and stamps derive),
// whose rows only grow at the end: an image of n rows reads the first
// n entries. Entries past the n filled are spare room that only the
// page's writer fills, before it publishes the image that reads them.
type colVec struct {
	class []ValueClass
	f     []float64
	n     atomic.Int32 // entries filled
	mixed atomic.Int32 // first row that is not numeric (MaxInt32: none)
}

// newColVec returns a vector with room for size rows, holding v's.
func newColVec(size int, v *colVec) *colVec {
	w := &colVec{class: make([]ValueClass, size), f: make([]float64, size)}
	w.mixed.Store(math.MaxInt32)
	if v != nil {
		copy(w.class, v.class)
		copy(w.f, v.f)
		w.n.Store(v.n.Load())
		w.mixed.Store(v.mixed.Load())
	}
	return w
}

// add fills entry i, the first unfilled one, with x.
func (v *colVec) add(i int, x Value) {
	v.class[i], v.f[i] = ClassOther, 0
	switch f, ok := x.AsFloat(); {
	case ok:
		v.class[i], v.f[i] = ClassNum, f
	case x.Kind == KindNull:
		v.class[i] = ClassNull
	}
	if v.class[i] != ClassNum && v.mixed.Load() > int32(i) {
		v.mixed.Store(int32(i))
	}
	v.n.Store(int32(i + 1))
}

// col returns column c's vector over the image's rows; the first
// filter that finds it missing or short builds and publishes it,
// latch-free.
func (d *decodedPage) col(c int) ColVec {
	n, old := len(d.tuples), (*d.vecs)[c].Load()
	v := old
	if v == nil || int(v.n.Load()) < n {
		v = newColVec(n, nil)
		for i, t := range d.tuples {
			v.add(i, t[c])
		}
		(*d.vecs)[c].CompareAndSwap(old, v)
	}
	return ColVec{Class: v.class[:n], F: v.f[:n], AllNum: int(v.mixed.Load()) >= n}
}

// extend gives the image an insert derived, whose last row t is new,
// its vectors: each one filled for the n rows before gains t, moving to
// twice the room when full. A row wider than the slots starts new ones.
func (d *decodedPage) extend(n int, t Tuple) {
	if len(t) > len(*d.vecs) {
		d.vecs = newColSlots(len(t))
	}
	for c, x := range t {
		if v := (*d.vecs)[c].Load(); v != nil && int(v.n.Load()) == n {
			if n == len(v.class) {
				v = newColVec(max(2*n, 8), v)
				(*d.vecs)[c].Store(v)
			}
			v.add(n, x)
		}
	}
}

func newColSlots(width int) *[]atomic.Pointer[colVec] {
	s := make([]atomic.Pointer[colVec], width)
	return &s
}

// PageImage is a filter's view of one page's decode image.
type PageImage struct{ d *decodedPage }

// Rows returns the image's tuples; a filter's positions index them.
func (m PageImage) Rows() []Tuple { return m.d.tuples }

// Col returns column c's vector, built on the first ask.
func (m PageImage) Col(c int) ColVec { return m.d.col(c) }

// Zones returns the image's zone summary (zonemap.go), built on the
// first ask: nil when the page has none, empty when it holds no rows.
func (m PageImage) Zones() []ColZone { return m.d.summary() }

// RowFilter is the WHERE a page read runs: a veto over the whole page,
// then a filter between its visibility selection and its copy, so only
// the rows it keeps become rows.
type RowFilter interface {
	// MayMatch reports whether img's page may hold a row the filter
	// keeps; a page it vetoes yields no rows.
	MayMatch(img PageImage) bool
	// Sel returns the filter's selection vector, empty, for the read to
	// fill with the visible rows' positions.
	Sel() []int32
	// Filter narrows sel, ascending positions of img's rows, to the
	// rows it keeps, in place, and returns them.
	Filter(img PageImage, sel []int32) []int32
}
