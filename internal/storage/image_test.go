package storage

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// mixedValues is what the third column of imageRec cycles through:
// every class, and the floats a vector must keep bit for bit.
var mixedValues = []Value{
	IntValue(3), NullValue(), FloatValue(math.NaN()), FloatValue(math.Copysign(0, -1)),
	BoolValue(true), StringValue("s"), FloatValue(2.5), IntValue(math.MaxInt64),
}

// imageRec is the record of key k created by xmin: (k, "k<k>", a
// mixed value).
func imageRec(k int64, xmin uint64) []byte {
	mixed := mixedValues[k%int64(len(mixedValues))]
	return EncodeRecord(Tuple{IntValue(k), StringValue(fmt.Sprintf("k%d", k)), mixed}, Version{Xmin: xmin})
}

// freshImage decodes a copy of p's bytes: the image a reader with
// nothing cached would build.
func freshImage(t *testing.T, p *Page) *decodedPage {
	t.Helper()
	img, lsn := p.CopyBytes()
	d, err := pageFromImage(img, lsn).decoded()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// rowsOf renders d without its vectors and zone summary: text, so a
// NaN row equals itself.
func rowsOf(d *decodedPage) string {
	return fmt.Sprintf("tuples:%+v slots:%v vers:%+v allLive:%v nxmin:%d xmins:%v",
		d.tuples, d.slots, d.vers, d.allLive, d.nxmin, d.xmins)
}

// carriesSummary fails unless d's zone summary, if it has one, contains
// the summary a fresh decode of the page builds.
func carriesSummary(t *testing.T, step string, d, fresh *decodedPage) {
	t.Helper()
	if z := d.zones.Load(); z != nil && !summaryContains(*z, BuildColZones(fresh.tuples)) {
		t.Fatalf("%s: zone summary\n%+v\ndoes not contain the fresh decode's\n%+v", step, *z, BuildColZones(fresh.tuples))
	}
}

// cloneVec deep-copies a vector read.
func cloneVec(v ColVec) ColVec {
	return ColVec{Class: slices.Clone(v.Class), F: slices.Clone(v.F), AllNum: v.AllNum}
}

// sameVec compares two vector reads bit for bit: NaN is itself, -0 is
// not +0.
func sameVec(a, b ColVec) bool {
	return a.AllNum == b.AllNum && slices.Equal(a.Class, b.Class) &&
		slices.EqualFunc(a.F, b.F, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestDecodeImageMatchesFreshDecode: after every mutator the page's
// decode image equals a fresh decode of its bytes — tuples, slots,
// versions and the version summary — and its zone summary contains the
// fresh decode's. An insert and an Xmax stamp, failed or not, keep a
// cached image (derived, or left as it was) and its zone summary;
// a tombstone, Compact and the redo appliers drop both.
func TestDecodeImageMatchesFreshDecode(t *testing.T) {
	p := NewPage()
	var slots []int
	insert := func(k int64, xmin uint64) {
		t.Helper()
		s, err := pageInsert(p, imageRec(k, xmin))
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	stamp := func(slot int, xmax uint64) {
		t.Helper()
		if err := p.SetXmaxWith(slot, xmax, nil, noLog[[]byte]); err != nil {
			t.Fatal(err)
		}
	}
	// check holds the image to a fresh decode; kept says whether the
	// mutation before it had a cached image to keep. Every column's
	// vector and the zone summary are then read, so the next mutation
	// finds them built; a kept image must carry them already: an insert
	// extends the vectors and shares or widens the summary, a stamp
	// shares both.
	check := func(step string, kept bool) {
		t.Helper()
		if got := p.dec.Load() != nil; got != kept {
			t.Fatalf("%s: image cached = %v, want %v", step, got, kept)
		}
		d, err := p.decoded()
		if err != nil {
			t.Fatal(err)
		}
		want := freshImage(t, p)
		if got, fresh := rowsOf(d), rowsOf(want); got != fresh {
			t.Fatalf("%s: image\n%s\nfresh decode\n%s", step, got, fresh)
		}
		for c := range *d.vecs {
			if v := (*d.vecs)[c].Load(); kept && (v == nil || int(v.n.Load()) != len(d.tuples)) {
				t.Fatalf("%s: column %d's vector was not carried over", step, c)
			}
			if got, fresh := d.col(c), want.col(c); !sameVec(got, fresh) {
				t.Fatalf("%s: column %d's vector\n%+v\nfresh decode\n%+v", step, c, got, fresh)
			}
		}
		if kept && d.zones.Load() == nil {
			t.Fatalf("%s: the zone summary was not carried over", step)
		}
		carriesSummary(t, step, d, want)
		(PageImage{d}).Zones()
	}
	logDown := errors.New("log down")

	insert(0, 1) // nothing cached: the page stays undecoded
	check("insert with no image", false)
	for k := int64(1); k < 12; k++ { // past the room the first vectors were built with
		insert(k, 1)
		check("insert", true)
	}
	if d := p.dec.Load(); !d.col(0).AllNum || d.col(2).AllNum {
		t.Fatal("the key column must read all-numeric, the mixed one must not")
	}
	insert(2, 2)
	check("insert of a second creator", true)
	stamp(slots[0], 3)
	check("claim", true)
	stamp(slots[0], 0)
	check("un-claim", true)
	stamp(slots[1], 4)
	if _, err := p.InsertWith(imageRec(9, 5), func(int) (uint64, error) { return 0, logDown }); err == nil {
		t.Fatal("an insert whose log append failed succeeded")
	}
	check("failed insert", true)
	if err := p.SetXmaxWith(slots[2], 5, nil, func([]byte) (uint64, error) { return 0, logDown }); err == nil {
		t.Fatal("a claim whose log append failed succeeded")
	}
	check("failed claim", true)
	insert(3, 6) // a third creator: past len(xmins)
	check("insert overflowing the creators", true)
	if p.dec.Load().nxmin <= uint8(len(p.dec.Load().xmins)) {
		t.Fatalf("three creators read as %d: overflow not marked", p.dec.Load().nxmin)
	}
	if err := pageDelete(p, slots[3]); err != nil {
		t.Fatal(err)
	}
	check("tombstone", false)
	if err := p.redoInsert(p.Slots(), imageRec(4, 7), 1); err != nil {
		t.Fatal(err)
	}
	check("redo insert", false)
	if err := p.redoDelete(slots[0], 2); err != nil {
		t.Fatal(err)
	}
	check("redo delete", false)
	b, _ := p.Get(slots[2])
	rec := slices.Clone(b)
	rec[17] = 8 // Xmax 8
	if err := p.redoUpdate(slots[2], rec, 3); err != nil {
		t.Fatal(err)
	}
	check("redo update", false)
	p.Compact()
	check("compact", false)
	insert(5, 8)
	check("insert after compact", true)
}

// TestPageImageStress: readers hold old images while one writer inserts
// into and claims on the same page. A published image is never written
// again — an insert appends past the end of the image it extends, a
// claim copies the versions — so every image a reader took reads the
// same after the writer moves on, and under -race no reader's read
// races the writer's appends.
func TestPageImageStress(t *testing.T) {
	for round := 0; round < 20; round++ {
		imageStress(t)
	}
}

// imageStress fills one page under the writer while three readers take
// and hold its images.
func imageStress(t *testing.T) {
	p := NewPage()
	if _, err := pageInsert(p, imageRec(0, 1)); err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !done.Load() {
				d, err := p.decoded()
				if err != nil {
					t.Error(err)
					return
				}
				held := rowsOf(d)
				vecs := []ColVec{cloneVec(d.col(0)), cloneVec(d.col(2))}
				zones := slices.Clone((PageImage{d}).Zones())
				runtime.Gosched()
				if now := rowsOf(d); now != held {
					t.Errorf("a published image changed under its reader:\n%s\nwas\n%s", now, held)
					return
				}
				if now := (PageImage{d}).Zones(); !slices.Equal(now, zones) || !summaryCovers(now, d.tuples) {
					t.Errorf("an image's zone summary changed or lost a row:\n%+v\nwas\n%+v", now, zones)
					return
				}
				for i, c := range []int{0, 2} {
					if got := d.col(c); !sameVec(got, vecs[i]) {
						t.Errorf("column %d's vector changed under its reader:\n%+v\nwas\n%+v", c, got, vecs[i])
						return
					}
				}
			}
		}()
	}
	for k := int64(1); ; k++ {
		s, err := pageInsert(p, imageRec(k, uint64(1+k%3)))
		if errors.Is(err, ErrPageFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		xmax := uint64(0)
		if k%2 == 0 {
			xmax = uint64(k)
		}
		if err := p.SetXmaxWith(s/2, xmax, nil, noLog[[]byte]); err != nil {
			t.Fatal(err)
		}
		runtime.Gosched()
	}
	done.Store(true)
	readers.Wait()
	d, err := p.decoded()
	if err != nil {
		t.Fatal(err)
	}
	want := freshImage(t, p)
	if got, fresh := rowsOf(d), rowsOf(want); got != fresh {
		t.Fatalf("image after the stress\n%s\nfresh decode\n%s", got, fresh)
	}
	for c := range *d.vecs {
		if got, fresh := d.col(c), want.col(c); !sameVec(got, fresh) {
			t.Fatalf("column %d's vector after the stress\n%+v\nfresh decode\n%+v", c, got, fresh)
		}
	}
	carriesSummary(t, "after the stress", d, want)
}
