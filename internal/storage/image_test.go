package storage

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// imageRec is the record of key k created by xmin.
func imageRec(k int64, xmin uint64) []byte {
	return EncodeRecord(Tuple{IntValue(k), StringValue(fmt.Sprintf("k%d", k))}, Version{Xmin: xmin})
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

// copyImage deep-copies d, so a later comparison sees any write to the
// memory d reads.
func copyImage(d *decodedPage) decodedPage {
	c := *d
	c.tuples = make([]Tuple, len(d.tuples))
	for i, tu := range d.tuples {
		c.tuples[i] = slices.Clone(tu)
	}
	c.slots, c.vers = slices.Clone(d.slots), slices.Clone(d.vers)
	return c
}

// TestDecodeImageMatchesFreshDecode: after every mutator the page's
// decode image equals a fresh decode of its bytes — tuples, slots,
// versions and the version summary. An insert and an Xmax stamp,
// failed or not, keep a cached image (derived, or left as it was);
// a tombstone, Compact and the redo appliers drop it.
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
	// mutation before it had a cached image to keep.
	check := func(step string, kept bool) {
		t.Helper()
		if got := p.dec.Load() != nil; got != kept {
			t.Fatalf("%s: image cached = %v, want %v", step, got, kept)
		}
		d, err := p.decoded()
		if err != nil {
			t.Fatal(err)
		}
		if want := freshImage(t, p); !reflect.DeepEqual(*d, *want) {
			t.Fatalf("%s: image\n%+v\nfresh decode\n%+v", step, *d, *want)
		}
	}
	logDown := errors.New("log down")

	insert(0, 1) // nothing cached: the page stays undecoded
	check("insert with no image", false)
	insert(1, 1)
	check("insert", true)
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
				held := copyImage(d)
				runtime.Gosched()
				if !reflect.DeepEqual(*d, held) {
					t.Errorf("a published image changed under its reader:\n%+v\nwas\n%+v", *d, held)
					return
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
	if want := freshImage(t, p); !reflect.DeepEqual(*d, *want) {
		t.Fatalf("image after the stress\n%+v\nfresh decode\n%+v", *d, *want)
	}
}
