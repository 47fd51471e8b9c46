// Zone summary tests: category/range summaries, the rule an insert
// derives its image's summary by, vetoing readers racing writers, the
// first read after recovery, and the quarantine rules (an unreadable
// page fails before any summary of it is read).
package storage

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestBuildColZonesCategories(t *testing.T) {
	ts := []Tuple{
		{IntValue(5), StringValue("m"), NullValue()},
		{IntValue(-3), StringValue("a"), FloatValue(math.NaN())},
		{FloatValue(2.5), StringValue("z"), BoolValue(true)},
	}
	zones := BuildColZones(ts)
	if len(zones) != 3 {
		t.Fatalf("width = %d, want 3", len(zones))
	}
	z0 := zones[0]
	if !z0.HasNum || z0.HasNull || z0.HasStr || z0.HasNaN || z0.MinF != -3 || z0.MaxF != 5 {
		t.Fatalf("numeric zone = %+v", z0)
	}
	z1 := zones[1]
	if !z1.HasStr || z1.MinS != "a" || z1.MaxS != "z" || z1.HasNum {
		t.Fatalf("string zone = %+v", z1)
	}
	z2 := zones[2]
	if !z2.HasNull || !z2.HasNaN || !z2.HasBool || !z2.HasNum {
		t.Fatalf("mixed zone = %+v", z2)
	}
	if z2.MinF != 1 || z2.MaxF != 1 { // bool true's float image
		t.Fatalf("mixed zone range = %+v", z2)
	}
}

func TestBuildColZonesEmptyAndRagged(t *testing.T) {
	if z := BuildColZones(nil); z == nil || len(z) != 0 {
		t.Fatalf("empty page zone = %v, want non-nil empty", z)
	}
	// Ragged widths: summary covers only the common prefix.
	z := BuildColZones([]Tuple{
		{IntValue(1), IntValue(2)},
		{IntValue(3)},
	})
	if len(z) != 1 {
		t.Fatalf("ragged width = %d, want 1", len(z))
	}
}

// summaryOf reads page id's image and asks it for its zone summary, as
// a vetoing read does.
func summaryOf(h *HeapFile, id PageID) ([]ColZone, error) {
	p, err := h.bm.GetPage(id)
	if err != nil {
		return nil, err
	}
	defer h.bm.Unpin(id)
	d, err := p.decoded()
	if err != nil {
		return nil, err
	}
	return PageImage{d}.Zones(), nil
}

// cachedImage returns page id's cached decode image, nil when none.
func cachedImage(t *testing.T, h *HeapFile, id PageID) *decodedPage {
	t.Helper()
	p, err := h.bm.GetPage(id)
	if err != nil {
		t.Fatal(err)
	}
	defer h.bm.Unpin(id)
	return p.dec.Load()
}

// zoneCovers reports whether z admits v: the flag of v's category is
// set and, for a number or a string, v lies in its range.
func zoneCovers(z ColZone, v Value) bool {
	switch v.Kind {
	case KindNull:
		return z.HasNull
	case KindString:
		return z.HasStr && z.MinS <= v.Str && z.MaxS >= v.Str
	case KindInt, KindFloat, KindBool:
		f, _ := v.AsFloat()
		if math.IsNaN(f) {
			return z.HasNaN
		}
		return z.HasNum && z.MinF <= f && z.MaxF >= f
	}
	return z.HasOther
}

// summaryCovers reports whether zones admits every row of ts: each of
// its columns covers the row's value there.
func summaryCovers(zones []ColZone, ts []Tuple) bool {
	for _, tu := range ts {
		for c := range zones {
			if !zoneCovers(zones[c], tu[c]) {
				return false
			}
		}
	}
	return true
}

// summaryContains reports whether z admits everything f does: no wider,
// claiming rows wherever f does, and each column's flags and ranges a
// superset of f's. A nil z (no summary) never prunes.
func summaryContains(z, f []ColZone) bool {
	switch {
	case z == nil:
		return true
	case f == nil:
		return false
	case len(f) == 0:
		return true
	case len(z) == 0 || len(z) > len(f):
		return false
	}
	for c := range z {
		a, b := z[c], f[c]
		if a.HasOther {
			continue
		}
		if b.HasOther || b.HasNull && !a.HasNull || b.HasNaN && !a.HasNaN || b.HasBool && !a.HasBool ||
			b.HasNum && !(a.HasNum && a.MinF <= b.MinF && a.MaxF >= b.MaxF) ||
			b.HasStr && !(a.HasStr && a.MinS <= b.MinS && a.MaxS >= b.MaxS) {
			return false
		}
	}
	return true
}

// vetoFilter is a RowFilter of one column predicate: keep decides a
// value, may decides from the column's zone whether it can hold a kept
// one. Every image it vetoes is checked to hold no kept row: a veto
// judges the image it is handed, so a summary that missed one of that
// image's rows fails here.
type vetoFilter struct {
	t      *testing.T
	col    int
	keep   func(Value) bool
	may    func(ColZone) bool
	vetoed int
}

func (f *vetoFilter) MayMatch(img PageImage) bool {
	z := img.Zones()
	if z == nil || (len(z) > 0 && (f.col >= len(z) || f.may(z[f.col]))) {
		return true
	}
	f.vetoed++
	for _, r := range img.Rows() {
		if f.col < len(r) && f.keep(r[f.col]) {
			f.t.Errorf("a vetoed page holds kept row %v (summary %+v)", r, z)
		}
	}
	return false
}

func (f *vetoFilter) Sel() []int32 { return nil }

func (f *vetoFilter) Filter(img PageImage, sel []int32) []int32 {
	rows, kept := img.Rows(), sel[:0]
	for _, i := range sel {
		if f.col < len(rows[i]) && f.keep(rows[i][f.col]) {
			kept = append(kept, i)
		}
	}
	return kept
}

// atLeast is a vetoFilter keeping the numbers of col 0 at or above lo.
func atLeast(t *testing.T, lo float64) *vetoFilter {
	return &vetoFilter{t: t,
		keep: func(v Value) bool { f, ok := v.AsFloat(); return ok && f >= lo },
		may:  func(z ColZone) bool { return z.HasOther || (z.HasNum && z.MaxF >= lo) },
	}
}

// readAll reads every page of h blind through f.
func readAll(h *HeapFile, f RowFilter) ([]Tuple, error) {
	var out []Tuple
	v := h.Blind()
	for _, id := range h.PageIDs() {
		var err error
		if out, err = v.ReadPage(id, out, nil, f); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TestInsertedSummaryRule: an insert derives its image's summary from
// its parent's — none when the parent has none (no reader asked), the
// parent's own when the new row changes no column, a widened copy when
// it does (the parent's left as it was), none when the row is
// narrower — and a stamp shares it.
func TestInsertedSummaryRule(t *testing.T) {
	p := NewPage()
	ins := func(tu Tuple) *decodedPage {
		t.Helper()
		if _, err := pageInsert(p, EncodeRecord(tu, Version{Xmin: 1})); err != nil {
			t.Fatal(err)
		}
		return p.dec.Load()
	}
	ins(Tuple{IntValue(10), StringValue("m")})
	d, err := p.decoded()
	if err != nil {
		t.Fatal(err)
	}
	if d = ins(Tuple{IntValue(20), StringValue("q")}); d.zones.Load() != nil {
		t.Fatal("an insert built a summary no reader asked for")
	}
	parent := PageImage{d}.Zones()
	if parent[0].MinF != 10 || parent[0].MaxF != 20 || parent[1].MinS != "m" || parent[1].MaxS != "q" {
		t.Fatalf("summary = %+v", parent)
	}
	pz := d.zones.Load()
	if d = ins(Tuple{IntValue(15), StringValue("n")}); d.zones.Load() != pz {
		t.Fatal("a row inside every range did not share its parent's summary")
	}
	d = ins(Tuple{IntValue(30), StringValue("a")})
	z := d.zones.Load()
	if z == nil || z == pz {
		t.Fatal("a row outside the ranges did not widen a copy")
	}
	if (*z)[0].MaxF != 30 || (*z)[1].MinS != "a" || (*pz)[0].MaxF != 20 || (*pz)[1].MinS != "m" {
		t.Fatalf("widened %+v from %+v", *z, *pz)
	}
	if !summaryCovers(*z, d.tuples) {
		t.Fatalf("widened summary %+v misses a row of %v", *z, d.tuples)
	}
	if err := p.SetXmaxWith(0, 7, nil, noLog[[]byte]); err != nil {
		t.Fatal(err)
	}
	if p.dec.Load().zones.Load() != z {
		t.Fatal("a stamp did not share the summary")
	}
	if d = ins(Tuple{IntValue(1)}); d.zones.Load() != nil {
		t.Fatal("a narrower row kept a summary wider than itself")
	}
	if z := (PageImage{d}).Zones(); len(z) != 1 || z[0].MinF != 1 || z[0].MaxF != 30 {
		t.Fatalf("rebuilt summary = %+v", z)
	}
}

// TestRowlessImageVetoedUntilInsert: an image whose every slot is
// tombstoned has an empty summary and is vetoed under any predicate;
// the image the next insert derives carries no summary (an empty one
// would still read "no rows"), so the next read summarises the new row
// and keeps it.
func TestRowlessImageVetoedUntilInsert(t *testing.T) {
	p := NewPage()
	for k := int64(0); k < 3; k++ {
		if _, err := pageInsert(p, EncodeRecord(Tuple{IntValue(k)}, Version{Xmin: 1})); err != nil {
			t.Fatal(err)
		}
	}
	for slot := 0; slot < 3; slot++ {
		if err := pageDelete(p, slot); err != nil {
			t.Fatal(err)
		}
	}
	f := atLeast(t, -1000)
	if rows, err := p.rowsInto(0, nil, nil, nil, f); err != nil || len(rows) != 0 || f.vetoed != 1 {
		t.Fatalf("rowless page read = %v, %v, vetoed %d: want it vetoed", rows, err, f.vetoed)
	}
	if z := p.dec.Load().zones.Load(); z == nil || *z == nil || len(*z) != 0 {
		t.Fatal("a rowless image's summary must be empty, not absent")
	}
	if _, err := pageInsert(p, EncodeRecord(Tuple{IntValue(5)}, Version{Xmin: 1})); err != nil {
		t.Fatal(err)
	}
	if p.dec.Load().zones.Load() != nil {
		t.Fatal("an insert into a rowless image carried its empty summary")
	}
	if rows, err := p.rowsInto(0, nil, nil, nil, f); err != nil || len(rows) != 1 || f.vetoed != 1 {
		t.Fatalf("read after the insert = %v, %v, vetoed %d: want the new row", rows, err, f.vetoed)
	}
}

// TestZoneBuildConcurrentWriterNeverStale races writers inserting
// values far outside the seeded range against readers vetoing pages on
// "k >= 100000": every row acknowledged before a scan starts is in that
// scan's result — no page holding an acknowledged passing row is
// pruned — and every page the readers veto holds no passing row.
func TestZoneBuildConcurrentWriterNeverStale(t *testing.T) {
	h := newHeap(t)
	for i := 0; i < 200; i++ {
		if _, err := insertRow(h, Tuple{IntValue(int64(i % 50))}); err != nil {
			t.Fatal(err)
		}
	}
	const writers, perWriter = 2, 250
	var acked [writers]atomic.Int64 // rows writer w has acknowledged
	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := insertRow(h, Tuple{IntValue(int64(100000 + w*perWriter + i))}); err != nil {
					t.Error(err)
					return
				}
				acked[w].Store(int64(i + 1))
			}
		}(w)
	}
	var readers sync.WaitGroup
	vetoed := make([]int, 2)
	for r := range vetoed {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			f := atLeast(t, 100000)
			for !done.Load() {
				var want [writers]int64
				for w := range want {
					want[w] = acked[w].Load()
				}
				rows, err := readAll(h, f)
				if err != nil {
					t.Error(err)
					return
				}
				got := map[int64]bool{}
				for _, tu := range rows {
					got[tu[0].Int] = true
				}
				for w, n := range want {
					for i := int64(0); i < n; i++ {
						if k := int64(100000+w*perWriter) + i; !got[k] {
							t.Errorf("acknowledged row %d missing: its page was pruned", k)
							return
						}
					}
				}
			}
			vetoed[r] = f.vetoed
		}(r)
	}
	wg.Wait()
	done.Store(true)
	readers.Wait()
	if vetoed[0]+vetoed[1] == 0 {
		t.Fatal("no reader vetoed a page: the race never exercised a summary")
	}
	for _, id := range h.PageIDs() {
		zones, err := summaryOf(h, id)
		if err != nil {
			t.Fatal(err)
		}
		if !summaryCovers(zones, cachedImage(t, h, id).tuples) {
			t.Fatalf("page %d: summary %+v misses a row", id, zones)
		}
	}
}

// TestZoneSummaryPruneSoundnessRandom: writers insert rows of mixed
// kinds, and a key that widens every page's range as it fills, while
// readers veto pages on "column c is v" for every column and value in
// turn; a vetoed page never holds such a row, and at the end every
// page's summary covers every row on it.
func TestZoneSummaryPruneSoundnessRandom(t *testing.T) {
	h := newHeap(t)
	vals := []Value{
		IntValue(-100), IntValue(0), IntValue(100),
		FloatValue(-0.0), FloatValue(math.NaN()), FloatValue(2.5),
		StringValue(""), StringValue("zz"), BoolValue(false), NullValue(),
	}
	same := func(a, b Value) bool {
		return a.Kind == b.Kind && a.Int == b.Int && a.Str == b.Str && a.Bool == b.Bool &&
			math.Float64bits(a.Float) == math.Float64bits(b.Float)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 300; i += 2 {
				if _, err := insertRow(h, Tuple{vals[i%len(vals)], vals[(i*7+3)%len(vals)], IntValue(int64(i))}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; !done.Load(); i++ {
				col, lit := (i/len(vals))%3, vals[i%len(vals)]
				if col == 2 {
					lit = IntValue(int64(i * 37 % 300))
				}
				f := &vetoFilter{t: t, col: col,
					keep: func(v Value) bool { return same(v, lit) },
					may:  func(z ColZone) bool { return zoneCovers(z, lit) },
				}
				if _, err := readAll(h, f); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	done.Store(true)
	readers.Wait()
	for _, id := range h.PageIDs() {
		zones, err := summaryOf(h, id)
		if err != nil {
			t.Fatal(err)
		}
		if ts := cachedImage(t, h, id).tuples; !summaryCovers(zones, ts) {
			t.Fatalf("page %d: summary %+v misses a row of %v", id, zones, ts)
		}
	}
}

// TestZoneSummaryAfterRecovery: recovery decodes no page, so no page
// carries a summary; the first vetoing scan reads and summarises every
// page, and the next one prunes the same pages from the images that
// read left, with no page decoded again.
func TestZoneSummaryAfterRecovery(t *testing.T) {
	walDisk, dataDisk := NewMemDisk(), NewMemDisk()
	db, err := Open(walDisk, dataDisk, DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := db.CreateFile("t")
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 200)
	for i := 0; i < 200; i++ { // clustered: each page holds a k range
		if _, err := insertRow(h, Tuple{IntValue(int64(i)), StringValue(pad)}); err != nil {
			t.Fatal(err)
		}
	}
	db2, err := Open(NewMemDiskFrom(walDisk.Bytes()), NewMemDiskFrom(dataDisk.Bytes()), DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := db2.File("t")
	ids := h2.PageIDs()
	if len(ids) < 4 {
		t.Fatalf("fixture spans %d pages, want >= 4", len(ids))
	}
	for _, id := range ids {
		if cachedImage(t, h2, id) != nil {
			t.Fatalf("page %d decoded by recovery", id)
		}
	}
	scan := func() (*vetoFilter, []*decodedPage) {
		t.Helper()
		f := atLeast(t, 190)
		rows, err := readAll(h2, f)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 10 {
			t.Fatalf("scan kept %d rows, want 10", len(rows))
		}
		imgs := make([]*decodedPage, len(ids))
		for i, id := range ids {
			if imgs[i] = cachedImage(t, h2, id); imgs[i] == nil || imgs[i].zones.Load() == nil {
				t.Fatalf("page %d not summarised by its read", id)
			}
		}
		return f, imgs
	}
	first, imgs := scan()
	next, again := scan()
	if next.vetoed == 0 || next.vetoed != first.vetoed || next.vetoed >= len(ids) {
		t.Fatalf("vetoed %d then %d of %d pages", first.vetoed, next.vetoed, len(ids))
	}
	for i := range ids {
		if again[i] != imgs[i] {
			t.Fatalf("page %d decoded again by the next scan", ids[i])
		}
	}
}

// TestQuarantinedPageFailsBeforeVeto: a page quarantined after its
// image was summarised fails the next vetoing read with ErrQuarantined
// instead of being pruned past the corruption: the read fails in
// GetPage, before any summary is read.
func TestQuarantinedPageFailsBeforeVeto(t *testing.T) {
	h := newHeap(t)
	for i := 0; i < 8; i++ {
		if _, err := insertRow(h, Tuple{IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	id := h.PageIDs()[0]
	f := atLeast(t, 1000)
	if rows, err := h.Blind().ReadPage(id, nil, nil, f); err != nil || len(rows) != 0 || f.vetoed != 1 {
		t.Fatalf("read = %v, %v, vetoed %d: want the page vetoed", rows, err, f.vetoed)
	}
	h.bm.Quarantine(id, ErrChecksum)
	if _, err := h.Blind().ReadPage(id, nil, nil, f); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("quarantined page read = %v, want ErrQuarantined", err)
	}
	if f.vetoed != 1 {
		t.Fatal("a quarantined page reached the veto")
	}
}

// TestZoneSummaryQuarantinedPageNeverTrusted: after recovery quarantines
// a corrupt page, no summary of that page can be read (scans must touch
// and report it), while healthy pages are summarised by their read.
func TestZoneSummaryQuarantinedPageNeverTrusted(t *testing.T) {
	walDisk, dataDisk := NewMemDisk(), NewMemDisk()
	db, err := Open(walDisk, dataDisk, DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := db.CreateFile("t")
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 200) // force the table across several pages
	for i := 0; i < 200; i++ {
		if _, err := insertRow(h, Tuple{IntValue(int64(i)), StringValue(fmt.Sprintf("r%d-%s", i, pad))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if len(h.PageIDs()) < 2 {
		t.Fatalf("test needs >=2 pages, got %d", len(h.PageIDs()))
	}
	victim := h.PageIDs()[0]
	data := dataDisk.Bytes()
	data[frameOffset(victim)+100] ^= 0xFF

	db2, err := Open(NewMemDiskFrom(walDisk.Bytes()), NewMemDiskFrom(data), DBOptions{})
	if err != nil {
		t.Fatalf("recovery with corrupt frame must not fail: %v", err)
	}
	if q := db2.Stats().Recovery.PagesQuarantined; q != 1 {
		t.Fatalf("PagesQuarantined = %d, want 1", q)
	}
	h2, _ := db2.File("t")
	healthy := 0
	for _, id := range h2.PageIDs() {
		zones, err := summaryOf(h2, id)
		if id == victim {
			if !errors.Is(err, ErrQuarantined) {
				t.Fatalf("quarantined page summarised (%v, %v) — it could be pruned instead of reported", zones, err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if zones != nil {
			healthy++
		}
	}
	if healthy == 0 {
		t.Fatal("no healthy page was summarised by its read")
	}
	// And the quarantined page still reports on read, as always.
	if _, err := h2.Blind().PageTuplesInto(victim, nil); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("victim read = %v, want ErrQuarantined", err)
	}
}

// TestBuildColZonesZeroWidth: a zero-column tuple yields no summary at
// all — an empty slice would read as "page holds no rows" and prune
// the page's other tuples.
func TestBuildColZonesZeroWidth(t *testing.T) {
	if z := BuildColZones([]Tuple{{IntValue(1)}, {}}); z != nil {
		t.Fatalf("zero-width summary = %v, want nil", z)
	}
	h := newHeap(t)
	if _, err := insertRow(h, Tuple{IntValue(1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := insertRow(h, Tuple{}); err != nil {
		t.Fatal(err)
	}
	if zs, err := summaryOf(h, h.PageIDs()[0]); err != nil || zs != nil {
		t.Fatalf("summary = %v (%v): a page holding a zero-width tuple must have none (always read)", zs, err)
	}
}
