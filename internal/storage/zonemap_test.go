// Zone-map unit tests: category/range summaries, the
// invalidate-around-mutate protocol (writers bump the generation both
// before and after the page op), generation-checked installs, and the
// quarantine rules (an unreadable page never gets an entry, and loses
// any entry it had when it goes unreadable).
package storage

import (
	"errors"
	"fmt"
	"math"
	"strings"
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

func TestZoneMapsGenerationGuardsInstall(t *testing.T) {
	var zm ZoneMaps
	id := PageID(7)
	gen := zm.generation(id)
	// A racing invalidation between read and install drops the entry.
	zm.invalidate(id)
	zm.install(id, gen, []ColZone{{HasNum: true}})
	if got := zm.snapshot([]PageID{id}); got[0] != nil {
		t.Fatalf("stale install accepted: %v", got[0])
	}
	// Clean install lands.
	gen = zm.generation(id)
	zm.install(id, gen, []ColZone{{HasNum: true}})
	if got := zm.snapshot([]PageID{id}); got[0] == nil {
		t.Fatal("clean install dropped")
	}
	zm.reset()
	if got := zm.snapshot([]PageID{id}); got[0] != nil {
		t.Fatal("reset kept an entry")
	}
}

// TestHeapFileZoneInvalidation: an insert invalidates the entry of the
// page it lands on; claims and deletes leave entries in place (a
// version-header rewrite or a removal keeps the summary a superset).
func TestHeapFileZoneInvalidation(t *testing.T) {
	h := newHeap(t)
	var rids []RID
	for i := 0; i < 400; i++ {
		rid, err := insertRow(h, Tuple{IntValue(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := h.BuildZoneMaps(); err != nil {
		t.Fatal(err)
	}
	ids := h.PageIDs()
	if len(ids) < 3 {
		t.Fatalf("fixture spans %d pages, want >= 3", len(ids))
	}
	for i, z := range h.Blind().PageZones(ids) {
		if z == nil {
			t.Fatalf("page %d has no zone after build", ids[i])
		}
	}

	// An update claims the old version in place (page 0 keeps its
	// entry) and appends the new one (the last page loses its entry).
	tx := h.db.Txns().Begin()
	if _, err := tx.Update(h, rids[0], Tuple{IntValue(9999)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	zs := h.Blind().PageZones(ids)
	if zs[len(zs)-1] != nil {
		t.Fatal("the page the new version landed on kept a stale zone entry")
	}
	if zs[0] == nil || zs[1] == nil {
		t.Fatal("a claim or an untouched page lost its zone entry")
	}

	// Rebuild, then delete: the entry stays (conservative superset).
	if err := h.BuildZoneMaps(); err != nil {
		t.Fatal(err)
	}
	if err := h.Delete(rids[1]); err != nil {
		t.Fatal(err)
	}
	if zs := h.Blind().PageZones(ids[:1]); zs[0] == nil {
		t.Fatal("delete invalidated a zone entry; removal keeps the summary a superset")
	}
}

// TestWriteInvalidatesAroundMutation: every completed write moves the
// page generation by at least two — one invalidation before the page
// op and one after. The second bump is the fix for the lost-write
// race: a builder that read the generation after the writer's
// pre-write invalidation but decoded the pre-write image would
// otherwise pass the install check and publish a summary missing the
// new value.
func TestWriteInvalidatesAroundMutation(t *testing.T) {
	h := newHeap(t)
	rid, err := insertRow(h, Tuple{IntValue(1)})
	if err != nil {
		t.Fatal(err)
	}
	id := rid.Page
	g := h.zm.generation(id)
	if _, err := insertRow(h, Tuple{IntValue(2)}); err != nil {
		t.Fatal(err)
	}
	if got := h.zm.generation(id); got < g+2 {
		t.Fatalf("insert moved generation %d -> %d, want pre- AND post-mutation invalidation", g, got)
	}
}

// assertZonesCoverPages checks the soundness invariant a scan relies
// on: every tuple currently on a page with a zone entry is covered by
// that entry (nil entries are fine — the page is simply scanned).
func assertZonesCoverPages(t *testing.T, h *HeapFile) {
	t.Helper()
	ids := h.PageIDs()
	for pi, zones := range h.Blind().PageZones(ids) {
		if zones == nil {
			continue
		}
		ts, err := h.Blind().PageTuplesInto(ids[pi], nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, tu := range ts {
			for c, v := range tu {
				if c >= len(zones) {
					break
				}
				z := zones[c]
				covered := false
				switch v.Kind {
				case KindNull:
					covered = z.HasNull
				case KindString:
					covered = z.HasStr && z.MinS <= v.Str && z.MaxS >= v.Str
				case KindInt, KindFloat, KindBool:
					f, _ := v.AsFloat()
					if math.IsNaN(f) {
						covered = z.HasNaN
					} else {
						covered = z.HasNum && z.MinF <= f && z.MaxF >= f
					}
				}
				if !covered {
					t.Fatalf("page %d col %d: %v not covered by %+v", ids[pi], c, v, z)
				}
			}
		}
	}
}

// TestZoneBuildConcurrentWriterNeverStale races BuildZoneMaps against
// a writer inserting values far outside the seeded range, then checks
// that no surviving entry omits a committed row — the interleaving
// where the builder decodes a page between a writer's pre-write
// invalidation and the write itself must never leave a stale summary
// once the writes have returned.
func TestZoneBuildConcurrentWriterNeverStale(t *testing.T) {
	h := newHeap(t)
	for i := 0; i < 200; i++ {
		if _, err := insertRow(h, Tuple{IntValue(int64(i % 50))}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 500; i++ {
			if _, err := insertRow(h, Tuple{IntValue(int64(100000 + i))}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 200; i++ {
		if err := h.BuildZoneMaps(); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	assertZonesCoverPages(t, h)
}

// TestZoneMapsPruneSoundnessRandom: for every page of a mixed-value
// heap, any tuple on the page must be absorbed by the page's built
// zone — i.e. each column's category flag covers the value.
func TestZoneMapsPruneSoundnessRandom(t *testing.T) {
	h := newHeap(t)
	vals := []Value{
		IntValue(-100), IntValue(0), IntValue(100),
		FloatValue(-0.0), FloatValue(math.NaN()), FloatValue(2.5),
		StringValue(""), StringValue("zz"), BoolValue(false), NullValue(),
	}
	for i := 0; i < 300; i++ {
		if _, err := insertRow(h, Tuple{vals[i%len(vals)], vals[(i*7+3)%len(vals)]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.BuildZoneMaps(); err != nil {
		t.Fatal(err)
	}
	ids := h.PageIDs()
	for pi, zones := range h.Blind().PageZones(ids) {
		ts, err := h.Blind().PageTuplesInto(ids[pi], nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, tu := range ts {
			for c, v := range tu {
				z := zones[c]
				covered := false
				switch v.Kind {
				case KindNull:
					covered = z.HasNull
				case KindString:
					covered = z.HasStr && z.MinS <= v.Str && z.MaxS >= v.Str
				case KindInt, KindFloat, KindBool:
					f, _ := v.AsFloat()
					if math.IsNaN(f) {
						covered = z.HasNaN
					} else {
						covered = z.HasNum && z.MinF <= f && z.MaxF >= f
					}
				}
				if !covered {
					t.Fatalf("page %d col %d: %v not covered by %+v", ids[pi], c, v, z)
				}
			}
		}
	}
}

// TestZoneMapsQuarantinedPageNeverTrusted: after recovery quarantines
// a corrupt page, that page must have no zone entry (scans must touch
// and report it), while healthy pages keep theirs.
func TestZoneMapsQuarantinedPageNeverTrusted(t *testing.T) {
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
	ids := h2.PageIDs()
	zones := h2.Blind().PageZones(ids)
	healthy := 0
	for i, id := range ids {
		if id == victim {
			if zones[i] != nil {
				t.Fatal("quarantined page has a zone entry — it could be pruned instead of reported")
			}
			continue
		}
		if zones[i] != nil {
			healthy++
		}
	}
	if healthy == 0 {
		t.Fatal("recovery built no zone entries for healthy pages")
	}
	// And the quarantined page still reports on read, as always.
	if _, err := h2.Blind().PageTuplesInto(victim, nil); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("victim read = %v, want ErrQuarantined", err)
	}
}

// TestQuarantineDropsZoneEntry: a page quarantined AFTER its entry was
// built (checksum failure on a later re-read) must lose the entry, so
// every subsequent scan touches the page and reports ErrQuarantined
// instead of pruning past the corruption.
func TestQuarantineDropsZoneEntry(t *testing.T) {
	h := newHeap(t)
	bm := h.bm
	for i := 0; i < 8; i++ {
		if _, err := insertRow(h, Tuple{IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.BuildZoneMaps(); err != nil {
		t.Fatal(err)
	}
	id := h.PageIDs()[0]
	if h.Blind().PageZones([]PageID{id})[0] == nil {
		t.Fatal("no zone entry after build")
	}
	bm.Quarantine(id, ErrChecksum)
	if h.Blind().PageZones([]PageID{id})[0] != nil {
		t.Fatal("quarantined page kept its zone entry — a scan could prune it instead of reporting")
	}
	// Rebuilding leaves it zone-less (builder skips quarantined pages)…
	if err := h.BuildZoneMaps(); err != nil {
		t.Fatal(err)
	}
	if h.Blind().PageZones([]PageID{id})[0] != nil {
		t.Fatal("rebuild installed an entry for a quarantined page")
	}
	// …and touching it still reports.
	if _, err := h.Blind().PageTuplesInto(id, nil); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("quarantined page read = %v, want ErrQuarantined", err)
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
	if err := h.BuildZoneMaps(); err != nil {
		t.Fatal(err)
	}
	if zs := h.Blind().PageZones(h.PageIDs()); zs[0] != nil {
		t.Fatal("page holding a zero-width tuple must stay zone-less (always scanned)")
	}
}

// TestCheckpointBuildsZones: the durable build point.
func TestCheckpointBuildsZones(t *testing.T) {
	db, err := Open(NewMemDisk(), NewMemDisk(), DBOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := db.CreateFile("t")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := insertRow(h, Tuple{IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	ids := h.PageIDs()
	for _, z := range h.Blind().PageZones(ids) {
		if z != nil {
			t.Fatal("zone entry exists before any build point")
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i, z := range h.Blind().PageZones(ids) {
		if z == nil {
			t.Fatalf("page %d has no zone after checkpoint", ids[i])
		}
	}
}
