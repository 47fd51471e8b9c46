package storage_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/storage"
)

// verdictShapes are the creator shapes the differential verdict test
// builds its pages from: how many loader transactions write the rows,
// how many rows each writes in all, and how the last one ends.
var verdictShapes = []struct {
	name            string
	loaders         [2]int // inclusive range
	rows            [2]int // per loader, inclusive range
	inflight, crash bool   // the last loader never commits; then the DB crashes
}{
	{"one-creator", [2]int{1, 1}, [2]int{100, 300}, false, false},
	{"loaders", [2]int{2, 4}, [2]int{30, 120}, false, false},
	{"many-creators", [2]int{5, 8}, [2]int{5, 30}, false, false},
	{"inflight-creator", [2]int{2, 4}, [2]int{20, 80}, true, false},
	{"aborted-creator", [2]int{2, 4}, [2]int{20, 80}, true, true},
}

// TestPageVerdictMatchesPerRowFilter is the differential check of the
// page verdict (Page.rowsInto): over seeded pages of every creator
// shape, carrying own inserts and deletes (Snapshot.Self), committed
// and in-flight claims, every page read under every snapshot taken
// before and after each commit returns exactly the tuples and RIDs
// that judging each version on its own returns. The per-row oracle is
// HeapView.Get, which judges one version header with
// TxnManager.visible. Every page is read between writes too, so each
// write after a page's first derives the page's cached decode image
// and the verdicts are judged on maintained images.
func TestPageVerdictMatchesPerRowFilter(t *testing.T) {
	for _, shape := range verdictShapes {
		for seed := int64(1); seed <= 25; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", shape.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				wal, data := storage.NewMemDisk(), storage.NewMemDisk()
				db, h := openVerdictDB(t, wal, data, true)
				var readers []*storage.Txn
				snap := func() { readers = append(readers, db.Txns().Begin()) }

				// The creators: loaders interleave runs of inserts, then
				// commit in a random order, a snapshot on either side of
				// each commit.
				loaders := make([]*storage.Txn, between(rng, shape.loaders))
				left := make([]int, len(loaders))
				for i := range loaders {
					loaders[i] = db.Txns().Begin()
					left[i] = between(rng, shape.rows)
				}
				key := int64(0)
				for busy := len(loaders); busy > 0; {
					i := rng.Intn(len(loaders))
					for run := 1 + rng.Intn(10); run > 0 && left[i] > 0; run-- {
						insertKey(t, loaders[i], h, &key)
						if left[i]--; left[i] == 0 {
							busy--
						}
					}
				}
				order := rng.Perm(len(loaders))
				if shape.inflight {
					order = order[:len(order)-1]
				}
				for _, i := range order {
					snap()
					if err := loaders[i].Commit(); err != nil {
						t.Fatal(err)
					}
					snap()
				}
				checkVerdicts(t, h, readers)

				// The claims: one committed, one left in flight.
				committed := db.Txns().Begin()
				claimRows(t, rng, committed, h)
				snap()
				if err := committed.Commit(); err != nil {
					t.Fatal(err)
				}
				snap()
				checkVerdicts(t, h, readers)
				claimRows(t, rng, db.Txns().Begin(), h)
				snap()
				readers = append(readers, ownWriters(t, rng, db, h, &key)...)
				checkVerdicts(t, h, readers)
				if !shape.crash {
					return
				}

				// Crash with the last loader and the in-flight claim
				// undecided; recovery marks both aborted, and their
				// versions stay behind on the pages.
				db, h = openVerdictDB(t, storage.NewMemDiskFrom(wal.Bytes()), storage.NewMemDiskFrom(data.Bytes()), false)
				readers = []*storage.Txn{db.Txns().Begin()}
				readers = append(readers, ownWriters(t, rng, db, h, &key)...)
				snap()
				checkVerdicts(t, h, readers)
			})
		}
	}
}

// openVerdictDB opens a DB over wal and data and its durable catalog,
// creating the verdict test's table on a fresh DB and restoring it
// from the recovered one otherwise.
func openVerdictDB(t *testing.T, wal, data *storage.MemDisk, fresh bool) (*storage.DB, *storage.HeapFile) {
	t.Helper()
	db, err := storage.Open(wal, data, storage.DBOptions{Sync: storage.SyncManual})
	if err != nil {
		t.Fatal(err)
	}
	cat, err := query.NewDurableCatalog(db)
	if err != nil {
		t.Fatal(err)
	}
	if fresh {
		if _, err := cat.CreateTable("rows", []query.Column{{Name: "k", Type: query.TInt}, {Name: "s", Type: query.TString}}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := cat.Table("rows")
	if err != nil {
		t.Fatal(err)
	}
	return db, tbl.Heap
}

// between draws from the inclusive range r.
func between(rng *rand.Rand, r [2]int) int { return r[0] + rng.Intn(r[1]-r[0]+1) }

// insertKey inserts the next key's row through tx.
func insertKey(t *testing.T, tx *storage.Txn, h *storage.HeapFile, key *int64) {
	t.Helper()
	*key++
	if _, err := tx.Insert(h, storage.Tuple{storage.IntValue(*key), storage.StringValue(fmt.Sprintf("k%d", *key))}); err != nil {
		t.Fatal(err)
	}
	readPages(t, h)
}

// readPages reads every page of h, caching each one's decode image for
// the next write to derive from.
func readPages(t *testing.T, h *storage.HeapFile) {
	t.Helper()
	for _, id := range h.PageIDs() {
		if _, _, err := h.Blind().PageRowsInto(id, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// claimRows has tx delete one or two rows on about half the pages,
// skipping the versions it may not claim (an invisible creator,
// another's claim).
func claimRows(t *testing.T, rng *rand.Rand, tx *storage.Txn, h *storage.HeapFile) {
	t.Helper()
	for _, id := range h.PageIDs() {
		_, rids, err := h.Blind().PageRowsInto(id, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for n := rng.Intn(3); n > 0 && len(rids) > 0; n-- {
			err := tx.Delete(h, rids[rng.Intn(len(rids))])
			if err != nil && !errors.Is(err, storage.ErrWriteConflict) {
				t.Fatal(err)
			}
			readPages(t, h)
		}
	}
}

// ownWriters returns two readers that wrote: one inserted rows of its
// own, one deleted a row it could see.
func ownWriters(t *testing.T, rng *rand.Rand, db *storage.DB, h *storage.HeapFile, key *int64) []*storage.Txn {
	t.Helper()
	ins := db.Txns().Begin()
	for n := 1 + rng.Intn(20); n > 0; n-- {
		insertKey(t, ins, h, key)
	}
	del := db.Txns().Begin()
	claimRows(t, rng, del, h)
	return []*storage.Txn{ins, del}
}

// checkVerdicts reads every page of h, as it is now, under each
// reader's snapshot and compares both page reads with the per-row
// oracle.
func checkVerdicts(t *testing.T, h *storage.HeapFile, readers []*storage.Txn) {
	t.Helper()
	for r, tx := range readers {
		v := tx.View(h)
		for _, id := range h.PageIDs() {
			_, all, err := h.Blind().PageRowsInto(id, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			var want []storage.Tuple
			var wantRIDs []storage.RID
			for _, rid := range all {
				tu, err := v.Get(rid)
				if errors.Is(err, storage.ErrNotFound) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, tu)
				wantRIDs = append(wantRIDs, rid)
			}
			got, err := v.PageTuplesInto(id, nil)
			if err != nil {
				t.Fatal(err)
			}
			gotRows, gotRIDs, err := v.PageRowsInto(id, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotRows, want) || !reflect.DeepEqual(gotRIDs, wantRIDs) {
				t.Fatalf("reader %d (snapshot %+v), page %d: PageTuplesInto %d rows, PageRowsInto %d; the per-row filter %d",
					r, tx.Snapshot(), id, len(got), len(gotRows), len(want))
			}
		}
	}
}
