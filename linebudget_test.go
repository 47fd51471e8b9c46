package adm

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Non-test lines of internal/query + internal/operators: 7974 with the
// pooled build scatter, the hash index join and GROUP BY share and the
// NaN postings an index range must still hand its predicate; 7967 once
// every catalog is a DB and every statement runs in a transaction (the
// nil-transaction paths out, engine autocommit and the statement
// savepoint in). Raise it in the change that needs the lines, with the
// reason in its CHANGES.md entry.
//
// 7963 with one heap reader (the HeapReader interface and the zone-map
// type assertions out). 7230 with one SELECT executor (the Volcano
// reference path and its operators out). 7237 once COUNT(col) skips
// NULLs (AggSpec.NonNull and the accumulator reading COUNT's column).
// 6886 with one operator protocol (Iterator, BatchIterator, their scans
// and the adapters between them out; every operator a BatchSource).
// 6936 with streamed results (StreamParallelBatches and the row sink a
// bare scan streams into; the per-worker drain slices and their merge
// out). 6932 without Catalog.Buffer and NewCatalog's frame count.
// 6977 with the WHERE run inside the page read (the class-switch and
// branch-free loops over column vectors, each worker's kernel pass and
// its published tallies; FilterKernel.Apply out). 6969 with one
// aggregate engine: the resumable aggregate reads pages through the one
// page read and folds by the pipeline's accumulator (its materialised
// rows, own fold and String-rendering checksum out), and MIN/MAX fold
// by ORDER BY's order; Catalog.Tables, FilterKernel.NumPreds,
// MemBudget.Used and Limit, which nothing called, and joinKey, the
// timed joins' second key rule, out. 6955 with the page veto inside
// the page read (HeapBatches' zone snapshot, its veto branch and
// FilterKernel.countPage out).
const engineLineBudget = 6955

// Non-test lines of internal/storage: 4885 with two record formats and
// detached heap files, 4551 with one of each (versioned records, every
// heap file in a DB). The same rule as the engine's.
//
// 4476 with one heap reader (a view holds its transaction; HeapFile's
// blind reads, the Visibility closure and ZoneReader out). 4516 with the
// page verdict (the decode image's version summary and a snapshot
// scan's remembered creator verdict). 4555 with a copy-on-write decode
// image (an insert and an Xmax stamp derive the next image instead of
// dropping it). 4195 with one page table: the policies, shards and
// Store out. 4324 with column vectors on the decode image and a filter
// inside the one page read (setLSN, and FreeSpace and LiveBytes, which
// only tests called, out). 4197 with zone summaries on the decode
// image: the per-file zone-map table, its generations, its build and
// the three build points, the view's zone snapshot and the quarantine
// callback registry out.
const storageLineBudget = 4197

// TestLineBudgets counts the non-test lines (newlines in every .go file
// that is not a _test.go file) of the engine and of storage, and fails
// above either budget: either may grow, but only with a reason — and a
// diff to its one constant.
func TestLineBudgets(t *testing.T) {
	for _, b := range []struct {
		dirs   []string
		budget int
	}{
		{[]string{"internal/query", "internal/operators"}, engineLineBudget},
		{[]string{"internal/storage"}, storageLineBudget},
	} {
		lines := 0
		for _, dir := range b.dirs {
			n, err := nonTestLines(dir)
			if err != nil {
				t.Fatal(err)
			}
			lines += n
		}
		name := strings.Join(b.dirs, " + ")
		t.Logf("%s: %d non-test lines (budget %d)", name, lines, b.budget)
		if lines > b.budget {
			t.Errorf("size regression: %s at %d non-test lines, budget %d", name, lines, b.budget)
		}
	}
}

// nonTestLines counts the newlines in the non-test .go files under dir.
func nonTestLines(dir string) (int, error) {
	n := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		n += bytes.Count(src, []byte{'\n'})
		return err
	})
	return n, err
}
