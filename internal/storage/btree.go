package storage

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// btreeOrder is the max children per internal node / max entries per
// leaf.
const btreeOrder = 64

// BTree is an in-memory B+-tree index mapping Values to RID postings,
// ordered by keyCompare. Deletion is lazy (postings are removed;
// structural underflow is tolerated), the common choice for
// main-memory indexes where rebalancing buys little.
type BTree struct {
	mu    sync.RWMutex
	name  string
	root  *btNode
	size  int // live (key,rid) postings
	depth int
	nans  atomic.Int64 // postings under the NaN key
}

type btNode struct {
	leaf     bool
	keys     []Value
	children []*btNode // internal: len(keys)+1
	rids     [][]RID   // leaf: parallel to keys
	next     *btNode   // leaf chain for range scans
}

// NewBTree returns an empty index.
func NewBTree(name string) *BTree {
	return &BTree{name: name, root: &btNode{leaf: true}, depth: 1}
}

// Name returns the index name.
func (t *BTree) Name() string { return t.name }

// Len returns the number of (key,rid) postings.
func (t *BTree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// Depth returns the tree height.
func (t *BTree) Depth() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.depth
}

// Insert adds a posting.
func (t *BTree) Insert(key Value, rid RID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	midKey, right := t.insert(t.root, key, rid)
	if right != nil {
		t.root = &btNode{
			keys:     []Value{midKey},
			children: []*btNode{t.root, right},
		}
		t.depth++
	}
	t.size++
	if isNaNKey(key) {
		t.nans.Add(1)
	}
}

// insert returns a promoted (key, rightSibling) when node splits.
func (t *BTree) insert(n *btNode, key Value, rid RID) (Value, *btNode) {
	if n.leaf {
		i := lowerBound(n.keys, key)
		if i < len(n.keys) && keyCompare(n.keys[i], key) == 0 {
			n.rids[i] = append(n.rids[i], rid)
			return Value{}, nil
		}
		n.keys = append(n.keys, Value{})
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.rids = append(n.rids, nil)
		copy(n.rids[i+1:], n.rids[i:])
		n.rids[i] = []RID{rid}
		if len(n.keys) < btreeOrder {
			return Value{}, nil
		}
		return t.splitLeaf(n)
	}
	i := upperBound(n.keys, key)
	midKey, right := t.insert(n.children[i], key, rid)
	if right == nil {
		return Value{}, nil
	}
	n.keys = append(n.keys, Value{})
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = midKey
	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i+1] = right
	if len(n.children) <= btreeOrder {
		return Value{}, nil
	}
	return t.splitInternal(n)
}

func (t *BTree) splitLeaf(n *btNode) (Value, *btNode) {
	mid := len(n.keys) / 2
	right := &btNode{
		leaf: true,
		keys: append([]Value(nil), n.keys[mid:]...),
		rids: append([][]RID(nil), n.rids[mid:]...),
		next: n.next,
	}
	n.keys = n.keys[:mid]
	n.rids = n.rids[:mid]
	n.next = right
	return right.keys[0], right
}

func (t *BTree) splitInternal(n *btNode) (Value, *btNode) {
	mid := len(n.keys) / 2
	midKey := n.keys[mid]
	right := &btNode{
		keys:     append([]Value(nil), n.keys[mid+1:]...),
		children: append([]*btNode(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return midKey, right
}

// keyCompare is the tree's key order: Compare's, except that NaN sorts
// after every number and equals only NaN. (Compare calls NaN equal to
// every number, under which one tree would file NaN, 5 and 7 as one key.)
func keyCompare(a, b Value) int {
	an, bn := isNaNKey(a), isNaNKey(b)
	if an || bn {
		_, aNum := a.AsFloat()
		_, bNum := b.AsFloat()
		switch {
		case an && bn:
			return 0
		case an && bNum:
			return 1
		case bn && aNum:
			return -1
		}
	}
	return Compare(a, b)
}

func isNaNKey(v Value) bool { return v.Kind == KindFloat && math.IsNaN(v.Float) }

// HasNaN reports whether any posting is filed under the NaN key, which
// no range bounded above by a number reaches.
func (t *BTree) HasNaN() bool { return t.nans.Load() > 0 }

// lowerBound returns the first index with keys[i] >= key.
func lowerBound(keys []Value, key Value) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keyCompare(keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the child index to descend for key.
func upperBound(keys []Value, key Value) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keyCompare(keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Search returns the postings for key (nil if absent).
func (t *BTree) Search(key Value) []RID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	for !n.leaf {
		n = n.children[upperBound(n.keys, key)]
	}
	i := lowerBound(n.keys, key)
	if i < len(n.keys) && keyCompare(n.keys[i], key) == 0 {
		return append([]RID(nil), n.rids[i]...)
	}
	return nil
}

// Range calls fn for every posting with lo <= key <= hi, in key
// order; fn returning false stops the scan.
func (t *BTree) Range(lo, hi Value, fn func(key Value, rid RID) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	for !n.leaf {
		n = n.children[upperBound(n.keys, lo)]
	}
	// lowerBound may land us mid-leaf; walk the leaf chain.
	for n != nil {
		for i := range n.keys {
			if keyCompare(n.keys[i], lo) < 0 {
				continue
			}
			if keyCompare(n.keys[i], hi) > 0 {
				return
			}
			for _, rid := range n.rids[i] {
				if !fn(n.keys[i], rid) {
					return
				}
			}
		}
		n = n.next
	}
}

// Delete removes one posting (key,rid); returns whether it existed.
func (t *BTree) Delete(key Value, rid RID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.root
	for !n.leaf {
		n = n.children[upperBound(n.keys, key)]
	}
	i := lowerBound(n.keys, key)
	if i >= len(n.keys) || keyCompare(n.keys[i], key) != 0 {
		return false
	}
	for j, r := range n.rids[i] {
		if r == rid {
			n.rids[i] = append(n.rids[i][:j], n.rids[i][j+1:]...)
			t.size--
			if isNaNKey(key) {
				t.nans.Add(-1)
			}
			if len(n.rids[i]) == 0 {
				n.keys = append(n.keys[:i], n.keys[i+1:]...)
				n.rids = append(n.rids[:i], n.rids[i+1:]...)
			}
			return true
		}
	}
	return false
}

// Keys returns all distinct keys in order (diagnostics).
func (t *BTree) Keys() []Value {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	var out []Value
	for n != nil {
		out = append(out, n.keys...)
		n = n.next
	}
	return out
}

// Validate checks structural invariants (test hook): key order within
// and across leaves, and size consistency.
func (t *BTree) Validate() error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	keys := []Value{}
	count := 0
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	for n != nil {
		for i := range n.keys {
			keys = append(keys, n.keys[i])
			count += len(n.rids[i])
			if len(n.rids[i]) == 0 {
				return fmt.Errorf("btree %s: empty posting list", t.name)
			}
		}
		n = n.next
	}
	for i := 1; i < len(keys); i++ {
		if keyCompare(keys[i-1], keys[i]) >= 0 {
			return fmt.Errorf("btree %s: keys out of order at %d", t.name, i)
		}
	}
	if count != t.size {
		return fmt.Errorf("btree %s: size %d != counted %d", t.name, t.size, count)
	}
	return nil
}
