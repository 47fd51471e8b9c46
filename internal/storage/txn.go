// Snapshot-isolation MVCC over the LSN clock, as a component layered
// on (not into) the storage engine — the Transparent Concurrency
// Control decoupling applied to this substrate. The design, end to
// end:
//
//   - Timestamps are WAL LSNs. A transaction's snapshot is the LSN of
//     the last *published* commit at Begin; a version (Xmin, Xmax) is
//     visible when Xmin committed at or before that horizon (or is the
//     reader itself) and Xmax did not.
//   - Writes are eager: inserts land immediately with Xmin = writer,
//     deletes stamp Xmax in place under the page latch. Stamping Xmax
//     doubles as the row write lock — the claim's decide callback
//     rejects a version whose Xmax belongs to a live or
//     newer-committed transaction, which is first-claimer-wins and
//     hence first-committer-wins under SI.
//   - Rollback undoes physically (tombstone own inserts, clear claimed
//     Xmax) through the ordinary logged mutation path, so the redo log
//     stays redo-only.
//   - Commit is a group: committers enqueue; the first to arrive with
//     no leader active is elected leader and drains the queue, appends
//     every RecTxnCommit, places ONE Sync barrier for the whole batch
//     (the SyncManual contract), then publishes the commits in LSN
//     order, looping while new committers accumulate behind the
//     barrier. Publication order is what keeps snapshots
//     prefix-consistent: a horizon can never include a later commit
//     while excluding an earlier one.
//   - The commit table is written once per transaction and read per
//     distinct creator of each scanned page (per row on claimed pages),
//     so it is an append-only array of atomics indexed by id (see
//     TxnManager.dir): visibility, conflicts and Begin take no latch.
package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrWriteConflict reports a first-committer-wins serialization
// failure: the transaction tried to delete or update a row version a
// concurrent transaction already claimed (or committed over). The
// transaction must abort and retry.
var ErrWriteConflict = errors.New("storage: write conflict")

// ErrTxnDone is returned when a finished transaction is used again.
var ErrTxnDone = errors.New("storage: transaction already finished")

// Snapshot is a transaction's read horizon.
type Snapshot struct {
	// High is the commit-LSN horizon: versions whose creator committed
	// at an LSN <= High existed at Begin.
	High uint64
	// Self is the owning transaction: its own writes are visible (and
	// its own deletes are not). 0 until the transaction's first write.
	Self uint64
}

// txnAborted is the commit-table slot of a rolled-back transaction.
// It is above every LSN, so it fails `lsn <= High` by itself.
const txnAborted = ^uint64(0)

// A txnChunk is 4096 commit-table slots: 32 KiB, the unit of growth.
const txnChunkBits = 12

type txnChunk [1 << txnChunkBits]atomic.Uint64

// TxnManager issues transactions and commit timestamps over one DB's
// WAL LSN clock. Every write goes through one of its transactions, and
// every query reads through one's snapshot (a HeapView).
type TxnManager struct {
	db *DB

	// The commit table. Slot id holds 0 while transaction id is in
	// flight, txnAborted once it rolled back, else its commit LSN. dir
	// is the chunk directory; a decision landing in a chunk that does
	// not exist yet republishes it (copy + CAS; chunks are shared, so
	// no store is lost). Ids are drawn at a transaction's first write
	// and chunks are allocated when first decided in, never pre-sized
	// (a larger live heap re-paces the GC of the whole server): the
	// table costs 8 bytes per WRITING transaction.
	//
	// Publication order: the leader stores a batch's slots in LSN
	// order, then high. These are sequentially consistent atomics, so
	// a snapshot that loaded high = h happens-after every slot store
	// with LSN <= h and reads exactly those LSNs. A commit published
	// later has LSN > h: whether its slot reads 0 or its LSN, the
	// verdict is "not in the snapshot", as it is for txnAborted. So
	// committedAt(id, snap) is an immutable function of its arguments
	// and every horizon is a prefix of the commit order, latch-free.
	dir    atomic.Pointer[[]*txnChunk]
	high   atomic.Uint64 // last published commit LSN
	nextID atomic.Uint64 // last id drawn

	// gcMu guards the commit queue and the leader flag (level 53,
	// "txn-commit"). The flag IS the leader election: the first
	// committer to enqueue while no leader is active becomes the
	// leader and loops flushing batches until the queue drains;
	// everyone else just waits on its done channel. Followers never
	// contend on a leader lock — that shape degenerates into a baton
	// convoy where every committer pays its own Sync.
	gcMu      sync.Mutex
	gcLeading bool
	queue     []*commitReq

	groups, batched, aborts atomic.Uint64

	// active counts Begin-without-finish transactions: the leak oracle
	// the server's connection-fault matrix asserts returns to zero
	// after every disconnect scenario (an abandoned session must not
	// strand its claims).
	active atomic.Int64
}

type commitReq struct {
	id   uint64
	done chan error
}

// TxnStats is the manager's counter snapshot.
type TxnStats struct {
	// Groups is the number of commit batches flushed (one Sync each);
	// Batched is the transactions committed through them — Batched /
	// Groups is the realised group-commit fan-in.
	Groups, Batched uint64
	// Aborts counts rollbacks (explicit and conflict-forced).
	Aborts uint64
}

// newTxnManager wires a manager with an empty commit table over db;
// recoverCommitTable fills it from the log.
func newTxnManager(db *DB) *TxnManager {
	tm := &TxnManager{db: db}
	tm.dir.Store(new([]*txnChunk))
	return tm
}

// Stats returns the manager's counters. commitBatch bumps batched
// before groups and this reads them in the opposite order, so
// Groups <= Batched holds in every reading.
func (tm *TxnManager) Stats() TxnStats {
	return TxnStats{Groups: tm.groups.Load(), Batched: tm.batched.Load(), Aborts: tm.aborts.Load()}
}

// Begin opens a transaction with a snapshot of the current commit
// horizon. Read-only transactions are free: no id is drawn and no WAL
// record is written unless the transaction writes.
func (tm *TxnManager) Begin() *Txn {
	tm.active.Add(1)
	return &Txn{tm: tm, high: tm.high.Load()}
}

// Active reports the number of transactions begun but not yet
// committed or rolled back.
func (tm *TxnManager) Active() int64 { return tm.active.Load() }

// slot returns id's slot under directory d, nil when nobody in id's
// chunk has decided yet and the chunk does not exist.
func slot(d []*txnChunk, id uint64) *atomic.Uint64 {
	if c := id >> txnChunkBits; c < uint64(len(d)) && d[c] != nil {
		return &d[c][id&(1<<txnChunkBits-1)]
	}
	return nil
}

// commitLSN reads id's commit-table slot: its commit timestamp, 0
// while it is in flight, txnAborted once it rolled back.
func (tm *TxnManager) commitLSN(id uint64) uint64 {
	if s := slot(*tm.dir.Load(), id); s != nil {
		return s.Load()
	}
	return 0
}

// decide stores id's outcome (a commit LSN or txnAborted) in its slot,
// publishing a grown directory first when id's chunk is new.
func (tm *TxnManager) decide(id, state uint64) {
	for {
		old := tm.dir.Load()
		if s := slot(*old, id); s != nil {
			s.Store(state)
			return
		}
		c := int(id >> txnChunkBits)
		d := make([]*txnChunk, max(c+1, len(*old)))
		copy(d, *old)
		d[c] = new(txnChunk)
		tm.dir.CompareAndSwap(old, &d) // lost the race: retry on the winner's directory
	}
}

// isAborted reports whether id rolled back.
func (tm *TxnManager) isAborted(id uint64) bool { return tm.commitLSN(id) == txnAborted }

// committedAt reports whether id committed within snapshot s.
func (tm *TxnManager) committedAt(id uint64, s Snapshot) bool {
	if id == s.Self {
		return true // own write
	}
	lsn := tm.commitLSN(id)
	return lsn != 0 && lsn <= s.High
}

// visible implements snapshot visibility for one version: its creator
// committed in s (or is s.Self), and no deleter did.
func (tm *TxnManager) visible(v Version, s Snapshot) bool {
	return tm.visibleFrom(tm.committedAt(v.Xmin, s), v, s)
}

// visibleFrom is visible given created = committedAt(v.Xmin, s),
// which a page scan remembers across one creator's rows (rowsInto).
func (tm *TxnManager) visibleFrom(created bool, v Version, s Snapshot) bool {
	return created && (v.Xmax == 0 || !tm.committedAt(v.Xmax, s))
}

// ---------------------------------------------------------------------------
// Txn.

// Txn is one transaction. A Txn is owned by a single session
// goroutine; only its views (View), which read nothing of it but the
// snapshot, may be shared across goroutines (parallel scan workers).
type Txn struct {
	tm     *TxnManager
	high   uint64        // the snapshot horizon
	id     atomic.Uint64 // 0 until the first write draws it
	writes int
	undo   []func() error
	done   bool
}

// ID returns the transaction id: 0 until the transaction has written.
func (t *Txn) ID() uint64 { return t.id.Load() }

// writeID returns the transaction id, drawing it at the first write,
// so the commit table holds a slot per writer, not per statement.
func (t *Txn) writeID() uint64 {
	id := t.id.Load()
	if id == 0 {
		id = t.tm.nextID.Add(1)
		t.id.Store(id)
	}
	return id
}

// Snapshot returns the transaction's read horizon.
func (t *Txn) Snapshot() Snapshot { return Snapshot{High: t.high, Self: t.id.Load()} }

// View binds a heap file to this transaction: the view reads the
// snapshot through the Txn at every call.
func (t *Txn) View(h *HeapFile) *HeapView { return &HeapView{h: h, txn: t} }

// OnRollback registers an undo action (run in reverse registration
// order). Higher layers hang index fix-ups here.
func (t *Txn) OnRollback(fn func() error) { t.undo = append(t.undo, fn) }

// Savepoint marks how far the transaction has written; RollbackTo
// undoes what was written after the mark.
type Savepoint struct{ undo, writes int }

// Savepoint marks the transaction's current write set.
func (t *Txn) Savepoint() Savepoint { return Savepoint{undo: len(t.undo), writes: t.writes} }

// RollbackTo undoes, newest first, every write (and OnRollback action)
// registered since sp — a failed statement's writes — and leaves the
// transaction open, as the statement found it.
func (t *Txn) RollbackTo(sp Savepoint) error {
	if t.done {
		return ErrTxnDone
	}
	t.writes = sp.writes
	return t.undoTo(sp.undo)
}

// undoTo runs the undo actions past the first n, newest first.
func (t *Txn) undoTo(n int) error {
	for len(t.undo) > n {
		fn := t.undo[len(t.undo)-1]
		t.undo = t.undo[:len(t.undo)-1]
		if err := fn(); err != nil {
			// The undo path appends WAL records; a failure there has
			// already poisoned the DB (ErrDBFailed) — nothing more to
			// unwind.
			t.undo = nil
			return err
		}
	}
	return nil
}

// Insert adds a row version owned by this transaction: born with Xmin
// set to the writer, it becomes visible to others only once this
// transaction's commit record is durable.
func (t *Txn) Insert(h *HeapFile, tu Tuple) (RID, error) {
	if t.done {
		return RID{}, ErrTxnDone
	}
	rid, err := h.insertRec(EncodeRecord(tu, Version{Xmin: t.writeID()}))
	if err != nil {
		return RID{}, err
	}
	t.writes++
	t.undo = append(t.undo, func() error { return h.Delete(rid) })
	return rid, nil
}

// Delete claims the row version at rid for deletion
// (first-claimer-wins: a version already claimed by a live
// transaction, or committed over since this snapshot, returns
// ErrWriteConflict). The version stays where it is — invisible to
// later snapshots once this transaction commits — so concurrent
// readers are never blocked.
func (t *Txn) Delete(h *HeapFile, rid RID) error {
	if t.done {
		return ErrTxnDone
	}
	if err := h.SetXmax(rid, t.writeID(), t.claimable); err != nil {
		return err
	}
	t.writes++
	t.undo = append(t.undo, func() error { return h.SetXmax(rid, 0, nil) })
	return nil
}

// claimable is the conflict decision, run under the page write latch
// so it is atomic with the Xmax stamp.
func (t *Txn) claimable(v Version) error {
	if !t.tm.committedAt(v.Xmin, t.Snapshot()) {
		// A version we cannot even see (uncommitted or post-snapshot
		// creator): claiming it would write over a concurrent writer.
		return fmt.Errorf("%w: version created by txn %d", ErrWriteConflict, v.Xmin)
	}
	if v.Xmax == 0 {
		return nil
	}
	if v.Xmax == t.ID() {
		return fmt.Errorf("%w: already deleted in this transaction", ErrWriteConflict)
	}
	if t.tm.isAborted(v.Xmax) {
		return nil // the claimer rolled back: steal the claim
	}
	// Live claimer or one that committed past our snapshot: first
	// claimer wins, we lose.
	return fmt.Errorf("%w: row claimed by txn %d", ErrWriteConflict, v.Xmax)
}

// Update replaces the version at rid: claim the old version, insert
// the new one owned by this transaction. Returns the new version's
// RID.
func (t *Txn) Update(h *HeapFile, rid RID, tu Tuple) (RID, error) {
	if err := t.Delete(h, rid); err != nil {
		return RID{}, err
	}
	return t.Insert(h, tu)
}

// Commit makes the transaction's writes durable and visible. Writing
// transactions ride the group-commit path: one WAL Sync barrier per
// batch of concurrently committing sessions. Read-only transactions
// commit for free.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	t.tm.active.Add(-1)
	t.undo = nil
	if t.writes == 0 {
		return nil
	}
	return t.tm.commitTxn(t.ID())
}

// Rollback undoes the transaction's writes physically (through the
// ordinary logged mutation path) and records the abort. Idempotent
// after Commit-or-Rollback: a second call is a no-op.
func (t *Txn) Rollback() error {
	if t.done {
		return nil
	}
	t.done = true
	t.tm.active.Add(-1)
	if err := t.undoTo(0); err != nil {
		return err
	}
	if t.writes == 0 {
		return nil
	}
	return t.tm.abortTxn(t.ID())
}

// ---------------------------------------------------------------------------
// Group commit.

// commitTxn runs the leader/follower protocol. Enqueue under gcMu;
// if a leader is already active, its drain loop is guaranteed to
// flush this request, so just wait for the verdict. Otherwise become
// the leader: flush the queue as one WAL batch (append every
// RecTxnCommit, ONE Sync, publish), and keep flushing batches that
// accumulated during the Sync until the queue is empty, then retire.
// Election and retirement both happen under gcMu, so a request is
// never enqueued without either an active leader or its owner
// becoming one — no lost wakeups.
func (tm *TxnManager) commitTxn(id uint64) error {
	req := &commitReq{id: id, done: make(chan error, 1)}
	tm.gcMu.Lock()
	tm.queue = append(tm.queue, req)
	if tm.gcLeading {
		tm.gcMu.Unlock()
		return <-req.done
	}
	tm.gcLeading = true
	var own error
	for {
		batch := tm.queue
		tm.queue = nil
		tm.gcMu.Unlock()
		err := tm.commitBatch(batch)
		// Signal outside every lock; channels are buffered so the
		// sends never block. The leader's own request rides the first
		// batch (it was enqueued before the election).
		for _, r := range batch {
			if r == req {
				own = err
				continue
			}
			r.done <- err
		}
		tm.gcMu.Lock()
		if len(tm.queue) == 0 {
			tm.gcLeading = false
			tm.gcMu.Unlock()
			return own
		}
		// Committers arrived while this batch was syncing: flush them
		// too before retiring — they are waiting on their channels and
		// no one else will.
	}
}

// commitBatch appends one RecTxnCommit per transaction, places a
// single Sync barrier for all of them, then publishes the commits in
// LSN order and the horizon last (the order TxnManager.dir's comment
// proves prefix-consistent). Runs under the leader baton.
func (tm *TxnManager) commitBatch(batch []*commitReq) error {
	if err := tm.db.Err(); err != nil {
		return err
	}
	type pub struct{ id, lsn uint64 }
	pubs := make([]pub, 0, len(batch))
	for _, r := range batch {
		lsn, err := tm.db.wal.Append(RecTxnCommit, encodeTxn(r.id))
		if err != nil {
			return tm.db.fail(err)
		}
		pubs = append(pubs, pub{r.id, lsn})
	}
	// The batch's one durability barrier (under SyncEveryRecord each
	// append was already a barrier and this is a cheap no-op).
	if err := tm.db.wal.Sync(); err != nil {
		return tm.db.fail(err)
	}
	for _, p := range pubs {
		tm.decide(p.id, p.lsn)
	}
	tm.high.Store(pubs[len(pubs)-1].lsn)
	tm.batched.Add(uint64(len(batch)))
	tm.groups.Add(1)
	return nil
}

// abortTxn records a rollback: the abort mark makes the id's claims
// stealable, and the (unsynced) abort record documents the decision
// in the log.
func (tm *TxnManager) abortTxn(id uint64) error {
	tm.decide(id, txnAborted)
	tm.aborts.Add(1)
	if err := tm.db.Err(); err != nil {
		return err
	}
	if _, err := tm.db.wal.Append(RecTxnAbort, encodeTxn(id)); err != nil {
		return tm.db.fail(err)
	}
	return nil
}
