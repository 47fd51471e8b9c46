package session

import (
	"errors"
	"fmt"
	"sync"

	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/storage"
)

// DBSession is one client's transactional connection to a durable
// engine: it owns at most one open transaction and routes statements
// through it. BEGIN/COMMIT/ROLLBACK arrive as SQL; outside an
// explicit transaction each statement runs in its own implicit
// transaction (begun, executed, committed — commit rides the
// group-commit path, so concurrent autocommit sessions share fsyncs).
// DDL keeps the legacy non-versioned path and is rejected inside an
// explicit transaction.
//
// A session is safe for concurrent use, but it is one transaction
// stream: concurrent callers serialise on the session mutex.
type DBSession struct {
	eng *query.Engine
	tm  *storage.TxnManager

	mu     sync.Mutex
	txn    *storage.Txn
	closed bool
}

// ErrNoTxn reports COMMIT/ROLLBACK with no open transaction.
var ErrNoTxn = errors.New("session: no transaction is open")

// ErrSessionClosed reports statement execution on a closed session.
var ErrSessionClosed = errors.New("session: session is closed")

// NewDBSession binds a session to an engine and the DB whose
// transaction manager issues its snapshots. A nil db (volatile
// catalog) degrades to the legacy non-transactional path for every
// statement.
func NewDBSession(eng *query.Engine, db *storage.DB) *DBSession {
	s := &DBSession{eng: eng}
	if db != nil {
		s.tm = db.Txns()
	}
	return s
}

// Engine returns the underlying engine.
func (s *DBSession) Engine() *query.Engine { return s.eng }

// InTxn reports whether an explicit transaction is open.
func (s *DBSession) InTxn() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.txn != nil
}

// Begin opens an explicit transaction.
func (s *DBSession) Begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.beginLocked()
}

func (s *DBSession) beginLocked() error {
	if s.closed {
		return ErrSessionClosed
	}
	if s.tm == nil {
		return fmt.Errorf("session: transactions need a durable DB")
	}
	if s.txn != nil {
		return fmt.Errorf("session: a transaction is already open")
	}
	s.txn = s.tm.Begin()
	return nil
}

// Commit commits the open transaction (through the group-commit
// leader when other sessions are committing concurrently).
func (s *DBSession) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.txn == nil {
		return ErrNoTxn
	}
	t := s.txn
	s.txn = nil
	return t.Commit()
}

// Rollback aborts the open transaction, undoing its writes.
func (s *DBSession) Rollback() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.txn == nil {
		return ErrNoTxn
	}
	t := s.txn
	s.txn = nil
	return t.Rollback()
}

// Txn returns the open explicit transaction, or nil.
func (s *DBSession) Txn() *storage.Txn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.txn
}

// Close rolls back any open transaction and marks the session
// unusable: every later Exec/Begin returns ErrSessionClosed. This is
// the server's teardown guarantee — a client that dies mid-transaction
// cannot strand its row claims. Idempotent; the rollback error (a
// poisoned WAL, at worst) is reported by the first call only.
func (s *DBSession) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if t := s.txn; t != nil {
		s.txn = nil
		return t.Rollback()
	}
	return nil
}

// Exec is ExecOpts with one worker and no per-statement controls.
func (s *DBSession) Exec(sql string) (*query.Result, error) {
	return s.ExecOpts(sql, query.ExecOptions{Workers: 1})
}

// ExecOpts parses and executes one statement in this session's
// transactional context (opts.Txn is the session's to set): transaction
// control is handled inline; everything else runs through
// Engine.ExecuteStmt under the open transaction, or in an implicit one
// outside it, with opts' worker/batch tuning, Cancel hook and memory
// budget. A statement that hits a write conflict inside an explicit
// transaction aborts the whole transaction (first-committer-wins leaves
// it doomed anyway); the conflict error is returned and the session is
// back in autocommit. This is the server front-end's entry point — one
// parse, one lock acquisition per statement.
func (s *DBSession) ExecOpts(sql string, opts query.ExecOptions) (*query.Result, error) {
	st, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	switch st.(type) {
	case *query.BeginStmt:
		if err := s.beginLocked(); err != nil {
			return nil, err
		}
		return &query.Result{}, nil
	case *query.CommitStmt:
		if s.txn == nil {
			return nil, ErrNoTxn
		}
		t := s.txn
		s.txn = nil
		if err := t.Commit(); err != nil {
			return nil, err
		}
		return &query.Result{}, nil
	case *query.RollbackStmt:
		if s.txn == nil {
			return nil, ErrNoTxn
		}
		t := s.txn
		s.txn = nil
		if err := t.Rollback(); err != nil {
			return nil, err
		}
		return &query.Result{}, nil
	}

	if opts.Txn = s.txn; opts.Txn != nil {
		res, _, err := s.eng.ExecuteStmt(st, opts)
		if errors.Is(err, storage.ErrWriteConflict) {
			t := s.txn
			s.txn = nil
			if rbErr := t.Rollback(); rbErr != nil {
				return nil, errors.Join(err, rbErr)
			}
		}
		return res, err
	}
	return s.autocommit(st, opts)
}

// autocommit runs one statement outside an explicit transaction: DDL
// (and any statement on a non-durable engine) takes the legacy
// unversioned path; a read gets its own snapshot, so it cannot see other
// sessions' uncommitted writes, and rolls it back (read-only: no WAL
// traffic); DML gets an implicit transaction so a multi-row statement is
// atomic and its commit can share an fsync with concurrent sessions.
func (s *DBSession) autocommit(st query.Stmt, opts query.ExecOptions) (*query.Result, error) {
	switch st.(type) {
	case *query.CreateTableStmt, *query.CreateIndexStmt, *query.AnalyzeStmt:
	default:
		if s.tm != nil {
			opts.Txn = s.tm.Begin()
		}
	}
	res, _, err := s.eng.ExecuteStmt(st, opts)
	if opts.Txn == nil {
		return res, err
	}
	if _, read := st.(*query.SelectStmt); read || err != nil {
		return res, errors.Join(err, opts.Txn.Rollback())
	}
	if err := opts.Txn.Commit(); err != nil {
		return nil, err
	}
	return res, nil
}
