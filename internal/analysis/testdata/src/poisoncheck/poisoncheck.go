// Package poisoncheck is the golden fixture for the poisoncheck
// analyzer: WAL/page-file errors must propagate.
package poisoncheck

type WAL struct{}

func (w *WAL) Append(payload []byte) (uint64, error) { return 0, nil }
func (w *WAL) Sync() error                           { return nil }

type PageFile struct{}

func (f *PageFile) WritePage(id uint32, b []byte) error { return nil }

// discarded drops the append error on the floor.
func discarded(w *WAL) {
	w.Append(nil) // want "error from WAL.Append is discarded"
}

// blankAssign discards it through the blank identifier.
func blankAssign(w *WAL) uint64 {
	lsn, _ := w.Append(nil) // want "error from WAL.Append is discarded"
	return lsn
}

// swallowed observes the error but the path returns success anyway.
func swallowed(w *WAL) bool {
	_, err := w.Append(nil) // want "tested but never propagated"
	if err != nil {
		return false
	}
	return true
}

// ignored captures the error into a variable that is never used.
func ignored(f *PageFile) {
	err := f.WritePage(0, nil) // want "captured but never used"
	_ = err
}

// propagated returns the observation: the spine stays intact.
func propagated(w *WAL) error {
	_, err := w.Append(nil)
	if err != nil {
		return err
	}
	return w.Sync()
}

// wrapped feeds the error to a poisoning helper.
func wrapped(w *WAL, fail func(error) error) error {
	_, err := w.Append(nil)
	if err != nil {
		return fail(err)
	}
	return nil
}

// allowTornTail treats a failed read as end-of-log by design.
func allowTornTail(w *WAL) bool {
	_, err := w.Append(nil) //admvet:allow poisoncheck a torn tail record terminates the redo scan by design
	if err != nil {
		return false
	}
	return true
}

type frameConn struct{}

func (fc *frameConn) WriteFrame(t byte, payload []byte) error { return nil }

type DBSession struct{}

func (s *DBSession) Close() error { return nil }

// frameDiscard drops a wire write error, so a torn or stalled
// connection keeps being served as if healthy.
func frameDiscard(fc *frameConn) {
	fc.WriteFrame(0, nil) // want "error from frameConn.WriteFrame is discarded"
}

// sessionCloseDiscard drops the rollback failure inside session close.
func sessionCloseDiscard(s *DBSession) {
	s.Close() // want "error from DBSession.Close is discarded"
}
