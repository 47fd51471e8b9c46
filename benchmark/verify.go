package main

import (
	"fmt"
	"time"

	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/server"
	"github.com/adm-project/adm/internal/session"
	"github.com/adm-project/adm/internal/storage"
)

// execFn runs one SELECT and returns its rows: over the wire against
// the live server, or through a session against a recovered store.
type execFn func(sql string) ([]storage.Tuple, error)

func wireExec(cli *server.Client) execFn {
	return func(sql string) ([]storage.Tuple, error) {
		res, err := cli.Query(sql)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
}

func sessionExec(sess *session.DBSession) execFn {
	return func(sql string) ([]storage.Tuple, error) {
		res, err := sess.Exec(sql)
		if err != nil {
			return nil, err
		}
		return res.Rows, nil
	}
}

// verify compares the whole visible state with the model: every row
// of item and acct holds what was loaded or its owner's last
// acknowledged write, and ord holds exactly the acknowledged inserts —
// one more row would be an unacknowledged write made visible.
func (ds *dataset) verify(w *workload, exec execFn) error {
	if w.items {
		rows, err := exec("SELECT id, price FROM item")
		if err != nil {
			return err
		}
		if len(rows) != ds.items {
			return fmt.Errorf("item has %d rows, want %d", len(rows), ds.items)
		}
		for _, r := range rows {
			if id := int(num(r[0])); id < 0 || id >= ds.items || num(r[1]) != ds.curPrice[id] {
				return fmt.Errorf("item %d: price %v, want the last acknowledged write", id, r[1])
			}
		}
	}
	rows, err := exec("SELECT id, bal FROM acct")
	if err != nil {
		return err
	}
	if len(rows) != ds.accts {
		return fmt.Errorf("acct has %d rows, want %d", len(rows), ds.accts)
	}
	for _, r := range rows {
		if id := int(num(r[0])); id < 0 || id >= ds.accts || int64(num(r[1])) != ds.curBal[id] {
			return fmt.Errorf("acct %d: bal %v, want the last acknowledged write", id, r[1])
		}
	}
	rows, err = exec("SELECT COUNT(*), SUM(amt) FROM ord")
	if err != nil {
		return err
	}
	var n, sum int64
	if len(rows) == 1 && len(rows[0]) == 2 {
		n, sum = int64(num(rows[0][0])), int64(num(rows[0][1]))
	}
	if n != ds.ordCount.Load() || sum != ds.ordSum.Load() {
		return fmt.Errorf("ord: count %d sum %d, want the %d acknowledged commits summing to %d",
			n, sum, ds.ordCount.Load(), ds.ordSum.Load())
	}
	return nil
}

// recovery is what re-opening the store cost.
type recovery struct{ ms, records float64 }

// recoverCopy is the durability check: after Server.Close it copies
// the bytes the two devices hold, re-opens a store on the copies and
// verifies the recovered state against the model. The copy is only
// what reached the device; nothing of the closed process's memory is
// reused. With timed it re-opens three times and reports the median.
func (in *instance) recoverCopy(ds *dataset, w *workload, timed bool) (recovery, error) {
	walBytes, dataBytes := in.wal.Bytes(), in.data.Bytes()
	reopen := func() (*storage.DB, time.Duration, error) {
		t0 := time.Now()
		db, err := storage.Open(storage.NewMemDiskFrom(walBytes), storage.NewMemDiskFrom(dataBytes),
			storage.DBOptions{Sync: storage.SyncManual})
		return db, time.Since(t0), err
	}
	db, d, err := reopen()
	if err != nil {
		return recovery{}, err
	}
	out := recovery{records: float64(db.Stats().Recovery.RecordsScanned)}
	times := []float64{d.Seconds() * 1e3}
	for i := 1; timed && i < 3; i++ {
		if _, d, err = reopen(); err != nil {
			return recovery{}, err
		}
		times = append(times, d.Seconds()*1e3)
	}
	out.ms = medianOf(times)

	cat, err := query.NewDurableCatalog(db)
	if err != nil {
		return out, err
	}
	sess := session.NewDBSession(query.NewEngine(cat, nil, nil), db)
	defer sess.Close()
	return out, ds.verify(w, sessionExec(sess))
}
