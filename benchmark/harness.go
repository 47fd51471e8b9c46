package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/server"
	"github.com/adm-project/adm/internal/session"
	"github.com/adm-project/adm/internal/storage"
)

// instance is one admsqld, built the way cmd/admsqld/main.go:run
// builds it and seeded the way its -init replay does.
type instance struct {
	wal, data *storage.MemDisk
	db        *storage.DB
	eng       *query.Engine
	srv       *server.Server

	loadedRows, loadedBytes int
}

// admsqldDefaults are the flag defaults of cmd/admsqld.
var admsqldDefaults = server.Config{
	Addr:             "127.0.0.1:0",
	MaxInflight:      4,
	MaxQueue:         16,
	StatementTimeout: 2 * time.Second,
	WriteTimeout:     5 * time.Second,
	MemQuota:         64 << 20,
	Adaptive:         true,
	SLOMS:            50,
	Tick:             25 * time.Millisecond,
}

// boot opens an empty store, replays the seed statements through one
// session and starts the server on an ephemeral loopback port. There
// is no Checkpoint, because admsqld never calls one.
func boot(ds *dataset, withItems bool) (_ *instance, err error) {
	in := &instance{wal: storage.NewMemDisk(), data: storage.NewMemDisk()}
	if in.db, err = storage.Open(in.wal, in.data, storage.DBOptions{Sync: storage.SyncManual}); err != nil {
		return nil, err
	}
	cat, err := query.NewDurableCatalog(in.db)
	if err != nil {
		return nil, err
	}
	in.eng = query.NewEngine(cat, nil, nil)

	stmts, rows, bytes := ds.seedSQL(withItems)
	in.loadedRows, in.loadedBytes = rows, bytes
	sess := session.NewDBSession(in.eng, in.db)
	for _, sql := range stmts {
		if _, err := sess.Exec(sql); err != nil {
			return nil, errors.Join(fmt.Errorf("seed %.40q: %w", sql, err), sess.Close())
		}
	}
	if err := sess.Close(); err != nil {
		return nil, err
	}

	in.srv = server.New(in.eng, in.db, admsqldDefaults, nil)
	if err := in.srv.Start(); err != nil {
		return nil, err
	}
	return in, nil
}

// clientRun is what one connection's loop recorded.
type clientRun struct {
	lat       []int64 // latency of each correct operation, ns
	kindLat   [numKinds][]int64
	attempted int
	failed    int
	err       error // first failure, for the report
}

// drive issues a client's operations one at a time and checks every
// reply. An operation's latency is the sum of its statements' round
// trips (send of the statement to last frame decoded), so the time the
// checks take is not in it. It stops early at the deadline, which only
// a machine far slower than the reference box reaches.
func drive(cli *server.Client, ds *dataset, w *workload, ops []stmt, deadline time.Time, perKind bool) *clientRun {
	r := &clientRun{lat: make([]int64, 0, len(ops)/w.perOp)}
	for i := 0; i+w.perOp <= len(ops); i += w.perOp {
		op := ops[i : i+w.perOp]
		var opNS int64
		var err error
		poisoned := false
		for j := range op {
			st := &op[j]
			t0 := time.Now()
			if j == 0 && t0.After(deadline) {
				return r
			}
			res, qerr := cli.Query(st.sql)
			d := time.Since(t0).Nanoseconds()
			if qerr != nil {
				// A RemoteError leaves the connection usable; anything
				// else has poisoned it.
				poisoned = !errors.As(qerr, new(*server.RemoteError))
				err = qerr
			} else {
				err = ds.check(st, res, w.racy)
			}
			if err != nil {
				err = fmt.Errorf("%s: %w", st.sql, err)
				break
			}
			opNS += d
			if perKind {
				r.kindLat[st.kind] = append(r.kindLat[st.kind], d)
			}
		}
		r.attempted++
		if err == nil {
			r.lat = append(r.lat, opNS)
			ds.ack(op)
			continue
		}
		r.failed++
		if r.err == nil {
			r.err = err
		}
		if poisoned {
			return r
		}
		if op[0].kind == kBegin {
			_, _ = cli.Query("ROLLBACK") // back to autocommit; "no transaction is open" is as good
		}
	}
	return r
}

// phase runs one stream per client concurrently and returns their
// records and the wall time from the common start to the last finish.
func phase(cls []*server.Client, ds *dataset, w *workload, streams [][]stmt, maxDur time.Duration, perKind bool) ([]*clientRun, time.Duration) {
	runs := make([]*clientRun, len(cls))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(maxDur)
	for c := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[c] = drive(cls[c], ds, w, streams[c], deadline, perKind)
		}()
	}
	wg.Wait()
	return runs, time.Since(start)
}

// counters is one snapshot of every public Stats() the layers offer.
type counters struct {
	srv      server.Stats
	admitted int64
	db       storage.DBStats
	txn      storage.TxnStats
	mem      runtime.MemStats
}

func (in *instance) snapshot() counters {
	c := counters{
		srv:      in.srv.Stats(),
		admitted: in.srv.Admission().Admitted(),
		db:       in.db.Stats(),
		txn:      in.db.Txns().Stats(),
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

func sortedCopy(a []int64) []int64 {
	s := append([]int64(nil), a...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func medianOf(a []float64) float64 {
	s := append([]float64(nil), a...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func meanOf(a []float64) float64 {
	var sum float64
	for _, v := range a {
		sum += v
	}
	return sum / float64(max(1, len(a)))
}

const msPerNS = 1e-6
