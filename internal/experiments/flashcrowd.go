package experiments

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"github.com/adm-project/adm/internal/patia"
	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/server"
	"github.com/adm-project/adm/internal/storage"
)

// Flash-crowd drive shape: a couple of steady clients, then an
// order-of-magnitude client surge. The two variants run the IDENTICAL
// drive; only the server differs.
//
// The statement is a join-aggregate chosen so the SERVER is the
// bottleneck: a one-row result (no wire/decode cost on the client
// side) over rows²/flashGroups join pairs of compute, the table grown
// until that is flashServiceTime of engine work on this host. A
// wide-result scan would invert the experiment: fifty client
// goroutines decoding 100KB responses saturate the core while the
// execution slots idle, and the admission queue never fills.
const (
	flashSteadyClients = 2
	flashCrowdClients  = 64
	flashSteadyMS      = 300
	flashCrowdMS       = 2000
	flashDecayMS       = 800
	// flashWarmupMS excludes the controller's reaction transient from
	// the p99 sample (statements already queued when the ladder trips
	// drain at pre-adaptation latencies); the gate is the SLO under
	// sustained overload.
	flashWarmupMS = 500
	// Steady clients think between statements so background traffic
	// alone stays well under capacity (2 clients).
	flashThinkMS = 30
	// The self-join of f on one of flashGroups keys is the drive's
	// statement once one execution alone takes flashServiceTime, 0.4 of
	// the SLO: two of them sharing the cores at l1 then sit between the
	// ladder's recovery bound (SLO/2) and the SLO. Much lighter and the
	// ladder reopens the queue mid-crowd now and then, and the adaptive
	// p99 lands in the static range.
	flashGroups      = 8
	flashServiceTime = 12 * time.Millisecond
	flashQuery       = "SELECT COUNT(a.g) FROM f a JOIN f b ON a.g = b.g"

	// Both servers are configured IDENTICALLY — two execution slots,
	// a deep admission queue — except for the adaptive flag, so the
	// contrast isolates the degradation ladder. Under the crowd the
	// static server lets every statement marinate in the deep queue
	// and client-observed p99 explodes; the adaptive one trips to l1,
	// stops queueing, and keeps served latency at service time.
	flashInflight = 2
	flashQueue    = 4096
	flashSLOMS    = 30
)

// flashBackoff is the client pause after a shed before re-issuing;
// long enough that 48 rejected clients do not themselves saturate the
// core with rejection round-trips.
const flashBackoff = 8 * time.Millisecond

// flashServer builds a seeded engine and a running server for one
// drive variant. With rows == 0 it sizes the drive from a measurement:
// f grows 100 rows at a time until the warm statement (best of three
// in-process executions at the server's own options) costs
// flashServiceTime. It returns the row count reached, which the other
// variant passes back in to get the identical table.
func flashServer(adaptive bool, rows int) (*server.Server, int, error) {
	db, err := storage.Open(storage.NewMemDisk(), storage.NewMemDisk(),
		storage.DBOptions{Sync: storage.SyncManual})
	if err != nil {
		return nil, 0, err
	}
	cat, err := query.NewDurableCatalog(db)
	if err != nil {
		return nil, 0, err
	}
	eng := query.NewEngine(cat, nil, nil)
	if _, err := eng.Exec("CREATE TABLE f (g INT, p STRING)"); err != nil {
		return nil, 0, err
	}
	pad := strings.Repeat("x", 40)
	for seeded := 0; rows == 0 || seeded < rows; {
		var vals []string
		for i := seeded; i < seeded+100; i++ {
			vals = append(vals, fmt.Sprintf("(%d, 'row-%d-%s')", i%flashGroups, i, pad))
		}
		if _, err := eng.Exec("INSERT INTO f VALUES " + strings.Join(vals, ", ")); err != nil {
			return nil, 0, err
		}
		seeded += 100
		if rows > 0 {
			continue
		}
		warm := time.Duration(0)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, _, err := eng.ExecuteSQL(flashQuery, query.ExecOptions{}); err != nil {
				return nil, 0, err
			}
			if d := time.Since(start); warm == 0 || d < warm {
				warm = d
			}
		}
		if warm >= flashServiceTime {
			rows = seeded
		}
	}
	cfg := server.Config{
		MaxInflight:      flashInflight,
		MaxQueue:         flashQueue,
		StatementTimeout: 10 * time.Second,
		Adaptive:         adaptive,
		SLOMS:            flashSLOMS,
		Tick:             10 * time.Millisecond,
		CooldownMS:       40,
	}
	srv := server.New(eng, db, cfg, nil)
	if err := srv.Start(); err != nil {
		return nil, 0, err
	}
	return srv, rows, nil
}

// runFlashVariant drives one server variant and tears it down,
// asserting the run was clean (no transport errors, nothing leaked).
func runFlashVariant(srv *server.Server) (*patia.ServerCrowdResult, int64, error) {
	res, err := patia.RunServerCrowd(patia.ServerCrowdConfig{
		Addr:          srv.Addr(),
		SteadyClients: flashSteadyClients,
		CrowdClients:  flashCrowdClients,
		SteadyMS:      flashSteadyMS,
		CrowdMS:       flashCrowdMS,
		DecayMS:       flashDecayMS,
		WarmupMS:      flashWarmupMS,
		SteadyThinkMS: flashThinkMS,
		Query:         flashQuery,
		RetryBackoff:  flashBackoff,
	})
	switches := srv.Stats().Switches
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, err
	}
	if res.Errors > 0 {
		return nil, 0, fmt.Errorf("flash crowd: %d non-retryable client errors", res.Errors)
	}
	if res.TotalServed == 0 {
		return nil, 0, errors.New("flash crowd served nothing; drive is broken")
	}
	return res, switches, nil
}

// RunFlashCrowdBench runs the flash-crowd drive against a live
// admsqld twice — adaptive ladder on, then off — and returns both
// outcomes. static is the overload witness: the adaptive crowd p99 is
// read against it, never against a constant
// (TestFlashCrowdAdaptationHolds).
func RunFlashCrowdBench() (adapt, static *patia.ServerCrowdResult, err error) {
	srv, rows, err := flashServer(true, 0)
	if err != nil {
		return nil, nil, err
	}
	adapt, switches, err := runFlashVariant(srv)
	if err != nil {
		return nil, nil, fmt.Errorf("adaptive: %w", err)
	}
	if switches == 0 {
		return nil, nil, errors.New("flash crowd: adaptive run never moved the degradation ladder")
	}
	if srv, _, err = flashServer(false, rows); err != nil {
		return nil, nil, err
	}
	if static, _, err = runFlashVariant(srv); err != nil {
		return nil, nil, fmt.Errorf("static: %w", err)
	}
	return adapt, static, nil
}
