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

// Flash-crowd drive shape, sized for the 1-core CI container: a
// couple of steady clients, then an order-of-magnitude client surge.
// The two variants run the IDENTICAL drive; only the server differs.
//
// The statement is a join-aggregate chosen so the SERVER is the
// bottleneck: a one-row result (no wire/decode cost on the client
// side) over flashRows x flashDupes join pairs of compute — roughly
// 5ms of engine work per statement on the CI core. A wide-result scan
// would invert the experiment: fifty client goroutines decoding
// 100KB responses saturate the core while the execution slots idle,
// and the admission queue never fills.
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
	// alone stays well under capacity (~5ms service, 2 clients).
	flashThinkMS = 30
	flashRows    = 2000
	// flashDupes rows share each join key, so the self-join produces
	// flashRows*flashDupes pairs for the aggregate to consume. Sized to
	// the cost of a pair: the probe folds each one straight into the
	// aggregate (tens of nanoseconds), so it takes ~520k of them to make
	// the statement the ~5ms of work the drive is built around. Much
	// lighter and served latency at l1 sits under the ladder's recovery
	// bound (SLO/2), the ladder reopens the queue mid-crowd now and
	// then, and the adaptive p99 lands in the static range.
	flashDupes = 260
	flashQuery = "SELECT COUNT(a.g) FROM f a JOIN f b ON a.g = b.g"

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
// drive variant.
func flashServer(adaptive bool) (*server.Server, error) {
	db, err := storage.Open(storage.NewMemDisk(), storage.NewMemDisk(),
		storage.DBOptions{Sync: storage.SyncManual})
	if err != nil {
		return nil, err
	}
	cat, err := query.NewDurableCatalog(db)
	if err != nil {
		return nil, err
	}
	eng := query.NewEngine(cat, nil, nil)
	if _, err := eng.Exec("CREATE TABLE f (g INT, p STRING)"); err != nil {
		return nil, err
	}
	pad := strings.Repeat("x", 40)
	groups := flashRows / flashDupes
	for lo := 0; lo < flashRows; lo += 100 {
		var vals []string
		for i := lo; i < lo+100; i++ {
			vals = append(vals, fmt.Sprintf("(%d, 'row-%d-%s')", i%groups, i, pad))
		}
		if _, err := eng.Exec("INSERT INTO f VALUES " + strings.Join(vals, ", ")); err != nil {
			return nil, err
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
		return nil, err
	}
	return srv, nil
}

// runFlashVariant drives one server variant and tears it down,
// asserting the run was clean (no transport errors, nothing leaked).
func runFlashVariant(adaptive bool) (*patia.ServerCrowdResult, int64, error) {
	srv, err := flashServer(adaptive)
	if err != nil {
		return nil, 0, err
	}
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
		return nil, 0, fmt.Errorf("flash crowd (adaptive=%v): %d non-retryable client errors", adaptive, res.Errors)
	}
	if res.TotalServed == 0 {
		return nil, 0, errors.New("flash crowd served nothing; drive is broken")
	}
	return res, switches, nil
}

// RunFlashCrowdBench runs the flash-crowd drive against a live
// admsqld twice — adaptive ladder on, then off — and reports both as
// bench records. FlashCrowdAdapt carries the gated p99 and
// shed-recovery numbers; FlashCrowdStatic is the overload witness:
// its p99 must EXCEED the ceiling for the gate to mean anything.
// Workers records the in-flight bound (not 4: these records are
// outside the 0.9x absolute-throughput gate by construction).
func RunFlashCrowdBench() ([]ParallelBenchResult, error) {
	adapt, switches, err := runFlashVariant(true)
	if err != nil {
		return nil, err
	}
	if switches == 0 {
		return nil, errors.New("flash crowd: adaptive run never moved the degradation ladder")
	}
	static, _, err := runFlashVariant(false)
	if err != nil {
		return nil, err
	}
	crowdSecs := flashCrowdMS / 1e3
	return []ParallelBenchResult{
		{
			Bench:        "FlashCrowdAdapt",
			Workers:      flashInflight,
			RowsPerSec:   float64(adapt.CrowdServed) / crowdSecs,
			P99MS:        adapt.CrowdP99MS,
			ShedRecovery: adapt.ShedRecovery,
		},
		{
			Bench:      "FlashCrowdStatic",
			Workers:    flashInflight,
			RowsPerSec: float64(static.CrowdServed) / crowdSecs,
			P99MS:      static.CrowdP99MS,
		},
	}, nil
}
