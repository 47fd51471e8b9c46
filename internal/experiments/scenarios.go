package experiments

import (
	"errors"
	"fmt"
	"time"

	"github.com/adm-project/adm/internal/adapt"
	"github.com/adm-project/adm/internal/adl"
	"github.com/adm-project/adm/internal/component"
	"github.com/adm-project/adm/internal/constraint"
	"github.com/adm-project/adm/internal/device"
	"github.com/adm-project/adm/internal/kendra"
	"github.com/adm-project/adm/internal/monitor"
	"github.com/adm-project/adm/internal/patia"
	"github.com/adm-project/adm/internal/query"
	"github.com/adm-project/adm/internal/session"
	"github.com/adm-project/adm/internal/simnet"
	"github.com/adm-project/adm/internal/trace"
	"github.com/adm-project/adm/internal/xmlstream"
)

// Figure1Loop measures the adaptation framework end to end: a
// bandwidth collapse is published into the monitors and the time to a
// committed reconfiguration is read back from the trace.
func Figure1Loop() (*Report, error) {
	clock := simnet.NewClock()
	log := trace.New()
	reg := monitor.NewRegistry()
	model := adl.MustParse(adl.Figure4)
	asm := component.NewAssembly(log, clock.Now)
	factory := adapt.TypeFactory(model, nil)
	if err := adapt.Instantiate(asm, model, "docked", factory); err != nil {
		return nil, err
	}
	am := adapt.NewManager(asm, log, clock.Now)
	mc := session.NewModeController(model, am, factory, "docked", log, clock.Now)
	rules := constraint.NewRuleSet(constraint.PrioritisedRule{
		ID: 1, Rule: constraint.MustParse("If bandwidth < 1000 then wireless.mode"),
	})
	sm := session.New("fig1", reg, rules, log, clock.Now, func(d constraint.Decision, _ *constraint.PrioritisedRule) error {
		return mc.SwitchTo(d.Target.Node())
	})
	sm.Attach()

	// Gauge feed every 10ms; the drop happens at t=105.
	dropAt := 105.0
	for t := 0.0; t <= 200; t += 10 {
		tt := t
		clock.Schedule(t, func() {
			bw := 10000.0
			if tt >= dropAt {
				bw = 500
			}
			reg.Publish(monitor.Sample{Key: monitor.Key{Metric: monitor.MetricBandwidth}, Value: bw, TimeMS: tt})
		})
	}
	wall := time.Now()
	clock.Run()
	wallUS := float64(time.Since(wall).Microseconds())

	rep := &Report{ID: "figure1", Title: "Adaptation framework loop (monitors→gauges→session→adaptivity)"}
	if mc.Mode() != "wireless" {
		return nil, errors.New("figure1: loop failed to reconfigure")
	}
	viol, ok1 := log.FirstAfter(0, trace.KindViolation)
	sw, ok2 := log.FirstAfter(0, trace.KindSwitch)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("figure1: trace incomplete: %s", log.Summary())
	}
	rep.Add("detection delay", "≤ sampling interval", fmt.Sprintf("%.0f ms", viol.TimeMS-dropAt),
		"drop at 105ms, 10ms gauge cadence")
	rep.Add("violation→commit", "-", fmt.Sprintf("%.0f ms (sim)", sw.TimeMS-viol.TimeMS),
		"synchronous within one tick")
	rep.Add("loop wall time", "-", fmt.Sprintf("%.0f µs", wallUS), "entire 200ms simulation")
	st := am.Stats()
	rep.Add("unbinds/binds/starts/stops", "-",
		fmt.Sprintf("%d/%d/%d/%d", st.Unbinds, st.Binds, st.Starts, st.Stops), "figure 5 plan")
	return rep, nil
}

// Figure5Switchover reports the docked→wireless reconfiguration plan
// and its transactional application.
func Figure5Switchover() (*Report, error) {
	model := adl.MustParse(adl.Figure4)
	if errs := model.Validate(); len(errs) != 0 {
		return nil, fmt.Errorf("figure5: model invalid: %v", errs)
	}
	plan, err := model.Diff("docked", "wireless")
	if err != nil {
		return nil, err
	}
	log := trace.New()
	asm := component.NewAssembly(log, nil)
	factory := adapt.TypeFactory(model, nil)
	if err := adapt.Instantiate(asm, model, "docked", factory); err != nil {
		return nil, err
	}
	am := adapt.NewManager(asm, log, nil)
	wall := time.Now()
	if err := am.Apply(plan, factory); err != nil {
		return nil, err
	}
	applyUS := float64(time.Since(wall).Microseconds())
	rep := &Report{ID: "figure5", Title: "Darwin switchover docked→wireless"}
	rep.Add("plan steps", "-", fmt.Sprintf("%d", len(plan.Steps())), "quiesce/unbind/stop/start/bind/resume")
	rep.Add("swapped out", "optimiser, ethernet driver", fmt.Sprintf("%v", plan.Stop), "")
	rep.Add("swapped in", "wireless optimiser, wireless driver", instNames(plan.Start), "")
	rep.Add("survivors quiesced", "-", fmt.Sprintf("%v", plan.Quiesce), "resume after commit")
	rep.Add("apply wall time", "-", fmt.Sprintf("%.0f µs", applyUS), "transactional")
	if errs := asm.Validate(); len(errs) != 0 {
		return nil, fmt.Errorf("figure5: post-switch invalid: %v", errs)
	}
	rep.Add("post-switch config valid", "yes", "yes", "all require ports bound")
	return rep, nil
}

func instNames(insts []adl.InstDecl) string {
	s := "["
	for i, in := range insts {
		if i > 0 {
			s += " "
		}
		s += in.Name
	}
	return s + "]"
}

// Scenario1 reproduces inter-query adaptation: the data component's
// BEST/NEAREST constraints evaluated against live device vitals.
func Scenario1() (*Report, error) {
	tb := device.NewTestbed(1)
	ctx := &constraint.Context{Env: tb.Reg}
	best := constraint.MustParse("Select BEST (PDA, Laptop)")
	near := constraint.MustParse("Select NEAREST (PDA, Laptop)")

	rep := &Report{ID: "scenario1", Title: "Inter-query adaptation: BEST and NEAREST"}
	d1, err := best.Eval(ctx)
	if err != nil {
		return nil, err
	}
	rep.Add("BEST (laptop idle)", "Laptop", d1.Target.Node(), d1.Reason)
	d2, err := near.Eval(ctx)
	if err != nil {
		return nil, err
	}
	rep.Add("NEAREST", "PDA", d2.Target.Node(), d2.Reason)

	// Load the laptop heavily: BEST flips to the PDA.
	tb.Devices[device.NodeLaptop].SetLoad(95)
	tb.PublishAll()
	d3, err := best.Eval(ctx)
	if err != nil {
		return nil, err
	}
	rep.Add("BEST (laptop busy)", "PDA", d3.Target.Node(), d3.Reason)
	return rep, nil
}

// Scenario2Result carries the structured outcome for benches.
type Scenario2Result struct {
	CompletionMS float64
	BytesSent    int64
	Readings     int
	Switched     bool
	// Mode is the Laptop's final ADL mode (wireless after an adaptive
	// undock; docked otherwise).
	Mode string
}

// RunScenario2 executes system adaptation: the sensor streams XML to
// the laptop; mid-stream the laptop undocks (Ethernet→wireless) and —
// when adaptive — the session switches the remaining stream to the
// compressed version at the next safe point.
func RunScenario2(adaptive bool) (*Scenario2Result, error) {
	tb := device.NewTestbed(7)

	// The Laptop's component architecture (Figure 4), booted docked.
	// The adaptive run applies the Figure 5 switchover at the undock
	// event, in the same transaction window as the stream re-encode.
	model := adl.MustParse(adl.Figure4)
	log := trace.New()
	asm := component.NewAssembly(log, tb.Clock.Now)
	factory := adapt.TypeFactory(model, nil)
	if err := adapt.Instantiate(asm, model, "docked", factory); err != nil {
		return nil, err
	}
	am := adapt.NewManager(asm, log, tb.Clock.Now)
	mc := session.NewModeController(model, am, factory, "docked", log, tb.Clock.Now)

	readings := xmlstream.Generate("sensor", 1200)
	streamer := xmlstream.NewStreamer(readings, 50, 2)
	chunks, err := streamer.Encode(0, "full")
	if err != nil {
		return nil, err
	}

	received := map[int]bool{}
	gotReadings := 0
	tb.Net.OnReceive(device.NodeLaptop, func(m simnet.Message) {
		c := m.Payload.(xmlstream.Chunk)
		if received[c.FirstSeq] {
			return
		}
		received[c.FirstSeq] = true
		rs, err := xmlstream.DecodeChunk(c)
		if err == nil {
			gotReadings += len(rs)
		}
	})

	// Roughly a third of the stream fits before the undock event.
	undockAt := 40.0
	undocked := false
	switched := false
	res := &Scenario2Result{}

	for i := 0; i < len(chunks); i++ {
		now := tb.Clock.Now()
		if !undocked && now >= undockAt {
			undocked = true
			if err := tb.UndockLaptop(); err != nil {
				return nil, err
			}
			if adaptive {
				// Architectural reconfiguration first: swap in the
				// wireless driver and optimiser (Figure 5)...
				if err := mc.SwitchTo("wireless"); err != nil {
					return nil, err
				}
				// ...whose decision is to re-encode the remainder
				// compressed from the next safe point.
				resume := streamer.NextSafeResume(chunks[i].FirstSeq)
				tail, err := streamer.Encode(resume, "compressed")
				if err != nil {
					return nil, err
				}
				// Keep full chunks up to the safe point, then the
				// compressed tail.
				var kept []xmlstream.Chunk
				for _, c := range chunks[i:] {
					if c.FirstSeq < resume {
						kept = append(kept, c)
					}
				}
				chunks = append(chunks[:i], append(kept, tail...)...)
				switched = true
			}
		}
		c := chunks[i]
		// Stop-and-wait with retransmission over the lossy link.
		for !received[c.FirstSeq] {
			arrival, err := tb.Net.Send(device.NodeSensor, device.NodeLaptop, len(c.Bytes), c)
			if err != nil {
				return nil, err
			}
			tb.Clock.RunUntil(arrival)
		}
	}
	res.CompletionMS = tb.Clock.Now()
	_, _, bytes := tb.Net.Stats()
	res.BytesSent = bytes
	res.Readings = gotReadings
	res.Switched = switched
	res.Mode = mc.Mode()
	if switched {
		if errs := asm.Validate(); len(errs) != 0 {
			return nil, fmt.Errorf("scenario2: post-switch config invalid: %v", errs[0])
		}
		if _, ok := asm.Component("wopt"); !ok {
			return nil, fmt.Errorf("scenario2: wireless optimiser not live")
		}
	}
	if gotReadings != len(readings) {
		return nil, fmt.Errorf("scenario2: delivered %d of %d readings", gotReadings, len(readings))
	}
	return res, nil
}

// Scenario2 reports adaptive vs static completion of the undocked
// stream.
func Scenario2() (*Report, error) {
	static, err := RunScenario2(false)
	if err != nil {
		return nil, err
	}
	adaptive, err := RunScenario2(true)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "scenario2", Title: "System adaptation: docked→wireless mid-stream"}
	rep.Add("static completion", "-", fmt.Sprintf("%.0f ms", static.CompletionMS), "full XML over wireless")
	rep.Add("adaptive completion", "faster", fmt.Sprintf("%.0f ms", adaptive.CompletionMS),
		fmt.Sprintf("%.1fx faster", static.CompletionMS/adaptive.CompletionMS))
	rep.Add("static bytes", "-", fmt.Sprintf("%d", static.BytesSent), "")
	rep.Add("adaptive bytes", "smaller", fmt.Sprintf("%d", adaptive.BytesSent),
		"compressed version after safe point")
	rep.Add("readings delivered", "all", fmt.Sprintf("%d = %d", adaptive.Readings, static.Readings),
		"safe-point switch loses nothing")
	rep.Add("laptop architecture", "wireless config", adaptive.Mode,
		"figure 5 switchover applied in the same window")
	return rep, nil
}

// Scenario3Result carries the structured outcome for benches.
type Scenario3Result struct {
	StaticRows   int
	AdaptiveRows int
	Replanned    bool
	TriggerRow   int
	PeakHashRows int
	StaticPeak   int
}

// RunScenario3 builds the misestimated-join engine and runs static vs
// adaptive execution.
func RunScenario3() (*Scenario3Result, error) {
	e := query.NewEngine(query.NewCatalog(), trace.New(), nil)
	if _, err := e.Exec("CREATE TABLE big (k INT, pad STRING)"); err != nil {
		return nil, err
	}
	if _, err := e.Exec("CREATE TABLE small (k INT, v INT)"); err != nil {
		return nil, err
	}
	for i := 0; i < 3000; i++ {
		if _, err := e.Exec(fmt.Sprintf("INSERT INTO big VALUES (%d, 'padpadpad')", i%100)); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 100; i++ {
		if _, err := e.Exec(fmt.Sprintf("INSERT INTO small VALUES (%d, %d)", i, i)); err != nil {
			return nil, err
		}
	}
	if _, err := e.Exec("ANALYZE small"); err != nil {
		return nil, err
	}
	// Stale stats: the optimiser believes big has 10 rows.
	if err := e.Catalog().SetStats("big", query.TableStats{Rows: 10, Distinct: map[string]int{"k": 10}}); err != nil {
		return nil, err
	}
	const sql = "SELECT big.k, small.v FROM big JOIN small ON big.k = small.k"
	// The static run follows the optimiser's plan verbatim; the adaptive
	// one is the same statement with the safe-point protocol on.
	static, staticRep, err := e.ExecuteSQL(sql, query.ExecOptions{Workers: 1,
		Adaptive: &query.AdaptiveConfig{Disabled: true}})
	if err != nil {
		return nil, err
	}
	adaptiveRes, rep, err := e.ExecuteSQL(sql, query.ExecOptions{Workers: 1,
		Adaptive: &query.AdaptiveConfig{Theta: 3, CheckEvery: 32}})
	if err != nil {
		return nil, err
	}
	repRep := rep.Adaptive
	return &Scenario3Result{
		StaticRows:   len(static.Rows),
		AdaptiveRows: len(adaptiveRes.Rows),
		Replanned:    repRep.Replanned,
		TriggerRow:   repRep.TriggerRow,
		PeakHashRows: repRep.PeakHashRows,
		StaticPeak:   staticRep.Adaptive.PeakHashRows, // all of big
	}, nil
}

// Scenario3 reports intra-query adaptation.
func Scenario3() (*Report, error) {
	r, err := RunScenario3()
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "scenario3", Title: "Intra-query adaptation: join replanning at a safe point"}
	rep.Add("replanned", "yes", fmt.Sprintf("%v", r.Replanned), "stale stats said 10 rows; actual 3000")
	rep.Add("trigger row", "early", fmt.Sprintf("%d", r.TriggerRow), "θ=3 × est 10; first safe point = big's first page")
	rep.Add("peak hash rows (adaptive)", "small", fmt.Sprintf("%d", r.PeakHashRows), "")
	rep.Add("peak hash rows (static)", "-", fmt.Sprintf("%d", r.StaticPeak), "builds all of big")
	rep.Add("result rows equal", "yes", fmt.Sprintf("%v (%d)", r.StaticRows == r.AdaptiveRows, r.AdaptiveRows),
		"State-Manager consistency: no loss, no duplicates")
	return rep, nil
}

// Table2 reports the Patia flash-crowd run (rule 455) and the banded
// video rule (595).
func Table2() (*Report, error) {
	static, err := patia.RunFlashCrowd(patia.DefaultCrowdConfig(false))
	if err != nil {
		return nil, err
	}
	adaptive, err := patia.RunFlashCrowd(patia.DefaultCrowdConfig(true))
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "table2", Title: "Patia atom constraints under a flash crowd"}
	rep.Add("switches (static)", "0", fmt.Sprintf("%d", static.Switches), "")
	rep.Add("switches (adaptive)", "≥1", fmt.Sprintf("%d", adaptive.Switches), "rule 455 at util>90%")
	rep.Add("saturated ticks", "-", fmt.Sprintf("%d -> %d", static.SaturatedTicks, adaptive.SaturatedTicks),
		"static -> adaptive")
	rep.Add("mean latency", "lower with SWITCH", fmt.Sprintf("%.2f -> %.2f ms",
		static.MeanLatencyMS, adaptive.MeanLatencyMS), "request-weighted")
	rep.Add("peak latency", "-", fmt.Sprintf("%.1f -> %.1f ms", static.PeakLatencyMS, adaptive.PeakLatencyMS), "")

	// Rule 595: bandwidth sweep over the banded video constraint.
	reg := monitor.NewRegistry()
	sys := patia.NewSystem([]string{"node1", "node2", "node3"}, reg, trace.New(), nil)
	video := &patia.Atom{ID: 153, Name: "video.ram", Type: "video", Bytes: 4_000_000,
		Constraints: patia.Table2VideoRules(),
		Versions:    map[string]int{"videohalf": 2_000_000, "videosmall": 500_000}}
	sys.PublishVitals(0)
	for _, bw := range []float64{10, 31, 64, 99, 150} {
		reg.Publish(monitor.Sample{Key: monitor.Key{Metric: monitor.MetricBandwidth}, Value: bw})
		v, _ := sys.SelectVersion(video, "node1")
		want := "videosmall"
		if bw > 30 && bw < 100 {
			want = "videohalf"
		}
		rep.Add(fmt.Sprintf("rule 595 @ %.0f Kbps", bw), want, v, "")
	}
	return rep, nil
}

// Kendra reports the codec-switching comparison.
func Kendra() (*Report, error) {
	fixed, err := kendra.Stream(kendra.DefaultConfig(false), kendra.DropTrace())
	if err != nil {
		return nil, err
	}
	adaptive, err := kendra.Stream(kendra.DefaultConfig(true), kendra.DropTrace())
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "kendra", Title: "Kendra: codec swap-in under a bandwidth drop"}
	rep.Add("stall rate (fixed pcm)", "high", fmt.Sprintf("%.1f%%", 100*fixed.StallRate()), "")
	rep.Add("stall rate (adaptive)", "~0", fmt.Sprintf("%.2f%%", 100*adaptive.StallRate()), "")
	rep.Add("mean quality", "-", fmt.Sprintf("%.2f -> %.2f", fixed.MeanQuality, adaptive.MeanQuality),
		"fixed -> adaptive")
	rep.Add("codec switches", "≥2", fmt.Sprintf("%d", adaptive.Switches), "down at drop, up at recovery")
	return rep, nil
}
