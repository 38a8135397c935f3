package bench

import (
	"fmt"
	"math"

	"energydb/internal/core"
	"energydb/internal/energy"
	"energydb/internal/hw"
	"energydb/internal/opt"
	"energydb/internal/sched"
	"energydb/internal/tpch"
)

// RunStreams drives the session API the way the paper's §4.2 imagines a
// workload manager would be driven: N concurrent client sessions submit
// the TPC-H mix against one simulated server, the admission controller
// grants each query its degree of parallelism from the cores free at
// admission, and every query comes back with an attributed energy bill
// that sums to the wall meter. It is the engine's concurrent-streams
// benchmark (BenchmarkConcurrentStreams) and the tpch_throughput
// example's first act.

// streamRows tags a submitted statement with its stream index.
type streamRows struct {
	Stream int
	Rows   *core.Rows
}

// submitStreams is the shared multi-stream driver loop (RunStreams,
// RunFigure1): one session per stream, the mix prepared once per session
// and submitted once, rotated per stream, rows discarded (throughput tests
// want counts and energy accounts, not materialised results). The caller
// drains and reads each Rows' Result.
func submitStreams(db *core.DB, mix []string, streams int) ([]streamRows, error) {
	var all []streamRows
	for s := 0; s < streams; s++ {
		sess := db.Session()
		stmts := make([]*core.Stmt, len(mix))
		for i, q := range mix {
			st, err := sess.Prepare(q)
			if err != nil {
				return nil, fmt.Errorf("bench: stream %d query %d: %w", s, i, err)
			}
			stmts[i] = st
		}
		for qi := range stmts {
			rows, err := stmts[(qi+s)%len(stmts)].Query() // rotate per stream
			if err != nil {
				return nil, err
			}
			rows.Discard()
			all = append(all, streamRows{Stream: s, Rows: rows})
		}
	}
	return all, nil
}

// StreamsConfig parameterises the concurrent-streams experiment.
type StreamsConfig struct {
	SF float64 // scale factor (default 0.01)
}

// StreamStat is one session's aggregate.
type StreamStat struct {
	Stream      int
	Queries     int64
	Rows        int64
	AttributedJ float64 // sum of the stream's per-query attributed joules
	MarginalJ   float64 // the direct (device-charged) part of that
	WaitSec     float64 // admission queueing across the stream's queries
	BusySec     float64 // submission-to-completion across the stream
}

// StreamsResult is the whole experiment.
type StreamsResult struct {
	Streams     []StreamStat
	Seconds     float64 // simulated makespan
	MeterJ      float64 // whole-server meter at the end
	AttributedJ float64 // Σ per-query attributed joules
	Admission   sched.Stats
}

// AttributionError reports the relative gap between the attributed sum
// and the wall meter (zero up to float rounding, by construction).
func (r *StreamsResult) AttributionError() float64 {
	if r.MeterJ == 0 {
		return 0
	}
	return math.Abs(r.AttributedJ-r.MeterJ) / r.MeterJ
}

// RunStreams runs the experiment: 8 sessions, one pass through the mix
// each, on a 4-disk SmallServer over TPC-H generated with seed 2009.
func RunStreams(cfg StreamsConfig) (*StreamsResult, error) {
	const streams = 8
	if cfg.SF == 0 {
		cfg.SF = 0.01
	}
	db, err := core.Open(core.Config{
		Server:    hw.SmallServer(4),
		Objective: opt.MinTime,
	})
	if err != nil {
		return nil, err
	}
	for _, t := range tpch.Generate(cfg.SF, 2009).Tables {
		if err := db.LoadTable(t); err != nil {
			return nil, err
		}
	}

	all, err := submitStreams(db, tpch.ThroughputMix(), streams)
	if err != nil {
		return nil, err
	}
	if err := db.Drain(); err != nil {
		return nil, err
	}

	res := &StreamsResult{
		Streams:   make([]StreamStat, streams),
		Seconds:   db.Srv.Eng.Now(),
		MeterJ:    float64(db.Srv.Meter.TotalEnergy(energy.Seconds(db.Srv.Eng.Now()))),
		Admission: db.SchedStats(),
	}
	for s := range res.Streams {
		res.Streams[s].Stream = s
	}
	for _, tg := range all {
		qr, err := tg.Rows.Result()
		if err != nil {
			return nil, err
		}
		st := &res.Streams[tg.Stream]
		st.Queries++
		st.Rows += qr.RowCount
		st.AttributedJ += float64(qr.Attributed)
		st.MarginalJ += float64(qr.Marginal)
		st.WaitSec += float64(qr.Wait)
		st.BusySec += float64(qr.Elapsed)
		res.AttributedJ += float64(qr.Attributed)
	}
	return res, nil
}

// Render prints the per-stream energy bill.
func (r *StreamsResult) Render() string {
	t := NewTable(fmt.Sprintf("Concurrent streams — %d sessions on one admission-controlled server (per-query energy attribution)", len(r.Streams)),
		"stream", "queries", "rows", "attributed(J)", "marginal(J)", "idle share(J)", "wait(s)", "busy(s)")
	for _, s := range r.Streams {
		t.Addf(s.Stream, s.Queries, s.Rows, s.AttributedJ, s.MarginalJ,
			s.AttributedJ-s.MarginalJ, s.WaitSec, s.BusySec)
	}
	t.Add("")
	t.Add(fmt.Sprintf("makespan %.4gs   wall meter %.5g J   Σ attributed %.5g J (gap %.2g)",
		r.Seconds, r.MeterJ, r.AttributedJ, r.AttributionError()))
	t.Add(fmt.Sprintf("admission: %d queries, peak %d running, %d queued (mean wait %.4gs)",
		r.Admission.Completed, r.Admission.PeakActive, r.Admission.Waited, r.Admission.MeanWait()))
	return t.String()
}
