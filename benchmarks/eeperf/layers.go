package main

import (
	"fmt"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"energydb/internal/core"
	"energydb/internal/energy"
	"energydb/internal/sql"
	"energydb/internal/table"
	"energydb/internal/tpch"
	"energydb/internal/wire"
)

// This file produces the per-layer metrics of the traced repetition. A
// layer is a module of the repository; each metric is measured from the
// harness, by a span around the call into the layer's public function,
// by a counter the layer already exposes read before and after the
// measured phase, or by a direct probe of the layer's public function
// over the run's own data.

var perLayer = []metricDef{
	{Name: "tpch.generate_s", Unit: "s", Better: "lower", Def: "span around tpch.Generate", ShouldMove: "setup_s, all workloads"},
	{Name: "core.open_load_s", Unit: "s", Better: "lower", Def: "span around core.Open + LoadTable", ShouldMove: "setup_s, all workloads"},
	{Name: "core.place_s", Unit: "s", Better: "lower", Def: "span around the forced-placement statements", ShouldMove: "setup_s, all workloads (most of it)"},
	{Name: "core.prepare_us_per_stmt", Unit: "us", Better: "lower", Def: "spans around Session.Prepare through the workload's front door / prepares in the measured phase", ShouldMove: "host_stmts_per_s on wire_short, analytic_lone; 0 on paper_streams (prepared in set-up)"},
	{Name: "core.submit_us_per_stmt", Unit: "us", Better: "lower", Def: "spans around Stmt.Query* / ExecAt through the front door / statements", ShouldMove: "host_stmts_per_s on wire_short, tenant_mix"},
	{Name: "core.drain_s", Unit: "s", Better: "lower", Def: "self time of the span around Drain", ShouldMove: "host_stmts_per_s, all workloads (85-95% of the phase: statements execute inside Drain)"},
	{Name: "core.collect_us_per_stmt", Unit: "us", Better: "lower", Def: "spans around result collection / SELECTs", ShouldMove: "host_stmts_per_s, host_alloc_kb_per_stmt on analytic_lone, wire_short"},
	{Name: "core.retries_per_stmt", Unit: "count", Better: "lower", Def: "sum of Rows.Retries / SELECTs", ShouldMove: "sim_stmt_ms_p95 (0 today; non-zero is a finding)"},
	{Name: "sql.parse_us_per_stmt", Unit: "us", Better: "lower", Def: "direct sql.Parse over the distinct texts submitted", ShouldMove: "host_stmts_per_s on wire_short"},
	{Name: "opt.plan_us_per_stmt", Unit: "us", Better: "lower", Def: "DB.Plan(text) over the distinct SELECT texts minus their parse time", ShouldMove: "host_stmts_per_s on wire_short (cold 20%) and analytic_lone (DOP x P-state sweep)"},
	{Name: "opt.est_ms_err_p50", Unit: "frac", Better: "lower", Def: "|est_ms - actual| / actual over the statements, analytic_lone only (statements run alone); 0 elsewhere", ShouldMove: "sim_stmt_ms_p50 on analytic_lone"},
	{Name: "opt.est_joules_err_p50", Unit: "frac", Better: "lower", Def: "same for est_joules against Result.Marginal", ShouldMove: "marginal_joules_per_stmt on analytic_lone"},
	{Name: "exec.q1_host_ms", Unit: "ms", Better: "lower", Def: "TPC-H Q1 alone 5x on the warm database, fastest host time", ShouldMove: "host_stmts_per_s on paper_streams, analytic_lone; none on wire_short"},
	{Name: "exec.q6_host_ms", Unit: "ms", Better: "lower", Def: "same for Q6", ShouldMove: "as exec.q1_host_ms"},
	{Name: "exec.q3_host_ms", Unit: "ms", Better: "lower", Def: "same for Q3", ShouldMove: "as exec.q1_host_ms; also tenant_mix"},
	{Name: "exec.q5_host_ms", Unit: "ms", Better: "lower", Def: "same for Q5", ShouldMove: "as exec.q1_host_ms"},
	{Name: "exec.q1_sim_ms", Unit: "ms", Better: "lower", Def: "same runs, Result.Elapsed of the fastest", ShouldMove: "sim_stmt_ms_p50 on paper_streams, analytic_lone"},
	{Name: "exec.q6_sim_ms", Unit: "ms", Better: "lower", Def: "same for Q6", ShouldMove: "as exec.q1_sim_ms"},
	{Name: "exec.q3_sim_ms", Unit: "ms", Better: "lower", Def: "same for Q3", ShouldMove: "as exec.q1_sim_ms"},
	{Name: "exec.q5_sim_ms", Unit: "ms", Better: "lower", Def: "same for Q5", ShouldMove: "as exec.q1_sim_ms"},
	{Name: "exec.mean_granted_cores", Unit: "cores", Better: "higher", Def: "sum of Result.Granted / SELECTs", ShouldMove: "about 1 on paper_streams, about 8 on analytic_lone: the check that the two use exec differently"},
	{Name: "table.decode_rows_mb_per_s", Unit: "MB/s", Better: "higher", Def: "direct Batch.EncodeRows -> table.DecodeRows over lineitem blocks of 8192 rows", ShouldMove: "host_stmts_per_s on paper_streams"},
	{Name: "compress.decode_mb_per_s", Unit: "MB/s", Better: "higher", Def: "direct Codec.Decode of lineitem column blocks under tpch.DefaultCodecs, decoded bytes per second", ShouldMove: "host_stmts_per_s on paper_streams"},
	{Name: "compress.ratio_lineitem", Unit: "x", Better: "higher", Def: "raw / encoded bytes of the same blocks", ShouldMove: "joules_per_stmt through bytes read"},
	{Name: "buffer.hit_rate", Unit: "frac", Better: "higher", Def: "DB.Pool.Stats() delta: hits / (hits + misses)", ShouldMove: "sim_stmt_ms_p50, marginal_joules_per_stmt; 0 on all four today: only row-store scans use the pool and the optimizer picks column scans"},
	{Name: "buffer.evictions_per_stmt", Unit: "count", Better: "lower", Def: "DB.Pool.Stats() delta / statements", ShouldMove: "as buffer.hit_rate"},
	{Name: "storage.pages_read_per_stmt", Unit: "count", Better: "lower", Def: "DB.Vol.Stats() delta / statements", ShouldMove: "marginal_joules_per_stmt"},
	{Name: "storage.bytes_read_per_stmt", Unit: "B", Better: "lower", Def: "DB.Vol.Stats() delta / statements", ShouldMove: "marginal_joules_per_stmt"},
	{Name: "storage.bytes_written_per_stmt", Unit: "B", Better: "lower", Def: "DB.Vol.Stats() delta / statements", ShouldMove: "marginal_joules_per_stmt on tenant_mix; 0 today: re-placement is not charged to the volume"},
	{Name: "hw.disk_reads_per_stmt", Unit: "count", Better: "lower", Def: "sum of Disk.Stats() deltas / statements", ShouldMove: "sim_stmt_ms_p95, joules_per_stmt on paper_streams, tenant_mix (seeks per read near 1: interleaved scans)"},
	{Name: "hw.disk_seeks_per_stmt", Unit: "count", Better: "lower", Def: "sum of Disk.Stats() deltas / statements", ShouldMove: "as hw.disk_reads_per_stmt"},
	{Name: "sim.host_s_per_sim_s", Unit: "ratio", Better: "lower", Def: "core.drain_s / sim_makespan_s", ShouldMove: "host_stmts_per_s, all workloads: the host cost of simulated time"},
	{Name: "sim.live_after_drain", Unit: "procs", Better: "lower", Def: "Engine.Live() after Drain", ShouldMove: "must be 0 (the run fails otherwise)"},
	{Name: "sched.wait_ms_p50", Unit: "ms", Better: "lower", Def: "Result.Wait over SELECTs", ShouldMove: "sim_stmt_ms_p95, deadline_hit_rate; 0 on all four today: admission never queues at these loads, the queues are at the disks"},
	{Name: "sched.wait_ms_p95", Unit: "ms", Better: "lower", Def: "same, 95th percentile", ShouldMove: "as sched.wait_ms_p50"},
	{Name: "sched.waited_frac", Unit: "frac", Better: "lower", Def: "DB.SchedStats() delta: Waited / Submitted", ShouldMove: "deadline_hit_rate on tenant_mix"},
	{Name: "sched.expired_frac", Unit: "frac", Better: "lower", Def: "DB.SchedStats() delta: Expired / Submitted", ShouldMove: "deadline_hit_rate on tenant_mix"},
	{Name: "sched.peak_active", Unit: "count", Better: "higher", Def: "DB.SchedStats().PeakActive", ShouldMove: "sim_makespan_s"},
	{Name: "sched.peak_queue", Unit: "count", Better: "lower", Def: "DB.SchedStats().PeakQueue", ShouldMove: "sim_stmt_ms_p95 on tenant_mix, paper_streams"},
	{Name: "sched.regrants", Unit: "count", Better: "higher", Def: "DB.SchedStats() delta: Regrants", ShouldMove: "0 today (ReGrant is off in every workload)"},
	{Name: "energy.idle_floor_share", Unit: "frac", Better: "lower", Def: "unattributed / meter joules over the measured phase (DB.Ledger)", ShouldMove: "joules_per_stmt on wire_short, tenant_mix (idle-dominated)"},
	{Name: "energy.cpu_joule_share", Unit: "frac", Better: "lower", Def: "Meter.Breakdown delta: cpu / all components", ShouldMove: "joules_per_stmt, all workloads"},
	{Name: "energy.dram_joule_share", Unit: "frac", Better: "lower", Def: "same for dram", ShouldMove: "joules_per_stmt, all workloads"},
	{Name: "energy.disk_joule_share", Unit: "frac", Better: "lower", Def: "same for the disks", ShouldMove: "joules_per_stmt, all workloads"},
	{Name: "energy.attribution_gap_j", Unit: "J", Better: "lower", Def: "|meter - sum attributed - idle floor|", ShouldMove: "must be <= 1e-6 (the run fails otherwise)"},
	{Name: "wal.flushes_per_commit", Unit: "ratio", Better: "lower", Def: "DB.Log.Stats() delta", ShouldMove: "joules_per_stmt, sim_makespan_s on tenant_mix; 0 elsewhere"},
	{Name: "wal.device_bytes_per_payload_byte", Unit: "ratio", Better: "lower", Def: "DB.Log.Stats() delta", ShouldMove: "as wal.flushes_per_commit"},
	{Name: "wal.commit_ms_mean", Unit: "ms", Better: "lower", Def: "DB.Log.Stats() delta: TotalLatency / Commits", ShouldMove: "as wal.flushes_per_commit"},
	{Name: "wire.bytes_per_stmt", Unit: "B", Better: "lower", Def: "counting net.Conn around the client end of every Server.Pipe()", ShouldMove: "host_stmts_per_s, host_alloc_kb_per_stmt on wire_short; 0 on embedded workloads"},
	{Name: "wire.frames_per_stmt", Unit: "count", Better: "lower", Def: "frames parsed out of the same byte streams", ShouldMove: "as wire.bytes_per_stmt"},
	{Name: "wire.encode_batch_mb_per_s", Unit: "MB/s", Better: "higher", Def: "direct wire.AppendBatch over the collected results", ShouldMove: "host_stmts_per_s on wire_short, tenant_mix; 0 on embedded workloads"},
	{Name: "wire.decode_batch_mb_per_s", Unit: "MB/s", Better: "higher", Def: "direct wire.DecodeBatch over the same frames", ShouldMove: "as wire.encode_batch_mb_per_s"},
	{Name: "client.roundtrip_us_p50", Unit: "us", Better: "lower", Def: "spans around client Prepare / Query* / fetch round-trips", ShouldMove: "host_stmts_per_s on wire_short; 0 on embedded workloads"},
	{Name: "client.roundtrip_us_p95", Unit: "us", Better: "lower", Def: "same, 95th percentile", ShouldMove: "as client.roundtrip_us_p50"},
	{Name: "server.plan_cache_hit_rate", Unit: "frac", Better: "higher", Def: "Server.PlanCacheStats() delta over the measured phase", ShouldMove: "host_stmts_per_s on wire_short (about 0.8 by construction), tenant_mix"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", Def: "traced repetition's measured phase / the run's untraced lower quartile - 1", ShouldMove: "none: reported so nobody quotes traced timings"},
	{Name: "trace.spans", Unit: "count", Better: "lower", Def: "spans recorded", ShouldMove: "none"},
}

// connCounter counts bytes and frames crossing the client ends of the
// server's pipes. Server and client goroutines both touch a pipe, so the
// counts are atomic.
type connCounter struct {
	bytes, frames atomic.Int64
}

func (cc *connCounter) wrap(c net.Conn) net.Conn {
	return &countedConn{Conn: c, cc: cc}
}

// countedConn parses the frame structure of each direction just enough
// to count frames: a 4-byte little-endian length, then that many bytes.
type countedConn struct {
	net.Conn
	cc     *connCounter
	rd, wr frameScan
}

func (c *countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.cc.bytes.Add(int64(n))
	c.cc.frames.Add(c.rd.scan(p[:n]))
	return n, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.cc.bytes.Add(int64(n))
	c.cc.frames.Add(c.wr.scan(p[:n]))
	return n, err
}

// frameScan follows one direction of a frame stream across arbitrary
// read/write boundaries.
type frameScan struct {
	hdr  [4]byte
	have int   // header bytes seen
	left int64 // payload bytes of the current frame still to come
}

// scan consumes p and returns how many frames started in it.
func (f *frameScan) scan(p []byte) int64 {
	var frames int64
	for len(p) > 0 {
		if f.left > 0 {
			n := int64(len(p))
			if n > f.left {
				n = f.left
			}
			f.left -= n
			p = p[n:]
			continue
		}
		n := copy(f.hdr[f.have:], p)
		f.have += n
		p = p[n:]
		if f.have == 4 {
			f.left = int64(f.hdr[0]) | int64(f.hdr[1])<<8 | int64(f.hdr[2])<<16 | int64(f.hdr[3])<<24
			f.have = 0
			frames++
		}
	}
	return frames
}

// snapCounters reads every counter the layers expose. Keys starting
// with "peak." are high-water marks, the rest are running totals.
func snapCounters(db *core.DB, fe frontend, cc *connCounter) map[string]float64 {
	c := map[string]float64{}
	ps := db.Pool.Stats()
	c["buffer.hits"], c["buffer.misses"], c["buffer.evictions"] = float64(ps.Hits), float64(ps.Misses), float64(ps.Evictions)
	vs := db.Vol.Stats()
	c["storage.pages_read"], c["storage.bytes_read"], c["storage.bytes_written"] = float64(vs.PagesRead), float64(vs.BytesRead), float64(vs.BytesWritten)
	for _, d := range db.Srv.Disks {
		ds := d.Stats()
		c["hw.disk_reads"] += float64(ds.Reads)
		c["hw.disk_seeks"] += float64(ds.Seeks)
	}
	ss := db.SchedStats()
	c["sched.submitted"], c["sched.waited"], c["sched.expired"], c["sched.regrants"] = float64(ss.Submitted), float64(ss.Waited), float64(ss.Expired), float64(ss.Regrants)
	c["peak.sched.active"], c["peak.sched.queue"] = float64(ss.PeakActive), float64(ss.PeakQueue)
	if db.Log != nil {
		ws := db.Log.Stats()
		c["wal.commits"], c["wal.flushes"] = float64(ws.Commits), float64(ws.Flushes)
		c["wal.payload_bytes"], c["wal.device_bytes"], c["wal.latency_s"] = float64(ws.BytesWritten), float64(ws.DeviceBytes), ws.TotalLatency
	}
	for _, ce := range db.Srv.Meter.Breakdown(energy.Seconds(db.Srv.Eng.Now())) {
		c["energy.all_j"] += float64(ce.Energy)
		for _, part := range []string{"cpu", "dram", "disk"} {
			if strings.Contains(ce.Name, "/"+part) {
				c["energy."+part+"_j"] += float64(ce.Energy)
			}
		}
	}
	hits, misses := fe.planCache()
	c["server.plan_hits"], c["server.plan_misses"] = float64(hits), float64(misses)
	if cc != nil {
		c["wire.bytes"], c["wire.frames"] = float64(cc.bytes.Load()), float64(cc.frames.Load())
	}
	return c
}

func diffCounters(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		if strings.HasPrefix(k, "peak.") {
			out[k] = v
		} else {
			out[k] = v - before[k]
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics assembles the per-layer metrics from the traced
// repetition r, its tracer, and the direct probes. untracedQ1 is the
// run's untraced lower-quartile measured-phase time.
func layerMetrics(w *workload, pl *plan, r *rep, tr *tracer, untracedQ1 float64) (map[string]float64, error) {
	m := map[string]float64{}
	n := float64(len(pl.Stmts))
	L := r.fe.layer()
	c := r.Counters

	m["tpch.generate_s"] = sum(tr.durations("tpch.generate"))
	m["core.open_load_s"] = sum(tr.durations("core.open_load"))
	m["core.place_s"] = sum(tr.durations("core.place"))
	prep := tr.durations(L + ".prepare")
	m["core.prepare_us_per_stmt"] = ratio(sum(prep)*1e6, float64(len(prep)))
	m["core.submit_us_per_stmt"] = sum(tr.durations(L+".submit")) * 1e6 / n
	m["core.drain_s"] = tr.selfSeconds(L + ".drain")
	coll := tr.durations(L + ".collect")
	m["core.collect_us_per_stmt"] = ratio(sum(coll)*1e6, float64(len(coll)))

	var selects, retries, granted float64
	var waits []float64
	for i := range pl.Stmts {
		if pl.Stmts[i].Insert {
			continue
		}
		selects++
		retries += float64(r.Stats[i].Retries)
		granted += float64(r.Stats[i].Granted)
		waits = append(waits, r.Stats[i].Wait*1000)
	}
	m["core.retries_per_stmt"] = retries / selects
	m["exec.mean_granted_cores"] = granted / selects
	m["sched.wait_ms_p50"] = nearestRank(waits, 0.50)
	m["sched.wait_ms_p95"] = nearestRank(waits, 0.95)
	m["sched.waited_frac"] = ratio(c["sched.waited"], c["sched.submitted"])
	m["sched.expired_frac"] = ratio(c["sched.expired"], c["sched.submitted"])
	m["sched.peak_active"] = c["peak.sched.active"]
	m["sched.peak_queue"] = c["peak.sched.queue"]
	m["sched.regrants"] = c["sched.regrants"]

	m["buffer.hit_rate"] = ratio(c["buffer.hits"], c["buffer.hits"]+c["buffer.misses"])
	m["buffer.evictions_per_stmt"] = c["buffer.evictions"] / n
	m["storage.pages_read_per_stmt"] = c["storage.pages_read"] / n
	m["storage.bytes_read_per_stmt"] = c["storage.bytes_read"] / n
	m["storage.bytes_written_per_stmt"] = c["storage.bytes_written"] / n
	m["hw.disk_reads_per_stmt"] = c["hw.disk_reads"] / n
	m["hw.disk_seeks_per_stmt"] = c["hw.disk_seeks"] / n
	m["sim.host_s_per_sim_s"] = ratio(m["core.drain_s"], r.Model.MakespanS)
	m["sim.live_after_drain"] = float64(r.LiveProcs)

	m["energy.idle_floor_share"] = r.Model.IdleShare
	m["energy.cpu_joule_share"] = ratio(c["energy.cpu_j"], c["energy.all_j"])
	m["energy.dram_joule_share"] = ratio(c["energy.dram_j"], c["energy.all_j"])
	m["energy.disk_joule_share"] = ratio(c["energy.disk_j"], c["energy.all_j"])
	m["energy.attribution_gap_j"] = r.Model.GapJ

	m["wal.flushes_per_commit"] = ratio(c["wal.flushes"], c["wal.commits"])
	m["wal.device_bytes_per_payload_byte"] = ratio(c["wal.device_bytes"], c["wal.payload_bytes"])
	m["wal.commit_ms_mean"] = ratio(c["wal.latency_s"]*1000, c["wal.commits"])

	m["wire.bytes_per_stmt"] = c["wire.bytes"] / n
	m["wire.frames_per_stmt"] = c["wire.frames"] / n
	rt := tr.durations("client.prepare", "client.submit", "client.fetch")
	m["client.roundtrip_us_p50"] = nearestRank(rt, 0.50) * 1e6
	m["client.roundtrip_us_p95"] = nearestRank(rt, 0.95) * 1e6
	m["server.plan_cache_hit_rate"] = ratio(c["server.plan_hits"], c["server.plan_hits"]+c["server.plan_misses"])

	m["trace.overhead_frac"] = r.MeasureS/untracedQ1 - 1
	m["trace.spans"] = float64(len(tr.spans))

	if err := probeFrontEnd(w, pl, r, m); err != nil {
		return nil, err
	}
	if err := probeExec(r.db, m); err != nil {
		return nil, err
	}
	if err := probeCodecs(r.lineitem, m); err != nil {
		return nil, err
	}
	if w.Wire {
		if err := probeWire(r.Tabs, m); err != nil {
			return nil, err
		}
	} else {
		m["wire.encode_batch_mb_per_s"], m["wire.decode_batch_mb_per_s"] = 0, 0
	}
	return m, nil
}

// maxProbeTexts bounds the parse and plan probes so a workload with
// thousands of distinct texts does not spend its run planning them.
const maxProbeTexts = 256

// probeFrontEnd times sql.Parse and DB.Plan over the distinct texts the
// workload submitted, and on analytic_lone compares each plan's estimate
// with what the statement then cost.
func probeFrontEnd(w *workload, pl *plan, r *rep, m map[string]float64) error {
	seen := map[string]bool{}
	var texts, selects []string
	var selectIdx []int
	for i := range pl.Stmts {
		s := &pl.Stmts[i]
		if seen[s.Text] || len(texts) == maxProbeTexts {
			continue
		}
		seen[s.Text] = true
		texts = append(texts, s.Text)
		if !s.Insert {
			selects = append(selects, s.Text)
			selectIdx = append(selectIdx, i)
		}
	}
	t := time.Now()
	for _, text := range texts {
		if _, err := sql.Parse(text); err != nil {
			return fmt.Errorf("parse probe: %w", err)
		}
	}
	m["sql.parse_us_per_stmt"] = time.Since(t).Seconds() * 1e6 / float64(len(texts))

	t = time.Now()
	for _, text := range selects {
		if _, err := sql.Parse(text); err != nil {
			return fmt.Errorf("parse probe: %w", err)
		}
	}
	parseS := time.Since(t).Seconds()
	var msErr, jErr []float64
	t = time.Now()
	for k, text := range selects {
		p, err := r.db.Plan(text)
		if err != nil {
			return fmt.Errorf("plan probe: %w", err)
		}
		if w.Name == "analytic_lone" {
			root := p.ExplainRows()
			st := r.Stats[selectIdx[k]]
			msErr = append(msErr, math.Abs(root.Column(4).F[0]-st.Elapsed*1000)/(st.Elapsed*1000))
			jErr = append(jErr, math.Abs(root.Column(5).F[0]-st.Marginal)/st.Marginal)
		}
	}
	m["opt.plan_us_per_stmt"] = math.Max(0, time.Since(t).Seconds()-parseS) * 1e6 / float64(len(selects))
	m["opt.est_ms_err_p50"] = median(msErr)
	m["opt.est_joules_err_p50"] = median(jErr)
	return nil
}

// probeExec runs each TPC-H shape alone on the warm database.
func probeExec(db *core.DB, m map[string]float64) error {
	sess := db.Session()
	defer sess.Close()
	for _, q := range []struct{ name, text string }{
		{"q1", tpch.Q1}, {"q6", tpch.Q6}, {"q3", tpch.Q3}, {"q5", tpch.Q5},
	} {
		bestHost, bestSim := math.Inf(1), 0.0
		for i := 0; i < 5; i++ {
			t := time.Now()
			rows, err := sess.Query(q.text)
			if err != nil {
				return fmt.Errorf("exec probe %s: %w", q.name, err)
			}
			res, err := rows.Collect()
			if err != nil {
				return fmt.Errorf("exec probe %s: %w", q.name, err)
			}
			if host := time.Since(t).Seconds() * 1000; host < bestHost {
				bestHost, bestSim = host, float64(res.Elapsed)*1000
			}
		}
		m["exec."+q.name+"_host_ms"] = bestHost
		m["exec."+q.name+"_sim_ms"] = bestSim
	}
	return nil
}

const probeBlockRows = 8192 // core.Config.BlockRows default

// probeCodecs times row decode and column decompression over lineitem,
// block by block as placement cuts it.
func probeCodecs(li *table.Table, m map[string]float64) error {
	var rowBytes, rawBytes, encBytes int64
	var rowS, decS float64
	codecs := tpch.DefaultCodecs(li.Schema)
	for lo := 0; lo < li.Rows(); lo += probeBlockRows {
		hi := lo + probeBlockRows
		if hi > li.Rows() {
			hi = li.Rows()
		}
		b := li.Slice(lo, hi)
		enc := b.EncodeRows(nil, 0, b.Rows())
		t := time.Now()
		if _, err := table.DecodeRows(li.Schema, enc, b.Rows()); err != nil {
			return fmt.Errorf("row decode probe: %w", err)
		}
		rowS += time.Since(t).Seconds()
		rowBytes += int64(len(enc))

		for ci, v := range b.Vecs {
			raw := v.EncodeBytes(nil, 0, v.Len())
			packed := codecs[ci].Encode(nil, raw)
			t := time.Now()
			out, err := codecs[ci].Decode(nil, packed)
			decS += time.Since(t).Seconds()
			if err != nil || len(out) != len(raw) {
				return fmt.Errorf("codec probe %s on column %d: %d bytes back from %d, err %v",
					codecs[ci].Name(), ci, len(out), len(raw), err)
			}
			rawBytes += int64(len(raw))
			encBytes += int64(len(packed))
		}
	}
	m["table.decode_rows_mb_per_s"] = ratio(float64(rowBytes)/1e6, rowS)
	m["compress.decode_mb_per_s"] = ratio(float64(rawBytes)/1e6, decS)
	m["compress.ratio_lineitem"] = ratio(float64(rawBytes), float64(encBytes))
	return nil
}

// probeWire times the batch codec over the results the run collected.
func probeWire(tabs []*table.Table, m map[string]float64) error {
	var frames [][]byte
	var bytes int64
	t := time.Now()
	for _, tab := range tabs {
		if tab == nil || tab.Rows() == 0 {
			continue
		}
		f := wire.AppendBatch(nil, tab.Slice(0, tab.Rows()))
		frames = append(frames, f)
		bytes += int64(len(f))
	}
	m["wire.encode_batch_mb_per_s"] = ratio(float64(bytes)/1e6, time.Since(t).Seconds())
	t = time.Now()
	for _, f := range frames {
		if _, err := wire.DecodeBatch(wire.NewReader(f)); err != nil {
			return fmt.Errorf("wire decode probe: %w", err)
		}
	}
	m["wire.decode_batch_mb_per_s"] = ratio(float64(bytes)/1e6, time.Since(t).Seconds())
	return nil
}
