// Command eeperf is energydb's two-clock benchmark: it runs one workload
// for one seed and prints every end-to-end metric — host clock (statements
// per second, allocations, live heap, set-up time) and model clock
// (simulated latency, makespan, joules) — by name with its unit, or, with
// -trace, the per-layer metrics of a traced repetition. See
// benchmarks/README.md for the glossary and the repetition protocol.
//
//	go run ./benchmarks/eeperf -workload paper_streams -seed 2009
//	go run ./benchmarks/eeperf -workload wire_short -trace trace.json
//	go run ./benchmarks/eeperf -list
//	go run ./benchmarks/eeperf -aa 5
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
)

const (
	// minKept and maxKept bound the repetitions kept after the warm-up:
	// fewer than 4 leaves the lower quartile resting on one sample, more
	// than 8 buys nothing the next run would not.
	minKept = 4
	maxKept = 8
	// tracedKept is how many untraced repetitions a -trace run keeps: it
	// needs their lower quartile only as the base of trace.overhead_frac.
	tracedKept = 3
	// maxGapJ is the largest billing gap a run may close with.
	maxGapJ = 1e-6
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (see -list)")
		seed         = flag.Int64("seed", 2009, "seed for statement constants, stream order and arrival jitter (the data set is a fixture)")
		seconds      = flag.Float64("seconds", 15, "measured-phase seconds to accumulate over the kept repetitions")
		traceArg     = flag.String("trace", "0", "0 = end-to-end metrics; 1 = add a traced repetition and print the per-layer metrics; any other value = the same, and write the spans to that file")
		list         = flag.Bool("list", false, "print the workload and metric glossary")
		aa           = flag.Int("aa", 0, "run two interleaved sets of N runs per workload and check that they agree within the bounds")
		varySeed     = flag.Bool("vary-seed", false, "with -aa: run i of each set uses seed+i, and the BENCHMARK.json bounds apply")
		update       = flag.Bool("update-golden", false, "write "+goldenDir+"/<workload>.seed<seed>.json from this run")
	)
	flag.Parse()
	// One P unless the caller says otherwise. The engine is single-threaded
	// and the harness has one driver goroutine, so a second P buys nothing
	// but the scheduler's luck: over the wire every round-trip hands off
	// between a client and a server goroutine, and with two Ps on a 2-vCPU
	// box wire_short's throughput ranged 2 040-3 140 stmts/s over 8 runs
	// (IQR / median 0.30) against 2 600-3 080 (0.08) with one.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}
	switch {
	case *list:
		listGlossary(os.Stdout)
	case *aa > 0:
		os.Exit(runAA(*aa, *workloadName, *seed, *seconds, *varySeed))
	default:
		w := workloadByName(*workloadName)
		if w == nil {
			fmt.Fprintf(os.Stderr, "eeperf: unknown workload %q; -list names them\n", *workloadName)
			os.Exit(2)
		}
		traced, traceOut := *traceArg != "0" && *traceArg != "", ""
		if traced && *traceArg != "1" {
			traceOut = *traceArg
		}
		os.Exit(runOnce(w, *seed, *seconds, traced, traceOut, *update))
	}
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is echoed before the result so that a number can be traced
// back to the conditions it was measured under.
type runInfo struct {
	Workload     string    `json:"workload"`
	Seed         int64     `json:"seed"`
	Repetitions  int       `json:"repetitions"` // K, warm-up included
	MeasureS     []float64 `json:"kept_measure_s"`
	SetupS       []float64 `json:"kept_setup_s"`
	Statements   int       `json:"statements"`
	Samples      int       `json:"select_samples"`
	P95Supported bool      `json:"p95_has_10_samples_beyond"`
	Reference    string    `json:"reference"`
	MaxLateS     float64   `json:"generator_max_late_sim_s"`
	LateNote     string    `json:"generator_late_note"`
	GOMAXPROCS   int       `json:"gomaxprocs"`
	GOGC         string    `json:"gogc"`
	GoVersion    string    `json:"go_version"`
	NumCPU       int       `json:"nproc"`
	Notes        []string  `json:"notes,omitempty"`
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "eeperf: "+format+"\n", args...)
	return 1
}

// sameRep reports how two repetitions of the same statement list differ
// on the model clock or on any outcome; "" when they are bit-identical.
func sameRep(a, b *rep) string {
	if !reflect.DeepEqual(a.Model, b.Model) {
		return fmt.Sprintf("model clock %+v vs %+v", a.Model, b.Model)
	}
	for i := range a.FP {
		if a.FP[i] != b.FP[i] {
			return fmt.Sprintf("statement %d: outcome %s vs %s", i, a.FP[i], b.FP[i])
		}
	}
	return ""
}

// checkedRep runs one repetition and applies the invariants every
// repetition must meet.
func checkedRep(w *workload, pl *plan, seed int64, o repOpts) (*rep, error) {
	r, err := runRep(w, pl, seed, o)
	if err != nil {
		return nil, err
	}
	switch {
	case len(r.Errs) > 0:
		err = fmt.Errorf("%d unexpected errors, first: %s", len(r.Errs), r.Errs[0])
	case r.LiveProcs != 0:
		err = fmt.Errorf("%d simulated processes alive after drain", r.LiveProcs)
	case r.Model.GapJ > maxGapJ:
		err = fmt.Errorf("billing gap %.3g J above %.0e J", r.Model.GapJ, maxGapJ)
	}
	if err != nil && r.fe != nil {
		err = errors.Join(err, r.fe.close())
	}
	return r, err
}

func runOnce(w *workload, seed int64, seconds float64, traced bool, traceOut string, update bool) int {
	pl := w.gen(seed)
	info := runInfo{
		Workload: w.Name, Seed: seed, Statements: len(pl.Stmts),
		LateNote:   "arrivals are simulated-time stamps handed to the engine, so the generator cannot run late on the host; the value is the worst simulated delay a session's serial order imposed on a submission",
		GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: os.Getenv("GOGC"), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
	}
	if info.GOGC == "" {
		info.GOGC = "100 (default)"
	}

	// Repetition 0 warms the process up and is discarded; it also sizes
	// the run: enough kept repetitions to cover -seconds of measured phase.
	first, err := checkedRep(w, pl, seed, repOpts{wire: w.Wire})
	if err != nil {
		return fail("%s seed %d repetition 0: %v", w.Name, seed, err)
	}
	kept := int(math.Ceil(seconds / first.MeasureS))
	kept = max(minKept, min(kept, maxKept))
	if traced {
		kept = tracedKept
	}
	var reps []*rep
	for k := 1; k <= kept; k++ {
		r, err := checkedRep(w, pl, seed, repOpts{wire: w.Wire})
		if err != nil {
			return fail("%s seed %d repetition %d: %v", w.Name, seed, k, err)
		}
		if d := sameRep(first, r); d != "" {
			return fail("%s seed %d: repetition %d is not bit-identical to repetition 0: %s", w.Name, seed, k, d)
		}
		reps = append(reps, r)
	}
	info.Repetitions = 1 + len(reps)
	var measure, setup, mallocs, allocKB, liveMB []float64
	n := float64(len(pl.Stmts))
	for _, r := range reps {
		measure = append(measure, r.MeasureS)
		setup = append(setup, r.SetupS)
		mallocs = append(mallocs, float64(r.Mallocs)/n)
		allocKB = append(allocKB, float64(r.AllocBytes)/1e3/n)
		liveMB = append(liveMB, float64(r.LiveHeap)/1e6)
	}
	info.MeasureS, info.SetupS = measure, setup
	mc := first.Model
	info.Samples, info.MaxLateS = mc.Samples, mc.MaxLateS
	info.P95Supported = percentileSupported(mc.Samples, 0.95)

	// Correctness: against the committed golden when the seed has one,
	// otherwise against the other door (wire workloads replayed embedded);
	// repetitions were already compared with each other above.
	ref, refName := first.FP, "cross-repetition"
	g, err := loadGolden(w.Name, seed)
	if err != nil {
		return fail("%v", err)
	}
	switch {
	case update:
		g = &golden{Workload: w.Name, Seed: seed, Model: mc, Fingerprints: first.FP}
		if err := writeGolden(g); err != nil {
			return fail("%v", err)
		}
		refName = "golden (just written)"
	case g != nil:
		if len(g.Fingerprints) != len(first.FP) {
			return fail("%s lists %d statements, the generator made %d", goldenPath(w.Name, seed), len(g.Fingerprints), len(first.FP))
		}
		ref, refName = g.Fingerprints, "golden"
		if !reflect.DeepEqual(g.Model, mc) {
			info.Notes = append(info.Notes, fmt.Sprintf("model clock differs from the golden's: %+v", g.Model))
		}
	case w.Wire:
		emb, err := checkedRep(w, pl, seed, repOpts{wire: false})
		if err != nil {
			return fail("%s seed %d embedded replay: %v", w.Name, seed, err)
		}
		ref, refName = emb.FP, "cross-repetition + embedded replay"
	}
	info.Reference = refName
	failed, firstBad := countFailed(pl, first.FP, ref)
	if failed > 0 {
		info.Notes = append(info.Notes, firstBad)
	}

	res := result{Correct: failed == 0, Attempted: len(pl.Stmts), Failed: failed, Metrics: map[string]metric{}}
	if !traced {
		values := map[string]float64{
			"setup_s":                  lowerQuartile(setup),
			"host_stmts_per_s":         n / lowerQuartile(measure),
			"host_allocs_per_stmt":     median(mallocs),
			"host_alloc_kb_per_stmt":   median(allocKB),
			"host_live_heap_mb":        median(liveMB),
			"sim_stmt_ms_p50":          mc.StmtMsP50,
			"sim_stmt_ms_p95":          mc.StmtMsP95,
			"sim_makespan_s":           mc.MakespanS,
			"joules_per_stmt":          mc.JoulesPerStmt,
			"marginal_joules_per_stmt": mc.MarginalJ,
			"deadline_hit_rate":        mc.DeadlineHit,
			"ok_frac":                  (n - float64(failed)) / n,
		}
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
		}
	} else {
		tr := newTracer()
		r, err := checkedRep(w, pl, seed, repOpts{wire: w.Wire, tr: tr, keepDB: true})
		if err != nil {
			return fail("%s seed %d traced repetition: %v", w.Name, seed, err)
		}
		if d := sameRep(first, r); d != "" {
			return fail("%s seed %d: the traced repetition is not bit-identical to repetition 0: %s", w.Name, seed, d)
		}
		values, err := layerMetrics(w, pl, r, tr, lowerQuartile(measure))
		if cerr := r.fe.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail("%s seed %d per-layer metrics: %v", w.Name, seed, err)
		}
		for _, d := range perLayer {
			res.Metrics[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
		}
		if traceOut != "" {
			tf := &traceFile{Workload: w.Name, Seed: seed, Spans: tr.spans, Counters: r.Counters, PerLayer: res.Metrics}
			if err := writeTrace(traceOut, tf); err != nil {
				return fail("%v", err)
			}
		}
	}

	if err := printJSON(map[string]runInfo{"run": info}); err != nil {
		return fail("%v", err)
	}
	if err := printJSON(res); err != nil {
		return fail("%v", err)
	}
	if failed > 0 {
		return fail("%s seed %d: %d of %d statements incorrect against %s, first: %s",
			w.Name, seed, failed, len(pl.Stmts), refName, firstBad)
	}
	return 0
}

func printJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

// childRun runs this binary once more as its own process — one run is
// one process — and parses the result line.
func childRun(workload string, seed int64, seconds float64) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("run of %s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("run of %s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return &res, nil
}
