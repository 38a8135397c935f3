package exec

import (
	"errors"
	"testing"

	"energydb/internal/compress"
	"energydb/internal/fault"
	"energydb/internal/sim"
	"energydb/internal/table"
)

// TestHashJoinMemBudgetTyped: a build side exceeding Ctx.MemBudgetBytes
// must fail with the typed fault.ErrMemBudget (so the session layer can
// classify it as non-retryable), free the partial build state, and leave
// zero live processes once the engine drains.
func TestHashJoinMemBudgetTyped(t *testing.T) {
	build := ordersLike(5000)
	probe := ordersLike(100)
	r := newRig(2)
	r.eng.Go("query", func(p *sim.Proc) {
		ctx := NewCtx(p, r.cpu)
		ctx.MemBudgetBytes = 1 << 10 // tiny: the build side cannot fit
		j := NewHashJoin(&Values{Tab: build}, &Values{Tab: probe}, 0, 0)
		_, err := RowCount(ctx, j)
		if err == nil {
			t.Error("join under a 1 KiB budget succeeded")
			return
		}
		if !errors.Is(err, fault.ErrMemBudget) {
			t.Errorf("error not typed ErrMemBudget: %v", err)
		}
		if j.bs != nil || j.SB.bs != nil {
			t.Error("partial build state not freed after budget failure")
		}
	})
	if err := r.eng.Run(); err != nil {
		t.Fatal(err)
	}
	if live := r.eng.Live(); live != 0 {
		t.Fatalf("%d live process(es) after drain: %v", live, r.eng.LiveNames())
	}
}

// TestCorruptBlockUnderSerialBreaker: a stored block that fails to decode
// under a serial pipeline breaker — aggregation, join build, sort — must
// surface typed as compress.ErrCorrupt from Open with the scan closed
// behind it. Before the fragment runner closed on every exit path, the
// serial drains returned without closing their input: the scan's reader
// stayed parked on its credits and the engine ended in sim.ErrDeadlock.
func TestCorruptBlockUnderSerialBreaker(t *testing.T) {
	shapes := map[string]func(scan Operator) Operator{
		"agg": func(scan Operator) Operator {
			return NewHashAgg(OneFragment(scan), nil, []AggSpec{{Func: Count}})
		},
		"joinbuild": func(scan Operator) Operator {
			return NewHashJoin(scan, &Values{Tab: joinFixture(100)}, 0, 0)
		},
		"sort": func(scan Operator) Operator {
			return &Sort{In: scan, Keys: []SortKey{{Col: 0}}}
		},
	}
	for name, mk := range shapes {
		r := newRig(2)
		codecs := rawCodecs(7)
		codecs[0] = compress.Delta
		st, err := PlaceColumnMajor(ordersLike(6144), r.vol, 1, 1024, codecs)
		if err != nil {
			t.Fatal(err)
		}
		st.cols[0][1].enc = []byte{0xff, 0xff, 0xff}
		r.eng.Go("query", func(p *sim.Proc) {
			ctx := NewCtx(p, r.cpu)
			op := mk(NewColumnScan(st, []int{0}, []int{0}, nil))
			if err := op.Open(ctx); !errors.Is(err, compress.ErrCorrupt) {
				t.Errorf("%s: Open = %v, want compress.ErrCorrupt", name, err)
			}
			if err := op.Close(ctx); err != nil {
				t.Errorf("%s: Close after failed Open = %v", name, err)
			}
		})
		if err := r.eng.Run(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if live := r.eng.Live(); live != 0 {
			t.Errorf("%s: %d live process(es) after drain: %v", name, live, r.eng.LiveNames())
		}
	}
}

// countingSink counts rows, records how many simulated processes were
// alive while it absorbed, and offers the running set four more cores from
// inside every Absorb.
type countingSink struct {
	eng      *sim.Engine
	workers  int
	rows     int
	live     int
	accepted int
}

func (c *countingSink) AddWorker(w int) { c.workers++ }
func (c *countingSink) Absorb(w int, wctx *Ctx, b *table.Batch) bool {
	c.rows += b.Rows()
	c.live = c.eng.Live()
	c.accepted += wctx.Widen.Offer(4)
	return true
}

// TestOneFragmentRunsInline: the barrier exchange over a set of one
// fragment spawns no process — the sink runs on the caller's — and
// widening offers made while it runs are declined, Spawn hook or not.
func TestOneFragmentRunsInline(t *testing.T) {
	tab := ordersLike(3000)
	r := newRig(1)
	sink := &countingSink{eng: r.eng}
	spawned := 0
	r.run(t, func(ctx *Ctx) {
		frags := NewFragments([]Operator{&Values{Tab: tab, BatchRows: 512}}, NewMorsels(1, 1), func() (Operator, error) {
			spawned++
			return &Values{Tab: tab}, nil
		})
		if err := RunFragments(ctx, "inline", frags, sink); err != nil {
			t.Error(err)
		}
	})
	if sink.workers != 1 || sink.rows != tab.Rows() {
		t.Fatalf("sink saw %d workers, %d rows; want 1, %d", sink.workers, sink.rows, tab.Rows())
	}
	if sink.live != 1 {
		t.Fatalf("%d processes alive inside the sink, want the caller alone", sink.live)
	}
	if spawned != 0 || sink.accepted != 0 {
		t.Fatalf("one-fragment set widened: %d spawned, %d cores accepted", spawned, sink.accepted)
	}
}
