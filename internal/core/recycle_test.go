package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"energydb/internal/opt"
	"energydb/internal/table"
	"energydb/internal/tpch"
)

// TestRecyclerSharedAcrossTenants: a statement's scans, joins,
// aggregations, sorts and projections work in arrays that other
// statements handed back — its own database's, through the recycler the
// database's statements share while any runs, and other databases', other
// tenants' planned for other core counts, through the process-wide pool
// that recycler comes from and goes back to — and no answer may tell. Two
// tenants, each a database over TPC-H data of its own, run Q3, Q5 and Q1
// side by side from two sessions, three rounds over, at 1 and at 8 cores;
// all four runs go at once, each on its own goroutine, so the pool is
// shared across goroutines too (CI runs this package under -race). Every
// answer equals the same statement's answer on a fresh database of the
// same tenant and cores, floats to the oracle's 1e-9 relative: a parallel
// fragment's sums add in completion order, and a statement's grant
// depends on what runs beside it.
func TestRecyclerSharedAcrossTenants(t *testing.T) {
	queries := []struct{ name, text string }{{"q3", tpch.Q3}, {"q5", tpch.Q5}, {"q1", tpch.Q1}}
	type run struct {
		seed  int64
		cores int
	}
	var runs []run
	for _, seed := range []int64{42, 2009} {
		for _, cores := range []int{1, 8} {
			runs = append(runs, run{seed, cores})
		}
	}
	open := func(r run) (*DB, error) {
		db, err := Open(Config{Server: pipelineRig(), Objective: opt.MinTime, BlockRows: 512})
		if err != nil {
			return nil, err
		}
		for _, tab := range tpch.Generate(0.005, r.seed).Tables {
			if err := db.LoadTable(tab); err != nil {
				return nil, err
			}
		}
		db.Env.Cores = r.cores
		return db, nil
	}

	// want[i][q] is query q's answer on a fresh database of run i.
	want := make([][]*table.Table, len(runs))
	for i, r := range runs {
		for _, q := range queries {
			db, err := open(r)
			if err != nil {
				t.Fatal(err)
			}
			res, err := db.Exec(q.text)
			if err != nil {
				t.Fatalf("tenant %d, %d cores, %s on a fresh database: %v", r.seed, r.cores, q.name, err)
			}
			if res.Rows.Rows() == 0 {
				t.Fatalf("tenant %d, %d cores, %s: no rows on a fresh database", r.seed, r.cores, q.name)
			}
			want[i] = append(want[i], res.Rows)
		}
	}

	errs := make([][]string, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			db, err := open(r)
			if err != nil {
				errs[i] = append(errs[i], err.Error())
				return
			}
			sessions := []*Session{db.Session(), db.Session()}
			for round := 0; round < 3; round++ {
				// The round's three statements are all in flight before
				// any is collected, so they run side by side in the
				// engine and share its recycler.
				var pending []*Rows
				for qi, q := range queries {
					rows, err := sessions[(round+qi)%2].Query(q.text)
					if err != nil {
						errs[i] = append(errs[i], fmt.Sprintf("tenant %d, %d cores, %s: %v", r.seed, r.cores, q.name, err))
						return
					}
					pending = append(pending, rows)
				}
				for qi, rows := range pending {
					what := fmt.Sprintf("tenant %d, %d cores, round %d, %s", r.seed, r.cores, round, queries[qi].name)
					if res, err := rows.Collect(); err != nil {
						errs[i] = append(errs[i], fmt.Sprintf("%s: %v", what, err))
					} else if diff := sameTable(res.Rows, want[i][qi]); diff != "" {
						errs[i] = append(errs[i], fmt.Sprintf("%s: %s", what, diff))
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, e := range slices.Concat(errs...) {
		t.Error(e)
	}
}

// sameTable compares got with want row by row under sameValue, and
// describes the first difference.
func sameTable(got, want *table.Table) string {
	if got.Rows() != want.Rows() {
		return fmt.Sprintf("%d rows, a fresh database answers %d", got.Rows(), want.Rows())
	}
	for r := 0; r < got.Rows(); r++ {
		g, w := got.Slice(r, r+1).Row(0), want.Slice(r, r+1).Row(0)
		if !slices.EqualFunc(g, w, sameValue) {
			return fmt.Sprintf("row %d is %v, on a fresh database %v", r, g, w)
		}
	}
	return ""
}
