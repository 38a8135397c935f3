package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// goldenDir is where -update-golden writes and every run looks, relative
// to the directory the benchmark is run from (the repository root).
const goldenDir = "benchmarks/golden"

// golden is the committed reference for one (workload, seed): what every
// statement returned and what the model clock read.
type golden struct {
	Workload     string     `json:"workload"`
	Seed         int64      `json:"seed"`
	Model        modelClock `json:"model_clock"`
	Fingerprints []string   `json:"fingerprints"`
}

func goldenPath(workload string, seed int64) string {
	return filepath.Join(goldenDir, fmt.Sprintf("%s.seed%d.json", workload, seed))
}

// loadGolden returns nil, nil when no golden is committed for the seed.
func loadGolden(workload string, seed int64) (*golden, error) {
	data, err := os.ReadFile(goldenPath(workload, seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(workload, seed), err)
	}
	return &g, nil
}

func writeGolden(g *golden) error {
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(g.Workload, g.Seed), append(data, '\n'), 0o644)
}

// countFailed compares a repetition's outcomes with a reference list and
// returns how many statements are incorrect. An outcome is correct when
// it equals the reference. A deadline-bound statement may also miss its
// deadline where the reference met it, or meet it where the reference
// missed: which side of the deadline it lands on is the model clock's
// business (deadline_hit_rate), not the result's. An "error" outcome is
// never correct.
func countFailed(pl *plan, got, ref []string) (failed int, first string) {
	for i, fp := range got {
		ok := fp == ref[i] && fp != "error"
		if !ok && pl.Stmts[i].Budget > 0 && fp != "error" {
			ok = fp == "deadline" || ref[i] == "deadline"
		}
		if !ok {
			if failed == 0 {
				first = fmt.Sprintf("statement %d (%s): outcome %s, reference %s", i, pl.Stmts[i].Class, fp, ref[i])
			}
			failed++
		}
	}
	return failed, first
}
