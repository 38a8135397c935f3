//go:build !ee_invariants

package exec

import "energydb/internal/table"

// vecPoolInv is the release-build stand-in for the VecPool lifecycle
// checker: zero-size, and its hooks inline to nothing. Build with
// -tags ee_invariants for the checking version (invariants_on.go).
type vecPoolInv struct{}

func (*vecPoolInv) onPut(*table.Vector) {}
func (*vecPoolInv) onGet(*table.Vector) {}

// retire is the release-build stand-in for the scan-scratch poisoner: the
// next block simply overwrites the previous one in place.
func (*scanScratch) retire() {}

// poisonUnselected is the release-build stand-in for the late-column
// poisoner: cells outside the selection keep whatever they held.
func (*scanScratch) poisonUnselected(uint64, []int32) {}
