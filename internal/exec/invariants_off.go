//go:build !ee_invariants

package exec

// retire is the release-build stand-in for the scan-scratch poisoner: the
// next block simply overwrites the previous one in place.
func (*scanScratch) retire() {}

// retire is the same stand-in for a Prober's gather memory: the next batch
// is gathered over the previous one.
func (*Prober) retire() {}

// poisonUnselected is the release-build stand-in for the late-column
// poisoner: cells outside the selection keep whatever they held.
func (*scanScratch) poisonUnselected(uint64, []int32) {}
